"""Cross-algorithm comparison metrics and JSON reports.

Different engines optimize different objectives (fuzzy objective vs. sum
of squared errors), so reports never copy engine-internal numbers.
Instead every algorithm's final centers are re-scored with the same fuzzy
objective at optimal memberships (``evaluate_jm``), and pairs of scores
are normalized by their mean so each pair sums to exactly 2. A pair like
(1.16, 0.84) then reads directly as "second algorithm 16% better".
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import PixelDataset, check_fuzzifier
from .fcm import _Sweep
from .pipeline import SegmentationResult


class UndefinedNormalizationError(ValueError):
    """Both objective values are zero, so their ratio pair is undefined."""


@dataclass(frozen=True)
class AlgorithmEntry:
    """One algorithm's scored outcome: canonical objective and run cost."""

    name: str
    final_jm: float
    iterations: int
    wall_time: float
    seed: int


@dataclass(frozen=True)
class NormalizedPair:
    """Two algorithm names with their mean-normalized objective values."""

    a: str
    b: str
    norm_a: float
    norm_b: float


@dataclass(frozen=True)
class ComparisonReport:
    """Per-image comparison: one entry per algorithm plus normalized pairs."""

    image: str
    seed: int
    entries: tuple[AlgorithmEntry, ...]
    normalized: tuple[NormalizedPair, ...]


def normalized_jm_pair(jm_a: float, jm_b: float) -> tuple[float, float]:
    """Divide both values by their mean; the outputs always sum to 2.

    Raises UndefinedNormalizationError when both inputs are zero and
    ValueError when either is negative or not finite.
    """
    if not (0.0 <= jm_a < math.inf and 0.0 <= jm_b < math.inf):
        raise ValueError(f"objective values must be finite and non-negative, got {jm_a}, {jm_b}")
    avg = (jm_a + jm_b) / 2.0
    if avg == 0.0:
        raise UndefinedNormalizationError(
            "cannot normalize a pair of zero objective values"
        )
    return jm_a / avg, jm_b / avg


def evaluate_jm(
    dataset: PixelDataset, centers: np.ndarray, fuzzifier: float = 2.0
) -> float:
    """Fuzzy objective of a center set at its own optimal memberships.

    This is the single metric used to compare algorithms, including ones
    (like k-means) that never computed memberships themselves. A fuzzifier
    outside (1, inf) raises ``InvalidFuzzifierError``.
    """
    check_fuzzifier(fuzzifier)
    centers = np.asarray(centers, dtype=np.float64)
    return _Sweep(dataset, len(centers), fuzzifier).objective(centers)


def build_report(
    dataset: PixelDataset,
    results: Sequence[SegmentationResult],
    pairings: Sequence[tuple[str, str]] = (),
    *,
    image: str = "",
    fuzzifier: float = 2.0,
) -> ComparisonReport:
    """Score every result with evaluate_jm and normalize the requested pairs.

    Pairing names must match result algorithm names; unknown names, a
    repeated algorithm or results of different seeds raise ValueError.
    """
    if not results:
        raise ValueError("build_report needs at least one result")
    if len({r.algorithm for r in results}) < len(results) or len({r.seed for r in results}) > 1:
        raise ValueError("results must name each algorithm once and share one seed")
    entries = tuple(
        AlgorithmEntry(
            name=r.algorithm,
            final_jm=evaluate_jm(dataset, r.centers, fuzzifier),
            iterations=r.iterations,
            wall_time=r.wall_time,
            seed=r.seed,
        )
        for r in results
    )
    jm_by_name = {e.name: e.final_jm for e in entries}
    normalized = []
    for name_a, name_b in pairings:
        for name in (name_a, name_b):
            if name not in jm_by_name:
                raise ValueError(f"pairing references unknown algorithm {name!r}")
        norm_a, norm_b = normalized_jm_pair(jm_by_name[name_a], jm_by_name[name_b])
        normalized.append(
            NormalizedPair(a=name_a, b=name_b, norm_a=norm_a, norm_b=norm_b)
        )
    return ComparisonReport(
        image=image,
        seed=results[0].seed,
        entries=entries,
        normalized=tuple(normalized),
    )


def dump_json(document: dict) -> str:
    """Serialize a report document with a stable layout (trailing newline)."""
    return json.dumps(document, indent=2) + "\n"


def report_to_json(report: ComparisonReport) -> str:
    """Render a ComparisonReport in the published JSON schema."""
    document = {
        "image": report.image,
        "seed": report.seed,
        "algorithms": [
            {
                "name": e.name,
                "final_jm": e.final_jm,
                "iterations": e.iterations,
                "wall_time_ms": e.wall_time * 1000.0,
            }
            for e in report.entries
        ],
        "normalized": [
            {"a": p.a, "b": p.b, "norm_a": p.norm_a, "norm_b": p.norm_b}
            for p in report.normalized
        ],
    }
    return dump_json(document)


def aggregate_reports(reports: Sequence[ComparisonReport]) -> dict:
    """Reduce per-seed reports to mean/min/max objectives and win rates.

    A win is a strictly lowest objective among all algorithms for one
    seed; ties award nothing, so win rates sum to 1.0 exactly when no seed
    ends in a tie. Wall times are deliberately omitted so the aggregate is
    byte-for-byte repeatable. Reports of different images, algorithms or
    pairings raise ValueError.
    """
    if not reports:
        raise ValueError("aggregate_reports needs at least one report")
    names = [e.name for e in reports[0].entries]
    pairings = [(p.a, p.b) for p in reports[0].normalized]
    for r in reports:
        if r.image != reports[0].image:
            raise ValueError("all reports must cover the same image")
        if [e.name for e in r.entries] != names:
            raise ValueError("all reports must cover the same algorithms")
        if [(p.a, p.b) for p in r.normalized] != pairings:
            raise ValueError("all reports must cover the same pairings")

    values = {name: [] for name in names}
    wins = {name: 0 for name in names}
    for r in reports:
        for e in r.entries:
            values[e.name].append(e.final_jm)
        best = min(e.final_jm for e in r.entries)
        leaders = [e.name for e in r.entries if e.final_jm == best]
        if len(leaders) == 1:
            wins[leaders[0]] += 1

    n = len(reports)
    return {
        "image": reports[0].image,
        "seeds": [r.seed for r in reports],
        "algorithms": [
            {
                "name": name,
                "mean_jm": sum(values[name]) / n,
                "min_jm": min(values[name]),
                "max_jm": max(values[name]),
                "win_rate": wins[name] / n,
            }
            for name in names
        ],
        "normalized": [
            {
                "a": a,
                "b": b,
                "mean_norm_a": sum(r.normalized[i].norm_a for r in reports) / n,
                "mean_norm_b": sum(r.normalized[i].norm_b for r in reports) / n,
            }
            for i, (a, b) in enumerate(pairings)
        ],
    }
