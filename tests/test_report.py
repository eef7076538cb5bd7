"""Canonical cross-algorithm scoring, normalization, and JSON rendering."""

import json
from dataclasses import replace

import numpy as np
import pytest

from swarmseg.core import PIXEL_BLOCK, ClusterConfig, PixelDataset
from swarmseg.fcm import compute_memberships, fcm_objective
from swarmseg.pipeline import SegmentationResult, run_algorithm
from swarmseg.report import (
    AlgorithmEntry,
    ComparisonReport,
    NormalizedPair,
    UndefinedNormalizationError,
    aggregate_reports,
    build_report,
    dump_json,
    evaluate_jm,
    normalized_jm_pair,
    report_to_json,
)
from swarmseg.swarm import SwarmConfig


def scalar_dataset(values):
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return PixelDataset(pixels=arr, width=len(values), height=1)


def test_normalized_pair_oracles():
    assert normalized_jm_pair(1.1638, 0.8362) == (1.1638, 0.8362)
    assert normalized_jm_pair(5.0, 5.0) == (1.0, 1.0)
    assert normalized_jm_pair(2.0, 6.0) == (0.5, 1.5)
    norm_a, norm_b = normalized_jm_pair(2.0, 1.0)
    assert abs(norm_a - 4.0 / 3.0) <= 1e-12
    assert abs(norm_b - 2.0 / 3.0) <= 1e-12


def test_normalized_pair_sums_to_two():
    rng = np.random.default_rng(13)
    for _ in range(500):
        a = float(rng.uniform(0, 1e6))
        b = float(rng.uniform(0, 1e6))
        if a + b == 0.0:
            continue
        norm_a, norm_b = normalized_jm_pair(a, b)
        assert abs((norm_a + norm_b) - 2.0) <= 1e-12


def test_normalized_pair_scale_invariance():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = float(rng.uniform(0.1, 100.0))
        b = float(rng.uniform(0.1, 100.0))
        k = float(rng.uniform(0.01, 1000.0))
        base = normalized_jm_pair(a, b)
        scaled = normalized_jm_pair(k * a, k * b)
        assert abs(base[0] - scaled[0]) <= 1e-12 * max(abs(base[0]), 1.0)
        assert abs(base[1] - scaled[1]) <= 1e-12 * max(abs(base[1]), 1.0)


def test_normalized_pair_zero_pair_is_undefined():
    with pytest.raises(UndefinedNormalizationError):
        normalized_jm_pair(0.0, 0.0)
    # one-sided zero is fine
    assert normalized_jm_pair(0.0, 4.0) == (0.0, 2.0)


def test_normalized_pair_rejects_negatives():
    with pytest.raises(ValueError):
        normalized_jm_pair(-1.0, 4.0)
    with pytest.raises(ValueError):
        normalized_jm_pair(1.0, -4.0)


@pytest.mark.parametrize(
    "a, b", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (np.inf, np.inf)]
)
def test_normalized_pair_rejects_non_finite_values(a, b):
    # the pair would reach the report as NaN or Infinity, which is not JSON
    with pytest.raises(ValueError, match="must be finite"):
        normalized_jm_pair(a, b)


def test_evaluate_jm_oracle():
    ds = scalar_dataset([0.0])
    assert abs(evaluate_jm(ds, np.array([[1.0], [3.0]])) - 0.9) <= 1e-12


def test_evaluate_jm_zero_when_centers_cover_values():
    ds = scalar_dataset([4.0, 4.0, 9.0])
    assert evaluate_jm(ds, np.array([[4.0], [9.0]])) == 0.0


def test_evaluate_jm_center_order_does_not_matter():
    rng = np.random.default_rng(15)
    px = rng.uniform(0, 255, (40, 3))
    ds = PixelDataset(pixels=px, width=40, height=1)
    centers = rng.uniform(0, 255, (4, 3))
    base = evaluate_jm(ds, centers)
    for _ in range(10):
        perm = rng.permutation(4)
        shuffled = evaluate_jm(ds, centers[perm])
        assert abs(shuffled - base) <= 1e-9 * max(base, 1.0)


@pytest.mark.parametrize("n", [PIXEL_BLOCK - 1, PIXEL_BLOCK + 1, 2 * PIXEL_BLOCK + 37])
@pytest.mark.parametrize("fuzzifier", [1.5, 2.0, 3.0])
def test_evaluate_jm_matches_objective_at_memberships_bitwise(n, fuzzifier):
    rng = np.random.default_rng(n)
    px = np.round(rng.uniform(0, 255, (n, 3)))
    ds = PixelDataset(pixels=px, width=n, height=1)
    for c in range(1, 10):
        centers = rng.uniform(0, 255, (c, 3))
        # a center on a pixel makes that pixel's membership row crisp
        centers[-1] = px[int(rng.integers(n))]
        want = fcm_objective(ds, centers, compute_memberships(ds, centers, fuzzifier), fuzzifier)
        assert evaluate_jm(ds, centers, fuzzifier) == want


@pytest.mark.parametrize("fuzzifier", [1.0, 0.5])
def test_evaluate_jm_rejects_fuzzifier_at_most_one(fuzzifier):
    with pytest.raises(ValueError):
        evaluate_jm(scalar_dataset([0.0, 1.0]), np.array([[0.0]]), fuzzifier)


def fake_result(name, centers, seed=0):
    centers = np.asarray(centers, dtype=np.float64)
    return SegmentationResult(
        algorithm=name,
        centers=centers,
        labels=np.zeros(1, dtype=np.int64),
        final_jm=-1.0,  # deliberately wrong: reports must not copy it
        iterations=7,
        wall_time=0.25,
        seed=seed,
    )


def test_build_report_rescores_from_centers():
    ds = scalar_dataset([0.0])
    report = build_report(
        ds,
        [fake_result("fcm", [[1.0], [3.0]], seed=5)],
        image="toy.ppm",
    )
    assert report.image == "toy.ppm"
    assert report.seed == 5
    entry = report.entries[0]
    assert entry.name == "fcm"
    assert abs(entry.final_jm - 0.9) <= 1e-12
    assert entry.iterations == 7
    assert entry.wall_time == 0.25


def test_build_report_normalizes_requested_pairs():
    ds = scalar_dataset([0.0])
    report = build_report(
        ds,
        [
            fake_result("fcm", [[1.0], [3.0]]),
            fake_result("apsof", [[1.0], [3.0]]),
        ],
        pairings=[("fcm", "apsof")],
    )
    pair = report.normalized[0]
    assert (pair.a, pair.b) == ("fcm", "apsof")
    assert pair.norm_a == 1.0 and pair.norm_b == 1.0


def test_build_report_rejects_unknown_pairing():
    ds = scalar_dataset([0.0])
    with pytest.raises(ValueError):
        build_report(
            ds,
            [fake_result("fcm", [[1.0]])],
            pairings=[("fcm", "zebra")],
        )


def test_build_report_needs_results():
    ds = scalar_dataset([0.0])
    with pytest.raises(ValueError):
        build_report(ds, [])


def test_build_report_rejects_a_repeated_algorithm():
    # two "fcm" entries would later aggregate to a mean above their max
    result = fake_result("fcm", [[1.0], [3.0]])
    with pytest.raises(ValueError, match="each algorithm once"):
        build_report(scalar_dataset([0.0]), [result, result])


def test_build_report_rejects_results_of_different_seeds():
    # the report would carry the first result's seed only
    results = [fake_result("fcm", [[1.0]], seed=0), fake_result("apsof", [[1.0]], seed=1)]
    with pytest.raises(ValueError, match="share one seed"):
        build_report(scalar_dataset([0.0]), results)


def test_json_schema():
    ds = scalar_dataset([0.0])
    report = build_report(
        ds,
        [
            fake_result("fcm", [[1.0], [3.0]], seed=3),
            fake_result("apsof", [[1.0], [3.0]], seed=3),
        ],
        pairings=[("fcm", "apsof")],
        image="img.ppm",
    )
    text = report_to_json(report)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert set(doc) == {"image", "seed", "algorithms", "normalized"}
    assert doc["image"] == "img.ppm"
    assert doc["seed"] == 3
    for entry in doc["algorithms"]:
        assert set(entry) == {"name", "final_jm", "iterations", "wall_time_ms"}
    assert doc["algorithms"][0]["wall_time_ms"] == 250.0
    for pair in doc["normalized"]:
        assert set(pair) == {"a", "b", "norm_a", "norm_b"}


def test_dump_json_is_stable():
    assert dump_json({"b": 1, "a": 2}) == '{\n  "b": 1,\n  "a": 2\n}\n'


def manual_report(seed, jm_by_name, image="img"):
    entries = tuple(
        AlgorithmEntry(name=k, final_jm=v, iterations=1, wall_time=0.0, seed=seed)
        for k, v in jm_by_name.items()
    )
    names = list(jm_by_name)
    norm = normalized_jm_pair(jm_by_name[names[0]], jm_by_name[names[1]])
    return ComparisonReport(
        image=image,
        seed=seed,
        entries=entries,
        normalized=(
            NormalizedPair(a=names[0], b=names[1], norm_a=norm[0], norm_b=norm[1]),
        ),
    )


def test_aggregate_counts_strict_wins():
    reports = [
        manual_report(0, {"fcm": 2.0, "apsof": 1.0}),
        manual_report(1, {"fcm": 4.0, "apsof": 2.0}),
        manual_report(2, {"fcm": 1.0, "apsof": 3.0}),
    ]
    agg = aggregate_reports(reports)
    assert agg["seeds"] == [0, 1, 2]
    by_name = {a["name"]: a for a in agg["algorithms"]}
    assert by_name["fcm"]["win_rate"] == 1.0 / 3.0
    assert by_name["apsof"]["win_rate"] == 2.0 / 3.0
    assert by_name["fcm"]["mean_jm"] == (2.0 + 4.0 + 1.0) / 3.0
    assert by_name["fcm"]["min_jm"] == 1.0
    assert by_name["fcm"]["max_jm"] == 4.0
    assert sum(a["win_rate"] for a in agg["algorithms"]) == 1.0


def test_aggregate_ties_award_no_win():
    reports = [
        manual_report(0, {"fcm": 2.0, "apsof": 2.0}),
        manual_report(1, {"fcm": 1.0, "apsof": 2.0}),
    ]
    agg = aggregate_reports(reports)
    by_name = {a["name"]: a for a in agg["algorithms"]}
    assert by_name["fcm"]["win_rate"] == 0.5
    assert by_name["apsof"]["win_rate"] == 0.0


def test_aggregate_means_normalized_pairs():
    reports = [
        manual_report(0, {"fcm": 2.0, "apsof": 6.0}),  # (0.5, 1.5)
        manual_report(1, {"fcm": 6.0, "apsof": 2.0}),  # (1.5, 0.5)
    ]
    agg = aggregate_reports(reports)
    pair = agg["normalized"][0]
    assert pair["mean_norm_a"] == 1.0
    assert pair["mean_norm_b"] == 1.0


def test_aggregate_rejects_mismatched_rosters():
    a = manual_report(0, {"fcm": 2.0, "apsof": 1.0})
    b = manual_report(1, {"kmeans": 2.0, "apsof": 1.0})
    with pytest.raises(ValueError):
        aggregate_reports([a, b])
    with pytest.raises(ValueError):
        aggregate_reports([])


def test_aggregate_rejects_reports_of_different_images():
    # averaged under the first report's image otherwise
    a = manual_report(0, {"fcm": 2.0, "apsof": 1.0}, image="")
    b = manual_report(1, {"fcm": 2.0, "apsof": 1.0}, image="other")
    with pytest.raises(ValueError, match="all reports must cover the same image"):
        aggregate_reports([a, b])


@pytest.mark.parametrize("unpaired_first", [False, True], ids=["paired-first", "unpaired-first"])
def test_aggregate_rejects_mismatched_pairings(unpaired_first):
    paired = manual_report(0, {"fcm": 2.0, "apsof": 6.0})  # (0.5, 1.5)
    unpaired = replace(manual_report(1, {"fcm": 2.0, "apsof": 6.0}), normalized=())
    reports = [unpaired, paired] if unpaired_first else [paired, unpaired]
    with pytest.raises(ValueError, match="all reports must cover the same pairings"):
        aggregate_reports(reports)
    swapped = replace(unpaired, normalized=(NormalizedPair("apsof", "fcm", 1.5, 0.5),))
    with pytest.raises(ValueError, match="all reports must cover the same pairings"):
        aggregate_reports([paired, swapped])


def test_report_round_trip_on_real_runs():
    ds = scalar_dataset([0.0, 1.0, 9.0, 10.0])
    config = ClusterConfig(cluster_count=2, seed=0)
    sconfig = SwarmConfig(swarm_size=6, n_max=15)
    results = [
        run_algorithm("fcm", ds, config, sconfig),
        run_algorithm("apsof", ds, config, sconfig),
    ]
    report = build_report(ds, results, pairings=[("fcm", "apsof")])
    for entry, result in zip(report.entries, results):
        assert entry.final_jm == evaluate_jm(ds, result.centers)
    pair = report.normalized[0]
    assert abs((pair.norm_a + pair.norm_b) - 2.0) <= 1e-12
