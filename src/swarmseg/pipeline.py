"""End-to-end segmentation runs under a single interface.

Four algorithms, one entry point:

* ``kmeans`` — Lloyd's algorithm on the pixel cloud,
* ``fcm`` — fuzzy c-means from randomly sampled distinct pixels,
* ``psofcm`` — classic constant-coefficient particle swarm (the swarm on
  ``CLASSIC_SCHEDULE``), best centers handed to fuzzy c-means,
* ``apsof`` — adaptive particle swarm (fitness-driven inertia, scheduled
  learning factors), best centers handed to fuzzy c-means.

All four consume the seed the same way: a fresh generator built from
``config.seed`` at the start of the run, so results are reproducible and
directly comparable across algorithms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .core import ClusterConfig, PixelDataset, sample_distinct_pixels, validate_config
from .fcm import FcmResult, run_fcm
from .kmeans import KmeansResult, run_kmeans
from .swarm import CLASSIC_SCHEDULE, SwarmConfig, SwarmHistory, run_swarm

ALGORITHMS = ("kmeans", "fcm", "psofcm", "apsof")


@dataclass(frozen=True)
class SegmentationResult:
    """Outcome of one algorithm on one dataset.

    ``final_jm`` is the engine's own objective at convergence: the fuzzy
    objective for the c-means family, the sum of squared errors for
    k-means. Cross-algorithm comparisons should recompute a common metric
    from ``centers`` instead of mixing these. ``iterations`` counts all
    optimizer rounds executed (swarm iterations plus c-means alternations
    for the seeded pipelines). The engines' own results ride along:
    ``swarm_history`` and ``fcm_result`` for the c-means family,
    ``kmeans_result`` (its SSE trajectory and ``converged`` flag) for k-means.
    """

    algorithm: str
    centers: np.ndarray
    labels: np.ndarray
    final_jm: float
    iterations: int
    wall_time: float
    seed: int
    swarm_history: SwarmHistory | None = None
    fcm_result: FcmResult | None = None
    kmeans_result: KmeansResult | None = None


def run_apsof(
    dataset: PixelDataset,
    config: ClusterConfig,
    sconfig: SwarmConfig | None = None,
) -> SegmentationResult:
    """Adaptive swarm search followed by fuzzy c-means refinement.

    The swarm's best center set becomes the c-means starting point, so the
    final objective can only match or improve on the swarm's answer.
    """
    return run_algorithm("apsof", dataset, config, sconfig)


def run_algorithm(
    name: str,
    dataset: PixelDataset,
    config: ClusterConfig,
    sconfig: SwarmConfig | None = None,
) -> SegmentationResult:
    """Run one named algorithm; all share the same seed semantics.

    apsof runs the swarm on ``sconfig`` as given; psofcm replaces its
    inertia and learning-factor schedules with ``CLASSIC_SCHEDULE``.
    """
    if name not in ALGORITHMS:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of {', '.join(ALGORITHMS)}"
        )
    sconfig = SwarmConfig() if sconfig is None else sconfig
    history = fcm_result = kmeans_result = None

    start = time.perf_counter()
    if name == "kmeans":
        result = kmeans_result = run_kmeans(dataset, config)
        final_jm, iterations = result.sse_trajectory[-1], result.iterations
    else:
        if name == "fcm":
            # checked before sampling, so every engine reports too many clusters alike
            validate_config(config, dataset)
            rng = np.random.default_rng(config.seed)
            initial = sample_distinct_pixels(dataset, config.cluster_count, rng)
        else:
            if name == "psofcm":
                sconfig = replace(sconfig, **CLASSIC_SCHEDULE)
            initial, history = run_swarm(dataset, config, sconfig)
        result = fcm_result = run_fcm(dataset, initial, config)
        final_jm, iterations = result.jm_trajectory[-1], result.iterations
        if history is not None:
            iterations += history.iterations
    elapsed = time.perf_counter() - start

    return SegmentationResult(
        algorithm=name,
        centers=result.centers,
        labels=result.labels,
        final_jm=final_jm,
        iterations=iterations,
        wall_time=elapsed,
        seed=config.seed,
        swarm_history=history,
        fcm_result=fcm_result,
        kmeans_result=kmeans_result,
    )
