"""Lloyd's K-means, the classic hard-clustering baseline.

Deliberately plain: distinct-pixel random initialization, alternating
nearest-center assignment and mean updates, stop when labels settle. No
k-means++ or acceleration tricks, so results reflect the textbook algorithm.
Assignment is ``core``'s blocked nearest-center pass: no (N, C) distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ClusterConfig,
    PixelDataset,
    _nearest,
    reseed_farthest,
    reseed_streak,
    sample_distinct_pixels,
    validate_config,
)


@dataclass(frozen=True)
class KmeansResult:
    """Final state of one Lloyd run; ``sse_trajectory`` has one entry per assignment.

    ``reseeded`` counts the empty clusters moved by ``reseed_farthest``.
    """

    centers: np.ndarray
    labels: np.ndarray
    sse_trajectory: np.ndarray
    iterations: int
    converged: bool
    reseeded: int = 0


_MAX_ITERS = 300


def run_kmeans(dataset: PixelDataset, config: ClusterConfig) -> KmeansResult:
    """Cluster the dataset into ``config.cluster_count`` groups with Lloyd's loop.

    Centers start at C pixels with distinct values drawn from the seeded
    generator. Empty clusters are re-seeded to the pixel farthest from its
    assigned center; if that recurs more than C times in a row the instance
    is declared degenerate (``reseed_streak``).
    """
    validate_config(config, dataset)
    rng = np.random.default_rng(config.seed)
    c = config.cluster_count
    centers = sample_distinct_pixels(dataset, c, rng)

    prev_labels: np.ndarray | None = None
    trajectory: list[float] = []
    converged = False
    streak = reseeded = 0

    for iteration in range(_MAX_ITERS + 1):
        labels, dist_to_assigned = _nearest(dataset, centers)
        trajectory.append(float(np.sum(dist_to_assigned)))
        # at the cap the labels are already aligned with the returned centers
        if iteration == _MAX_ITERS:
            break
        if prev_labels is not None and np.array_equal(labels, prev_labels):
            converged = True
            break
        prev_labels = labels

        counts = np.bincount(labels, minlength=c)
        empty = np.flatnonzero(counts == 0).tolist()
        new_centers = np.zeros_like(centers)
        if dataset.n_channels == 1:
            # a one-channel mean sums pairwise, so only the masked mean matches it
            for j in np.flatnonzero(counts):
                new_centers[j] = dataset.pixels[labels == j].mean(axis=0)
        else:
            # a mean over rows sums them in order, as bincount does
            sums = np.stack(
                [np.bincount(labels, weights=channel, minlength=c) for channel in dataset.pixels.T],
                axis=1,
            )
            np.divide(sums, counts[:, None], out=new_centers, where=counts[:, None] > 0)
        streak = reseed_streak(streak, empty, c, "empty")
        if empty:
            new_centers = reseed_farthest(dataset, new_centers, empty, dist_to_assigned)
            reseeded += len(empty)
        centers = new_centers

    centers = np.clip(centers, 0.0, 255.0)
    return KmeansResult(
        centers=centers,
        labels=labels,
        sse_trajectory=np.array(trajectory),
        iterations=len(trajectory),
        converged=converged,
        reseeded=reseeded,
    )
