"""Fuzzy C-means: membership and center updates, objective, iterative loop.

The loop is plain alternating optimization: memberships are the closed-form
optimum for the current centers, centers the weighted-mean optimum for the
current memberships. Recording the objective once per alternation therefore
yields a non-increasing trajectory, which the tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_ZERO,
    ClusterConfig,
    DeadClusterError,
    DegenerateClusteringError,
    PixelDataset,
    reseed_farthest,
    squared_distances,
    validate_config,
)


@dataclass(frozen=True)
class FcmResult:
    """Converged state of one fuzzy C-means run.

    ``labels`` is the argmax of each membership row (lowest index on ties);
    ``jm_trajectory`` holds the objective value after every alternation,
    starting with the value at the initial centers. The (N, C) memberships
    are not kept: ``compute_memberships(dataset, centers, m)`` recomputes them.
    """

    centers: np.ndarray
    labels: np.ndarray
    jm_trajectory: np.ndarray
    iterations: int
    converged: bool


def compute_memberships(
    dataset: PixelDataset, centers: np.ndarray, fuzzifier: float
) -> np.ndarray:
    """Closed-form optimal memberships for fixed centers.

    u_ij is the reciprocal of sum_k (d_ij / d_ik)^(2/(m-1)) with d the
    Euclidean distance. Rows touching a center (distance below EPS_ZERO)
    become crisp: 1 on the first such center, 0 elsewhere. Distances are
    normalized by each row's minimum before exponentiation so large
    exponents cannot overflow.
    """
    if not fuzzifier > 1.0:
        raise ValueError("fuzzifier must be > 1")
    return _memberships(squared_distances(dataset.pixels, centers), fuzzifier)


def _memberships(d2: np.ndarray, fuzzifier: float) -> np.ndarray:
    """``compute_memberships`` from the (N, C) squared distances, left unchanged.

    Works in one (N, C) buffer besides ``d2``: each ufunc writes in place.
    """
    at_center = d2 < EPS_ZERO**2

    # Work on squared distances: (d_ij/d_ik)^(2/(m-1)) == (D_ij/D_ik)^(1/(m-1)).
    # Dividing each row's minimum by its entries keeps every ratio in (0, 1], so
    # large exponents underflow harmlessly instead of overflowing. ``**=`` takes
    # the same scalar-exponent path (square, sqrt, copy) as ``**`` does.
    u = np.maximum(d2, EPS_ZERO**2)
    np.divide(u.min(axis=1, keepdims=True), u, out=u)
    u **= 1.0 / (fuzzifier - 1.0)
    u /= u.sum(axis=1, keepdims=True)

    crisp_rows = np.where(at_center.any(axis=1))[0]
    if crisp_rows.size:
        u[crisp_rows] = 0.0
        first = np.argmax(at_center[crisp_rows], axis=1)
        u[crisp_rows, first] = 1.0
    return u


def update_centers(
    dataset: PixelDataset, memberships: np.ndarray, fuzzifier: float
) -> np.ndarray:
    """Weighted-mean optimal centers for fixed memberships.

    c_j = sum_i u_ij^m x_i / sum_i u_ij^m. Raises :class:`DeadClusterError`
    when some column's total weight underflows to zero; the iterative loop
    recovers from that, a direct caller cannot.
    """
    u = np.asarray(memberships, dtype=np.float64)
    if not fuzzifier > 1.0:
        raise ValueError("fuzzifier must be > 1")
    if u.shape[0] != dataset.n_pixels:
        raise ValueError("membership rows must match the pixel count")
    centers, dead = _update_centers_partial(dataset, u**fuzzifier)
    if dead:
        raise DeadClusterError(dead)
    return centers


def _update_centers_partial(
    dataset: PixelDataset, weights: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Center update from the (N, C) weights u**m; reports dead clusters.

    Dead centers are returned as zero rows; callers must overwrite them.
    """
    c = weights.shape[1]
    d = dataset.n_channels
    centers = np.zeros((c, d), dtype=np.float64)
    dead: list[int] = []
    for j in range(c):
        w = weights[:, j]
        total = np.sum(w)
        if total <= 0.0:
            dead.append(j)
            continue
        centers[j] = np.sum(w[:, None] * dataset.pixels, axis=0) / total
    return centers, dead


def fcm_objective(
    dataset: PixelDataset,
    centers: np.ndarray,
    memberships: np.ndarray,
    fuzzifier: float,
) -> float:
    """Membership-weighted sum of squared pixel-to-center distances."""
    d2 = squared_distances(dataset.pixels, np.asarray(centers, dtype=np.float64))
    d2 *= np.asarray(memberships, dtype=np.float64) ** fuzzifier
    return float(np.sum(d2))


def _membership_step(
    dataset: PixelDataset, centers: np.ndarray, fuzzifier: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """``(J_m, u, u**m)`` at ``centers``, all three from one ``d2``."""
    d2 = squared_distances(dataset.pixels, centers)
    u = _memberships(d2, fuzzifier)
    weights = u**fuzzifier
    d2 *= weights  # the same product and sum as fcm_objective, bit for bit
    return float(np.sum(d2)), u, weights


def _reseed_dead(
    dataset: PixelDataset, centers: np.ndarray, dead: list[int]
) -> np.ndarray:
    """Move dead centers onto the pixels farthest from the live centers.

    Membership rows sum to 1, so at least one cluster always survives; the
    dead ones (in index order) take the worst-covered pixels relative to the
    survivors, one pixel per center.
    """
    live = np.delete(centers, dead, axis=0)
    d2 = squared_distances(dataset.pixels, live)
    return reseed_farthest(dataset, centers, dead, d2.min(axis=1))


def run_fcm(
    dataset: PixelDataset, initial_centers: np.ndarray, config: ClusterConfig
) -> FcmResult:
    """Alternate membership and center updates from the given initial centers.

    Stops when the objective change falls within ``fcm_rel_tol`` relative to
    its previous value, or after ``fcm_max_iters`` alternations. Dead
    clusters are re-seeded to the farthest poorly-covered pixel; if recovery
    is needed in more than C consecutive alternations the instance is
    declared degenerate.
    """
    validate_config(config, dataset)
    centers = np.array(initial_centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] != config.cluster_count:
        raise ValueError(
            f"initial_centers must have shape ({config.cluster_count}, d)"
        )
    trajectory: list[float] = []
    converged = False
    consecutive_dead = 0

    for iteration in range(config.fcm_max_iters + 1):
        jm, u, weights = _membership_step(dataset, centers, config.fuzzifier)
        if trajectory:
            prev = trajectory[-1]
            converged = abs(prev - jm) <= config.fcm_rel_tol * max(prev, EPS_ZERO)
        trajectory.append(jm)
        if converged or iteration == config.fcm_max_iters:
            break
        centers, dead = _update_centers_partial(dataset, weights)
        # drop both (N, C) arrays before the next alternation allocates its d2
        del u, weights
        if dead:
            consecutive_dead += 1
            if consecutive_dead > config.cluster_count:
                raise DegenerateClusteringError(
                    f"dead clusters recurred {consecutive_dead} times in a row"
                )
            centers = _reseed_dead(dataset, centers, dead)
        else:
            consecutive_dead = 0

    centers = np.clip(centers, 0.0, 255.0)
    return FcmResult(
        centers=centers,
        labels=np.argmax(u, axis=1),
        jm_trajectory=np.array(trajectory),
        iterations=len(trajectory) - 1,
        converged=converged,
    )
