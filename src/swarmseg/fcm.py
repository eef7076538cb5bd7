"""Fuzzy C-means: membership and center updates, objective, iterative loop.

The loop is plain alternating optimization: memberships are the closed-form
optimum for the current centers, centers the weighted-mean optimum for the
current memberships. Recording the objective once per alternation therefore
yields a non-increasing trajectory, which the tests rely on.

The public functions take and return (N, C) membership matrices. The loop
itself works on the channel-major (C, N) layout of the distance kernel, one
contiguous row per cluster. Minima, ``any`` and ``argmax`` across clusters
are exact in any order, so they are numpy's own, one pixel block at a time.
Each sum replays the order in which numpy sums the (N, C) layout
(``_cluster_sums``, ``_pixel_major_product_sum``,
``_weighted_channel_sums``), so both layouts give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_ZERO,
    PIXEL_BLOCK,
    ClusterConfig,
    DeadClusterError,
    DegenerateClusteringError,
    PixelDataset,
    channel_major_distances,
    min_squared_distances,
    reseed_farthest,
    squared_distances,
    validate_config,
)

# numpy's pairwise summation adds a run of at most this many elements with
# eight interleaved accumulators and splits a longer run in two.
_PAIRWISE_BLOCK = 128

# Longest run of the blocked J_m sum handed to one ``np.sum`` call.
_SUM_LEAF = 1 << 15


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
    """Closed-form optimal memberships for fixed centers, as an (N, C) array.

    u_ij is the reciprocal of sum_k (d_ij / d_ik)^(2/(m-1)) with d the
    Euclidean distance. Rows touching a center (distance below EPS_ZERO)
    become crisp: 1 on the first such center, 0 elsewhere. Distances are
    normalized by each row's minimum before exponentiation so large
    exponents cannot overflow. The result is the transpose of a (C, N)
    array.
    """
    if not fuzzifier > 1.0:
        raise ValueError("fuzzifier must be > 1")
    return _memberships(channel_major_distances(dataset.pixels, centers), fuzzifier).T


def _memberships(
    d2: np.ndarray, fuzzifier: float, out: np.ndarray | None = None
) -> np.ndarray:
    """(C, N) memberships from the (C, N) squared distances ``d2``, left unchanged.

    Bit for bit the transpose of the (N, C) formula: the minimum over the
    clusters is exact in any order, and the sum over them replays numpy's
    order (``_cluster_sums``). Works one block of ``PIXEL_BLOCK`` pixels at
    a time, in place in ``out`` (allocated when not given), so its other
    work arrays stay block-sized.
    """
    if out is None:
        out = np.empty_like(d2)
    for start in range(0, d2.shape[1], PIXEL_BLOCK):
        block = slice(start, start + PIXEL_BLOCK)
        _membership_block(d2[:, block], fuzzifier, out[:, block])
    return out


def _membership_block(d2: np.ndarray, fuzzifier: float, u: np.ndarray) -> None:
    """``_memberships`` of one (C, b) block, written into ``u``."""
    # Work on squared distances: (d_ij/d_ik)^(2/(m-1)) == (D_ij/D_ik)^(1/(m-1)).
    # Dividing each pixel's minimum by its entries keeps every ratio in (0, 1],
    # so large exponents underflow harmlessly instead of overflowing. ``**=``
    # takes the same scalar-exponent path (square, sqrt, copy) as ``**`` does.
    np.maximum(d2, EPS_ZERO**2, out=u)
    row = u.min(axis=0)
    np.divide(row, u, out=u)
    u **= 1.0 / (fuzzifier - 1.0)
    u /= _cluster_sums(u, out=row)

    crisp = np.flatnonzero((d2 < EPS_ZERO**2).any(axis=0))
    if crisp.size:
        first = np.argmax(d2[:, crisp] < EPS_ZERO**2, axis=0)
        u[:, crisp] = 0.0
        u[first, crisp] = 1.0


def _cluster_sums(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``rows.T.sum(axis=1)`` for (n, b) ``rows``, bit for bit, written into ``out``.

    numpy sums each contiguous length-n row of a (b, n) array with its
    pairwise summation, replayed here down the columns. Below 8 terms the
    sum is sequential. Up to ``_PAIRWISE_BLOCK`` terms, eight accumulators
    take every eighth term, are combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` and the remaining terms are added
    in order. A longer run is split at ``n2 = n//2 - (n//2) % 8``.
    """
    n = len(rows)
    if n < 8:
        np.copyto(out, rows[0])
        for row in rows[1:]:
            out += row
    elif n <= _PAIRWISE_BLOCK:
        body = n - n % 8
        acc = rows[:8].copy()
        for i in range(8, body, 8):
            acc += rows[i : i + 8]
        acc[0::2] += acc[1::2]
        acc[0::4] += acc[2::4]
        np.add(acc[0], acc[4], out=out)
        for row in rows[body:]:
            out += row
    else:
        half = n // 2 - (n // 2) % 8
        right = _cluster_sums(rows[half:], np.empty_like(out))
        _cluster_sums(rows[:half], out)
        out += right
    return out


def _pairwise_tree(start: int, length: int, leaf) -> float:
    """numpy's pairwise sum of a run, with ``leaf(start, length)`` summing short runs.

    The run is split where numpy splits it down to runs of at most
    ``_SUM_LEAF`` elements; ``np.sum`` over one of those equals numpy's
    subtree over it, so the result equals one ``np.sum`` over the whole run.
    """
    if length <= _SUM_LEAF:
        return leaf(start, length)
    half = length // 2 - (length // 2) % 8
    return _pairwise_tree(start, half, leaf) + _pairwise_tree(start + half, length - half, leaf)


def _pixel_major_product_sum(a: np.ndarray, b: np.ndarray) -> float:
    """``np.sum((a * b).T)`` for (C, N) ``a`` and ``b``, bit for bit, with no (N, C) copy.

    numpy sums a C-ordered (N, C) array as one flat pairwise run. Each leaf
    of that tree multiplies only the pixels it covers, transposed into a
    small (N, C)-ordered buffer; ``a`` and ``b`` are left unchanged.
    """
    c, n = a.shape
    buf = np.empty((min(n, _SUM_LEAF // c + 2), c))

    def leaf(start: int, length: int) -> float:
        first, stop = start // c, -(-(start + length) // c)
        block = buf[: stop - first]
        np.multiply(a[:, first:stop].T, b[:, first:stop].T, out=block)
        offset = start - first * c
        return np.sum(block.reshape(-1)[offset : offset + length])

    return float(_pairwise_tree(0, c * n, leaf))


def update_centers(
    dataset: PixelDataset, memberships: np.ndarray, fuzzifier: float
) -> np.ndarray:
    """Weighted-mean optimal centers for fixed (N, C) memberships.

    c_j = sum_i u_ij^m x_i / sum_i u_ij^m. Raises :class:`DeadClusterError`
    when some column's total weight underflows to zero; the iterative loop
    recovers from that, a direct caller cannot.
    """
    u = np.asarray(memberships, dtype=np.float64)
    if not fuzzifier > 1.0:
        raise ValueError("fuzzifier must be > 1")
    if u.shape[0] != dataset.n_pixels:
        raise ValueError("membership rows must match the pixel count")
    weights = np.array(u.T, dtype=np.float64, order="C")
    weights **= fuzzifier
    centers, dead = _update_centers_partial(dataset, weights)
    if dead:
        raise DeadClusterError(dead)
    return centers


def _update_centers_partial(
    dataset: PixelDataset, weights: np.ndarray
) -> tuple[np.ndarray, list[int]]:
    """Center update from the (C, N) weights u**m; reports dead clusters.

    Bit for bit ``np.sum(w[:, None] * pixels, axis=0) / np.sum(w)`` for each
    column w of the (N, C) weights. numpy sums a strided column pairwise,
    as it does the contiguous row used here. It sums axis 0 of the (N, d)
    product sequentially, one pixel after another, which
    ``_weighted_channel_sums`` replays; when d == 1 that axis is the array's
    only one and is summed pairwise instead. Dead centers are returned as
    zero rows; callers must overwrite them.
    """
    pixels = dataset.pixels
    c, d = weights.shape[0], pixels.shape[1]
    totals = np.array([np.sum(w) for w in weights])
    if d == 1:
        sums = np.array([[np.sum(w * pixels[:, 0])] for w in weights])
    else:
        sums = _weighted_channel_sums(weights, pixels)
    dead = totals <= 0.0
    centers = np.zeros((c, d), dtype=np.float64)
    centers[~dead] = sums[~dead] / totals[~dead, None]
    return centers, np.flatnonzero(dead).tolist()


def _weighted_channel_sums(weights: np.ndarray, pixels: np.ndarray) -> np.ndarray:
    """(C, d) sums of ``weights[j, i] * pixels[i, k]`` over pixels i, added in pixel order.

    Works one block of ``PIXEL_BLOCK`` pixels at a time: column 0 of each
    block's (C, d, b + 1) products holds the running sums so far, and an
    in-place cumulative sum along the pixels carries them on.
    """
    c, n = weights.shape
    cols = pixels.T
    width = min(n, PIXEL_BLOCK)
    terms = np.zeros((c, len(cols), width + 1))
    for start in range(0, n, PIXEL_BLOCK):
        b = min(n - start, PIXEL_BLOCK)
        block = slice(start, start + b)
        np.multiply(weights[:, None, block], cols[:, block], out=terms[:, :, 1 : b + 1])
        np.cumsum(terms[:, :, : b + 1], axis=2, out=terms[:, :, : b + 1])
        terms[:, :, 0] = terms[:, :, b]
    return terms[:, :, 0].copy()


def fcm_objective(
    dataset: PixelDataset,
    centers: np.ndarray,
    memberships: np.ndarray,
    fuzzifier: float,
) -> float:
    """Membership-weighted sum of squared pixel-to-center distances.

    ``memberships`` is (N, C); the sum runs over the (N, C) product in C
    order.
    """
    d2 = squared_distances(dataset.pixels, np.asarray(centers, dtype=np.float64))
    d2 *= np.asarray(memberships, dtype=np.float64) ** fuzzifier
    return float(np.sum(d2))


def _membership_step(
    dataset: PixelDataset,
    centers: np.ndarray,
    fuzzifier: float,
    work: list[np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """``(J_m, u**m)`` at ``centers``, both from one ``d2``.

    ``work`` holds two (C, N) arrays (allocated when not given): ``d2`` is
    written into the first and left there, ``u`` and then ``u**m`` into the
    second. J_m is ``fcm_objective`` at ``u`` bit for bit: the same
    products, summed in the (N, C) order.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if work is None:
        work = [np.empty((len(centers), dataset.n_pixels)) for _ in range(2)]
    d2, weights = work
    channel_major_distances(dataset.pixels, centers, d2)
    _memberships(d2, fuzzifier, weights)
    weights **= fuzzifier
    return _pixel_major_product_sum(d2, weights), weights


def _reseed_dead(
    dataset: PixelDataset, centers: np.ndarray, dead: list[int]
) -> np.ndarray:
    """Move dead centers onto the pixels farthest from the live centers.

    Membership rows sum to 1, so at least one cluster always survives; the
    dead ones (in index order) take the worst-covered pixels relative to the
    survivors, one pixel per center.
    """
    live = np.delete(centers, dead, axis=0)
    return reseed_farthest(dataset, centers, dead, min_squared_distances(dataset, live))


def run_fcm(
    dataset: PixelDataset, initial_centers: np.ndarray, config: ClusterConfig
) -> FcmResult:
    """Alternate membership and center updates from the given initial centers.

    Stops when the objective change falls within ``fcm_rel_tol`` relative to
    its previous value, or after ``fcm_max_iters`` alternations. Dead
    clusters are re-seeded to the farthest poorly-covered pixel; if recovery
    is needed in more than C consecutive alternations the instance is
    declared degenerate. The same two (C, N) arrays hold every
    alternation's distances and weights.
    """
    validate_config(config, dataset)
    centers = np.array(initial_centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] != config.cluster_count:
        raise ValueError(
            f"initial_centers must have shape ({config.cluster_count}, d)"
        )
    work = [np.empty((config.cluster_count, dataset.n_pixels)) for _ in range(2)]
    trajectory: list[float] = []
    converged = False
    consecutive_dead = 0

    for iteration in range(config.fcm_max_iters + 1):
        jm, weights = _membership_step(dataset, centers, config.fuzzifier, work)
        if trajectory:
            prev = trajectory[-1]
            converged = abs(prev - jm) <= config.fcm_rel_tol * max(prev, EPS_ZERO)
        trajectory.append(jm)
        if converged or iteration == config.fcm_max_iters:
            break
        centers, dead = _update_centers_partial(dataset, weights)
        if dead:
            consecutive_dead += 1
            if consecutive_dead > config.cluster_count:
                raise DegenerateClusteringError(
                    f"dead clusters recurred {consecutive_dead} times in a row"
                )
            centers = _reseed_dead(dataset, centers, dead)
        else:
            consecutive_dead = 0

    # the last step's d2 is still in work[0]; rebuild u from it for the labels,
    # one block at a time so argmax's (b, C) copy of its input stays small
    u = _memberships(work[0], config.fuzzifier, weights)
    labels = np.empty(dataset.n_pixels, dtype=np.intp)
    for start in range(0, dataset.n_pixels, PIXEL_BLOCK):
        block = slice(start, start + PIXEL_BLOCK)
        labels[block] = np.argmax(u[:, block], axis=0)
    centers = np.clip(centers, 0.0, 255.0)
    return FcmResult(
        centers=centers,
        labels=labels,
        jm_trajectory=np.array(trajectory),
        iterations=len(trajectory) - 1,
        converged=converged,
    )
