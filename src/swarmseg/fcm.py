"""Fuzzy C-means: membership and center updates, objective, iterative loop.

The loop is plain alternating optimization: memberships are the closed-form
optimum for the current centers, centers the weighted-mean optimum for the
current memberships. Recording the objective once per alternation therefore
yields a non-increasing trajectory, which the tests rely on.

The public functions take and return (N, C) membership matrices. The loop
makes one pass over the pixel blocks per alternation (``_Sweep``): each
channel-major (C, b) block of the distance kernel, one contiguous row per
cluster, becomes memberships, weights u**m and its share of J_m and of the
center sums before the next block is read, so the loop holds no array of
N·C values. Minima and ``any`` across clusters are exact in any order and
numpy's own; the labels come from ``core._first_best``, ties to the lowest index.
Each sum replays the order in which numpy sums the whole (N, C) arrays
(``_cluster_sums``, ``_StreamedSum``, ``_CenterSums``), so the blocks give
the same bits. The center numerators' running sums are carried by
``np.einsum``'s one-accumulator loop over a strided view, not a cumulative
sum: over a contiguous one einsum unrolls into several accumulators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EPS_ZERO,
    PIXEL_BLOCK,
    ClusterConfig,
    DeadClusterError,
    PixelDataset,
    _aligned_empty,
    _distance_blocks,
    _first_best,
    check_fuzzifier,
    min_squared_distances,
    reseed_farthest,
    reseed_streak,
    squared_distances,
    validate_config,
)

# numpy's pairwise summation adds a run of at most this many elements with
# eight interleaved accumulators and splits a longer run in two.
_PAIRWISE_BLOCK = 128

# Longest run of a streamed pairwise sum handed to one ``np.sum`` call (a leaf).
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
    array, filled one ``_Sweep`` block at a time. A fuzzifier outside
    (1, inf) raises ``InvalidFuzzifierError``.
    """
    check_fuzzifier(fuzzifier)
    centers = np.asarray(centers, dtype=np.float64)
    out = np.empty((len(centers), dataset.n_pixels))
    for start, _, u in _Sweep(dataset, len(centers), fuzzifier).memberships(centers):
        out[:, start : start + u.shape[1]] = u
    return out.T


def _membership_block(d2: np.ndarray, fuzzifier: float, u: np.ndarray) -> None:
    """(C, b) memberships from the (C, b) squared distances ``d2``, written into ``u``.

    Bit for bit the transpose of the (N, C) formula: the minimum over the
    clusters is exact in any order, and the sum over them replays numpy's
    order (``_cluster_sums``). ``d2`` is left unchanged.
    """
    # Work on squared distances: (d_ij/d_ik)^(2/(m-1)) == (D_ij/D_ik)^(1/(m-1)).
    # Dividing each pixel's minimum by its entries keeps every ratio in (0, 1],
    # so large exponents underflow harmlessly instead of overflowing. ``**=``
    # takes the same scalar-exponent path (square, sqrt, copy) as ``**`` does,
    # and is skipped at exponent 1 (m = 2), where x**1.0 is x.
    np.maximum(d2, EPS_ZERO**2, out=u)
    row = u.min(axis=0)
    # each entry is max(min_j d2, EPS²): above EPS², the block has no crisp pixel
    nearest = row.min()
    np.divide(row, u, out=u)
    if (exponent := 1.0 / (fuzzifier - 1.0)) != 1.0:
        u **= exponent
    u /= _cluster_sums(u, out=row)
    if nearest > EPS_ZERO**2:
        return

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


def _pairwise_tree(length: int, leaf):
    """numpy's pairwise sum of a run of ``length`` values, ``leaf(size)`` giving each leaf.

    The run is split where numpy splits it down to runs of at most
    ``_SUM_LEAF`` elements, and ``leaf`` is called on them left to right.
    ``np.sum`` over one of those equals numpy's subtree over it, so adding
    the leaves' sums here equals one ``np.sum`` over the whole run. With
    ``leaf=lambda size: [size]`` the result is the list of leaf sizes.
    """
    if length <= _SUM_LEAF:
        return leaf(length)
    half = length // 2 - (length // 2) % 8
    return _pairwise_tree(half, leaf) + _pairwise_tree(length - half, leaf)


class _StreamedSum:
    """``np.sum`` of each of ``rows`` runs of ``length`` values that arrive in chunks.

    ``feed`` takes the next values of every row. Each leaf of the pairwise
    tree is summed with ``np.sum`` as soon as all its values have arrived:
    in place when one chunk holds all of it, otherwise from a pending
    buffer that keeps only the leaf in progress. ``total`` then adds the
    leaf sums as numpy does, so each row's sum is ``np.sum`` of the row bit
    for bit. The leaves are cut once, and ``reset`` starts a new pass.
    """

    def __init__(self, rows: int, length: int):
        self.rows, self.length = rows, length
        self.leaves = _pairwise_tree(length, lambda size: [size])
        self.pending: np.ndarray | None = None
        self.reset()

    def reset(self) -> None:
        self.sums: list[np.ndarray] = []
        self.filled = 0

    def feed(self, chunk: np.ndarray) -> None:
        """Take the next ``chunk.shape[1]`` values of every row, given as (rows, b)."""
        at, end = 0, chunk.shape[1]
        while at < end:
            size = self.leaves[len(self.sums)]
            take = min(end - at, size - self.filled)
            part = chunk[:, at : at + take]
            at += take
            if take == size:
                self.sums.append(np.sum(part, axis=1))
                continue
            if self.pending is None:
                self.pending = np.empty((self.rows, max(self.leaves)))
            self.pending[:, self.filled : self.filled + take] = part
            self.filled += take
            if self.filled == size:
                self.sums.append(np.sum(self.pending[:, :size], axis=1))
                self.filled = 0

    def total(self) -> np.ndarray:
        """The (rows,) sums, once every value has been fed."""
        sums = iter(self.sums)
        return _pairwise_tree(self.length, lambda size: next(sums))


class _CenterSums:
    """Weight totals and center numerators of a center update, fed one pixel block at a time.

    For each column w of the (N, C) weights u**m they are bit for bit
    ``np.sum(w)`` and ``np.sum(w[:, None] * pixels, axis=0)``. numpy sums a
    strided column pairwise, as ``_StreamedSum`` does each weight row. It
    sums axis 0 of the (N, d) product sequentially, one pixel after
    another: slot 0 of each (cluster, channel) chain of the (C, d, b + 1)
    block terms holds its running sum S, and ``np.einsum("cki->ck")``
    carries it on. Over a chain that is not contiguous einsum keeps one
    accumulator, ``((0 + S) + t1) + t2 ...``; over a contiguous one it
    unrolls into several, which changes the bits, so the terms are every
    other float64 of a buffer twice as wide. When d == 1 that axis is the
    product's only one and is summed pairwise instead.
    """

    def __init__(self, clusters: int, n_pixels: int, channels: int):
        width = min(n_pixels, PIXEL_BLOCK)
        self.totals = _StreamedSum(clusters, n_pixels)
        self.numerators = _StreamedSum(clusters, n_pixels) if channels == 1 else None
        self.terms = np.empty((clusters, channels, width + 1, 2))[..., 0]  # strided: see above
        self.reset()

    def reset(self) -> None:
        self.totals.reset()
        if self.numerators is None:
            self.terms[:, :, 0] = 0.0
        else:
            self.numerators.reset()

    def feed(self, weights: np.ndarray, cols: np.ndarray) -> None:
        """Add the (C, b) weights of a block whose (d, b) channel rows are ``cols``."""
        b = weights.shape[1]
        self.totals.feed(weights)
        terms = self.terms[:, :, : b + 1]
        np.multiply(weights[:, None], cols, out=terms[:, :, 1:])
        if self.numerators is not None:
            self.numerators.feed(terms[:, 0, 1:])
            return
        terms[:, :, 0] = np.einsum("cki->ck", terms)

    def centers(self) -> tuple[np.ndarray, list[int]]:
        """Weighted means of the pixels fed; dead clusters are zero rows, listed."""
        totals = self.totals.total()
        if self.numerators is None:
            sums = self.terms[:, :, 0]
        else:
            sums = self.numerators.total()[:, None]
        dead = totals <= 0.0
        centers = np.zeros(sums.shape, dtype=np.float64)
        centers[~dead] = sums[~dead] / totals[~dead, None]
        return centers, np.flatnonzero(dead).tolist()


def update_centers(
    dataset: PixelDataset, memberships: np.ndarray, fuzzifier: float
) -> np.ndarray:
    """Weighted-mean optimal centers for fixed (N, C) memberships.

    c_j = sum_i u_ij^m x_i / sum_i u_ij^m. Raises :class:`DeadClusterError`
    when some column's total weight underflows to zero; the iterative loop
    recovers from that, a direct caller cannot. A fuzzifier outside (1, inf)
    raises ``InvalidFuzzifierError``, memberships that are not an (N, C)
    array of finite entries >= 0 ``ValueError``.
    """
    check_fuzzifier(fuzzifier)
    u = _checked_memberships(memberships, dataset.n_pixels)
    weights = np.array(u.T, order="C")
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
    column w of the (N, C) weights (``_CenterSums``). Dead centers are
    returned as zero rows; callers must overwrite them.
    """
    c, n = weights.shape
    sums = _CenterSums(c, n, dataset.n_channels)
    cols = dataset.pixels.T
    for start in range(0, n, PIXEL_BLOCK):
        block = slice(start, start + PIXEL_BLOCK)
        sums.feed(weights[:, block], cols[:, block])
    return sums.centers()


def fcm_objective(
    dataset: PixelDataset,
    centers: np.ndarray,
    memberships: np.ndarray,
    fuzzifier: float,
) -> float:
    """Membership-weighted sum of squared pixel-to-center distances.

    ``memberships`` is (N, C), finite and >= 0, else ``ValueError``; the
    sum runs over the (N, C) product in C order. A fuzzifier outside
    (1, inf) raises ``InvalidFuzzifierError``.
    """
    check_fuzzifier(fuzzifier)
    d2 = squared_distances(dataset.pixels, np.asarray(centers, dtype=np.float64))
    d2 *= _checked_memberships(memberships, dataset.n_pixels, d2.shape[1]) ** fuzzifier
    return float(np.sum(d2))


def _checked_memberships(memberships, n_pixels: int, clusters: int | None = None) -> np.ndarray:
    """``memberships`` as a float64 array, checked: (N, C) with C >= 1, finite and >= 0.

    With ``clusters`` given, C must equal it. Anything else raises ``ValueError``.
    """
    u = np.asarray(memberships, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != n_pixels or u.shape[1] < 1:
        raise ValueError(f"memberships must be an ({n_pixels}, C) array with C >= 1, got {u.shape}")
    if clusters is not None and u.shape[1] != clusters:
        raise ValueError(f"memberships have {u.shape[1]} columns but there are {clusters} centers")
    if not np.all(np.isfinite(u)) or u.min() < 0.0:
        raise ValueError("memberships must be finite and >= 0")
    return u


class _Sweep:
    """Passes over a dataset's pixel blocks at given centers, with their workspace.

    Each block's (C, b) distances, memberships and weights u**m live in
    block-sized buffers allocated once, so no pass holds an array of N·C
    values; fresh buffers of this size would page-fault on every pass.
    """

    def __init__(self, dataset: PixelDataset, clusters: int, fuzzifier: float):
        width = min(dataset.n_pixels, PIXEL_BLOCK)
        self.dataset, self.fuzzifier = dataset, fuzzifier
        self.kernel = (_aligned_empty((clusters, width)), _aligned_empty((clusters, width)))
        self.u = np.empty((clusters, width))
        self.jm = _StreamedSum(1, clusters * dataset.n_pixels)

    def memberships(self, centers: np.ndarray):
        """Yield ``(start, d2, u)``: the (C, b) distances and memberships of pixels start..start+b."""
        for start, d2 in _distance_blocks(self.dataset.pixels, centers, work=self.kernel):
            u = self.u[:, : d2.shape[1]]
            _membership_block(d2, self.fuzzifier, u)
            yield start, d2, u

    def labels(self, centers: np.ndarray) -> np.ndarray:
        """Each pixel's cluster of largest membership: ``_first_best`` with ``np.greater``."""
        labels = np.empty(self.dataset.n_pixels, dtype=np.intp)
        best = np.empty(self.u.shape[1])
        for start, _, u in self.memberships(centers):
            b = u.shape[1]
            _first_best(u, labels[start : start + b], best[:b], np.greater, np.maximum)
        return labels

    def objective(self, centers: np.ndarray, sums: _CenterSums | None = None) -> float:
        """J_m at ``centers``; the weights u**m are also fed to ``sums`` when given.

        J_m is ``fcm_objective`` at the optimal memberships bit for bit: the
        same products, written pixel-major and summed in the (N, C) order.
        """
        c, cols = len(centers), self.dataset.pixels.T
        self.jm.reset()
        if sums is not None:
            sums.reset()
        for start, d2, u in self.memberships(centers):
            b = d2.shape[1]
            u **= self.fuzzifier
            # the kernel's scratch is free until the next block; a transposed
            # (b, C) output keeps numpy's inner loop along the pixels
            products = self.kernel[1].reshape(-1)[: b * c]
            np.multiply(d2, u, out=products.reshape(b, c).T)
            self.jm.feed(products[None])
            if sums is not None:
                sums.feed(u, cols[:, start : start + b])
        return float(self.jm.total()[0])


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
    declared degenerate (``reseed_streak``). Each alternation is one
    ``_Sweep`` over the pixel blocks, and a last one at the final centers
    gives the labels, so the run's memory beyond the labels is a few blocks.
    """
    validate_config(config, dataset)
    centers = np.array(initial_centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] != config.cluster_count:
        raise ValueError(
            f"initial_centers must have shape ({config.cluster_count}, d)"
        )
    sweep = _Sweep(dataset, config.cluster_count, config.fuzzifier)
    sums = _CenterSums(config.cluster_count, dataset.n_pixels, dataset.n_channels)
    trajectory: list[float] = []
    converged = False
    streak = 0

    for iteration in range(config.fcm_max_iters + 1):
        jm = sweep.objective(centers, sums)
        if trajectory:
            prev = trajectory[-1]
            converged = abs(prev - jm) <= config.fcm_rel_tol * max(prev, EPS_ZERO)
        trajectory.append(jm)
        if converged or iteration == config.fcm_max_iters:
            break
        centers, dead = sums.centers()
        streak = reseed_streak(streak, dead, config.cluster_count, "dead")
        if dead:
            centers = _reseed_dead(dataset, centers, dead)

    labels = sweep.labels(centers)
    centers = np.clip(centers, 0.0, 255.0)
    return FcmResult(
        centers=centers,
        labels=labels,
        jm_trajectory=np.array(trajectory),
        iterations=len(trajectory) - 1,
        converged=converged,
    )
