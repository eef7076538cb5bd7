"""Shared domain types for the clustering engines.

Conventions used across the package:

* a *pixel dataset* is a ``PixelDataset``: N color points of d channels
  in [0, 255] plus the image geometry (d == 3 for RGB images; the math is
  written for general d so tests can run on scalar data),
* a *center set* is a plain (C, d) float64 array of cluster prototypes,
* a *membership matrix* is an (N, C) float64 array whose rows sum to 1,
* a *labeling* is an (N,) int array of cluster indices in [0, C).

Center sets, membership matrices and labelings are deliberately bare
``numpy`` arrays rather than wrapper classes.

The pixels are stored once, channel-major: one C-contiguous (d, N)
float64 array whose rows are the channels. ``PixelDataset.pixels`` is its
(N, d) transposed view, so ``pixels.T`` hands every engine contiguous
channel rows without a copy. The distance kernel reads (d, B) blocks of
those rows, and its distances come out as (C, B), one contiguous row per
center. ``squared_distances`` transposes them into the public (N, C)
layout. FCM's alternation and the nearest-center pass (``_nearest``) take
them one (C, B) block at a time and hold no (N, C) array. Both label pixels
by one strict-comparison chain, ``_first_best``, ties to the lowest index.

The swarm's fitness, ``quantization_errors``, is a bounded nearest-center
pass: with more than one block, it scores in each block only the centers
that can be nearest to one of its pixels. Each box of ``BOUND_BOX``
pixels drops a center when its squared distance to the box exceeds the
smallest squared distance from any center of its set to the box's
farthest corner, and a block skips the centers all of its boxes drop.
Both bounds are accumulated as the kernel accumulates its distances, and
rounding is monotone, so a skipped center is strictly farther than a kept
one from every pixel of the box: each minimum, and so each set's sum,
keeps its bits. A swarm builds the scorer (``_Fitness``) once per run, so
the boxes and the kernel's scratch are made once.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

# Distances below this count as "at the center" (crisp membership, degenerate
# spreads). Also the floor used to keep relative tolerances well defined.
EPS_ZERO = 1e-12

# Pixels per block of the distance kernel: the (rows, PIXEL_BLOCK) work
# arrays stay cache-resident, and blocking never changes a result.
PIXEL_BLOCK = 8192

# Center sets scored per sweep over the pixels by ``quantization_errors``.
# Scoring the whole swarm in one sweep is slower: its work arrays leave
# the cache.
CENTER_SETS_PER_SWEEP = 2

# Pixels per bounding box of the swarm fitness's bound (``_kept_rows``);
# divides ``PIXEL_BLOCK``. Smaller boxes are tighter, and more of them cost
# more bound arithmetic per call.
BOUND_BOX = 256


class InvalidFuzzifierError(ValueError):
    """Fuzziness exponent must be a real number greater than 1."""


class InvalidClusterCountError(ValueError):
    """Cluster count must be a positive integer."""


class TooManyClustersError(ValueError):
    """More clusters requested than distinct pixel values available."""


class DeadClusterError(RuntimeError):
    """A cluster accumulated (numerically) zero total membership weight."""

    def __init__(self, dead: list[int]):
        super().__init__(f"clusters with zero total weight: {dead}")
        self.dead = dead

    def __reduce__(self):
        # rebuilt from ``dead``, not from the message ``args`` holds
        return type(self), (self.dead,), self.__dict__


class DegenerateClusteringError(RuntimeError):
    """Dead-cluster recovery kept failing; the instance cannot support C clusters."""


def require_integer(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an integer; floats such as 2.0 are not."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


def check_cluster_count(count) -> None:
    """Raise ``InvalidClusterCountError`` unless ``count`` is an integer >= 1."""
    require_integer("cluster_count", count, InvalidClusterCountError)
    if count < 1:
        raise InvalidClusterCountError(f"cluster_count must be >= 1, got {count}")


def check_fuzzifier(fuzzifier: float) -> None:
    """Raise ``InvalidFuzzifierError`` unless 1 < ``fuzzifier`` < inf (so NaN too)."""
    if not 1.0 < fuzzifier < math.inf:
        raise InvalidFuzzifierError(f"fuzzifier must be finite and > 1, got {fuzzifier}")


def reseed_streak(streak: int, slots: list[int], limit: int, kind: str) -> int:
    """Reseeding steps in a row: 0 when ``slots`` is empty, else ``streak + 1``.

    Past ``limit`` the run gives up: ``DegenerateClusteringError`` names the ``kind`` of cluster.
    """
    if not slots:
        return 0
    streak += 1
    if streak > limit:
        raise DegenerateClusteringError(f"{kind} clusters recurred {streak} times in a row")
    return streak


@dataclass(frozen=True)
class PixelDataset:
    """Flat array of color points plus the image geometry they came from.

    ``pixels`` has shape (N, d) with every component finite and in [0, 255];
    ``width * height`` must equal N. Any (N, d) array of numbers is accepted
    and copied once into a fresh read-only, C-contiguous float64 (d, N)
    array; ``pixels`` is that array's transposed view, so ``pixels.T`` is
    the channel-major copy itself. The caller's array is neither aliased nor
    frozen. Instances are immutable and safe to share between engines.
    """

    pixels: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape[0] < 1:
            raise ValueError("pixels must be a non-empty (N, d) array")
        cols = np.array(px.T, dtype=np.float64, order="C")
        # 8-bit levels are finite and in range by type
        if px.dtype != np.uint8:
            if not np.all(np.isfinite(cols)):
                raise ValueError("pixel components must be finite")
            if cols.min() < 0.0 or cols.max() > 255.0:
                raise ValueError("pixel components must lie in [0, 255]")
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be positive")
        if self.width * self.height != px.shape[0]:
            raise ValueError(
                f"width*height = {self.width * self.height} does not match "
                f"pixel count {px.shape[0]}"
            )
        cols.setflags(write=False)
        object.__setattr__(self, "pixels", cols.T)

    def __reduce__(self):
        # a copy unpickled in a worker process is checked and read-only too
        return type(self), (self.pixels, self.width, self.height)

    @property
    def n_pixels(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_channels(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs shared by every engine: cluster count, fuzziness, stopping, seed."""

    cluster_count: int = 5
    fuzzifier: float = 2.0
    fcm_max_iters: int = 300
    fcm_rel_tol: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        check_cluster_count(self.cluster_count)
        require_integer("fcm_max_iters", self.fcm_max_iters)
        require_integer("seed", self.seed)
        check_fuzzifier(self.fuzzifier)
        if self.fcm_max_iters < 1:
            raise ValueError("fcm_max_iters must be positive")
        if not 0.0 < self.fcm_rel_tol < math.inf:
            raise ValueError("fcm_rel_tol must be finite and positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def validate_config(config: ClusterConfig, dataset: PixelDataset) -> ClusterConfig:
    """Check `config` against `dataset`; return it unchanged if coherent.

    Value-range invariants are already enforced by the dataclass; the
    dataset-dependent check is that the requested cluster count does not
    exceed the number of distinct pixel values (otherwise no engine can
    place that many distinct centers).
    """
    distinct = _count_distinct(dataset.pixels, config.cluster_count)
    if config.cluster_count > distinct:
        raise TooManyClustersError(
            f"requested {config.cluster_count} clusters but the image has "
            f"only {distinct} distinct pixel values"
        )
    return config


def _count_distinct(pixels: np.ndarray, limit: int) -> int:
    """Number of distinct rows of ``pixels``, counted no further than ``limit``.

    Integer-valued pixels with at most three channels are packed one integer
    per row, sorted, and counted where neighbours differ. Other pixels are
    counted by taking the first row, then repeatedly the first row equal to
    none taken so far; every row before a taken one equals an earlier taken
    row, so each pass scans only the rows after it. That costs one
    vectorised pass per value counted. Both are exact below ``limit``.

    The first ``PIXEL_BLOCK`` rows are counted first: a prefix holds no
    more distinct rows than the whole, so if they reach ``limit`` so does
    the whole, and the rest is never read.
    """
    if pixels.shape[0] > PIXEL_BLOCK and _count_distinct(pixels[:PIXEL_BLOCK], limit) == limit:
        return limit
    codes = _packed_levels(pixels)
    if codes is not None:
        codes.sort()
        return min(1 + int(np.count_nonzero(codes[1:] != codes[:-1])), limit)
    fresh = np.ones(pixels.shape[0], dtype=bool)
    count = i = 0
    while count < limit:
        count += 1
        fresh[i:] &= np.any(pixels[i:] != pixels[i], axis=1)
        i += int(np.argmax(fresh[i:]))
        if not fresh[i]:
            break
    return count


def _packed_levels(pixels: np.ndarray) -> np.ndarray | None:
    """Each row's 8-bit levels packed into one integer, or None if any is not an integer.

    None also for more than three channels, whose levels do not fit one int32.
    """
    if pixels.shape[1] > 3:
        return None
    codes = np.zeros(pixels.shape[0], dtype=np.int32)
    for channel in pixels.T:
        level = channel.astype(np.int32)
        if not np.array_equal(level, channel):
            return None
        codes <<= 8
        codes |= level
    return codes


def _aligned_empty(shape: tuple[int, ...]) -> np.ndarray:
    """Uninitialised float64 kernel scratch starting on a 64-byte boundary.

    ``np.empty`` gives 16; the kernel runs ~25% slower on blocks not 32-byte aligned.
    """
    raw = np.empty(math.prod(shape) + 7)
    start = (-raw.ctypes.data % 64) // 8
    return raw[start : start + math.prod(shape)].reshape(shape)


def _block_squared_distances(
    cols: np.ndarray, centers: np.ndarray, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """Squared distances from a channel-major pixel block to every center row.

    ``cols`` is a (d, B) block whose rows are contiguous channels, and
    ``centers`` is (R, d). Writes and returns ``out[r, i] = sum_k
    (cols[k, i] - centers[r, k])**2`` as (R, B), accumulated channel by
    channel in index order from explicit differences (never the expanded
    x.x - 2x.c + c.c form, never BLAS), so results are exact for integer
    inputs and bit-stable regardless of thread settings. ``tmp`` is
    scratch of the same shape.
    """
    np.subtract(cols[0], centers[:, :1], out=out)
    out *= out
    for k in range(1, cols.shape[0]):
        np.subtract(cols[k], centers[:, k : k + 1], out=tmp)
        tmp *= tmp
        out += tmp
    return out


def _distance_blocks(
    points: np.ndarray,
    centers: np.ndarray,
    work: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Yield ``(start, block)``: the (C, b) squared distances of pixels start..start+b.

    The kernel reads each block of ``PIXEL_BLOCK`` pixels as a (d, b) slice
    of ``points.T``, contiguous rows for a dataset's pixels, into
    ``work[0]``, which the next block overwrites; ``work[1]`` is the
    kernel's scratch. ``work`` holds two (C, min(N, PIXEL_BLOCK)) arrays,
    allocated when not given. Centers that are not a non-empty (C, d) array
    or not finite raise ``ValueError``.
    """
    cols = points.T
    d, n = cols.shape
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("centers must be a non-empty (C, d) array")
    if centers.shape[1] != d:
        raise ValueError(f"centers are {centers.shape[1]} wide but the pixels have {d} channels")
    if not np.all(np.isfinite(centers)):
        raise ValueError("centers must be finite")
    if work is None:
        work = tuple(_aligned_empty((centers.shape[0], min(n, PIXEL_BLOCK))) for _ in range(2))
    for start in range(0, n, PIXEL_BLOCK):
        block = cols[:, start : start + PIXEL_BLOCK]
        b = block.shape[1]
        yield start, _block_squared_distances(block, centers, work[0][:, :b], work[1][:, :b])


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between points (N, d) and centers (C, d).

    Returns a C-ordered (N, C) array. Each pixel block runs channel-major
    through the shared distance kernel, so entries are exact for
    integer-valued inputs and bit-stable regardless of thread settings.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 1:
        raise ValueError("points must be a non-empty (N, d) array")
    centers = np.asarray(centers, dtype=np.float64)
    d2 = np.empty((points.shape[0], centers.shape[0]), dtype=np.float64)
    for start, block in _distance_blocks(points, centers):
        d2[start : start + block.shape[1]] = block.T
    return d2


def _first_best(rows, labels, best, better=np.less, keep=np.minimum) -> None:
    """Each column's first best row of the (R, b) ``rows``: index to ``labels``, value to ``best``.

    Only a strictly ``better`` row moves a label, so ties keep the lowest index:
    for rows without NaN, axis-0 ``argmin``/``min`` bit for bit, or ``argmax``/``max``.
    """
    labels.fill(0)
    np.copyto(best, rows[0])
    for j in range(1, len(rows)):
        np.copyto(labels, j, where=better(rows[j], best))
        keep(best, rows[j], out=best)


def _nearest(dataset: PixelDataset, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pixel's nearest center: its index and squared distance, two (N,) arrays.

    Exactly the row argmin and minimum of ``squared_distances``, from
    ``_first_best`` over each (C, b) kernel block, with no (N, C) array.
    """
    centers = np.asarray(centers, dtype=np.float64)
    labels = np.empty(dataset.n_pixels, dtype=np.intp)
    mins = np.empty(dataset.n_pixels)
    for start, block in _distance_blocks(dataset.pixels, centers):
        stop = start + block.shape[1]
        _first_best(block, labels[start:stop], mins[start:stop])
    return labels, mins


def min_squared_distances(dataset: PixelDataset, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each pixel to its nearest center, shape (N,).

    The row minima of ``squared_distances``, from the blocked nearest-center
    pass, so its memory is O(N); the one-set reference for
    :func:`quantization_errors`.
    """
    return _nearest(dataset, centers)[1]


def _box_extents(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel minimum and maximum of each box of ``BOUND_BOX`` pixels: two (d, boxes) arrays."""
    starts = np.arange(0, cols.shape[1], BOUND_BOX)
    return np.minimum.reduceat(cols, starts, axis=1), np.maximum.reduceat(cols, starts, axis=1)


def _kept_rows(
    cols: np.ndarray,
    sets: np.ndarray,
    extents: tuple[np.ndarray, np.ndarray] | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Which center rows can be nearest to some pixel of each block.

    ``cols`` is the (d, N) channel-major pixels and ``sets`` the (P, C, d)
    center sets; ``extents`` is ``_box_extents(cols)``, computed when not
    given, and ``scratch`` (5, P, C, boxes) work space likewise. Per box of
    ``BOUND_BOX`` pixels and per set, a center's lower bound is its squared
    distance to the box and its upper bound its squared distance to the
    box's farthest corner, both accumulated in place channel by channel in
    the kernel's order. Rounding is monotone and every term is non-negative,
    so the kernel's distance from any pixel of the box lies between the two
    bounds as computed. A box drops a center whose lower bound exceeds
    ``1 + 1e-9`` times the set's smallest upper bound: it is strictly farther
    than that set's closest-corner center, which the box keeps, from every
    pixel of the box. A block of ``PIXEL_BLOCK`` pixels keeps the centers
    any of its boxes keeps, so no pixel's nearest center is dropped.

    Returns ``(index, count)``: ``count[p, j]`` is the number of rows of set
    p kept in block j, (P, nb); ``index[p, :, j]`` lists the kept rows of
    set p in center order, then repeats the first kept row, (P, C, nb).
    """
    lo, hi = _box_extents(cols) if extents is None else extents
    scratch = np.empty((5, *sets.shape[:2], lo.shape[1])) if scratch is None else scratch
    lower, upper, below, above, far = scratch
    scratch[:2] = 0.0
    for k in range(cols.shape[0]):
        center = sets[:, :, k, None]
        np.subtract(lo[k], center, out=below)
        np.subtract(center, hi[k], out=above)
        # the farthest corner is -min(below, above) away; negating is exact
        np.minimum(below, above, out=far)
        gap = np.maximum(np.maximum(below, above, out=below), 0.0, out=below)
        lower += np.square(gap, out=gap)
        upper += np.square(far, out=far)
    keep = lower <= upper.min(axis=1, keepdims=True) * (1.0 + 1e-9)
    keep = np.logical_or.reduceat(keep, range(0, lo.shape[1], PIXEL_BLOCK // BOUND_BOX), axis=2)
    count = np.count_nonzero(keep, axis=1)
    # kept rows first, each part in center order; then pad with the first
    index = np.argsort(~keep, axis=1, kind="stable")
    c = sets.shape[1]
    pad = np.arange(c)[:, None] >= count[:, None, :]
    index = np.where(pad, index[:, :1], index)
    return index, count


class _Fitness:
    """The swarm's fitness: the quantization errors of ``sets`` center sets of ``clusters`` rows.

    Built once per swarm run and called once per step with a (sets,
    clusters * d) position array, or anything of that size that reshapes
    to (sets, clusters, d); returns (sets,) errors as ``quantization_errors``
    defines them. What does not change between calls is made here: the
    boxes' extents, since the pixels never change during a run, the
    kernel's scratch and the per-pixel minima, since fresh arrays of that
    size cost a page fault per page, and the bound's scratch, in place of
    about ten fresh arrays per channel. A call allocates no array of N values.
    """

    def __init__(self, dataset: PixelDataset, sets: int, clusters: int):
        self._cols = dataset.pixels.T
        self._shape = (sets, clusters, len(self._cols))
        n = dataset.n_pixels
        per_sweep = min(sets, CENTER_SETS_PER_SWEEP)
        self._mins = np.empty((per_sweep, n))
        self._work = _aligned_empty((2, per_sweep * clusters, min(n, PIXEL_BLOCK)))
        # with one block the bound costs more than it drops: forced on, the
        # lone block of each seed-protocol mixture (64x64) kept at least
        # 99.97% of the center rows over the 121 fitness calls of a swarm
        boxes = -(-n // BOUND_BOX) if n > PIXEL_BLOCK else 0
        self._extents = _box_extents(self._cols) if boxes else None
        self._bound = np.empty((5, sets, clusters, boxes))

    def __call__(self, center_sets: np.ndarray) -> np.ndarray:
        sets = center_sets.reshape(self._shape)
        # once per call: a check per group of sets slows the swarm's fitness
        if not np.all(np.isfinite(sets)):
            raise ValueError("centers must be finite")
        p, c, d = self._shape
        cols, mins, work = self._cols, self._mins, self._work
        n = cols.shape[1]
        count = np.full((p, 1), c)
        if self._extents is not None:
            index, count = _kept_rows(cols, sets, self._extents, self._bound)
            index += (np.arange(p) * c)[:, None, None]
        firsts = range(0, p, CENTER_SETS_PER_SWEEP)
        # per group and block: the fewest and the most rows a set keeps
        fewest = np.minimum.reduceat(count, firsts, axis=0).tolist()
        most = np.maximum.reduceat(count, firsts, axis=0).tolist()
        flat = sets.reshape(p * c, d)
        errors = np.empty(p)
        for g, first in enumerate(firsts):
            k = min(p - first, CENTER_SETS_PER_SWEEP)
            for j, start in enumerate(range(0, n, PIXEL_BLOCK)):
                b = min(n - start, PIXEL_BLOCK)
                m = most[g][j]
                if fewest[g][j] == c:
                    centers = flat[first * c : (first + k) * c]
                else:
                    centers = flat[index[first : first + k, :m, j].ravel()]
                block = _block_squared_distances(
                    cols[:, start : start + b], centers, work[0, : k * m, :b], work[1, : k * m, :b]
                )
                np.min(block.reshape(k, m, b), axis=1, out=mins[:k, start : start + b])
            # summed along a row, as one np.sum of that row would
            np.sum(mins[:k], axis=1, out=errors[first : first + k])
        return errors


def quantization_errors(dataset: PixelDataset, center_sets: np.ndarray) -> np.ndarray:
    """Quantization error of each of P center sets given as (P, C, d), shape (P,).

    Entry p equals ``np.sum(min_squared_distances(dataset, center_sets[p]))``
    bit for bit: the distances come from the same kernel, the minimum is
    exact, and each set's error is one sum over its whole (N,) row of
    nearest-center distances. The sets are scored ``CENTER_SETS_PER_SWEEP``
    at a time per sweep over blocks of the channel-major ``pixels.T``.

    With more than one block, each block scores only the center rows that
    can be nearest to one of its pixels (``_kept_rows``). A dropped row is
    strictly farther than a kept one from every pixel of the block, so no
    minimum changes. Within a group, each set's kept rows are padded to
    the group's largest count with a repeat of its first kept row, which
    cannot change a minimum either. A group that keeps every row in a
    block is scored from its own rows, with no gather.

    This is the one-shot form of ``_Fitness``, which a swarm builds once
    and calls at every step.
    """
    sets = np.asarray(center_sets, dtype=np.float64)
    if sets.ndim != 3 or sets.shape[1] < 1:
        raise ValueError("center_sets must be a (P, C, d) array with C >= 1")
    p, c, d = sets.shape
    if d != dataset.n_channels:
        raise ValueError(f"centers are {d} wide but the pixels have {dataset.n_channels} channels")
    return _Fitness(dataset, p, c)(sets)


def assign_nearest(dataset: PixelDataset, centers: np.ndarray) -> np.ndarray:
    """Label each pixel with the index of its nearest center.

    Ties go to the lowest cluster index, which makes the result independent
    of any evaluation order. Memory is O(N): the labels come from ``_nearest``.
    """
    return _nearest(dataset, centers)[0]


def sample_distinct_pixels(
    dataset: PixelDataset, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` pixels with pairwise-distinct values, as a (count, d) array.

    Pixel indices are visited in a seeded random permutation and kept only
    when their value has not been taken yet, so frequent colors are
    proportionally more likely to be picked while duplicates are impossible.
    A ``count`` that is not an integer >= 1 raises ``InvalidClusterCountError``.
    """
    check_cluster_count(count)
    px = dataset.pixels
    chosen: list[np.ndarray] = []
    seen: set[bytes] = set()
    for i in rng.permutation(dataset.n_pixels):
        key = px[i].tobytes()
        if key in seen:
            continue
        seen.add(key)
        chosen.append(px[i])
        if len(chosen) == count:
            return np.array(chosen, dtype=np.float64)
    raise TooManyClustersError(
        f"requested {count} distinct pixels but the image has only "
        f"{len(chosen)} distinct values"
    )


def reseed_farthest(
    dataset: PixelDataset,
    centers: np.ndarray,
    slots: list[int],
    dist_to_assigned: np.ndarray,
) -> np.ndarray:
    """Copy of ``centers`` with the rows in ``slots`` moved onto far pixels.

    ``dist_to_assigned`` holds each pixel's distance to the center it is
    assigned to. The slots, in the order given, take the pixels from the
    farthest down (ties by pixel index), wrapping around when there are
    more slots than pixels.
    """
    order = np.argsort(-dist_to_assigned, kind="stable")
    out = centers.copy()
    out[slots] = dataset.pixels[order[np.arange(len(slots)) % dataset.n_pixels]]
    return out
