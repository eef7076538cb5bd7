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
The swarm's fitness, which bounds the nearest-center pass, is in ``swarm``.
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
    ``width`` and ``height`` are integers whose product is N. Any (N, d)
    array of numbers is accepted and copied once into a fresh read-only,
    C-contiguous float64 (d, N) array; ``pixels`` is that array's transposed
    view, so ``pixels.T`` is the channel-major copy itself. The caller's
    array is neither aliased nor frozen. Instances are immutable and safe to
    share between engines.
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
        require_integer("width", self.width)
        require_integer("height", self.height)
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
    pass, so its memory is O(N).
    """
    return _nearest(dataset, centers)[1]


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
        # + 0.0 turns -0.0 into 0.0, so equal values share one key
        key = (px[i] + 0.0).tobytes()
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
