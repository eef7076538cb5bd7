"""Shared domain types for the clustering engines.

Conventions used across the package:

* a *pixel dataset* is a ``PixelDataset``: an (N, d) float64 array of color
  points in [0, 255] plus the image geometry (d == 3 for RGB images; the
  math is written for general d so tests can run on scalar data),
* a *center set* is a plain (C, d) float64 array of cluster prototypes,
* a *membership matrix* is an (N, C) float64 array whose rows sum to 1,
* a *labeling* is an (N,) int array of cluster indices in [0, C).

Center sets, membership matrices and labelings are deliberately bare
``numpy`` arrays rather than wrapper classes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

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


class DegenerateClusteringError(RuntimeError):
    """Dead-cluster recovery kept failing; the instance cannot support C clusters."""


def require_integer(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise ``error`` unless ``value`` is an integer; floats such as 2.0 are not."""
    try:
        operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class PixelDataset:
    """Flat array of color points plus the image geometry they came from.

    ``pixels`` has shape (N, d) with every component finite and in [0, 255];
    ``width * height`` must equal N. Instances are immutable and safe to
    share between engines.
    """

    pixels: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float64)
        if px.ndim != 2 or px.shape[0] < 1:
            raise ValueError("pixels must be a non-empty (N, d) array")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixel components must be finite")
        if px.min() < 0.0 or px.max() > 255.0:
            raise ValueError("pixel components must lie in [0, 255]")
        if self.width < 1 or self.height < 1:
            raise ValueError("width and height must be positive")
        if self.width * self.height != px.shape[0]:
            raise ValueError(
                f"width*height = {self.width * self.height} does not match "
                f"pixel count {px.shape[0]}"
            )
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def n_pixels(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_channels(self) -> int:
        return self.pixels.shape[1]

    @cached_property
    def channel_views(self) -> np.ndarray:
        """Read-only channel-major copy of ``pixels``, shape (d, N).

        Row k is channel k as one contiguous (N,) array. The swarm's fitness
        runs thousands of times per search and streams over pixel blocks of
        these rows; the one-time copy pays for itself at once. Only the swarm
        path builds it, so single FCM or k-means runs on large images never
        hold this second copy.
        """
        cols = np.ascontiguousarray(self.pixels.T)
        cols.setflags(write=False)
        return cols


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs shared by every engine: cluster count, fuzziness, stopping, seed."""

    cluster_count: int = 5
    fuzzifier: float = 2.0
    fcm_max_iters: int = 300
    fcm_rel_tol: float = 1e-6
    seed: int = 42

    def __post_init__(self):
        require_integer("cluster_count", self.cluster_count, InvalidClusterCountError)
        require_integer("fcm_max_iters", self.fcm_max_iters)
        require_integer("seed", self.seed)
        if self.cluster_count < 1:
            raise InvalidClusterCountError(
                f"cluster_count must be >= 1, got {self.cluster_count}"
            )
        if not 1.0 < self.fuzzifier < math.inf:
            raise InvalidFuzzifierError(
                f"fuzzifier must be finite and > 1, got {self.fuzzifier}"
            )
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

    Takes the first row, then repeatedly the first row equal to none taken
    so far; every row before a taken one equals an earlier taken row, so
    each pass scans only the rows after it. Costs one vectorised pass per
    value counted, with no sort, and is exact below ``limit``.
    """
    fresh = np.ones(pixels.shape[0], dtype=bool)
    count = i = 0
    while count < limit:
        count += 1
        fresh[i:] &= np.any(pixels[i:] != pixels[i], axis=1)
        i += int(np.argmax(fresh[i:]))
        if not fresh[i]:
            break
    return count


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


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between points (N, d) and centers (C, d).

    Returns an (N, C) array. Each pixel block is transposed to channel
    major and run through the shared distance kernel, so entries are exact
    for integer-valued inputs and bit-stable regardless of thread settings.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n, d = points.shape
    c = centers.shape[0]
    d2 = np.empty((n, c), dtype=np.float64)
    width = min(n, PIXEL_BLOCK)
    cols = _aligned_empty((d, width))
    out = _aligned_empty((c, width))
    tmp = _aligned_empty((c, width))
    for start in range(0, n, PIXEL_BLOCK):
        b = min(n - start, PIXEL_BLOCK)
        np.copyto(cols[:, :b], points[start : start + b].T)
        block = _block_squared_distances(cols[:, :b], centers, out[:, :b], tmp[:, :b])
        d2[start : start + b] = block.T
    return d2


def min_squared_distances(dataset: PixelDataset, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each pixel to its nearest center, shape (N,).

    The row minima of ``squared_distances``; the one-set reference for
    :func:`quantization_errors`. It builds the whole (N, C) distance matrix
    first, so its peak memory is O(N * C), not the O(N) of
    :func:`quantization_errors`.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("centers must be a non-empty (C, d) array")
    return squared_distances(dataset.pixels, centers).min(axis=1)


def quantization_errors(dataset: PixelDataset, center_sets: np.ndarray) -> np.ndarray:
    """Quantization error of each of P center sets given as (P, C, d), shape (P,).

    Entry p equals ``np.sum(min_squared_distances(dataset, center_sets[p]))``
    bit for bit: the distances come from the same kernel, the minimum is
    exact, and each set's error is one sum over its whole (N,) row of
    nearest-center distances. The sets are scored ``CENTER_SETS_PER_SWEEP``
    at a time per sweep over blocks of the cached channel-major
    ``channel_views``. The kernel's scratch is allocated once per call, since
    fresh blocks of that size cost a page fault per page.
    """
    sets = np.asarray(center_sets, dtype=np.float64)
    if sets.ndim != 3 or sets.shape[1] < 1:
        raise ValueError("center_sets must be a (P, C, d) array with C >= 1")
    p, c, d = sets.shape
    cols = dataset.channel_views
    n = dataset.n_pixels
    per_sweep = min(p, CENTER_SETS_PER_SWEEP)
    errors = np.empty(p)
    mins = np.empty((per_sweep, n))
    work = _aligned_empty((2, per_sweep * c, min(n, PIXEL_BLOCK)))
    for first in range(0, p, CENTER_SETS_PER_SWEEP):
        group = sets[first : first + CENTER_SETS_PER_SWEEP]
        k, rows = len(group), len(group) * c
        centers = group.reshape(rows, d)
        for start in range(0, n, PIXEL_BLOCK):
            b = min(n - start, PIXEL_BLOCK)
            block = _block_squared_distances(
                cols[:, start : start + b], centers, work[0, :rows, :b], work[1, :rows, :b]
            )
            np.min(block.reshape(k, c, b), axis=1, out=mins[:k, start : start + b])
        for s in range(k):
            errors[first + s] = np.sum(mins[s])
    return errors


def assign_nearest(dataset: PixelDataset, centers: np.ndarray) -> np.ndarray:
    """Label each pixel with the index of its nearest center.

    Ties go to the lowest cluster index, which makes the result independent
    of any evaluation order.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("centers must be a non-empty (C, d) array")
    d2 = squared_distances(dataset.pixels, centers)
    return np.argmin(d2, axis=1)


def sample_distinct_pixels(
    dataset: PixelDataset, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` pixels with pairwise-distinct values, as a (count, d) array.

    Pixel indices are visited in a seeded random permutation and kept only
    when their value has not been taken yet, so frequent colors are
    proportionally more likely to be picked while duplicates are impossible.
    """
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
