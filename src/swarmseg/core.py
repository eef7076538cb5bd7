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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Distances below this count as "at the center" (crisp membership, degenerate
# spreads). Also the floor used to keep relative tolerances well defined.
EPS_ZERO = 1e-12


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

    def distinct_values(self) -> np.ndarray:
        """Unique color values present, as a (K, d) array."""
        return np.unique(self.pixels, axis=0)

    @cached_property
    def channel_views(self) -> tuple[np.ndarray, ...]:
        """Contiguous read-only copies of the pixel columns, one per channel.

        Hot loops (swarm fitness evaluation runs thousands of times per
        search) stream over single channels; column views of ``pixels``
        are strided, so this one-time copy pays for itself immediately.
        """
        cols = tuple(
            np.ascontiguousarray(self.pixels[:, k])
            for k in range(self.pixels.shape[1])
        )
        for col in cols:
            col.setflags(write=False)
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
    distinct = len(dataset.distinct_values())
    if config.cluster_count > distinct:
        raise TooManyClustersError(
            f"requested {config.cluster_count} clusters but the image has "
            f"only {distinct} distinct pixel values"
        )
    return config


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between points (N, d) and centers (C, d).

    Computed per center from explicit differences (never via the expanded
    x.x - 2x.c + c.c form and never through BLAS) so results are exact for
    integer-valued inputs and bit-stable regardless of thread settings.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n, c = points.shape[0], centers.shape[0]
    d2 = np.empty((n, c), dtype=np.float64)
    for k in range(c):
        diff = points - centers[k]
        d2[:, k] = np.sum(diff * diff, axis=1)
    return d2


def min_squared_distances(dataset: PixelDataset, centers: np.ndarray) -> np.ndarray:
    """Squared distance from each pixel to its nearest center, shape (N,).

    Numerically identical to ``squared_distances(...).min(axis=1)`` (same
    per-channel accumulation order, and the minimum is exact), but computed
    channel by channel over contiguous columns with reused buffers. This is
    the swarm's fitness kernel, evaluated once per particle per iteration.
    """
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[0] < 1:
        raise ValueError("centers must be a non-empty (C, d) array")
    cols = dataset.channel_views
    n = dataset.n_pixels
    best = np.full(n, np.inf)
    acc = np.empty(n)
    tmp = np.empty(n)
    for center in centers:
        np.subtract(cols[0], center[0], out=acc)
        acc *= acc
        for k in range(1, len(cols)):
            np.subtract(cols[k], center[k], out=tmp)
            tmp *= tmp
            acc += tmp
        np.minimum(best, acc, out=best)
    return best


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
