"""Programmatic test imagery with known cluster structure.

Segmentation quality claims need images whose correct answer is known.
Two families cover the test and demo needs:

* solid block images — exact ground truth, every algorithm should
  recover the partition,
* Gaussian color-blob images — noisy mixtures where initialization
  quality decides whether an optimizer finds the good basin.
"""

from __future__ import annotations

import numpy as np

from .core import require_integer
from .imaging import RawImage


def solid_block_image(
    colors: list[tuple[int, int, int]],
    block_width: int = 16,
    height: int = 16,
) -> tuple[RawImage, np.ndarray]:
    """Vertical color bands, one per entry of ``colors``.

    Returns the image and the ground-truth label of every pixel in
    row-major order. Colors must be distinct (r, g, b) integer triples in
    [0, 255], so the partition is unambiguous.
    """
    if len(colors) < 1:
        raise ValueError("need at least one color")
    palette = np.asarray(colors)
    bad = palette.shape != (len(colors), 3) or palette.dtype.kind not in "iu"
    if bad or palette.min() < 0 or palette.max() > 255:
        raise ValueError("colors must be (r, g, b) triples of integers in [0, 255]")
    if len(set(colors)) != len(colors):
        raise ValueError("colors must be distinct")
    require_integer("block_width", block_width)
    require_integer("height", height)
    if block_width < 1 or height < 1:
        raise ValueError("block dimensions must be positive")
    labels = np.tile(np.repeat(np.arange(len(colors), dtype=np.int64), block_width), height)
    rgb8 = palette.astype(np.uint8)[labels].tobytes()
    return RawImage(width=block_width * len(colors), height=height, rgb8=rgb8), labels


def gaussian_blob_image(
    means: list[tuple[float, float, float]],
    width: int = 64,
    height: int = 64,
    sigma: float = 10.0,
    seed: int = 0,
    weights: list[float] | None = None,
) -> RawImage:
    """Pixels drawn from a Gaussian mixture in color space.

    Each pixel picks a blob (uniformly, or by ``weights``) and samples its
    color from an isotropic Gaussian around that blob's mean with the
    given per-channel standard deviation, clipped to [0, 255]. The spatial
    arrangement is the sampling order; only the color distribution matters
    to the clustering algorithms.
    """
    k = len(means)
    if k < 1:
        raise ValueError("need at least one blob mean")
    require_integer("width", width)
    require_integer("height", height)
    mean_arr = np.asarray(means, dtype=np.float64)
    if mean_arr.shape != (k, 3) or not np.all(np.isfinite(mean_arr)):
        raise ValueError("means must be finite (r, g, b) triples")
    if not 0.0 <= sigma < np.inf:
        raise ValueError("sigma must be finite and non-negative")
    if weights is not None:
        if len(weights) != k:
            raise ValueError("weights must match the number of blobs")
        w = np.asarray(weights, dtype=np.float64)
        if np.any(w < 0.0) or w.sum() <= 0.0:
            raise ValueError("weights must be non-negative and sum positive")
        w = w / w.sum()
    else:
        w = np.full(k, 1.0 / k)

    rng = np.random.default_rng(seed)
    n = width * height
    assignment = rng.choice(k, size=n, p=w)
    colors = mean_arr[assignment] + rng.normal(0.0, sigma, size=(n, 3))
    rgb = np.clip(np.floor(colors + 0.5), 0, 255).astype(np.uint8)
    return RawImage(width=width, height=height, rgb8=rgb.tobytes())


def random_image(width: int, height: int, seed: int = 0) -> RawImage:
    """Uniform random noise; useful for round-trip and invariant tests."""
    rng = np.random.default_rng(seed)
    rgb = rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8)
    return RawImage(width=width, height=height, rgb8=rgb.tobytes())
