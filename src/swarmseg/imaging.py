"""Image ingestion and reconstruction.

The only required on-disk format is binary PPM (magic ``P6``, maxval 255),
which round-trips bit-exactly with zero dependencies. Other formats can be
decoded externally into a :class:`RawImage` and fed through the same path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PixelDataset, require_integer


class PpmParseError(ValueError):
    """Base class for malformed PPM input."""


class PpmBadMagicError(PpmParseError):
    """The stream does not start with the 'P6' magic."""


class PpmUnsupportedMaxvalError(PpmParseError):
    """Only maxval 255 (8-bit samples) is supported."""


class PpmBadDimensionsError(PpmParseError):
    """Width or height is missing, non-numeric, or not positive."""


class PpmTruncatedError(PpmParseError):
    """The pixel payload ends before width*height*3 bytes."""


@dataclass(frozen=True)
class RawImage:
    """8-bit RGB image: row-major ``rgb8`` bytes of length width*height*3."""

    width: int
    height: int
    rgb8: bytes

    def __post_init__(self):
        require_integer("width", self.width)
        require_integer("height", self.height)
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be positive")
        expected = self.width * self.height * 3
        if len(self.rgb8) != expected:
            raise ValueError(
                f"expected {expected} payload bytes, got {len(self.rgb8)}"
            )


_WHITESPACE = frozenset(b" \t\n\r\x0b\x0c")
_HASH = ord("#")
_MAX_HEADER_DIGITS = 10  # wider numbers describe no image that fits in memory


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Read the next header token, skipping whitespace and '#' comments."""
    n = len(data)
    while pos < n:
        if data[pos] == _HASH:
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
        elif data[pos] in _WHITESPACE:
            pos += 1
        else:
            break
    start = pos
    while pos < n and data[pos] != _HASH and data[pos] not in _WHITESPACE:
        pos += 1
    return data[start:pos], pos


def load_ppm(data: bytes) -> RawImage:
    """Parse binary PPM ('P6', maxval 255) bytes into a :class:`RawImage`.

    The header accepts arbitrary whitespace between tokens and '#' comments
    running to end of line; exactly one whitespace byte separates the maxval
    from the raw RGB payload.
    """
    magic, pos = _next_token(data, 0)
    if magic != b"P6":
        raise PpmBadMagicError(f"expected magic 'P6', got {magic!r}")

    fields = []
    for name in ("width", "height", "maxval"):
        token, pos = _next_token(data, pos)
        if not token:
            raise PpmBadDimensionsError(f"missing {name} in header")
        # ASCII decimal digits only, as Netpbm allows; bounding the length
        # keeps the parse linear and independent of int()'s digit limit
        if not token.isdigit() or len(token) > _MAX_HEADER_DIGITS:
            raise PpmBadDimensionsError(
                f"{name} token {token[:32]!r} is not a decimal number"
                f" of at most {_MAX_HEADER_DIGITS} digits"
            )
        fields.append(int(token))
    width, height, maxval = fields

    if width < 1 or height < 1:
        raise PpmBadDimensionsError(f"non-positive dimensions {width}x{height}")
    if maxval != 255:
        raise PpmUnsupportedMaxvalError(f"maxval must be 255, got {maxval}")

    if pos >= len(data) or data[pos] not in _WHITESPACE:
        raise PpmTruncatedError("missing whitespace byte before pixel payload")
    pos += 1

    expected = width * height * 3
    payload = data[pos : pos + expected]
    if len(payload) < expected:
        raise PpmTruncatedError(
            f"payload has {len(payload)} bytes, expected {expected}"
        )
    return RawImage(width=width, height=height, rgb8=bytes(payload))


def write_ppm(image: RawImage) -> bytes:
    """Serialize to the canonical header 'P6\\n<w> <h>\\n255\\n' plus raw triples."""
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + image.rgb8


def to_dataset(image: RawImage, max_side: int | None = None) -> PixelDataset:
    """Convert a raw image to a float pixel dataset, optionally downscaling.

    When ``max_side``, an integer, is given and the longer side exceeds it,
    the image is reduced by integer-factor box averaging: output pixel
    (i, j) is the mean of the k x k input block it covers (edge blocks may
    be partial and are averaged over the pixels present). The factor k is
    the smallest integer bringing the longer side within ``max_side``.
    """
    rgb = np.frombuffer(image.rgb8, dtype=np.uint8).reshape(
        image.height, image.width, 3
    )
    k = 1
    if max_side is not None:
        require_integer("max_side", max_side)
        if max_side < 1:
            raise ValueError("max_side must be positive")
        longer = max(image.width, image.height)
        if longer > max_side:
            k = -(-longer // max_side)  # ceil division

    if k == 1:
        arr = rgb  # PixelDataset's channel-major copy is the one float64 conversion
    else:
        # Block sums of 8-bit values are exact integers in float64, so
        # summing rows first, then columns, gives each block mean the same
        # bits as averaging the block directly.
        row_starts = np.arange(0, image.height, k)
        col_starts = np.arange(0, image.width, k)
        sums = np.add.reduceat(rgb, row_starts, axis=0, dtype=np.float64)
        sums = np.add.reduceat(sums, col_starts, axis=1)
        rows = np.diff(row_starts, append=image.height)
        cols = np.diff(col_starts, append=image.width)
        arr = sums / (rows[:, None] * cols[None, :])[:, :, None]

    h, w = arr.shape[0], arr.shape[1]
    return PixelDataset(pixels=arr.reshape(h * w, 3), width=w, height=h)


def reconstruct_quantized(
    dataset: PixelDataset, labels: np.ndarray, centers: np.ndarray
) -> RawImage:
    """Render the segmentation: each pixel takes its cluster's prototype color.

    Center components are rounded half-up and clamped to [0, 255]. Centers
    that are not a finite (C, 3) array, and labels that are not integers
    in [0, C) one per pixel, raise ``ValueError``.
    """
    labels = np.asarray(labels)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != 3:
        raise ValueError("centers must be a (C, 3) array for image reconstruction")
    if not np.all(np.isfinite(centers)):
        raise ValueError("centers must be finite")
    if labels.shape != (dataset.n_pixels,):
        raise ValueError(
            f"labels length {labels.shape} does not match pixel count "
            f"{dataset.n_pixels}"
        )
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.min() < 0 or labels.max() >= centers.shape[0]:
        raise ValueError("labels reference clusters outside the center set")

    palette = np.clip(np.floor(centers + 0.5), 0, 255).astype(np.uint8)
    flat = np.take(palette, labels, axis=0)
    return RawImage(
        width=dataset.width, height=dataset.height, rgb8=flat.tobytes()
    )
