"""Binary PPM codec, downscaling, and palette reconstruction."""

import numpy as np
import pytest

from swarmseg.core import PixelDataset
from swarmseg.imaging import (
    PpmBadDimensionsError,
    PpmBadMagicError,
    PpmParseError,
    PpmTruncatedError,
    PpmUnsupportedMaxvalError,
    RawImage,
    load_ppm,
    reconstruct_quantized,
    to_dataset,
    write_ppm,
)


def ppm_bytes(width, height, payload, maxval=255, magic=b"P6"):
    return magic + b"\n%d %d\n%d\n" % (width, height, maxval) + payload


def test_load_minimal_image():
    img = load_ppm(ppm_bytes(1, 1, b"\x01\x02\x03"))
    assert img.width == 1
    assert img.height == 1
    assert img.rgb8 == b"\x01\x02\x03"


def test_load_accepts_comments_and_odd_whitespace():
    raw = b"P6 # magic\n# a comment line\n 2\t1 #trailing\n255\nabcdef"
    img = load_ppm(raw)
    assert (img.width, img.height) == (2, 1)
    assert img.rgb8 == b"abcdef"


def test_single_whitespace_byte_before_payload():
    # the byte right after the maxval token ends the header; everything
    # after it is payload even when it happens to look like whitespace
    img = load_ppm(b"P6\n1 1\n255\n\x20\x0a\x30")
    assert img.rgb8 == b"\x20\x0a\x30"


def test_bad_magic_is_distinct_error():
    with pytest.raises(PpmBadMagicError):
        load_ppm(ppm_bytes(1, 1, b"\x00" * 3, magic=b"P5"))
    with pytest.raises(PpmBadMagicError):
        load_ppm(b"JUNK")


def test_wide_maxval_is_distinct_error():
    with pytest.raises(PpmUnsupportedMaxvalError):
        load_ppm(ppm_bytes(1, 1, b"\x00" * 6, maxval=65535))


def test_truncated_payload_is_distinct_error():
    with pytest.raises(PpmTruncatedError):
        load_ppm(ppm_bytes(2, 2, b"\x00" * 11))
    with pytest.raises(PpmTruncatedError):
        # header complete but zero payload bytes follow
        load_ppm(b"P6\n2 2\n255\n")
    with pytest.raises(PpmTruncatedError):
        # stream ends immediately after the maxval token
        load_ppm(b"P6\n2 2\n255")


def test_bad_dimensions_rejected():
    with pytest.raises(PpmBadDimensionsError):
        load_ppm(b"P6\n0 4\n255\n")
    with pytest.raises(PpmBadDimensionsError):
        load_ppm(b"P6\n-1 4\n255\n")
    with pytest.raises(PpmBadDimensionsError):
        load_ppm(b"P6\nw h\n255\n")
    with pytest.raises(PpmBadDimensionsError):
        load_ppm(b"P6\n2 2\n")  # header stops before the maxval token
    # only ASCII decimal digits, at most ten of them: no underscores, signs,
    # or tokens whose rejection would hinge on int()'s digit limit
    for width, maxval in (
        (b"1_0", b"2_55"), (b"+1", b"+255"), (b"0" * 10 + b"1",) * 2, (b"9" * 5000,) * 2
    ):
        with pytest.raises(PpmBadDimensionsError):
            load_ppm(b"P6 " + width + b" 1 255 " + b"x" * 30)
        with pytest.raises(PpmBadDimensionsError):
            load_ppm(b"P6 1 1 " + maxval + b" xxx")
    assert load_ppm(b"P6 0000000001 1 0000000255 xxx").width == 1


def test_error_hierarchy():
    for exc in (
        PpmBadMagicError,
        PpmUnsupportedMaxvalError,
        PpmBadDimensionsError,
        PpmTruncatedError,
    ):
        assert issubclass(exc, PpmParseError)
    assert issubclass(PpmParseError, ValueError)


def test_round_trip_random_images():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        w = int(rng.integers(1, 12))
        h = int(rng.integers(1, 12))
        payload = rng.integers(0, 256, size=3 * w * h, dtype=np.uint8).tobytes()
        img = RawImage(width=w, height=h, rgb8=payload)
        back = load_ppm(write_ppm(img))
        assert back.width == w and back.height == h
        assert back.rgb8 == payload


def test_writer_emits_canonical_header():
    img = RawImage(width=2, height=3, rgb8=bytes(18))
    assert write_ppm(img) == b"P6\n2 3\n255\n" + bytes(18)


def test_raw_image_validates_payload_length():
    with pytest.raises(ValueError):
        RawImage(width=2, height=2, rgb8=bytes(11))
    with pytest.raises(ValueError):
        RawImage(width=0, height=2, rgb8=b"")


def test_to_dataset_identity():
    img = RawImage(width=2, height=1, rgb8=bytes([10, 20, 30, 40, 50, 60]))
    ds = to_dataset(img)
    assert ds.width == 2 and ds.height == 1
    assert ds.pixels.tolist() == [[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]]


def test_to_dataset_box_average():
    # 4x2 image reduced with max_side=2 gives factor k=2: 2x2 blocks averaged
    grid = [
        [(0, 0, 0), (4, 4, 4), (8, 8, 8), (12, 12, 12)],
        [(2, 2, 2), (6, 6, 6), (10, 10, 10), (14, 14, 14)],
    ]
    vals = [b for row in grid for px in row for b in px]
    img = RawImage(width=4, height=2, rgb8=bytes(vals))
    ds = to_dataset(img, max_side=2)
    assert ds.width == 2 and ds.height == 1
    assert ds.pixels.tolist() == [[3.0, 3.0, 3.0], [11.0, 11.0, 11.0]]


def test_to_dataset_partial_edge_blocks():
    # 3x1 with factor 2: the right block only has one pixel present
    img = RawImage(width=3, height=1, rgb8=bytes([0, 0, 0, 10, 10, 10, 99, 99, 99]))
    ds = to_dataset(img, max_side=2)
    assert ds.width == 2 and ds.height == 1
    assert ds.pixels.tolist() == [[5.0, 5.0, 5.0], [99.0, 99.0, 99.0]]


def box_average_loop(image, k):
    """Reference downscale: the mean of each k x k block, one block at a time."""
    arr = np.frombuffer(image.rgb8, dtype=np.uint8).reshape(
        image.height, image.width, 3
    ).astype(np.float64)
    out_h, out_w = -(-image.height // k), -(-image.width // k)
    blocks = np.empty((out_h, out_w, 3))
    for i in range(out_h):
        for j in range(out_w):
            blocks[i, j] = arr[i * k : (i + 1) * k, j * k : (j + 1) * k].mean(axis=(0, 1))
    return blocks.reshape(-1, 3)


@pytest.mark.parametrize(
    "width, height, max_side, k",
    [(2000, 1500, 256, 8), (1000, 701, 256, 4), (37, 5, 8, 5), (5, 37, 8, 5)],
)
def test_to_dataset_matches_block_loop_bitwise(width, height, max_side, k):
    rng = np.random.default_rng(width + height)
    img = RawImage(
        width=width,
        height=height,
        rgb8=rng.integers(0, 256, width * height * 3, dtype=np.uint8).tobytes(),
    )
    ds = to_dataset(img, max_side=max_side)
    assert (ds.width, ds.height) == (-(-width // k), -(-height // k))
    assert np.array_equal(ds.pixels, box_average_loop(img, k))


def test_to_dataset_no_resize_when_under_cap():
    img = RawImage(width=3, height=2, rgb8=bytes(18))
    ds = to_dataset(img, max_side=16)
    assert (ds.width, ds.height) == (3, 2)


def test_reconstruct_quantized_rounds_half_up():
    ds = PixelDataset(pixels=np.zeros((2, 3)), width=2, height=1)
    centers = np.array([[127.5, 0.4, 254.6], [1.0, 2.0, 3.0]])
    img = reconstruct_quantized(ds, np.array([0, 1]), centers)
    assert img.rgb8 == bytes([128, 0, 255, 1, 2, 3])


def test_reconstruct_quantized_clamps():
    ds = PixelDataset(pixels=np.zeros((1, 3)), width=1, height=1)
    img = reconstruct_quantized(ds, np.array([0]), np.array([[255.0, 0.0, 254.7]]))
    assert img.rgb8 == bytes([255, 0, 255])


def test_reconstruct_quantized_validates_labels():
    ds = PixelDataset(pixels=np.zeros((2, 3)), width=2, height=1)
    with pytest.raises(ValueError):
        reconstruct_quantized(ds, np.array([0, 5]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        reconstruct_quantized(ds, np.array([0]), np.zeros((2, 3)))


def test_reconstruct_matches_geometry():
    rng = np.random.default_rng(9)
    px = rng.uniform(0, 255, (12, 3))
    ds = PixelDataset(pixels=px, width=4, height=3)
    centers = rng.uniform(0, 255, (2, 3))
    labels = rng.integers(0, 2, 12)
    img = reconstruct_quantized(ds, labels, centers)
    assert img.width == 4 and img.height == 3
    assert len(img.rgb8) == 36
