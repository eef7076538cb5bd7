"""Synthetic images: valid calls keep their bytes, and inputs they cannot draw from raise ValueError."""

import hashlib
import math

import pytest

from swarmseg.synthetic import gaussian_blob_image, random_image, solid_block_image

MEANS = [(200.0, 40.0, 40.0), (40.0, 40.0, 200.0)]


@pytest.mark.parametrize(
    "kwargs, digest",
    [
        (dict(sigma=10.0, seed=3),
         "4cd42a43bf31c6db5de4464700798764c8fab8e834d1f58b14bf5f785091e8e4"),
        (dict(sigma=30.0, seed=4, weights=[1.0, 3.0]),
         "1f8ff710b2b66f2da894f1b107b76e4c9f8a9af7df281df4ca32154a9442055d"),
    ],
    ids=["uniform", "weighted"],
)
def test_blob_images_keep_their_bytes(kwargs, digest):
    image = gaussian_blob_image(MEANS, width=16, height=8, **kwargs)
    assert hashlib.sha256(image.rgb8).hexdigest() == digest


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_blob_sigma_must_be_finite_and_non_negative(sigma):
    # a NaN or infinite sigma once gave all-zero or garbage pixels with a cast warning
    with pytest.raises(ValueError, match="sigma must be finite and non-negative"):
        gaussian_blob_image(MEANS, width=4, height=4, sigma=sigma)


@pytest.mark.parametrize(
    "means",
    [[(math.nan, 0.0, 0.0)], [(0.0, math.inf, 0.0)], [(1.0, 2.0)], [(1.0, 2.0, 3.0, 4.0)]],
    ids=["nan", "inf", "two-wide", "four-wide"],
)
def test_blob_means_must_be_finite_triples(means):
    with pytest.raises(ValueError, match="means must be finite"):
        gaussian_blob_image(means, width=4, height=4)


@pytest.mark.parametrize("size", [{"width": 2.5}, {"height": 4.0}], ids=["width", "height"])
def test_blob_sizes_must_be_integers(size):
    with pytest.raises(ValueError, match="must be an integer"):
        gaussian_blob_image(MEANS, **{"width": 4, "height": 4, **size})


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: random_image(2.5, 2), "width"),
        (lambda: random_image(2, 2.0), "height"),
        (lambda: random_image(2, 2, seed=1.5), "seed"),
        (lambda: gaussian_blob_image(MEANS, width=4, height=4, seed=1.5), "seed"),
    ],
    ids=["noise-width", "noise-height", "noise-seed", "blob-seed"],
)
def test_sizes_and_seeds_must_be_integers(make, name):
    # these once escaped as numpy's TypeError
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        make()


def test_block_image_layout():
    image, labels = solid_block_image([(250, 10, 10), (10, 250, 10)], block_width=2, height=2)
    assert (image.width, image.height) == (4, 2)
    assert labels.tolist() == [0, 0, 1, 1] * 2
    assert image.rgb8 == bytes([250, 10, 10] * 2 + [10, 250, 10] * 2) * 2


@pytest.mark.parametrize(
    "colors",
    [[(300, 0, 0)], [(0, -1, 0)], [(1.5, 0, 0)], [(1, 2)]],
    ids=["above-255", "negative", "float", "two-wide"],
)
def test_block_colors_must_be_integer_triples_in_range(colors):
    with pytest.raises(ValueError, match="colors must be"):
        solid_block_image(colors)


@pytest.mark.parametrize("size", [{"block_width": 2.5}, {"height": 3.0}], ids=["width", "height"])
def test_block_sizes_must_be_integers(size):
    with pytest.raises(ValueError, match="must be an integer"):
        solid_block_image([(1, 2, 3)], **size)
