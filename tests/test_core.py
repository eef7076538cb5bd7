"""Domain type validation and distance/assignment primitives."""

import numpy as np
import pytest

from swarmseg.core import (
    PIXEL_BLOCK,
    ClusterConfig,
    InvalidClusterCountError,
    InvalidFuzzifierError,
    PixelDataset,
    TooManyClustersError,
    assign_nearest,
    min_squared_distances,
    sample_distinct_pixels,
    squared_distances,
    validate_config,
)


def scalar_dataset(values):
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return PixelDataset(pixels=arr, width=len(values), height=1)


def test_dataset_validates_shape_and_range():
    with pytest.raises(ValueError):
        PixelDataset(pixels=np.zeros((0, 3)), width=0, height=1)
    with pytest.raises(ValueError):
        PixelDataset(pixels=np.full((2, 3), -1.0), width=2, height=1)
    with pytest.raises(ValueError):
        PixelDataset(pixels=np.full((2, 3), 256.0), width=2, height=1)
    with pytest.raises(ValueError):
        PixelDataset(pixels=np.full((2, 3), np.nan), width=2, height=1)
    with pytest.raises(ValueError):
        # geometry disagrees with pixel count
        PixelDataset(pixels=np.zeros((4, 3)), width=3, height=1)


def test_dataset_pixels_are_read_only():
    ds = scalar_dataset([0.0, 1.0])
    with pytest.raises(ValueError):
        ds.pixels[0, 0] = 5.0


def test_channel_views_match_columns():
    rng = np.random.default_rng(5)
    px = rng.uniform(0, 255, (30, 3))
    ds = PixelDataset(pixels=px, width=30, height=1)
    cols = ds.channel_views
    assert len(cols) == 3
    for k in range(3):
        assert np.array_equal(cols[k], ds.pixels[:, k])
        assert cols[k].flags.c_contiguous
        assert not cols[k].flags.writeable


def test_cluster_config_validation():
    cfg = ClusterConfig()
    assert cfg.cluster_count == 5
    assert cfg.fuzzifier == 2.0
    assert cfg.fcm_max_iters == 300
    assert cfg.fcm_rel_tol == 1e-6
    assert cfg.seed == 42
    with pytest.raises(InvalidClusterCountError):
        ClusterConfig(cluster_count=0)
    with pytest.raises(InvalidFuzzifierError):
        ClusterConfig(fuzzifier=1.0)
    with pytest.raises(InvalidFuzzifierError):
        ClusterConfig(fuzzifier=0.5)
    with pytest.raises(InvalidFuzzifierError):
        ClusterConfig(fuzzifier=float("inf"))
    with pytest.raises(InvalidFuzzifierError):
        ClusterConfig(fuzzifier=float("nan"))
    with pytest.raises(ValueError):
        ClusterConfig(fcm_rel_tol=0.0)
    with pytest.raises(ValueError):
        ClusterConfig(fcm_rel_tol=float("inf"))
    with pytest.raises(ValueError):
        ClusterConfig(fcm_rel_tol=float("nan"))
    with pytest.raises(ValueError):
        ClusterConfig(seed=-1)
    with pytest.raises(ValueError):
        ClusterConfig(seed=2**64)
    # non-integral values are rejected at construction, numpy integers pass
    for bad in (2.5, 1.5, 2.0, float("inf"), float("nan")):
        with pytest.raises(InvalidClusterCountError):
            ClusterConfig(cluster_count=bad)
        for name in ("fcm_max_iters", "seed"):
            with pytest.raises(ValueError):
                ClusterConfig(**{name: bad})
    cfg = ClusterConfig(
        cluster_count=np.int64(3), fcm_max_iters=np.int32(7), seed=np.uint64(9)
    )
    assert (cfg.cluster_count, cfg.fcm_max_iters, cfg.seed) == (3, 7, 9)


def test_validate_config_against_dataset():
    ds = scalar_dataset([0.0, 1.0, 2.0])
    assert validate_config(ClusterConfig(cluster_count=3), ds) is not None
    with pytest.raises(TooManyClustersError):
        validate_config(ClusterConfig(cluster_count=4), ds)


def test_validate_config_reports_exact_distinct_count():
    # duplicates interleaved: 4 distinct values, the last first seen at the end
    ds = PixelDataset(
        pixels=np.array(
            [[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [1.0, 5.0], [3.0, 4.0],
             [1.0, 2.0], [1.0, 5.0], [3.0, 4.0], [0.0, 0.0], [1.0, 2.0]]
        ),
        width=10,
        height=1,
    )
    for count in (1, 2, 3, 4):
        assert validate_config(ClusterConfig(cluster_count=count), ds) is not None
    for count in (5, 9):
        with pytest.raises(TooManyClustersError, match=r"only 4 distinct pixel values"):
            validate_config(ClusterConfig(cluster_count=count), ds)


def test_squared_distances_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        d = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        points = rng.uniform(0, 255, (n, d))
        centers = rng.uniform(0, 255, (c, d))
        got = squared_distances(points, centers)
        for i in range(n):
            for j in range(c):
                want = sum((points[i, k] - centers[j, k]) ** 2 for k in range(d))
                assert abs(got[i, j] - want) <= 1e-9 * max(want, 1.0)


def test_squared_distances_exact_on_integers():
    points = np.array([[0.0], [3.0]])
    centers = np.array([[1.0], [10.0]])
    d2 = squared_distances(points, centers)
    assert d2.tolist() == [[1.0, 100.0], [4.0, 49.0]]


def per_center_squared_distances(points, centers):
    """Reference (N, C) distances: one explicit difference per center."""
    d2 = np.empty((len(points), len(centers)))
    for k, center in enumerate(centers):
        diff = points - center
        d2[:, k] = np.sum(diff * diff, axis=1)
    return d2


def test_min_squared_distances_matches_reference_bitwise():
    rng = np.random.default_rng(11)
    sizes = [int(rng.integers(1, 60)) for _ in range(100)]
    sizes += [PIXEL_BLOCK - 1, PIXEL_BLOCK, PIXEL_BLOCK + 1, 2 * PIXEL_BLOCK + 37]
    for n in sizes:
        d = int(rng.integers(1, 4))
        c = int(rng.integers(1, 7))
        px = rng.uniform(0, 255, (n, d))
        ds = PixelDataset(pixels=px, width=n, height=1)
        centers = rng.uniform(0, 255, (c, d))
        reference = per_center_squared_distances(ds.pixels, centers)
        assert np.array_equal(squared_distances(ds.pixels, centers), reference)
        assert np.array_equal(min_squared_distances(ds, centers), reference.min(axis=1))


def test_assign_nearest_basic_and_tie_break():
    ds = PixelDataset(pixels=np.array([[0.0, 0.0, 0.0]]), width=1, height=1)
    labels = assign_nearest(ds, np.array([[1.0, 1.0, 1.0], [9.0, 9.0, 9.0]]))
    assert labels.tolist() == [0]

    # equidistant: lowest index wins
    ds = PixelDataset(pixels=np.array([[5.0, 5.0, 5.0]]), width=1, height=1)
    labels = assign_nearest(ds, np.array([[0.0, 0.0, 0.0], [10.0, 10.0, 10.0]]))
    assert labels.tolist() == [0]


def test_assign_nearest_brute_force_table():
    ds = scalar_dataset([0.0, 4.0, 10.0])
    centers = np.array([[0.0], [10.0]])
    labels = assign_nearest(ds, centers)
    d2 = squared_distances(ds.pixels, centers)
    for i in range(3):
        for k in range(2):
            assert d2[i, labels[i]] <= d2[i, k]
    assert labels.tolist() == [0, 0, 1]


def test_assign_nearest_rejects_empty_centers():
    ds = scalar_dataset([1.0])
    with pytest.raises(ValueError):
        assign_nearest(ds, np.zeros((0, 1)))


def test_assign_nearest_scale_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        px = rng.uniform(0, 100, (15, 2))
        ds = PixelDataset(pixels=px, width=15, height=1)
        centers = rng.uniform(0, 100, (3, 2))
        a = assign_nearest(ds, centers)
        scaled = PixelDataset(pixels=px * 2.0, width=15, height=1)
        b = assign_nearest(scaled, centers * 2.0)
        assert np.array_equal(a, b)


def test_sample_distinct_pixels_properties():
    rng_data = np.random.default_rng(7)
    values = rng_data.integers(0, 8, size=(40, 2)).astype(np.float64)
    ds = PixelDataset(pixels=values, width=40, height=1)
    distinct = {tuple(v) for v in values.tolist()}
    for seed in range(10):
        rng = np.random.default_rng(seed)
        picked = sample_distinct_pixels(ds, 4, rng)
        assert picked.shape == (4, 2)
        rows = [tuple(r) for r in picked.tolist()]
        assert len(set(rows)) == 4, "sampled values must be distinct"
        assert set(rows) <= distinct, "sampled values must exist in the image"


def test_sample_distinct_pixels_exhausts():
    ds = scalar_dataset([1.0, 1.0, 2.0])
    rng = np.random.default_rng(0)
    with pytest.raises(TooManyClustersError):
        sample_distinct_pixels(ds, 3, rng)


def test_sample_distinct_pixels_deterministic():
    ds = scalar_dataset(list(range(20)))
    a = sample_distinct_pixels(ds, 5, np.random.default_rng(123))
    b = sample_distinct_pixels(ds, 5, np.random.default_rng(123))
    assert np.array_equal(a, b)
