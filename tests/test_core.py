"""Domain type validation and distance/assignment primitives."""

import pickle
import tracemalloc

import numpy as np
import pytest

from swarmseg import RawImage
from swarmseg.core import (
    BOUND_BOX,
    CENTER_SETS_PER_SWEEP,
    PIXEL_BLOCK,
    ClusterConfig,
    DegenerateClusteringError,
    InvalidClusterCountError,
    InvalidFuzzifierError,
    PixelDataset,
    TooManyClustersError,
    _count_distinct,
    _first_best,
    _Fitness,
    _kept_rows,
    assign_nearest,
    min_squared_distances,
    quantization_errors,
    reseed_streak,
    sample_distinct_pixels,
    squared_distances,
    validate_config,
)
from swarmseg.fcm import compute_memberships, fcm_objective, run_fcm, update_centers
from swarmseg.imaging import to_dataset
from swarmseg.report import evaluate_jm
from swarmseg.synthetic import gaussian_blob_image


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


def test_dataset_from_8bit_levels_equals_the_float_copy():
    # 8-bit input skips the range checks; the stored array is unchanged
    px = np.arange(256 * 3, dtype=np.uint8).reshape(256, 3)
    ds = PixelDataset(pixels=px, width=256, height=1)
    ref = PixelDataset(pixels=px.astype(np.float64), width=256, height=1)
    assert ds.pixels.dtype == np.float64
    assert np.array_equal(ds.pixels, ref.pixels)
    assert ds.pixels.T.flags.c_contiguous and not ds.pixels.flags.writeable


@pytest.mark.parametrize(
    "px",
    [
        np.array([[0, 256, 3]], dtype=np.int16),
        np.array([[0, -1, 3]], dtype=np.int16),
        np.array([[0.0, 255.5, 3.0]]),
        np.array([[0.0, np.inf, 3.0]], dtype=np.float32),
    ],
    ids=["int16-high", "int16-negative", "float-high", "float32-inf"],
)
def test_dataset_still_checks_other_dtypes(px):
    with pytest.raises(ValueError):
        PixelDataset(pixels=px, width=1, height=1)


def test_dataset_pixels_are_read_only():
    ds = scalar_dataset([0.0, 1.0])
    with pytest.raises(ValueError):
        ds.pixels[0, 0] = 5.0


def test_pixels_are_one_channel_major_copy():
    # pixels is the (N, d) view of one fresh (d, N) float64 array
    rng = np.random.default_rng(5)
    px = rng.integers(0, 256, (30, 3), dtype=np.uint8)
    ds = PixelDataset(pixels=px, width=30, height=1)
    cols = ds.pixels.T
    assert cols.shape == (3, 30) and cols.dtype == np.float64
    assert cols.flags.c_contiguous
    assert not cols.flags.writeable
    assert ds.pixels.base.flags.owndata and ds.pixels.base.nbytes == 30 * 3 * 8
    assert np.array_equal(ds.pixels, px)


def test_dataset_pickles_to_a_checked_read_only_copy():
    # worker processes receive datasets by pickle: the copy keeps the
    # channel-major layout, the values and the read-only flag
    rng = np.random.default_rng(6)
    ds = PixelDataset(pixels=rng.uniform(0, 255, (12, 3)), width=4, height=3)
    copy = pickle.loads(pickle.dumps(ds))
    assert (copy.width, copy.height) == (4, 3)
    assert copy.pixels.T.flags.c_contiguous
    assert not copy.pixels.flags.writeable
    assert copy.pixels.tobytes() == ds.pixels.tobytes()


def test_dataset_leaves_the_callers_array_writable():
    px = np.zeros((2, 3))
    PixelDataset(pixels=px, width=2, height=1)
    assert px.flags.writeable


def test_dataset_does_not_alias_the_callers_buffer():
    base = np.zeros((4, 3))
    ds = PixelDataset(pixels=base[:2], width=2, height=1)
    base[0, 0] = 999.0
    assert ds.pixels[0, 0] == 0.0
    assert not np.shares_memory(ds.pixels, base)


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


FUZZIFIER_ENTRY_POINTS = {
    "ClusterConfig": lambda ds, m: ClusterConfig(fuzzifier=m),
    "compute_memberships": lambda ds, m: compute_memberships(ds, np.array([[0.0], [3.0]]), m),
    "update_centers": lambda ds, m: update_centers(ds, np.full((3, 2), 0.5), m),
    "fcm_objective": lambda ds, m: fcm_objective(
        ds, np.array([[0.0], [3.0]]), np.full((3, 2), 0.5), m
    ),
    "evaluate_jm": lambda ds, m: evaluate_jm(ds, np.array([[0.0], [3.0]]), m),
}


@pytest.mark.parametrize("fuzzifier", [1.0, np.inf, np.nan])
@pytest.mark.parametrize("entry", sorted(FUZZIFIER_ENTRY_POINTS))
def test_every_fuzzifier_entry_point_rejects_values_outside_one_to_infinity(entry, fuzzifier):
    ds = scalar_dataset([0.0, 1.0, 3.0])
    with pytest.raises(InvalidFuzzifierError, match="fuzzifier must be finite and > 1"):
        FUZZIFIER_ENTRY_POINTS[entry](ds, fuzzifier)


@pytest.mark.parametrize("count", [0, -1, 2.0])
def test_sample_distinct_pixels_rejects_a_bad_count_as_the_config_does(count):
    ds = scalar_dataset([0.0, 1.0, 2.0])
    with pytest.raises(InvalidClusterCountError):
        sample_distinct_pixels(ds, count, np.random.default_rng(0))
    with pytest.raises(InvalidClusterCountError):
        ClusterConfig(cluster_count=count)


def test_reseed_streak_counts_steps_in_a_row_and_gives_up_past_the_limit():
    assert reseed_streak(2, [], 3, "dead") == 0
    assert reseed_streak(0, [1], 3, "dead") == 1
    assert reseed_streak(2, [0, 2], 3, "dead") == 3
    with pytest.raises(DegenerateClusteringError, match="^empty clusters recurred 4 times in a row$"):
        reseed_streak(3, [1], 3, "empty")


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


@pytest.mark.parametrize("limit", [3, 64])
@pytest.mark.parametrize("palette", [2, 40, 63, 64, 65, None])
def test_count_distinct_matches_unique(palette, limit):
    # integer pixels with up to three channels are counted by sorting packed
    # levels, other pixels by the pass per color; both agree with np.unique
    # below the limit and cap at it
    rng = np.random.default_rng(64)
    if palette is None:
        px = rng.integers(0, 256, (20000, 3)).astype(np.float64)
    else:
        colors = rng.integers(0, 256, (palette, 3))
        px = colors[rng.permutation(np.arange(5000) % palette)].astype(np.float64)
    four = np.column_stack((px, px[:, ::-1]))[:, :4]
    for pixels in (px, px[:, :1], px[:, :2], four, px * 0.5 + 0.25):
        want = len(np.unique(pixels, axis=0))
        assert _count_distinct(pixels, limit) == min(want, limit)
        ds = PixelDataset(pixels=pixels, width=len(pixels), height=1)
        if want < limit:
            with pytest.raises(TooManyClustersError, match=rf"only {want} distinct pixel values"):
                validate_config(ClusterConfig(cluster_count=limit), ds)
        else:
            assert validate_config(ClusterConfig(cluster_count=limit), ds) is not None


@pytest.mark.parametrize("integer", [True, False])
def test_count_distinct_reads_past_a_short_prefix(integer):
    # the first PIXEL_BLOCK rows hold 2 distinct values, the rest 5 more:
    # the early stop must not cap the count at the prefix's
    rng = np.random.default_rng(7)
    head = np.repeat([[10.0, 20.0, 30.0], [40.0, 50.0, 60.0]], PIXEL_BLOCK // 2, axis=0)
    tail = rng.permutation(np.arange(500) % 5)[:, None] * np.array([[1.0, 2.0, 3.0]]) + 100.0
    pixels = np.vstack((head, tail))
    if not integer:
        pixels = pixels + 0.5
    for limit in (2, 3, 7, 8):
        assert _count_distinct(pixels, limit) == min(7, limit)
    # a prefix that already reaches the limit stops the count
    assert _count_distinct(np.vstack((tail, head)), 5) == 5


def test_squared_distances_are_c_ordered():
    # numpy's reductions downstream follow the memory layout, so the (N, C)
    # result must not be the transposed view of a (C, N) array
    rng = np.random.default_rng(2)
    n = PIXEL_BLOCK + 3
    ds = PixelDataset(pixels=rng.uniform(0, 255, (n, 3)), width=n, height=1)
    d2 = squared_distances(ds.pixels, rng.uniform(0, 255, (4, 3)))
    assert d2.shape == (n, 4)
    assert d2.flags.c_contiguous


CENTER_ENTRY_POINTS = {
    "squared_distances": lambda ds, centers: squared_distances(ds.pixels, centers),
    "min_squared_distances": min_squared_distances,
    "assign_nearest": assign_nearest,
    "quantization_errors": lambda ds, centers: quantization_errors(ds, centers[None]),
    "compute_memberships": lambda ds, centers: compute_memberships(ds, centers, 2.0),
    "evaluate_jm": evaluate_jm,
    "run_fcm": lambda ds, centers: run_fcm(ds, centers, ClusterConfig(cluster_count=3)),
}


@pytest.mark.parametrize("width", [2, 4])
@pytest.mark.parametrize("entry", sorted(CENTER_ENTRY_POINTS))
def test_center_width_must_match_channels(entry, width):
    rng = np.random.default_rng(4)
    ds = PixelDataset(pixels=rng.uniform(0, 255, (50, 3)), width=50, height=1)
    centers = rng.uniform(0, 255, (3, width))
    message = rf"centers are {width} wide but the pixels have 3 channels"
    with pytest.raises(ValueError, match=message):
        CENTER_ENTRY_POINTS[entry](ds, centers)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", sorted(CENTER_ENTRY_POINTS))
def test_centers_must_be_finite(entry, bad):
    rng = np.random.default_rng(4)
    ds = PixelDataset(pixels=rng.uniform(0, 255, (50, 3)), width=50, height=1)
    centers = rng.uniform(0, 255, (3, 3))
    centers[1, 2] = bad
    with pytest.raises(ValueError, match="centers must be finite"):
        CENTER_ENTRY_POINTS[entry](ds, centers)


# the entry points that reach ``_distance_blocks``, the one non-empty (C, d) check
DISTANCE_BLOCK_ENTRY_POINTS = {
    "squared_distances", "min_squared_distances", "assign_nearest",
    "compute_memberships", "evaluate_jm",
}


# squared_distances is the one entry point that takes raw points: they get the same shapes
POINTS_ENTRY_POINT = {
    "squared_distances points": lambda ds, points: squared_distances(points, ds.pixels[:3]),
}


@pytest.mark.parametrize("shape", [(3,), (0, 3)], ids=["1-d", "no-rows"])
@pytest.mark.parametrize("entry", [*sorted(CENTER_ENTRY_POINTS), *POINTS_ENTRY_POINT])
def test_centers_must_be_a_non_empty_matrix(entry, shape):
    rng = np.random.default_rng(4)
    ds = PixelDataset(pixels=rng.uniform(0, 255, (50, 3)), width=50, height=1)
    array = rng.uniform(0, 255, shape)
    message = r"non-empty \(C, d\)" if entry in DISTANCE_BLOCK_ENTRY_POINTS else None
    if entry in POINTS_ENTRY_POINT:
        message = r"^points must be a non-empty \(N, d\) array$"
    with pytest.raises(ValueError, match=message):
        {**CENTER_ENTRY_POINTS, **POINTS_ENTRY_POINT}[entry](ds, array)


@pytest.mark.parametrize("b", [PIXEL_BLOCK, 37])
@pytest.mark.parametrize(
    "chain, arg, best",
    [({}, np.argmin, np.min), ({"better": np.greater, "keep": np.maximum}, np.argmax, np.max)],
    ids=["min", "max"],
)
def test_first_best_is_the_first_arg_best_and_best_on_axis_0(chain, arg, best, b):
    rng = np.random.default_rng(b)
    small = rng.integers(0, 4, (5, b)).astype(np.float64)  # many exact ties
    blocks = {
        "one row": small[:1],
        "ties": small,
        "duplicate rows": small[[0, 1, 0, 2, 1]],
        "rows of +inf": np.vstack((np.full(b, np.inf), small[:2], np.full((2, b), np.inf))),
        "all +inf": np.full((3, b), np.inf),
        "uniform": rng.uniform(0, 1, (4, b)),
    }
    for name, rows in blocks.items():
        labels, values = np.full(b, -1, dtype=np.intp), np.full(b, np.nan)
        _first_best(rows, labels, values, **chain)
        assert np.array_equal(labels, arg(rows, axis=0)), name
        assert np.array_equal(values, best(rows, axis=0)), name


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
        if n % 2 or n >= PIXEL_BLOCK - 1:
            # a repeated row ties with its original: the lower index must win
            copy = centers[rng.integers(c)]
            centers = np.insert(centers, rng.integers(c + 1), copy, axis=0)
        reference = per_center_squared_distances(ds.pixels, centers)
        assert np.array_equal(squared_distances(ds.pixels, centers), reference)
        assert np.array_equal(min_squared_distances(ds, centers), reference.min(axis=1))
        assert np.array_equal(assign_nearest(ds, centers), reference.argmin(axis=1))


def dense_errors(dataset, center_sets):
    """The one-set reference for ``quantization_errors``, set by set."""
    return np.array([np.sum(min_squared_distances(dataset, s)) for s in center_sets])


def banded_dataset():
    """A 256x128 box-averaged image of four color bands, one per pixel block."""
    means = [(60.0, 60.0, 60.0), (120.0, 120.0, 120.0),
             (230.0, 230.0, 60.0), (60.0, 230.0, 230.0)]
    bands = [
        gaussian_blob_image([mean], width=512, height=64, sigma=12.0, seed=31 + k)
        for k, mean in enumerate(means)
    ]
    image = RawImage(width=512, height=256, rgb8=b"".join(b.rgb8 for b in bands))
    return to_dataset(image, max_side=256)


@pytest.mark.parametrize("d", [1, 3])
def test_bounded_errors_match_dense_on_adversarial_blocks(d):
    # block 0 is one color, block 1 a narrow band of integers, and the
    # ragged last block spans [0, 255] in every channel
    rng = np.random.default_rng(40 + d)
    n = 2 * PIXEL_BLOCK + 37
    px = np.empty((n, d))
    px[:PIXEL_BLOCK] = 40.0
    px[PIXEL_BLOCK : 2 * PIXEL_BLOCK] = rng.integers(100, 111, (PIXEL_BLOCK, d))
    px[2 * PIXEL_BLOCK :] = rng.uniform(0, 255, (37, d))
    px[-2:] = [[0.0] * d, [255.0] * d]
    ds = PixelDataset(pixels=px, width=n, height=1)
    sets = np.stack([
        # on the one-color block (upper bound 0), far from the band
        [[40.0] * d, [200.0] * d, [250.0] * d, [180.0] * d],
        # duplicates: the on-color center twice, then a band center twice
        [[40.0] * d, [40.0] * d, [105.0] * d, [105.0] * d],
        # the band's middle, 105, is equidistant from 95 and 115
        [[95.0] * d, [115.0] * d, [0.0] * d, [255.0] * d],
        # one center per block and a fourth close to the band
        [[40.0] * d, [105.5] * d, [128.0] * d, [112.0] * d],
        *rng.uniform(0, 255, (3, 4, d)),
    ])
    assert len(sets) % CENTER_SETS_PER_SWEEP == 1  # the last group has one set
    _, count = _kept_rows(ds.pixels.T, sets)
    assert count[0, 0] == 1  # only the center on the block's color stays
    assert count[1, 0] == 2  # both copies of it
    assert count[2, 1] == 2  # both equidistant centers
    assert count[2, 0] == count[3, 0] == 1  # a group scored from one row per set
    assert np.all(count[:, 2] == 4)  # the full-range block keeps every row
    want = dense_errors(ds, sets)
    assert np.array_equal(quantization_errors(ds, sets), want)
    for p in range(len(sets)):
        assert np.array_equal(quantization_errors(ds, sets[p : p + 1]), want[p : p + 1])


def test_bounded_errors_keep_ties_with_a_zero_upper_bound():
    # each block is one color; the first two sets have a center on each,
    # the third one center twice, which ties with itself in both blocks
    px = np.repeat([[10.0, 20.0, 30.0], [200.0, 100.0, 0.0]], PIXEL_BLOCK, axis=0)
    ds = PixelDataset(pixels=px, width=2 * PIXEL_BLOCK, height=1)
    sets = np.array([
        [[10.0, 20.0, 30.0], [200.0, 100.0, 0.0]],
        [[200.0, 100.0, 0.0], [10.0, 20.0, 30.0]],
        [[10.0, 20.0, 30.0], [10.0, 20.0, 30.0]],
    ])
    _, count = _kept_rows(ds.pixels.T, sets)
    assert count.tolist() == [[1, 1], [1, 1], [2, 2]]
    assert np.array_equal(quantization_errors(ds, sets), dense_errors(ds, sets))
    assert quantization_errors(ds, sets)[:2].tolist() == [0.0, 0.0]


def test_kept_rows_list_kept_centers_in_order_then_pad():
    px = np.repeat([[0.0], [100.0]], PIXEL_BLOCK, axis=0)
    ds = PixelDataset(pixels=px, width=2 * PIXEL_BLOCK, height=1)
    sets = np.array([[[90.0], [1.0], [99.0], [2.0]]])
    index, count = _kept_rows(ds.pixels.T, sets)
    assert count.tolist() == [[1, 1]]
    assert index[0, :, 0].tolist() == [1, 1, 1, 1]
    assert index[0, :, 1].tolist() == [2, 2, 2, 2]
    sets = np.array([[[50.0], [0.0], [50.0], [100.0]]])
    index, count = _kept_rows(ds.pixels.T, sets)
    assert count.tolist() == [[1, 1]]
    assert index[0, :, 0].tolist() == [1, 1, 1, 1]
    assert index[0, :, 1].tolist() == [3, 3, 3, 3]


def test_bounded_errors_drop_rows_on_a_banded_image():
    ds = banded_dataset()
    assert ds.n_pixels == 4 * PIXEL_BLOCK
    rng = np.random.default_rng(9)
    sets = np.stack([sample_distinct_pixels(ds, 4, rng) for _ in range(9)])
    sets[::2] += rng.uniform(-20, 20, sets[::2].shape)
    np.clip(sets, 0, 255, out=sets)
    _, count = _kept_rows(ds.pixels.T, sets)
    # the pruned path runs: rows drop, and in some groups not every row stays
    assert count.sum() < count.size * 4
    assert np.any(count == 1)
    assert np.array_equal(quantization_errors(ds, sets), dense_errors(ds, sets))


@pytest.mark.parametrize("d", [1, 3])
def test_boxes_drop_rows_the_block_box_keeps(d):
    # 256-pixel boxes alternate between a band around 40 and one around
    # 200; the last block ends with a whole box and a ragged one
    assert PIXEL_BLOCK % BOUND_BOX == 0
    rng = np.random.default_rng(50 + d)
    n = 2 * PIXEL_BLOCK + BOUND_BOX + 44
    band = (np.arange(n) // BOUND_BOX) % 2
    px = np.where(band[:, None] == 0, 40.0, 200.0) + rng.integers(-3, 4, (n, d))
    ds = PixelDataset(pixels=px, width=n, height=1)
    sets = np.stack([
        [[40.0] * d, [200.0] * d, [120.0] * d, [128.0] * d],
        [[120.0] * d, [41.0] * d, [120.0] * d, [199.0] * d],
        [[0.0] * d, [255.0] * d, [130.0] * d, [90.0] * d],
        *rng.uniform(0, 255, (2, 4, d)),
    ])
    assert len(sets) % CENTER_SETS_PER_SWEEP == 1  # the last group has one set
    # every block's own box holds 120 and 128, so its bound keeps them ...
    for start in range(0, n, PIXEL_BLOCK):
        block = px[start : start + PIXEL_BLOCK]
        assert np.all(block.min(axis=0) < 120.0) and np.all(block.max(axis=0) > 128.0)
    # ... but no 256-pixel box does
    _, count = _kept_rows(ds.pixels.T, sets)
    assert count.shape == (len(sets), 3)
    assert count[:2].tolist() == [[2, 2, 2], [2, 2, 2]]
    assert np.all(count[2] == 2)  # 90 for the low band, 255 for the high one
    want = dense_errors(ds, sets)
    assert np.array_equal(quantization_errors(ds, sets), want)
    for p in range(len(sets)):
        assert np.array_equal(quantization_errors(ds, sets[p : p + 1]), want[p : p + 1])


def test_one_scorer_serves_many_calls():
    ds = banded_dataset()
    rng = np.random.default_rng(12)
    score = _Fitness(ds, 5, 4)  # the last group holds one set
    for _ in range(3):
        sets = np.stack([sample_distinct_pixels(ds, 4, rng) for _ in range(5)])
        sets += rng.uniform(-30, 30, sets.shape)
        np.clip(sets, 0, 255, out=sets)
        got = score(sets.reshape(5, 4 * 3))
        assert np.array_equal(got, quantization_errors(ds, sets))
        assert np.array_equal(got, dense_errors(ds, sets))


def test_a_scorer_call_allocates_no_array_of_every_pixel():
    rng = np.random.default_rng(13)
    n = 4 * PIXEL_BLOCK + 100
    ds = PixelDataset(pixels=rng.uniform(0, 255, (n, 3)), width=n, height=1)
    position = rng.uniform(0, 255, (3, 4 * 3))
    one_array = n * 8
    score = _Fitness(ds, 3, 4)
    tracemalloc.start()
    try:
        score(position)
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        got = score(position)
        call_peak = tracemalloc.get_traced_memory()[1] - held
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        want = quantization_errors(ds, position.reshape(3, 4, 3))
        one_shot_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, want)
    assert call_peak < one_array, call_peak
    # the one-shot form makes its (N,) scratch, so the measurement sees it
    assert one_shot_peak >= one_array, one_shot_peak


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
