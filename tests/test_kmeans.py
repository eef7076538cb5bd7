"""Lloyd's k-means baseline."""

import tracemalloc

import numpy as np
import pytest

from swarmseg import kmeans
from swarmseg.core import (
    ClusterConfig,
    DegenerateClusteringError,
    PixelDataset,
    TooManyClustersError,
    assign_nearest,
    sample_distinct_pixels,
    squared_distances,
)
from swarmseg.kmeans import run_kmeans


def scalar_dataset(values):
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return PixelDataset(pixels=arr, width=len(values), height=1)


def sse_of(dataset, centers, labels):
    d2 = squared_distances(dataset.pixels, centers)
    return float(d2[np.arange(dataset.n_pixels), labels].sum())


def test_two_blob_oracle():
    # only one partition separates the pairs; its centers are the pair means
    ds = scalar_dataset([0.0, 1.0, 9.0, 10.0])
    result = run_kmeans(ds, ClusterConfig(cluster_count=2, seed=0))
    got = sorted(result.centers[:, 0].tolist())
    assert got == [0.5, 9.5]
    assert abs(result.sse_trajectory[-1] - 1.0) <= 1e-12
    assert result.converged


def test_two_blob_oracle_many_seeds():
    ds = scalar_dataset([0.0, 1.0, 9.0, 10.0])
    for seed in range(20):
        result = run_kmeans(ds, ClusterConfig(cluster_count=2, seed=seed))
        assert sorted(result.centers[:, 0].tolist()) == [0.5, 9.5]


def test_beats_every_two_cluster_partition():
    # exhaustive check: the returned SSE is the minimum over all ways to
    # split five points into two non-empty groups
    values = [0.0, 2.0, 3.0, 7.0, 11.0]
    ds = scalar_dataset(values)
    result = run_kmeans(ds, ClusterConfig(cluster_count=2, seed=3))

    best = np.inf
    for mask in range(1, 2**5 - 1):
        groups = ([], [])
        for i, v in enumerate(values):
            groups[(mask >> i) & 1].append(v)
        sse = sum(
            (v - sum(g) / len(g)) ** 2 for g in groups if g for v in g
        )
        best = min(best, sse)
    assert result.sse_trajectory[-1] <= best + 1e-9


def test_one_center_per_distinct_value_gives_zero_sse():
    ds = scalar_dataset([3.0, 8.0, 14.0, 200.0])
    result = run_kmeans(ds, ClusterConfig(cluster_count=4, seed=1))
    assert result.sse_trajectory[-1] == 0.0
    assert sorted(result.centers[:, 0].tolist()) == [3.0, 8.0, 14.0, 200.0]


def test_identical_pixels_single_cluster():
    ds = scalar_dataset([6.0, 6.0, 6.0])
    result = run_kmeans(ds, ClusterConfig(cluster_count=1, seed=0))
    assert result.centers[0, 0] == 6.0
    assert result.sse_trajectory[-1] == 0.0
    assert result.labels.tolist() == [0, 0, 0]


def test_rejects_more_clusters_than_distinct_values():
    ds = scalar_dataset([6.0, 6.0, 7.0])
    with pytest.raises(TooManyClustersError):
        run_kmeans(ds, ClusterConfig(cluster_count=3, seed=0))


def test_sse_trajectory_never_increases():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(6, 50))
        d = int(rng.integers(1, 4))
        px = np.round(rng.uniform(0, 255, (n, d)))
        ds = PixelDataset(pixels=px, width=n, height=1)
        c = min(3, len(np.unique(ds.pixels, axis=0)))
        result = run_kmeans(ds, ClusterConfig(cluster_count=c, seed=int(rng.integers(1000))))
        traj = result.sse_trajectory
        for a, b in zip(traj, traj[1:]):
            assert b <= a + 1e-9 * max(a, 1.0)


def test_result_is_a_lloyd_fixed_point():
    # each label points at its nearest center and each center is the mean
    # of its assigned pixels
    rng = np.random.default_rng(4)
    px = np.round(rng.uniform(0, 255, (40, 3)))
    ds = PixelDataset(pixels=px, width=40, height=1)
    result = run_kmeans(ds, ClusterConfig(cluster_count=3, seed=11))

    d2 = squared_distances(ds.pixels, result.centers)
    assigned = d2[np.arange(40), result.labels]
    assert np.all(assigned <= d2.min(axis=1) + 1e-9)
    for j in range(3):
        members = ds.pixels[result.labels == j]
        assert members.size, "converged run should leave no empty cluster"
        assert np.allclose(result.centers[j], members.mean(axis=0), atol=1e-9)
    assert abs(sse_of(ds, result.centers, result.labels) - result.sse_trajectory[-1]) <= 1e-9


def test_deterministic_for_equal_seeds():
    rng = np.random.default_rng(5)
    px = np.round(rng.uniform(0, 255, (25, 3)))
    ds = PixelDataset(pixels=px, width=25, height=1)
    a = run_kmeans(ds, ClusterConfig(cluster_count=4, seed=9))
    b = run_kmeans(ds, ClusterConfig(cluster_count=4, seed=9))
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.sse_trajectory, b.sse_trajectory)


def test_empty_cluster_is_reseeded_on_farthest_pixel():
    values = [4, 54, 102, 51, 53, 201, 201, 203, 52, 101, 202, 52]
    ds = scalar_dataset(values)
    config = ClusterConfig(cluster_count=4, seed=2)
    start = sample_distinct_pixels(ds, 4, np.random.default_rng(2))
    assert start[:, 0].tolist() == [102.0, 4.0, 101.0, 202.0]
    # First update: {102}, {4, 51, 52, 52}, {53, 54, 101}, {201, 202, 203}
    # gives centers 102, 39.75, 69.33.., 201.75. The second assignment
    # leaves cluster 2 empty; pixel 4 is then farthest from its center
    # (35.75 from 39.75), so cluster 2 restarts there and cluster 1 ends
    # on the mean of 51..54.
    result = run_kmeans(ds, config)
    assert result.centers[:, 0].tolist() == [101.5, 262.0 / 5, 4.0, 201.75]
    assert result.labels.tolist() == [2, 1, 0, 1, 1, 3, 3, 3, 1, 0, 3, 1]
    assert result.converged


def keep_empty_then(monkeypatch, script):
    """Start k-means on centers 0, 10, 255 and script its reseeds.

    Reseed call k returns ``script[k]``, or reseeds as usual once the script
    runs out. Centers 0 and 10 swapping places change every label while the
    center at 255 stays empty, so the loop neither converges nor recovers.
    """
    calls, reseed = [], kmeans.reseed_farthest

    def fake(dataset, centers, empty, dist_to_assigned):
        calls.append(empty)
        if len(calls) > len(script):
            return reseed(dataset, centers, empty, dist_to_assigned)
        return np.array(script[len(calls) - 1], dtype=np.float64).reshape(-1, 1)

    start = np.array([[0.0], [10.0], [255.0]])
    monkeypatch.setattr(kmeans, "sample_distinct_pixels", lambda *_: start)
    monkeypatch.setattr(kmeans, "reseed_farthest", fake)
    return calls


def test_kmeans_gives_up_on_the_c_plus_first_empty_step_in_a_row(monkeypatch):
    calls = keep_empty_then(monkeypatch, [[10, 0, 255], [0, 10, 255], [10, 0, 255]])
    ds = scalar_dataset([0, 1, 9, 10])
    with pytest.raises(DegenerateClusteringError, match="empty clusters recurred 4 times in a row"):
        run_kmeans(ds, ClusterConfig(cluster_count=3))
    assert calls == [[2], [2], [2]]


def test_kmeans_restarts_the_empty_count_after_a_clean_step(monkeypatch):
    # After three empty steps, centers -4, 5, 14 split the pixels {0},
    # {1, 9}, {10}: no cluster is empty. Their means 0, 5, 10 leave cluster
    # 1 empty again, the fourth empty step but the first since the clean
    # one; the usual reseed puts it on pixel 1 and the run converges.
    calls = keep_empty_then(monkeypatch, [[10, 0, 255], [0, 10, 255], [-4, 5, 14]])
    ds = scalar_dataset([0, 1, 9, 10])
    result = run_kmeans(ds, ClusterConfig(cluster_count=3))
    assert calls == [[2], [2], [2], [1]]
    assert result.converged
    assert result.centers[:, 0].tolist() == [0.0, 1.0, 9.5]
    assert result.labels.tolist() == [0, 1, 2, 2]


@pytest.mark.parametrize("cap", [1, 2])
def test_iteration_cap_returns_labels_of_returned_centers(monkeypatch, cap):
    rng = np.random.default_rng(21)
    px = np.round(rng.uniform(0, 255, (300, 3)))
    ds = PixelDataset(pixels=px, width=300, height=1)
    config = ClusterConfig(cluster_count=5, seed=3)
    # uncapped, this run needs more assignments than either cap allows
    assert run_kmeans(ds, config).iterations > cap + 1

    monkeypatch.setattr("swarmseg.kmeans._MAX_ITERS", cap)
    result = run_kmeans(ds, config)
    assert not result.converged
    assert result.iterations == cap + 1
    assert len(result.sse_trajectory) == cap + 1
    d2 = squared_distances(ds.pixels, result.centers)
    assert np.array_equal(result.labels, np.argmin(d2, axis=1))
    assert result.sse_trajectory[-1] == float(np.sum(d2.min(axis=1)))


def test_run_kmeans_and_assign_nearest_hold_no_pixel_by_cluster_array(monkeypatch):
    # at C = 9 one (N, C) float64 array (18.9 MB) dwarfs what a Lloyd step
    # must hold: the labels, the previous labels and one cluster's members.
    # Every step holds the same, so a few of them show the peak.
    monkeypatch.setattr("swarmseg.kmeans._MAX_ITERS", 4)
    rng = np.random.default_rng(5)
    c, n = 9, 512 * 512
    levels = rng.uniform(30, 225, (c, 3))
    px = np.round(levels[np.arange(n) % c] + rng.normal(0, 12, (n, 3)))
    ds = PixelDataset(pixels=np.clip(px, 0, 255).astype(np.uint8), width=512, height=512)
    one_array = n * c * 8
    tracemalloc.start()
    try:
        result = run_kmeans(ds, ClusterConfig(cluster_count=c))
        kmeans_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        assign_nearest(ds, result.centers)
        assign_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert result.iterations >= 2
    assert kmeans_peak < one_array, kmeans_peak
    assert assign_peak < one_array, assign_peak


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("integer", [True, False])
def test_centers_are_the_masked_means_of_the_labels(d, integer):
    # a converged run's centers were updated from its final labels
    rng = np.random.default_rng(d)
    n = 3000
    px = rng.uniform(0, 255, (n, d))
    if integer:
        px = np.round(px)
    ds = PixelDataset(pixels=px, width=n, height=1)
    result = run_kmeans(ds, ClusterConfig(cluster_count=5, seed=1))
    assert result.converged
    means = np.stack([ds.pixels[result.labels == j].mean(axis=0) for j in range(5)])
    assert np.array_equal(result.centers, means)
