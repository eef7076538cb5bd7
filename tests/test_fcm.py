"""Fuzzy c-means: closed-form updates, objective, and the alternating loop."""

import tracemalloc

import numpy as np
import pytest

from swarmseg.core import (
    EPS_ZERO,
    PIXEL_BLOCK,
    ClusterConfig,
    DeadClusterError,
    DegenerateClusteringError,
    PixelDataset,
    squared_distances,
)
from swarmseg import fcm
from swarmseg.fcm import (
    _CenterSums,
    _StreamedSum,
    _Sweep,
    _cluster_sums,
    _reseed_dead,
    _update_centers_partial,
    compute_memberships,
    fcm_objective,
    run_fcm,
    update_centers,
)
from swarmseg.report import evaluate_jm


def scalar_dataset(values):
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return PixelDataset(pixels=arr, width=len(values), height=1)


# Self-contained scalar alternating-optimization loop, written against the
# textbook formulas only (ratio of distances, weighted means). Used to
# cross-check run_fcm without sharing any code with it.
def scalar_fcm_reference(values, centers, m, sweeps):
    cs = [float(c) for c in centers]
    u = []
    for _ in range(sweeps):
        u = []
        for x in values:
            d2 = [(x - c) ** 2 for c in cs]
            if min(d2) < 1e-24:
                row = [0.0] * len(cs)
                row[d2.index(min(d2))] = 1.0
            else:
                row = []
                for j in range(len(cs)):
                    acc = 0.0
                    for k in range(len(cs)):
                        acc += (d2[j] / d2[k]) ** (1.0 / (m - 1.0))
                    row.append(1.0 / acc)
            u.append(row)
        for j in range(len(cs)):
            num = sum((u[i][j] ** m) * values[i] for i in range(len(values)))
            den = sum(u[i][j] ** m for i in range(len(values)))
            cs[j] = num / den
    jm = 0.0
    for i, x in enumerate(values):
        for j, c in enumerate(cs):
            jm += (u[i][j] ** m) * (x - c) ** 2
    return cs, jm


def test_membership_two_center_oracle():
    ds = scalar_dataset([0.0])
    u = compute_memberships(ds, np.array([[1.0], [3.0]]), 2.0)
    # distances 1 and 3, squared 1 and 9: weights 1 and 1/9
    assert abs(u[0, 0] - 0.9) <= 1e-12
    assert abs(u[0, 1] - 0.1) <= 1e-12


def test_membership_equidistant_splits_evenly():
    ds = scalar_dataset([5.0])
    u = compute_memberships(ds, np.array([[0.0], [10.0]]), 2.0)
    assert abs(u[0, 0] - 0.5) <= 1e-12
    assert abs(u[0, 1] - 0.5) <= 1e-12


def test_membership_crisp_at_center():
    ds = scalar_dataset([7.0])
    u = compute_memberships(ds, np.array([[1.0], [7.0], [9.0]]), 2.0)
    assert u[0].tolist() == [0.0, 1.0, 0.0]


def test_membership_rows_sum_to_one():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(1, 51))
        c = int(rng.integers(1, 6))
        d = int(rng.integers(1, 4))
        m = float(rng.uniform(1.1, 4.0))
        ds = PixelDataset(
            pixels=rng.uniform(0, 255, (n, d)), width=n, height=1
        )
        u = compute_memberships(ds, rng.uniform(0, 255, (c, d)), m)
        sums = u.sum(axis=1)
        assert np.all(np.abs(sums - 1.0) <= 1e-9)
        assert np.all(u >= 0.0)


@pytest.mark.parametrize("fuzzifier", [1.5, 2.0, 3.0, 2.5])
def test_memberships_match_out_of_place_formula_bitwise(fuzzifier):
    rng = np.random.default_rng(4)
    for c in (2, 9):
        px = np.round(rng.uniform(0, 255, (500, 3)))
        ds = PixelDataset(pixels=px, width=500, height=1)
        centers = px[:c] + rng.uniform(-2, 2, (c, 3))
        centers[0] = px[7]  # pixel 7 is crisp
        d2 = squared_distances(ds.pixels, centers)
        d2_safe = np.maximum(d2, 1e-24)
        weights = (d2_safe.min(axis=1, keepdims=True) / d2_safe) ** (
            1.0 / (fuzzifier - 1.0)
        )
        want = weights / weights.sum(axis=1, keepdims=True)
        crisp = np.where((d2 < 1e-24).any(axis=1))[0]
        want[crisp] = 0.0
        want[crisp, np.argmax(d2[crisp] < 1e-24, axis=1)] = 1.0
        assert np.array_equal(compute_memberships(ds, centers, fuzzifier), want)


def full_membership_formula(d2, fuzzifier):
    """The (N, C) formula on the transposed (C, b) ``d2``; always exponentiates and tests crispness."""
    eps2 = EPS_ZERO**2
    dn = np.ascontiguousarray(d2.T)
    safe = np.maximum(dn, eps2)
    u = (safe.min(axis=1, keepdims=True) / safe) ** (1.0 / (fuzzifier - 1.0))
    u /= u.sum(axis=1, keepdims=True)
    crisp = np.flatnonzero((dn < eps2).any(axis=1))
    u[crisp] = 0.0
    u[crisp, np.argmax(dn[crisp] < eps2, axis=1)] = 1.0
    return u.T


@pytest.mark.parametrize("fuzzifier", [1.5, 2.0, 3.0])
def test_membership_block_matches_the_full_formula_at_the_crisp_threshold(fuzzifier):
    eps2 = EPS_ZERO**2
    edges = [0.0, np.nextafter(eps2, 0.0), eps2, np.nextafter(eps2, np.inf)]
    rng = np.random.default_rng(3)
    # every ordered pair of edge values in a column's first two rows; the third is far
    pairs = np.array([(a, b) for a in edges for b in edges]).T
    crisp_edges = np.vstack([pairs, rng.uniform(1.0, 100.0, pairs.shape[1])])
    no_crisp = np.array([[eps2, 4.0, 9.0], [np.nextafter(eps2, np.inf), eps2, 2.5], [5.0, 1.0, eps2]])
    far = rng.uniform(1.0, 60000.0, (3, 40))  # no entry near EPS², so no crisp test
    for d2 in (crisp_edges, no_crisp, far):
        u = np.full(d2.shape, np.nan)
        fcm._membership_block(d2.copy(), fuzzifier, u)
        assert np.array_equal(u, full_membership_formula(d2, fuzzifier))
    # a column with two crisp entries goes to the first of them
    u = np.empty((3, 1))
    fcm._membership_block(np.array([[1.0], [0.0], [0.0]]), fuzzifier, u)
    assert u[:, 0].tolist() == [0.0, 1.0, 0.0]


def test_membership_rejects_bad_fuzzifier():
    ds = scalar_dataset([1.0])
    with pytest.raises(ValueError):
        compute_memberships(ds, np.array([[0.0]]), 1.0)


def test_update_centers_soft_oracle():
    ds = scalar_dataset([0.0, 10.0])
    u = np.array([[0.9, 0.1], [0.1, 0.9]])
    centers = update_centers(ds, u, 2.0)
    # weights 0.81/0.01 per column: (0.01*10)/0.82 and (0.81*10)/0.82
    assert abs(centers[0, 0] - 10.0 / 82.0) <= 1e-12
    assert abs(centers[1, 0] - 810.0 / 82.0) <= 1e-12


def test_update_centers_crisp_means():
    ds = scalar_dataset([0.0, 2.0, 10.0])
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    centers = update_centers(ds, u, 2.0)
    assert centers[:, 0].tolist() == [1.0, 10.0]


def test_update_centers_uniform_memberships_collapse():
    ds = scalar_dataset([0.0, 10.0])
    u = np.full((2, 2), 0.5)
    centers = update_centers(ds, u, 2.0)
    assert centers[:, 0].tolist() == [5.0, 5.0]


def test_update_centers_reports_dead_column():
    ds = scalar_dataset([0.0, 10.0])
    u = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(DeadClusterError) as info:
        update_centers(ds, u, 2.0)
    assert info.value.dead == [1]


def test_update_centers_shape_checks():
    ds = scalar_dataset([0.0, 10.0])
    with pytest.raises(ValueError):
        update_centers(ds, np.ones((3, 2)), 2.0)


@pytest.mark.parametrize(
    "memberships",
    [
        np.full((3, 1), 0.5),  # broadcast against two centers' distances
        np.full((3, 3), 0.5),
        np.full((2, 2), 0.5),
        np.full(3, 0.5),
        np.full((3, 2), np.nan),
        np.full((3, 2), np.inf),
        np.full((3, 2), -0.5),
    ],
    ids=["one-column", "three-columns", "two-rows", "1-d", "nan", "inf", "negative"],
)
def test_objective_rejects_memberships_that_are_not_finite_nonnegative_n_by_c(memberships):
    ds = scalar_dataset([0.0, 5.0, 10.0])
    with pytest.raises(ValueError, match="memberships"):
        fcm_objective(ds, np.array([[1.0], [9.0]]), memberships, 2.0)


@pytest.mark.parametrize(
    "memberships",
    [
        np.full((3, 2), np.nan),
        np.full((3, 2), -0.5),  # (-0.5)**2 == 0.5**2: the weights alone cannot tell
        np.array([[0.5, 0.5], [0.5, np.inf], [0.5, 0.5]]),
        np.ones((3, 0)),
        np.ones((2, 2)),
        np.ones(3),
    ],
    ids=["nan", "negative", "inf", "no-columns", "two-rows", "1-d"],
)
def test_update_centers_rejects_memberships_that_are_not_finite_nonnegative_n_by_c(memberships):
    ds = scalar_dataset([0.0, 5.0, 10.0])
    with pytest.raises(ValueError, match="memberships"):
        update_centers(ds, memberships, 2.0)


def test_objective_oracle():
    ds = scalar_dataset([0.0])
    centers = np.array([[1.0], [3.0]])
    u = np.array([[0.9, 0.1]])
    # 0.81 * 1 + 0.01 * 9
    assert abs(fcm_objective(ds, centers, u, 2.0) - 0.9) <= 1e-12


def test_objective_zero_for_perfect_crisp_fit():
    ds = scalar_dataset([4.0, 4.0, 9.0])
    centers = np.array([[4.0], [9.0]])
    u = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert fcm_objective(ds, centers, u, 2.0) == 0.0


def test_run_fcm_matches_scalar_reference():
    values = [0.0, 1.0, 9.0, 10.0]
    ds = scalar_dataset(values)
    config = ClusterConfig(cluster_count=2, fcm_rel_tol=1e-12)
    result = run_fcm(ds, np.array([[0.0], [10.0]]), config)
    ref_centers, ref_jm = scalar_fcm_reference(values, [0.0, 10.0], 2.0, 200)
    assert abs(result.centers[0, 0] - ref_centers[0]) <= 1e-6
    assert abs(result.centers[1, 0] - ref_centers[1]) <= 1e-6
    assert abs(result.jm_trajectory[-1] - ref_jm) <= 1e-6
    assert result.converged
    # the two tight pairs straddle 0.5 and 9.5
    assert abs(result.centers[0, 0] - 0.5) < 0.2
    assert abs(result.centers[1, 0] - 9.5) < 0.2
    assert result.labels.tolist() == [0, 0, 1, 1]


def test_run_fcm_restarted_at_fixed_point_stops_immediately():
    ds = scalar_dataset([0.0, 1.0, 9.0, 10.0])
    config = ClusterConfig(cluster_count=2, fcm_rel_tol=1e-12)
    first = run_fcm(ds, np.array([[0.0], [10.0]]), config)
    second = run_fcm(ds, first.centers, config)
    assert len(second.jm_trajectory) <= 2
    assert second.converged
    assert second.iterations == len(second.jm_trajectory) - 1


def test_run_fcm_single_cluster_is_the_mean():
    rng = np.random.default_rng(123)
    px = rng.uniform(0, 255, (30, 3))
    ds = PixelDataset(pixels=px, width=30, height=1)
    config = ClusterConfig(cluster_count=1, fcm_rel_tol=1e-12)
    result = run_fcm(ds, px[:1].copy(), config)
    assert np.allclose(result.centers[0], px.mean(axis=0), atol=1e-9)


def test_run_fcm_permutation_equivariance():
    ds = scalar_dataset([0.0, 1.0, 9.0, 10.0])
    config = ClusterConfig(cluster_count=2, fcm_rel_tol=1e-12)
    fwd = run_fcm(ds, np.array([[0.0], [10.0]]), config)
    rev = run_fcm(ds, np.array([[10.0], [0.0]]), config)
    assert np.allclose(fwd.centers, rev.centers[::-1], atol=1e-12)
    fwd_u = compute_memberships(ds, fwd.centers, 2.0)
    rev_u = compute_memberships(ds, rev.centers, 2.0)
    assert np.allclose(fwd_u, rev_u[:, ::-1], atol=1e-12)
    assert np.array_equal(fwd.labels, 1 - rev.labels)


def test_run_fcm_trajectories_never_increase():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, 4))
        c = int(rng.integers(2, 5))
        px = np.round(rng.uniform(0, 255, (n, d)))
        ds = PixelDataset(pixels=px, width=n, height=1)
        distinct = np.unique(ds.pixels, axis=0)
        if len(distinct) < c:
            continue
        init = distinct[rng.permutation(len(distinct))[:c]]
        result = run_fcm(ds, init, ClusterConfig(cluster_count=c))
        traj = result.jm_trajectory
        for a, b in zip(traj, traj[1:]):
            assert b <= a + 1e-9 * max(a, 1.0)


def test_run_fcm_memberships_are_optimal_for_final_centers():
    # any other row-stochastic matrix scores the same centers no better
    rng = np.random.default_rng(8)
    ds = scalar_dataset([0.0, 2.0, 5.0, 9.0, 10.0])
    config = ClusterConfig(cluster_count=2, fcm_rel_tol=1e-12)
    result = run_fcm(ds, np.array([[0.0], [10.0]]), config)
    u_final = compute_memberships(ds, result.centers, 2.0)
    best = fcm_objective(ds, result.centers, u_final, 2.0)
    for _ in range(50):
        u = rng.dirichlet(np.ones(2), size=5)
        assert best <= fcm_objective(ds, result.centers, u, 2.0) + 1e-12


def test_run_fcm_rejects_wrong_center_shape():
    ds = scalar_dataset([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        run_fcm(ds, np.array([[0.0]]), ClusterConfig(cluster_count=2))


def test_run_fcm_reseeds_dead_cluster_on_farthest_pixel():
    # Centers 0 and 2 coincide, so pixel 0 goes crisp to the first of them,
    # and with m = 1.001 pixel 20's weight on them underflows: column 2
    # dies. The live centers become 0 and 15, leaving pixels 10 and 20
    # tied farthest (25 each); the tie goes to the lower index, so center 2
    # restarts on pixel 10 and then center 1 settles on 20.
    ds = scalar_dataset([0.0, 10.0, 20.0])
    config = ClusterConfig(cluster_count=3, fuzzifier=1.001)
    result = run_fcm(ds, np.array([[0.0], [10.0], [0.0]]), config)
    assert result.centers[:, 0].tolist() == [0.0, 20.0, 10.0]
    assert result.labels.tolist() == [0, 2, 1]
    assert result.jm_trajectory[-1] == 0.0


def keep_dead_then(monkeypatch, script):
    """Patch ``_reseed_dead``: call k returns ``script[k]``, or reseeds as usual once it runs out.

    A scripted row of 255 stays dead: with m = 1.001 every pixel of 0..20
    is so much nearer a live center that its weight there underflows.
    """
    calls, reseed = [], fcm._reseed_dead

    def fake(dataset, centers, dead):
        calls.append(dead)
        if len(calls) > len(script):
            return reseed(dataset, centers, dead)
        return np.array(script[len(calls) - 1], dtype=np.float64).reshape(-1, 1)

    monkeypatch.setattr(fcm, "_reseed_dead", fake)
    return calls


def test_run_fcm_gives_up_on_the_c_plus_first_dead_alternation_in_a_row(monkeypatch):
    # Column 2 dies at the start (as in the reseed test above) and the
    # script keeps it at 255 while center 1 moves, so J_m keeps changing:
    # 100, 52, 58, 68. The fourth dead alternation in a row raises.
    calls = keep_dead_then(monkeypatch, [[0, 14, 255], [0, 13, 255], [0, 12, 255]])
    ds = scalar_dataset([0.0, 10.0, 20.0])
    config = ClusterConfig(cluster_count=3, fuzzifier=1.001)
    with pytest.raises(DegenerateClusteringError, match="dead clusters recurred 4 times in a row"):
        run_fcm(ds, np.array([[0.0], [10.0], [0.0]]), config)
    assert calls == [[2], [2], [2]]


def test_run_fcm_restarts_the_dead_count_after_a_clean_alternation(monkeypatch):
    # Three dead alternations, then centers -1 and 1 share pixel 0 and both
    # settle on it: no cluster dies. Centers 0, 15, 0 then leave column 2
    # dead again, the fourth dead alternation but the first since the clean
    # one; the usual reseed puts it on pixel 10 and the run converges.
    calls = keep_dead_then(monkeypatch, [[0, 14, 255], [0, 13, 255], [-1, 15, 1]])
    ds = scalar_dataset([0.0, 10.0, 20.0])
    config = ClusterConfig(cluster_count=3, fuzzifier=1.001)
    result = run_fcm(ds, np.array([[0.0], [10.0], [0.0]]), config)
    assert calls == [[2], [2], [2], [2]]
    assert result.converged
    assert result.centers[:, 0].tolist() == [0.0, 20.0, 10.0]


def test_run_fcm_and_evaluate_jm_hold_no_cluster_by_pixel_array():
    # each alternation is one pass over pixel blocks: neither the loop nor
    # the report's objective allocates a (C, N) float64 array (8.4 MB here)
    n, c = 1 << 18, 4
    rng = np.random.default_rng(18)
    levels = rng.uniform(30, 225, (c, 3))
    px = np.round(levels[np.arange(n) % c] + rng.normal(0, 12, (n, 3)))
    ds = PixelDataset(pixels=np.clip(px, 0, 255).astype(np.uint8), width=512, height=512)
    one_array = c * n * 8
    tracemalloc.start()
    try:
        result = run_fcm(ds, levels, ClusterConfig(cluster_count=c, fcm_max_iters=4))
        fcm_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        evaluate_jm(ds, result.centers)
        jm_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert result.iterations >= 2
    assert fcm_peak < one_array, fcm_peak
    assert jm_peak < one_array, jm_peak


def fcm_loop(dataset, centers, config):
    """run_fcm's alternation written from the per-step functions."""
    m = config.fuzzifier
    u = compute_memberships(dataset, centers, m)
    trajectory = [fcm_objective(dataset, centers, u, m)]
    for _ in range(config.fcm_max_iters):
        centers, dead = _update_centers_partial(dataset, np.ascontiguousarray((u**m).T))
        if dead:
            centers = _reseed_dead(dataset, centers, dead)
        u = compute_memberships(dataset, centers, m)
        trajectory.append(fcm_objective(dataset, centers, u, m))
        if abs(trajectory[-2] - trajectory[-1]) <= config.fcm_rel_tol * trajectory[-2]:
            break
    return np.clip(centers, 0.0, 255.0), u, np.array(trajectory)


@pytest.mark.parametrize("cluster_count", [2, 9])
@pytest.mark.parametrize("fuzzifier", [1.5, 2.0, 3.0])
def test_run_fcm_matches_per_step_loop_bitwise(cluster_count, fuzzifier):
    rng = np.random.default_rng(cluster_count)
    n = PIXEL_BLOCK + 301
    px = np.round(rng.uniform(0, 255, (n, 3)))
    ds = PixelDataset(pixels=px, width=n, height=1)
    init = px[rng.choice(n, cluster_count, replace=False)]
    config = ClusterConfig(
        cluster_count=cluster_count, fuzzifier=fuzzifier,
        fcm_max_iters=25, fcm_rel_tol=1e-15,
    )
    result = run_fcm(ds, init, config)
    centers, memberships, trajectory = fcm_loop(ds, init, config)
    assert np.array_equal(result.jm_trajectory, trajectory)
    assert np.array_equal(result.centers, centers)
    assert np.array_equal(compute_memberships(ds, result.centers, fuzzifier), memberships)


# The channel-major loop replays numpy's reduction orders on the (N, C)
# layout. Each test below pins one replay against the numpy call it stands
# for, so a numpy release that changes an order fails here by name.


def spread(rng, shape):
    # magnitudes over 12 decades, so any change of summation order shows
    return rng.random(shape) * 10.0 ** rng.integers(-6, 6, shape)


@pytest.mark.parametrize("c", [*range(1, 21), 129, 300])
def test_cluster_sums_replay_numpy_row_sums(c):
    rng = np.random.default_rng(c)
    u = spread(rng, (1000, c))
    got = _cluster_sums(np.ascontiguousarray(u.T), np.empty(len(u)))
    assert np.array_equal(got, u.sum(axis=1))


def streamed_sum(values, chunk):
    """``_StreamedSum`` over the (rows, length) ``values``, fed ``chunk`` columns at a time."""
    stream = _StreamedSum(*values.shape)
    for start in range(0, values.shape[1], chunk):
        stream.feed(values[:, start : start + chunk])
    return stream.total()


@pytest.mark.parametrize("leaf", [128, 1 << 15])
def test_pixel_major_product_sum_matches_np_sum_on_lengths(monkeypatch, leaf):
    # a leaf of 128, numpy's own block, splits every run longer than that
    monkeypatch.setattr(fcm, "_SUM_LEAF", leaf)
    rng = np.random.default_rng(leaf)
    for n in [*range(1, 300), 1000, 4097, 24581, 40000]:
        a, b = spread(rng, n), rng.random(n)
        want = np.sum(a * b)
        for chunk in (1, 7, PIXEL_BLOCK):
            assert streamed_sum((a * b)[None], chunk)[0] == want, (n, chunk)


@pytest.mark.parametrize("n, c", [(1 << 20, 3), (100003, 9), (12345, 7), (70000, 1)])
def test_pixel_major_product_sum_matches_np_sum(n, c):
    # J_m's products arrive pixel-major, one (b, C) block at a time, so the
    # leaves of its flat (N, C) tree straddle the blocks
    rng = np.random.default_rng(n)
    a, b = spread(rng, (n, c)), rng.random((n, c))
    products = (a * b).reshape(1, -1)
    want = np.sum(a * b)
    for chunk in (PIXEL_BLOCK, c * PIXEL_BLOCK):
        assert streamed_sum(products, chunk)[0] == want, chunk


@pytest.mark.parametrize("n", [1, 4096, PIXEL_BLOCK + 1, 100003])
def test_streamed_row_sums_match_np_sum_per_row(n):
    # the weight totals: one pairwise sum per contiguous cluster row
    rng = np.random.default_rng(n)
    rows = spread(rng, (5, n))
    want = np.array([np.sum(row) for row in rows])
    for chunk in (7, PIXEL_BLOCK, 3 * PIXEL_BLOCK):
        assert np.array_equal(streamed_sum(rows, chunk), want), chunk


def center_weights(rng, n, c):
    """(C, N) weights over 12 decades; with C > 1 the last cluster's are all zero."""
    weights = np.ascontiguousarray(spread(rng, (n, c)).T)  # (N, C) columns, as the old layout held them
    if c > 1:
        weights[-1] = 0.0
    return weights


def fed_centers(ds, weights):
    """``_CenterSums`` fed in runs of 1, 7 and 5,000 pixels in turn, none aligned with PIXEL_BLOCK."""
    acc = _CenterSums(len(weights), ds.n_pixels, ds.n_channels)
    cols, start, sizes = ds.pixels.T, 0, [1, 7, 5000]
    while start < ds.n_pixels:
        stop = start + sizes[0]
        acc.feed(weights[:, start:stop], cols[:, start:stop])
        start, sizes = stop, sizes[1:] + sizes[:1]
    return acc.centers()


def assert_centers(got, dead, weights, want):
    """Live centers equal ``want`` bit for bit; the all-zero column is dead, a zero row."""
    live = len(weights) if len(weights) == 1 else len(weights) - 1
    assert dead == list(range(live, len(weights)))
    assert np.array_equal(got[:live], want[:live])
    assert not np.any(got[live:])


@pytest.mark.parametrize(
    "n", [PIXEL_BLOCK - 1, PIXEL_BLOCK, PIXEL_BLOCK + 1, 2 * PIXEL_BLOCK + 37, 100003]
)
def test_center_sums_match_numpy_axis0_sums(n):
    rng = np.random.default_rng(n)
    for d in (1, 2, 3, 4):
        px = np.round(rng.uniform(0, 255, (n, d)))
        ds = PixelDataset(pixels=px, width=n, height=1)
        for c in (1, 2, 3, 9):
            weights = center_weights(rng, n, c)
            with np.errstate(invalid="ignore", divide="ignore"):  # the dead column's 0/0
                want = np.array(
                    [np.sum(w[:, None] * px, axis=0) / np.sum(w) for w in weights]
                )
            assert_centers(*_update_centers_partial(ds, weights), weights, want)
            assert_centers(*fed_centers(ds, weights), weights, want)


def test_center_sums_match_a_left_to_right_python_sum():
    # the numerators against plain float arithmetic, not numpy's axis-0 sum:
    # ((0 + w0*x0) + w1*x1) + ... ; the totals are numpy's pairwise np.sum
    n = 300
    rng = np.random.default_rng(n)
    for d in (2, 3):
        px = np.round(rng.uniform(0, 255, (n, d)))
        ds = PixelDataset(pixels=px, width=n, height=1)
        for c in (1, 2, 3, 9):
            weights = center_weights(rng, n, c)
            want = np.zeros((c, d))
            for j, w in enumerate(weights.tolist()):
                total = float(np.sum(weights[j]))
                for k, x in enumerate(px.T.tolist()):
                    acc = 0.0
                    for wi, xi in zip(w, x):
                        acc += wi * xi
                    want[j, k] = acc / total if total > 0.0 else 0.0
            assert_centers(*_update_centers_partial(ds, weights), weights, want)
            assert_centers(*fed_centers(ds, weights), weights, want)


@pytest.mark.parametrize("clusters", [1, 2, 3, 5])
def test_labels_match_argmax_with_exact_ties(clusters):
    # duplicate centers give rows with equal memberships, and pixels half
    # way between two centers equal memberships in two rows: ties go to the
    # lowest index, as with np.argmax over the same blocks
    rng = np.random.default_rng(clusters)
    base = np.array([[40.0, 40.0, 40.0], [200.0, 200.0, 200.0], [40.0, 200.0, 120.0]])
    centers = base[np.arange(clusters) // 2 % 3]
    n = PIXEL_BLOCK + 300
    pixels = rng.uniform(0, 255, (n, 3))
    pixels[::3] = (base[0] + base[1]) / 2
    pixels[1::7] = centers[-1]
    ds = PixelDataset(pixels=pixels, width=n, height=1)
    sweep = _Sweep(ds, clusters, 2.0)
    want = np.concatenate(
        [np.argmax(u, axis=0) for _, _, u in sweep.memberships(centers)]
    )
    labels = sweep.labels(centers)
    assert labels.dtype == np.intp
    assert np.array_equal(labels, want)
    if clusters > 1:
        assert len(np.unique(labels)) < clusters  # the duplicates' higher rows never win
