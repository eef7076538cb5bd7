"""Shared run interface wiring the swarm, c-means, and k-means engines."""

from dataclasses import replace

import numpy as np
import pytest

from swarmseg.core import ClusterConfig, TooManyClustersError
from swarmseg.imaging import to_dataset
from swarmseg.kmeans import run_kmeans
from swarmseg.pipeline import ALGORITHMS, run_algorithm, run_apsof
from swarmseg.swarm import CLASSIC_SCHEDULE, SwarmConfig, run_swarm
from swarmseg.synthetic import random_image, solid_block_image

SMALL_SWARM = SwarmConfig(swarm_size=8, n_max=20)


def block_dataset():
    image, truth = solid_block_image(
        [(250, 10, 10), (10, 250, 10), (10, 10, 250)], block_width=4, height=4
    )
    return to_dataset(image), truth


def labels_match_up_to_permutation(predicted, truth):
    mapping = {}
    for p, t in zip(predicted.tolist(), truth.tolist()):
        if mapping.setdefault(p, t) != t:
            return False
    return len(set(mapping.values())) == len(mapping)


def test_algorithm_roster():
    assert ALGORITHMS == ("kmeans", "fcm", "psofcm", "apsof")


def test_unknown_algorithm_rejected():
    ds, _ = block_dataset()
    with pytest.raises(ValueError):
        run_algorithm("zebra", ds, ClusterConfig(cluster_count=3))


def test_every_engine_reports_too_many_clusters_alike():
    # two colours, three clusters: fcm checks before it samples its start
    image, _ = solid_block_image([(250, 10, 10), (10, 250, 10)], block_width=4, height=4)
    ds = to_dataset(image)
    message = "requested 3 clusters but the image has only 2 distinct pixel values"
    for name in ALGORITHMS:
        with pytest.raises(TooManyClustersError) as info:
            run_algorithm(name, ds, ClusterConfig(cluster_count=3), SMALL_SWARM)
        assert str(info.value) == message, name


def test_every_algorithm_fills_the_result():
    ds, truth = block_dataset()
    config = ClusterConfig(cluster_count=3, seed=0)
    for name in ALGORITHMS:
        result = run_algorithm(name, ds, config, SMALL_SWARM)
        assert result.algorithm == name
        assert result.centers.shape == (3, 3)
        assert result.labels.shape == (ds.n_pixels,)
        assert result.final_jm >= 0.0
        assert result.iterations >= 0
        assert result.wall_time >= 0.0
        assert result.seed == 0


def test_all_algorithms_recover_solid_blocks():
    ds, truth = block_dataset()
    config = ClusterConfig(cluster_count=3, seed=0)
    for name in ALGORITHMS:
        result = run_algorithm(name, ds, config, SMALL_SWARM)
        assert labels_match_up_to_permutation(result.labels, truth), name


def test_refinement_never_worsens_the_swarm_seed():
    ds, _ = block_dataset()
    config = ClusterConfig(cluster_count=3, seed=4)
    result = run_apsof(ds, config, SMALL_SWARM)
    assert result.fcm_result is not None
    traj = result.fcm_result.jm_trajectory
    assert traj[-1] <= traj[0] + 1e-9 * max(traj[0], 1.0)
    assert result.final_jm == traj[-1]


def test_kmeans_keeps_its_engine_result():
    ds = to_dataset(random_image(8, 8, seed=3))
    config = ClusterConfig(cluster_count=3, seed=3)
    result = run_algorithm("kmeans", ds, config)
    direct = run_kmeans(ds, config)
    kept = result.kmeans_result
    assert kept is not None and result.fcm_result is None
    assert np.array_equal(kept.sse_trajectory, direct.sse_trajectory)
    assert np.array_equal(kept.centers, direct.centers)
    assert np.array_equal(kept.labels, direct.labels)
    assert (kept.iterations, kept.converged) == (direct.iterations, direct.converged)
    assert result.final_jm == kept.sse_trajectory[-1]
    for name in ("fcm", "psofcm", "apsof"):
        assert run_algorithm(name, ds, config, SMALL_SWARM).kmeans_result is None


def test_seeded_pipelines_count_both_stages():
    ds, _ = block_dataset()
    config = ClusterConfig(cluster_count=3, seed=2)
    result = run_apsof(ds, config, SMALL_SWARM)
    assert result.swarm_history is not None
    assert result.iterations == (
        result.swarm_history.iterations + result.fcm_result.iterations
    )


def test_apsof_equals_classic_when_schedules_are_flat():
    # freeze the adaptive knobs at the classic constants, written out here:
    # same seed, same arithmetic, bitwise-equal outputs. psofcm's own
    # schedule is never passed in, so a wrong constant in it shows up.
    ds = to_dataset(random_image(8, 8, seed=6))
    config = ClusterConfig(cluster_count=3, seed=6)

    def flat(w):
        return replace(
            SMALL_SWARM, w_max=w, w_min=w,
            c1_init=2.0, c1_final=2.0, c2_init=2.0, c2_final=2.0,
        )

    a = run_algorithm("apsof", ds, config, flat(0.7))
    b = run_algorithm("psofcm", ds, config, SMALL_SWARM)
    assert b.swarm_history.iterations > 0  # the swarm stepped
    assert np.array_equal(a.centers, b.centers)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.swarm_history.gbest_fitness, b.swarm_history.gbest_fitness)
    assert a.final_jm == b.final_jm
    # the comparison can fail: a nearby flat schedule gives another swarm
    near = run_algorithm("apsof", ds, config, flat(0.71))
    assert not np.array_equal(
        near.swarm_history.gbest_fitness, b.swarm_history.gbest_fitness
    )


def test_psofcm_ignores_the_callers_schedule():
    # psofcm always runs the classic schedule: a caller's w/c schedule
    # changes nothing, while apsof follows it
    ds = to_dataset(random_image(8, 8, seed=3))
    config = ClusterConfig(cluster_count=3, seed=1)
    custom = SwarmConfig(
        swarm_size=8, n_max=20, w_max=0.95, w_min=0.2,
        c1_init=3.0, c1_final=1.0, c2_init=1.0, c2_final=3.0,
    )
    result = run_algorithm("psofcm", ds, config, custom)
    default = run_algorithm("psofcm", ds, config, SMALL_SWARM)
    assert result.algorithm == "psofcm"
    assert np.array_equal(result.centers, default.centers)
    assert np.array_equal(
        result.swarm_history.gbest_fitness, default.swarm_history.gbest_fitness
    )
    # deterministic: rerunning with the same inputs reproduces the result
    again = run_algorithm("psofcm", ds, config, custom)
    assert np.array_equal(result.centers, again.centers)
    apsof = run_apsof(ds, config, custom)
    assert not np.array_equal(
        apsof.swarm_history.gbest_fitness, result.swarm_history.gbest_fitness
    )


def test_fcm_baseline_matches_direct_composition():
    # the "fcm" pipeline is exactly: sample distinct pixels, then iterate
    ds, _ = block_dataset()
    config = ClusterConfig(cluster_count=3, seed=9)
    via_pipeline = run_algorithm("fcm", ds, config)

    from swarmseg.core import sample_distinct_pixels
    from swarmseg.fcm import run_fcm

    rng = np.random.default_rng(9)
    init = sample_distinct_pixels(ds, 3, rng)
    direct = run_fcm(ds, init, config)
    assert np.array_equal(via_pipeline.centers, direct.centers)
    assert np.array_equal(via_pipeline.labels, direct.labels)


def test_swarm_seed_feeds_the_refiner():
    # the c-means stage must start from the swarm's best centers
    ds = to_dataset(random_image(8, 8, seed=12))
    config = ClusterConfig(cluster_count=3, seed=12)
    result = run_algorithm("psofcm", ds, config, SMALL_SWARM)
    seed_centers, history = run_swarm(
        ds, config, SwarmConfig(swarm_size=8, n_max=20, **CLASSIC_SCHEDULE)
    )
    assert history.iterations > 0  # the swarm stepped
    assert np.array_equal(
        history.gbest_fitness, result.swarm_history.gbest_fitness
    )
    from swarmseg.fcm import run_fcm

    refined = run_fcm(ds, seed_centers, config)
    assert np.array_equal(refined.centers, result.centers)
