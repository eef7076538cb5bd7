"""Particle swarm: fitness, statistics, adaptive coefficients, full loop."""

import numpy as np
import pytest

from swarmseg.core import (
    PIXEL_BLOCK,
    ClusterConfig,
    PixelDataset,
    sample_distinct_pixels,
)
from swarmseg.swarm import (
    CLASSIC_SCHEDULE,
    Particle,
    SwarmConfig,
    adaptive_inertia,
    adaptive_learning_factors,
    particle_fitness,
    run_swarm,
    step_particle,
    swarm_fitness,
    swarm_stats,
)


class StubRng:
    """Stands in for a Generator when a test needs known r1, r2 draws."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def scalar_dataset(values):
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return PixelDataset(pixels=arr, width=len(values), height=1)


def make_particle(position, velocity, pbest, pbest_fitness):
    pos = np.asarray(position, dtype=np.float64)
    return Particle(
        position=pos,
        velocity=np.asarray(velocity, dtype=np.float64),
        pbest=np.asarray(pbest, dtype=np.float64),
        pbest_fitness=pbest_fitness,
        fitness=pbest_fitness,
    )


def test_fitness_two_center_oracle():
    ds = scalar_dataset([0.0, 4.0, 10.0])
    # nearest-center squared errors: 1, 9, 1
    assert particle_fitness(ds, np.array([1.0, 9.0])) == 11.0


def test_fitness_zero_when_centers_cover_values():
    ds = scalar_dataset([3.0, 3.0, 8.0])
    assert particle_fitness(ds, np.array([3.0, 8.0])) == 0.0


def test_fitness_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 20))
        d = int(rng.integers(1, 4))
        c = int(rng.integers(1, 5))
        px = rng.uniform(0, 255, (n, d))
        ds = PixelDataset(pixels=px, width=n, height=1)
        centers = rng.uniform(0, 255, (c, d))
        want = 0.0
        for i in range(n):
            want += min(
                sum((px[i, k] - centers[j, k]) ** 2 for k in range(d))
                for j in range(c)
            )
        got = particle_fitness(ds, centers.ravel())
        assert abs(got - want) <= 1e-9 * max(want, 1.0)


@pytest.mark.parametrize("d", [1, 3])
def test_swarm_fitness_matches_particle_fitness_bitwise(d):
    # N spans two full pixel blocks and a remainder; P is odd, so the last
    # sweep scores one particle alone.
    rng = np.random.default_rng(d)
    n = 2 * PIXEL_BLOCK + 37
    px = rng.uniform(0, 255, (n, d))
    px[::3] = np.round(px[::3])
    ds = PixelDataset(pixels=px, width=n, height=1)
    for c in range(1, 10):
        position = rng.uniform(0, 255, (5, c * d))
        position[1] = np.round(position[1])
        want = np.array([particle_fitness(ds, row) for row in position])
        assert np.array_equal(swarm_fitness(ds, position), want)
        assert np.array_equal(swarm_fitness(ds, position[:1]), want[:1])


def test_swarm_stats_oracle():
    stats = swarm_stats(np.array([1.0, 3.0]))
    assert stats.f_avg == 2.0
    assert stats.f_min == 1.0
    assert stats.variance == 1.0


def test_swarm_stats_variance_identity():
    # population variance equals the mean square minus the squared mean
    rng = np.random.default_rng(6)
    for _ in range(100):
        f = rng.uniform(0, 1e4, size=int(rng.integers(1, 40)))
        stats = swarm_stats(f)
        alt = float(np.mean(f**2) - np.mean(f) ** 2)
        assert abs(stats.variance - alt) <= 1e-9 * max(abs(alt), 1.0)


def test_swarm_stats_rejects_empty():
    with pytest.raises(ValueError):
        swarm_stats(np.array([]))


def test_inertia_better_than_average_gets_max():
    config = SwarmConfig()
    stats = swarm_stats(np.array([1.0, 3.0]))
    assert adaptive_inertia(1.0, stats, config) == config.w_max


def test_inertia_scales_with_distance_from_best():
    config = SwarmConfig(w_max=0.9, w_min=0.4)
    stats = swarm_stats(np.array([0.0, 20.0]))  # f_avg 10, f_min 0
    # f_i == f_avg sits exactly at w_max - w_min above zero spread
    assert abs(adaptive_inertia(10.0, stats, config) - 0.5) <= 1e-12
    # twice the average clamps at the top
    assert adaptive_inertia(20.0, stats, config) == 0.9


def test_inertia_degenerate_swarm_gets_max():
    config = SwarmConfig()
    stats = swarm_stats(np.array([5.0, 5.0, 5.0]))
    assert adaptive_inertia(5.0, stats, config) == config.w_max


def test_inertia_always_inside_bounds():
    config = SwarmConfig(w_max=0.9, w_min=0.4)
    rng = np.random.default_rng(99)
    for _ in range(2000):
        f = rng.uniform(0, 1e6, size=int(rng.integers(2, 30)))
        stats = swarm_stats(f)
        f_i = float(rng.choice(f))
        w = adaptive_inertia(f_i, stats, config)
        assert config.w_min <= w <= config.w_max


def test_learning_factor_endpoints_are_exact():
    config = SwarmConfig()
    assert adaptive_learning_factors(0, config) == (2.5, 0.5)
    assert adaptive_learning_factors(config.n_max, config) == (0.5, 2.5)


def test_learning_factor_midpoint():
    config = SwarmConfig(n_max=100)
    c1, c2 = adaptive_learning_factors(50, config)
    assert abs(c1 - 1.5) <= 1e-12
    assert abs(c2 - 1.5) <= 1e-12


def test_learning_factor_sum_is_constant_for_mirrored_schedules():
    config = SwarmConfig()  # 2.5 + 0.5 == 0.5 + 2.5
    for n in range(0, config.n_max + 1):
        c1, c2 = adaptive_learning_factors(n, config)
        assert abs((c1 + c2) - 3.0) <= 1e-12


def test_step_particle_scalar_oracle():
    ds = scalar_dataset([0.0, 10.0])
    p = make_particle([0.0], [1.0], [2.0], particle_fitness(ds, np.array([2.0])))
    out = step_particle(
        p, np.array([4.0]), ds, 0.5, 1.0, 1.0, SwarmConfig(), StubRng(1.0)
    )
    # 0.5*1 + 1*(2-0) + 1*(4-0)
    assert out.velocity[0] == 6.5
    assert out.position[0] == 6.5


def test_step_particle_pure_inertia():
    ds = scalar_dataset([0.0, 10.0])
    p = make_particle([10.0], [4.0], [10.0], 0.0)
    out = step_particle(
        p, np.array([10.0]), ds, 0.5, 0.0, 0.0, SwarmConfig(), StubRng(0.7)
    )
    assert out.velocity[0] == 2.0
    assert out.position[0] == 12.0


def test_step_particle_consensus_is_a_fixed_point():
    ds = scalar_dataset([3.0, 3.0])
    p = make_particle([3.0], [0.0], [3.0], 0.0)
    out = step_particle(
        p, np.array([3.0]), ds, 0.9, 2.0, 2.0, SwarmConfig(), StubRng(0.5)
    )
    assert out.velocity[0] == 0.0
    assert out.position[0] == 3.0
    assert out.pbest_fitness == 0.0


def test_step_particle_velocity_clamp():
    ds = scalar_dataset([0.0, 255.0])
    p = make_particle([0.0], [0.0], [0.0], particle_fitness(ds, np.array([0.0])))
    out = step_particle(
        p, np.array([255.0]), ds, 0.0, 0.0, 2.0, SwarmConfig(), StubRng(1.0)
    )
    # raw velocity 510 caps at 0.2 * 255
    assert out.velocity[0] == 51.0
    assert out.position[0] == 51.0


def test_step_particle_position_clamp():
    ds = scalar_dataset([0.0, 255.0])
    p = make_particle([250.0], [0.0], [250.0], particle_fitness(ds, np.array([250.0])))
    out = step_particle(
        p, np.array([600.0]), ds, 0.0, 0.0, 2.0, SwarmConfig(), StubRng(1.0)
    )
    assert out.velocity[0] == 51.0
    assert out.position[0] == 255.0


def test_step_particle_updates_personal_best_only_on_improvement():
    ds = scalar_dataset([5.0])
    p = make_particle([0.0], [0.0], [0.0], particle_fitness(ds, np.array([0.0])))
    out = step_particle(
        p, np.array([5.0]), ds, 0.0, 0.0, 1.0, SwarmConfig(), StubRng(1.0)
    )
    assert out.position[0] == 5.0
    assert out.pbest[0] == 5.0
    assert out.pbest_fitness == 0.0

    # moving somewhere worse keeps the old personal best
    back = step_particle(
        out, np.array([0.0]), ds, 0.0, 0.0, 1.0, SwarmConfig(), StubRng(1.0)
    )
    assert back.position[0] == 0.0
    assert back.pbest[0] == 5.0
    assert back.pbest_fitness == 0.0


def test_run_swarm_uniform_image_converges_at_once():
    ds = scalar_dataset([6.0, 6.0, 6.0, 6.0])
    centers, history = run_swarm(
        ds, ClusterConfig(cluster_count=1, seed=0), SwarmConfig(swarm_size=5)
    )
    assert centers.tolist() == [[6.0]]
    assert history.converged
    assert history.iterations == 0
    assert history.gbest_fitness.tolist() == [0.0]


def test_run_swarm_all_particles_at_optimum():
    # with two pixel values and C=2 every particle starts on the optimum
    ds = scalar_dataset([0.0, 10.0])
    centers, history = run_swarm(
        ds, ClusterConfig(cluster_count=2, seed=1), SwarmConfig(swarm_size=8)
    )
    assert history.gbest_fitness[0] == 0.0
    assert history.converged and history.iterations == 0
    assert sorted(centers[:, 0].tolist()) == [0.0, 10.0]


def test_run_swarm_gbest_never_increases():
    ds = scalar_dataset([0.0, 1.0, 4.0, 9.0, 10.0, 13.0, 200.0, 201.0])
    for seed in range(10):
        _, history = run_swarm(
            ds,
            ClusterConfig(cluster_count=3, seed=seed),
            SwarmConfig(swarm_size=10, n_max=40),
        )
        g = history.gbest_fitness
        assert np.all(g[1:] <= g[:-1])


def test_run_swarm_final_centers_carry_final_fitness():
    ds = scalar_dataset([0.0, 1.0, 9.0, 10.0, 20.0])
    centers, history = run_swarm(
        ds,
        ClusterConfig(cluster_count=2, seed=7),
        SwarmConfig(swarm_size=10, n_max=30),
    )
    assert particle_fitness(ds, centers.ravel()) == history.gbest_fitness[-1]


def test_run_swarm_near_grid_optimum_on_two_pair_data():
    # brute-force the best fitness over centers on a 0.5-step grid and ask
    # the swarm to land within 5% of it in at least 18 of 20 seeds
    values = [0.0, 1.0, 9.0, 10.0]
    ds = scalar_dataset(values)
    grid = np.arange(0.0, 10.5, 0.5)
    best = np.inf
    for a in grid:
        for b in grid:
            fit = sum(min((v - a) ** 2, (v - b) ** 2) for v in values)
            best = min(best, fit)
    assert best == 1.0  # centers 0.5 and 9.5

    hits = 0
    for seed in range(20):
        _, history = run_swarm(
            ds,
            ClusterConfig(cluster_count=2, seed=seed),
            SwarmConfig(swarm_size=20, n_max=100),
        )
        if history.gbest_fitness[-1] <= 1.05 * best:
            hits += 1
    assert hits >= 18, f"only {hits}/20 seeds reached the grid optimum"


def test_run_swarm_identical_for_equal_seeds():
    ds = scalar_dataset([0.0, 3.0, 9.0, 14.0, 100.0, 130.0])
    kwargs = dict(swarm_size=12, n_max=25)
    c1, h1 = run_swarm(ds, ClusterConfig(cluster_count=3, seed=5), SwarmConfig(**kwargs))
    c2, h2 = run_swarm(ds, ClusterConfig(cluster_count=3, seed=5), SwarmConfig(**kwargs))
    assert np.array_equal(c1, c2)
    assert np.array_equal(h1.gbest_fitness, h2.gbest_fitness)
    assert np.array_equal(h1.f_avg, h2.f_avg)
    assert np.array_equal(h1.variance, h2.variance)


def per_particle_swarm(dataset, config, sconfig, classic):
    """The swarm loop written particle by particle from the public pieces.

    One generator drives it in the documented order: each particle's
    distinct-pixel start in turn, then per step one ``step_particle`` call
    per particle in ascending index, and a strict-``<`` gbest scan. With
    ``classic`` set it is textbook PSO, w = 0.7 and c1 = c2 = 2.0 written
    out here, and calls neither adaptive schedule.
    """
    rng = np.random.default_rng(config.seed)
    particles = []
    for _ in range(sconfig.swarm_size):
        pos = sample_distinct_pixels(dataset, config.cluster_count, rng).ravel()
        fit = particle_fitness(dataset, pos)
        particles.append(make_particle(pos, np.zeros_like(pos), pos.copy(), fit))
    gbest, gbest_fitness = None, np.inf
    gbest_hist, favg_hist, var_hist = [], [], []
    converged = False
    for n in range(sconfig.n_max + 1):
        for p in particles:
            if p.pbest_fitness < gbest_fitness:
                gbest, gbest_fitness = p.pbest.copy(), p.pbest_fitness
        stats = swarm_stats([p.fitness for p in particles])
        gbest_hist.append(gbest_fitness)
        favg_hist.append(stats.f_avg)
        var_hist.append(stats.variance)
        if stats.variance / max(stats.f_avg**2, 1e-12) <= sconfig.variance_tol:
            converged = True
            break
        if n == sconfig.n_max:
            break
        if classic:
            c1 = c2 = 2.0
        else:
            c1, c2 = adaptive_learning_factors(n, sconfig)
        for i, p in enumerate(particles):
            w = 0.7 if classic else adaptive_inertia(p.fitness, stats, sconfig)
            particles[i] = step_particle(p, gbest, dataset, w, c1, c2, sconfig, rng)
    centers = np.clip(gbest.reshape(config.cluster_count, -1), 0.0, 255.0)
    return centers, gbest_hist, favg_hist, var_hist, n, converged


@pytest.mark.parametrize("classic", [False, True], ids=["adaptive", "classic"])
@pytest.mark.parametrize("cluster_count", [2, 8])
@pytest.mark.parametrize("variance_tol", [1e-3, 0.0])
def test_run_swarm_matches_per_particle_loop(classic, cluster_count, variance_tol):
    rng = np.random.default_rng(cluster_count)
    px = rng.integers(0, 256, size=(48, 3)).astype(np.float64)
    ds = PixelDataset(pixels=px, width=8, height=6)
    config = ClusterConfig(cluster_count=cluster_count, seed=11)
    sconfig = SwarmConfig(
        swarm_size=7,
        n_max=40,
        variance_tol=variance_tol,
        **(CLASSIC_SCHEDULE if classic else {}),
    )
    centers, history = run_swarm(ds, config, sconfig)
    want_centers, gbest, f_avg, variance, iterations, converged = (
        per_particle_swarm(ds, config, sconfig, classic)
    )
    assert iterations > 0  # the coefficients were used
    assert np.array_equal(centers, want_centers)
    assert np.array_equal(history.gbest_fitness, gbest)
    assert np.array_equal(history.f_avg, f_avg)
    assert np.array_equal(history.variance, variance)
    assert history.iterations == iterations
    assert history.converged == converged


def test_run_swarm_classic_mode():
    ds = scalar_dataset([0.0, 1.0, 9.0, 10.0])
    centers, history = run_swarm(
        ds,
        ClusterConfig(cluster_count=2, seed=3),
        SwarmConfig(swarm_size=10, n_max=30, **CLASSIC_SCHEDULE),
    )
    assert centers.shape == (2, 1)
    assert np.all(history.gbest_fitness[1:] <= history.gbest_fitness[:-1])


def test_config_validation():
    with pytest.raises(ValueError):
        SwarmConfig(swarm_size=0)
    with pytest.raises(ValueError):
        SwarmConfig(n_max=0)
    for name in ("swarm_size", "n_max"):
        for bad in (2.5, 2.0, float("inf"), float("nan"), "3"):
            with pytest.raises(ValueError):
                SwarmConfig(**{name: bad})
    assert SwarmConfig(swarm_size=np.int64(3), n_max=np.int32(4)).n_max == 4
    with pytest.raises(ValueError):
        SwarmConfig(w_max=0.3, w_min=0.4)
    with pytest.raises(ValueError):
        SwarmConfig(c1_init=0.5, c2_init=2.5)  # cognitive must start on top
    with pytest.raises(ValueError):
        SwarmConfig(c1_final=2.5, c2_final=0.5)
    with pytest.raises(ValueError):
        SwarmConfig(v_max_fraction=0.0)
    with pytest.raises(ValueError):
        SwarmConfig(variance_tol=-1.0)
    for name in (
        "w_max", "w_min", "c1_init", "c1_final", "c2_init", "c2_final",
        "variance_tol",
    ):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                SwarmConfig(**{name: bad})
    # flat schedules (all four endpoints equal) are allowed
    flat = SwarmConfig(c1_init=2.0, c1_final=2.0, c2_init=2.0, c2_final=2.0)
    assert adaptive_learning_factors(17, flat) == (2.0, 2.0)
