"""Release gate: nine end-to-end checks, one printed verdict line each.

Each test prints exactly one "criterion N (...): PASS|FAIL" line to the
real terminal (bypassing capture) so a full run reads as a checklist.
Budgets are wall-clock seconds on a commodity desktop.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import swarmseg
from swarmseg.core import ClusterConfig, PixelDataset
from swarmseg.fcm import run_fcm
from swarmseg.imaging import (
    PpmBadMagicError,
    PpmTruncatedError,
    PpmUnsupportedMaxvalError,
    load_ppm,
    to_dataset,
    write_ppm,
)
from swarmseg.pipeline import ALGORITHMS, run_algorithm, run_apsof
from swarmseg.report import evaluate_jm, normalized_jm_pair
from swarmseg.swarm import (
    SwarmConfig,
    adaptive_learning_factors,
    adaptive_inertia,
    particle_fitness,
    run_swarm,
    step_particle,
    swarm_stats,
    Particle,
)
from swarmseg.synthetic import gaussian_blob_image, random_image, solid_block_image


def _verdict(capsys, number, label, ok):
    with capsys.disabled():
        print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")


def scalar_dataset(values):
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return PixelDataset(pixels=arr, width=len(values), height=1)


# --- criterion 1: c-means against an independently coded reference ---------


def _reference_fcm(values, centers, m, sweeps):
    """Plain-Python alternating optimization, shared with nothing."""
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


def test_criterion_1_fcm_correctness(capsys):
    ok = False
    try:
        start = time.perf_counter()

        values = [0.0, 1.0, 9.0, 10.0]
        ds = scalar_dataset(values)
        result = run_fcm(
            ds,
            np.array([[0.0], [10.0]]),
            ClusterConfig(cluster_count=2, fcm_rel_tol=1e-12),
        )
        ref_centers, ref_jm = _reference_fcm(values, [0.0, 10.0], 2.0, 200)
        assert abs(result.centers[0, 0] - ref_centers[0]) <= 1e-6
        assert abs(result.centers[1, 0] - ref_centers[1]) <= 1e-6
        assert abs(result.jm_trajectory[-1] - ref_jm) <= 1e-6

        from swarmseg.fcm import compute_memberships

        rng = np.random.default_rng(1001)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            c = int(rng.integers(1, 6))
            d = int(rng.integers(1, 4))
            m = float(rng.uniform(1.1, 4.0))
            data = PixelDataset(
                pixels=rng.uniform(0, 255, (n, d)), width=n, height=1
            )
            u = compute_memberships(data, rng.uniform(0, 255, (c, d)), m)
            assert np.all(np.abs(u.sum(axis=1) - 1.0) <= 1e-9)

        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
        ok = True
    finally:
        _verdict(capsys, 1, "fcm correctness", ok)


# --- criterion 2: objective trajectories never increase --------------------


def test_criterion_2_objective_monotonicity(capsys):
    ok = False
    try:
        start = time.perf_counter()
        from swarmseg.core import sample_distinct_pixels

        for run in range(100):
            image = random_image(16, 16, seed=run)
            ds = to_dataset(image)
            config = ClusterConfig(cluster_count=4, seed=run)
            rng = np.random.default_rng(run)
            init = sample_distinct_pixels(ds, 4, rng)
            result = run_fcm(ds, init, config)
            traj = result.jm_trajectory
            drops = traj[1:] - traj[:-1]
            assert np.all(drops <= 1e-9 * np.maximum(traj[:-1], 1.0))

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
        ok = True
    finally:
        _verdict(capsys, 2, "objective monotonicity", ok)


# --- criterion 3: swarm invariants ------------------------------------------


def test_criterion_3_swarm_invariants(capsys):
    ok = False
    try:
        start = time.perf_counter()

        for run in range(50):
            image = random_image(8, 8, seed=200 + run)
            ds = to_dataset(image)
            _, history = run_swarm(
                ds,
                ClusterConfig(cluster_count=3, seed=run),
                SwarmConfig(swarm_size=10, n_max=30),
            )
            g = history.gbest_fitness
            assert np.all(g[1:] <= g[:-1]), "gbest moved uphill"

        config = SwarmConfig()
        rng = np.random.default_rng(3003)
        for _ in range(10000):
            f = rng.uniform(0.0, 1e6, size=int(rng.integers(2, 40)))
            stats = swarm_stats(f)
            w = adaptive_inertia(float(rng.choice(f)), stats, config)
            assert config.w_min <= w <= config.w_max

        assert adaptive_learning_factors(0, config) == (
            config.c1_init, config.c2_init,
        )
        assert adaptive_learning_factors(config.n_max, config) == (
            config.c1_final, config.c2_final,
        )

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s, budget 10s"
        ok = True
    finally:
        _verdict(capsys, 3, "swarm invariants", ok)


# --- criterion 4: closed-form oracles to 1e-12 -------------------------------


class _FixedRng:
    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_criterion_4_formula_oracles(capsys):
    ok = False
    try:
        from swarmseg.fcm import compute_memberships, update_centers

        ds = scalar_dataset([0.0])
        u = compute_memberships(ds, np.array([[1.0], [3.0]]), 2.0)
        assert abs(u[0, 0] - 0.9) <= 1e-12
        assert abs(u[0, 1] - 0.1) <= 1e-12

        ds2 = scalar_dataset([0.0, 10.0])
        centers = update_centers(
            ds2, np.array([[0.9, 0.1], [0.1, 0.9]]), 2.0
        )
        assert abs(centers[0, 0] - 10.0 / 82.0) <= 1e-12
        assert abs(centers[1, 0] - 810.0 / 82.0) <= 1e-12

        ds3 = scalar_dataset([0.0, 4.0, 10.0])
        assert abs(particle_fitness(ds3, np.array([1.0, 9.0])) - 11.0) <= 1e-12

        stats = swarm_stats(np.array([1.0, 3.0]))
        assert abs(stats.f_avg - 2.0) <= 1e-12
        assert abs(stats.variance - 1.0) <= 1e-12

        p = Particle(
            position=np.array([0.0]),
            velocity=np.array([1.0]),
            pbest=np.array([2.0]),
            pbest_fitness=particle_fitness(ds2, np.array([2.0])),
            fitness=0.0,
        )
        stepped = step_particle(
            p, np.array([4.0]), ds2, 0.5, 1.0, 1.0, SwarmConfig(), _FixedRng(1.0)
        )
        assert abs(stepped.position[0] - 6.5) <= 1e-12
        ok = True
    finally:
        _verdict(capsys, 4, "formula oracles", ok)


# --- criterion 5: seeding-quality protocol ----------------------------------

# Five mixtures chosen to punish bad initialization: each has a close color
# pair that plain c-means merges whenever its random start misallocates
# centers, plus heavy far-away mass to trap them there.
BLOB_CORPUS = [
    # (cluster_count, image_seed, means, weights)
    (3, 311,
     [(210, 60, 60), (210, 120, 60), (40, 40, 230)],
     [0.12, 0.15, 0.73]),
    (4, 322,
     [(60, 60, 60), (120, 120, 120), (230, 230, 60), (60, 230, 230)],
     [0.13, 0.17, 0.40, 0.30]),
    (4, 323,
     [(40, 40, 110), (100, 100, 170), (240, 120, 240), (30, 220, 30)],
     [0.10, 0.13, 0.45, 0.32]),
    (5, 340,
     [(50, 50, 50), (110, 110, 110), (230, 230, 230), (230, 30, 30),
      (30, 30, 230)],
     [0.10, 0.12, 0.30, 0.25, 0.23]),
    (5, 341,
     [(60, 60, 60), (120, 120, 120), (240, 240, 240), (240, 40, 40),
      (40, 40, 240)],
     [0.12, 0.14, 0.27, 0.25, 0.22]),
]


def test_criterion_5_seeding_quality_protocol(capsys):
    ok = False
    try:
        start = time.perf_counter()
        sconfig = SwarmConfig(swarm_size=50, n_max=120)
        wins = 0
        runs = 0
        for cluster_count, image_seed, means, weights in BLOB_CORPUS:
            image = gaussian_blob_image(
                [tuple(float(v) for v in mu) for mu in means],
                width=64, height=64, sigma=10.0, seed=image_seed,
                weights=weights,
            )
            ds = to_dataset(image)
            for seed in range(20):
                config = ClusterConfig(
                    cluster_count=cluster_count, seed=seed, fcm_rel_tol=1e-15
                )
                fcm = run_algorithm("fcm", ds, config)
                apsof = run_algorithm("apsof", ds, config, sconfig)
                jm_fcm = evaluate_jm(ds, fcm.centers)
                jm_apsof = evaluate_jm(ds, apsof.centers)
                runs += 1
                if jm_apsof <= jm_fcm:
                    wins += 1
                norm = normalized_jm_pair(jm_fcm, jm_apsof)
                assert abs((norm[0] + norm[1]) - 2.0) <= 1e-12

        assert runs == 100
        assert wins >= 80, f"swarm seeding won only {wins}/100 runs"

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"
        ok = True
    finally:
        _verdict(capsys, 5, "seeding quality protocol", ok)


# --- criterion 6: ground-truth recovery --------------------------------------


def _matches_partition(predicted, truth):
    mapping = {}
    for p, t in zip(predicted.tolist(), truth.tolist()):
        if mapping.setdefault(p, t) != t:
            return False
    return len(set(mapping.values())) == len(mapping)


def test_criterion_6_ground_truth_recovery(capsys):
    ok = False
    try:
        start = time.perf_counter()
        image, truth = solid_block_image(
            [(220, 30, 30), (30, 220, 30), (30, 30, 220)]
        )
        ds = to_dataset(image)
        recovered = {name: 0 for name in ALGORITHMS}
        for seed in range(20):
            config = ClusterConfig(cluster_count=3, seed=seed)
            for name in ALGORITHMS:
                result = run_algorithm(name, ds, config)
                if _matches_partition(result.labels, truth):
                    recovered[name] += 1

        for name in ALGORITHMS:
            assert recovered[name] >= 19, f"{name} recovered {recovered[name]}/20"
        assert recovered["apsof"] == 20, f"apsof recovered {recovered['apsof']}/20"

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s"
        ok = True
    finally:
        _verdict(capsys, 6, "ground truth recovery", ok)


# --- criterion 7: byte-level determinism --------------------------------------


def test_criterion_7_determinism(capsys, tmp_path):
    ok = False
    try:
        src = tmp_path / "input.ppm"
        image = gaussian_blob_image(
            [(200.0, 40.0, 40.0), (40.0, 200.0, 40.0), (40.0, 40.0, 200.0)],
            width=16, height=16, sigma=8.0, seed=5,
        )
        src.write_bytes(write_ppm(image))

        # the CLI subprocesses import the same package these tests import
        src_dir = os.path.dirname(os.path.dirname(swarmseg.__file__))
        outputs = []
        for threads in ("1", "4"):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [src_dir, env.get("PYTHONPATH")])
            )
            for var in (
                "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS",
            ):
                env[var] = threads
            for repeat in range(3):
                out = tmp_path / f"out-{threads}-{repeat}.ppm"
                rpt = tmp_path / f"rpt-{threads}-{repeat}.json"
                proc = subprocess.run(
                    [
                        sys.executable, "-m", "swarmseg.cli",
                        "segment", str(src), str(out),
                        "--clusters", "3", "--seed", "11",
                        "--swarm-size", "10", "--iters", "25",
                        "--report", str(rpt),
                    ],
                    env=env,
                    capture_output=True,
                    text=True,
                )
                assert proc.returncode == 0, proc.stderr
                doc = json.loads(rpt.read_text())
                for entry in doc["algorithms"]:
                    entry.pop("wall_time_ms")
                outputs.append((out.read_bytes(), json.dumps(doc, sort_keys=True)))

        first = outputs[0]
        for other in outputs[1:]:
            assert other == first, "output differed across repeats or threads"
        ok = True
    finally:
        _verdict(capsys, 7, "determinism", ok)


# --- criterion 8: image codec round-trip --------------------------------------


def test_criterion_8_ppm_round_trip(capsys):
    ok = False
    try:
        rng = np.random.default_rng(8008)
        for _ in range(100):
            w = int(rng.integers(1, 24))
            h = int(rng.integers(1, 24))
            image = random_image(w, h, seed=int(rng.integers(1 << 31)))
            back = load_ppm(write_ppm(image))
            assert back.rgb8 == image.rgb8
            assert (back.width, back.height) == (w, h)

        with pytest.raises(PpmBadMagicError):
            load_ppm(b"P5\n1 1\n255\n\x00")
        with pytest.raises(PpmUnsupportedMaxvalError):
            load_ppm(b"P6\n1 1\n65535\n" + bytes(6))
        with pytest.raises(PpmTruncatedError):
            load_ppm(b"P6\n2 2\n255\n\x00\x01")
        ok = True
    finally:
        _verdict(capsys, 8, "ppm round trip", ok)


# --- criterion 9: runtime budget ----------------------------------------------


def test_criterion_9_runtime_budget(capsys):
    ok = False
    try:
        image = gaussian_blob_image(
            [(50.0, 50.0, 50.0), (110.0, 110.0, 110.0), (230.0, 230.0, 230.0),
             (230.0, 30.0, 30.0), (30.0, 30.0, 230.0)],
            width=64, height=64, sigma=10.0, seed=340,
        )
        ds = to_dataset(image)
        config = ClusterConfig(cluster_count=5, seed=0)
        sconfig = SwarmConfig(swarm_size=20, n_max=100)

        start = time.perf_counter()
        result = run_apsof(ds, config, sconfig)
        elapsed = time.perf_counter() - start

        assert result.centers.shape == (5, 3)
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
        ok = True
    finally:
        _verdict(capsys, 9, "runtime budget", ok)
