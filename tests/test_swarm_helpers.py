"""run_swarm's forked fitness helpers: same bits, errors reach the caller, nothing left running."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from swarmseg import processes, swarm
from swarmseg.core import PIXEL_BLOCK, ClusterConfig, _Fitness
from swarmseg.imaging import to_dataset, write_ppm
from swarmseg.swarm import SwarmConfig, run_swarm
from swarmseg.synthetic import gaussian_blob_image, random_image

from test_cli import run_cli
from test_cli_workers import use_cpus

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="helpers are forked only on Linux, and a forked helper inherits the patches",
)

BLOBS = [(200.0, 40.0, 40.0), (40.0, 200.0, 40.0), (40.0, 40.0, 200.0), (120.0, 120.0, 120.0)]


def count_starts(monkeypatch, log=None):
    """Count helper starts in a list, or as lines of ``log``, which forked processes share."""
    real, starts = swarm._start_helper, []

    def start_helper(*args):
        starts.append(os.getpid())
        if log is not None:
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(swarm, "_start_helper", start_helper)
    return starts


def blob_dataset(side):
    return to_dataset(gaussian_blob_image(BLOBS, width=side, height=side, sigma=12.0, seed=3))


def run(dataset, clusters, particles, iterations=25):
    config = ClusterConfig(cluster_count=clusters, seed=7)
    # no variance stop: every run takes all its steps
    sconfig = SwarmConfig(swarm_size=particles, n_max=iterations, variance_tol=0.0)
    return run_swarm(dataset, config, sconfig)


@pytest.mark.parametrize(
    "side, clusters, particles",
    [(64, 3, 50), (64, 5, 50), (64, 3, 7), (64, 5, 7), (96, 4, 7)],
    ids=["64-C3-P50", "64-C5-P50", "64-C3-P7", "64-C5-P7", "bounded-96-C4-P7"],
)
def test_outputs_do_not_depend_on_the_helper_count(monkeypatch, side, clusters, particles):
    dataset = blob_dataset(side)
    assert (dataset.n_pixels > PIXEL_BLOCK) == (side == 96)
    starts = count_starts(monkeypatch)
    outputs = []
    for workers in (1, 2, 3):
        use_cpus(monkeypatch, workers)
        starts.clear()
        centers, history = run(dataset, clusters, particles)
        # every process but this one is a helper
        assert len(starts) == workers - 1
        assert multiprocessing.active_children() == []
        outputs.append((centers, history))
    (centers, history), *split = outputs
    for other_centers, other in split:
        assert np.array_equal(other_centers, centers)
        for name in ("gbest_fitness", "f_avg", "variance"):
            assert getattr(other, name).tobytes() == getattr(history, name).tobytes()
        assert (other.iterations, other.converged) == (history.iterations, history.converged)


def test_shares_are_contiguous_whole_groups_with_the_larger_first():
    assert swarm._shares(50, 2) == [slice(0, 26), slice(26, 50)]
    assert swarm._shares(7, 3) == [slice(0, 4), slice(4, 6), slice(6, 7)]
    assert swarm._shares(7, 4) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 7)]


def test_a_small_step_or_a_single_group_runs_in_one_process(monkeypatch):
    use_cpus(monkeypatch, 2)
    starts = count_starts(monkeypatch)
    small = to_dataset(random_image(8, 8, seed=1))
    assert 10 * 3 * small.n_pixels < swarm.SPLIT_MIN_WORK
    run(small, 3, 10)
    # two particles are one group of CENTER_SETS_PER_SWEEP, which is not split
    run(blob_dataset(64), 3, 2)
    assert starts == []
    run(blob_dataset(64), 3, 7)
    assert len(starts) == 1


def test_a_process_with_other_threads_runs_in_one_process(monkeypatch):
    use_cpus(monkeypatch, 2)
    starts = count_starts(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        run(blob_dataset(64), 3, 50)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert starts == []


PARENT = os.getpid()


class FailingFitness(_Fitness):
    """Raises on its ``step``-th call where ``where(pid)`` holds."""

    def __init__(self, *args, where, step):
        super().__init__(*args)
        self.where, self.calls, self.step = where, 0, step

    def __call__(self, center_sets):
        self.calls += 1
        if self.calls == self.step and self.where(os.getpid()):
            raise ValueError(f"scorer failed at call {self.step}")
        return super().__call__(center_sets)


@pytest.mark.parametrize(
    "where", [lambda pid: pid == PARENT, lambda pid: pid != PARENT], ids=["parent", "helpers"]
)
def test_a_share_that_raises_reaches_the_caller_and_no_helper_outlives_it(monkeypatch, where):
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(
        swarm, "_Fitness", lambda *args: FailingFitness(*args, where=where, step=4)
    )
    with pytest.raises(ValueError, match="scorer failed at call 4"):
        run(blob_dataset(64), 3, 50)
    assert multiprocessing.active_children() == []


def die(*args):
    os._exit(3)


def test_a_helper_that_dies_is_a_runtime_error(monkeypatch):
    use_cpus(monkeypatch, 3)
    monkeypatch.setattr(swarm, "_serve", die)
    with pytest.raises(RuntimeError, match="a swarm fitness helper exited with code 3"):
        run(blob_dataset(64), 3, 50)
    assert multiprocessing.active_children() == []


def state(pid):
    """The process state letter of ``pid``, or None once it is reaped."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


# a split swarm far longer than the test, which prints each helper's pid
LONG_SPLIT_SWARM = f"""
import sys
sys.path.insert(0, {str(Path(__file__).resolve().parent.parent / "src")!r})
from swarmseg import processes, swarm
from swarmseg.core import ClusterConfig
from swarmseg.imaging import to_dataset
from swarmseg.synthetic import gaussian_blob_image

processes.usable_cpus = lambda: 3
start_helper = swarm._start_helper

def print_pid(*args):
    helper = start_helper(*args)
    print(helper.pid, flush=True)
    return helper

swarm._start_helper = print_pid
image = gaussian_blob_image({BLOBS!r}, width=64, height=64, sigma=12.0, seed=3)
swarm.run_swarm(
    to_dataset(image),
    ClusterConfig(cluster_count=3, seed=7),
    swarm.SwarmConfig(swarm_size=50, n_max=1_000_000, variance_tol=0.0),
)
"""


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_helpers_exit_when_the_parent_is_killed(signum):
    # neither signal runs the parent's finally: the helpers must see the pipe close
    proc = subprocess.Popen([sys.executable, "-c", LONG_SPLIT_SWARM], stdout=subprocess.PIPE)
    try:
        helpers = [int(proc.stdout.readline()) for _ in range(2)]
        time.sleep(0.2)
        assert proc.poll() is None
    finally:
        proc.send_signal(signum)
        proc.wait(timeout=30)
        proc.stdout.close()
    deadline = time.monotonic() + 10
    try:
        while any(state(pid) not in (None, "Z", "X") for pid in helpers):
            assert time.monotonic() < deadline, "a helper outlived its killed parent"
            time.sleep(0.05)
    finally:
        for pid in helpers:
            if state(pid) not in (None, "Z", "X"):
                os.kill(pid, signal.SIGKILL)


def test_without_proc_the_helpers_may_run_on_every_cpu(monkeypatch):
    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/stat")

    monkeypatch.setattr(processes, "open", no_proc, raising=False)
    assert processes.other_cpus() == os.sched_getaffinity(0)
    use_cpus(monkeypatch, 2)
    starts = count_starts(monkeypatch)
    split = run(blob_dataset(64), 3, 7)
    assert len(starts) == 1
    use_cpus(monkeypatch, 1)
    centers, history = run(blob_dataset(64), 3, 7)
    assert np.array_equal(split[0], centers)
    assert split[1].gbest_fitness.tobytes() == history.gbest_fitness.tobytes()
    assert multiprocessing.active_children() == []


def write_input(path):
    path.write_bytes(write_ppm(gaussian_blob_image(BLOBS, width=64, height=64, seed=3)))


# at C = 3 one step scores 8 x 3 x 4096 = 98,304 distances, above SPLIT_MIN_WORK
SPLIT_RUN = ["--clusters", "3", "--swarm-size", "8", "--iters", "5"]


def test_segment_exits_1_with_no_output_when_a_helper_dies(tmp_path, capsys, monkeypatch):
    src, out = tmp_path / "in.ppm", tmp_path / "out.ppm"
    write_input(src)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(swarm, "_serve", die)
    argv = ["segment", str(src), str(out), "--algo", "apsof", *SPLIT_RUN,
            "--report", str(tmp_path / "report.json")]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "swarmseg: error: a swarm fitness helper exited with code 3\n"
    assert not out.exists()
    assert not (tmp_path / "report.json").exists()
    assert multiprocessing.active_children() == []


def test_segment_reports_a_helper_that_cannot_build_its_scorer(tmp_path, capsys, monkeypatch):
    src, out = tmp_path / "in.ppm", tmp_path / "out.ppm"
    write_input(src)
    use_cpus(monkeypatch, 2)

    def fitness(*args):
        if os.getpid() != PARENT:
            raise MemoryError("no room for the scorer")
        return _Fitness(*args)

    monkeypatch.setattr(swarm, "_Fitness", fitness)
    assert run_cli(["segment", str(src), str(out), "--algo", "apsof", *SPLIT_RUN]) == 1
    err = capsys.readouterr().err
    assert err == "swarmseg: error: out of memory: no room for the scorer\n"
    assert not out.exists()
    assert multiprocessing.active_children() == []


def test_pool_workers_start_no_helper(tmp_path, monkeypatch):
    src, log = tmp_path / "in.ppm", tmp_path / "starts.log"
    write_input(src)
    log.touch()
    use_cpus(monkeypatch, 2)
    # forked pool workers inherit the patched starter, and the log file is shared
    count_starts(monkeypatch, log)
    assert run_cli(["compare", str(src), str(tmp_path / "cmp"), *SPLIT_RUN]) == 0
    argv = ["bench", str(src), "--seeds", "1,2", "--report", str(tmp_path / "bench.json"),
            *SPLIT_RUN]
    assert run_cli(argv) == 0
    assert log.read_text() == ""
    out = tmp_path / "out.ppm"
    assert run_cli(["segment", str(src), str(out), "--algo", "apsof", *SPLIT_RUN]) == 0
    assert log.read_text() == f"{os.getpid()}\n"
    # the in-process run matches the pooled one
    assert out.read_bytes() == (tmp_path / "cmp" / "apsof.ppm").read_bytes()
    assert multiprocessing.active_children() == []
