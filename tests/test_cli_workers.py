"""compare and bench in worker processes: same outputs, same errors, nothing left running."""

import importlib
import inspect
import multiprocessing
import os
import pickle
import pkgutil
import subprocess
import sys
import time

import pytest

import swarmseg
from swarmseg import cli, processes
from swarmseg.core import DeadClusterError
from swarmseg.imaging import write_ppm
from swarmseg.synthetic import gaussian_blob_image

from test_cli import (
    FAST,
    read_report,
    run_cli,
    strip_wall_times,
    write_blob_image,
    write_block_image,
)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(processes, "usable_cpus", lambda: count)


def write_second_blob_image(path):
    image = gaussian_blob_image(
        [(220.0, 220.0, 40.0), (40.0, 120.0, 220.0), (90.0, 90.0, 90.0)],
        width=12, height=10, sigma=10.0, seed=1,
    )
    path.write_bytes(write_ppm(image))


def run_compare_and_bench(outdir, first, second):
    out = outdir / "out"
    assert run_cli(["compare", str(first), str(out), "--clusters", "3", *FAST]) == 0
    bench = outdir / "bench.json"
    argv = ["bench", str(first), str(second), "--seeds", "3,4", "--clusters", "3",
            "--report", str(bench), *FAST]
    assert run_cli(argv) == 0
    images = {a: (out / f"{a}.ppm").read_bytes() for a in swarmseg.ALGORITHMS}
    report = strip_wall_times(read_report(out / "report.json"))
    return images, report, bench.read_bytes()


def test_outputs_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    first, second = tmp_path / "first.ppm", tmp_path / "second.ppm"
    write_blob_image(first)
    write_second_blob_image(second)
    outputs = []
    for count in (1, 2, 3):
        use_cpus(monkeypatch, count)
        outputs.append(run_compare_and_bench(tmp_path / f"cpus{count}", first, second))
    assert outputs[0] == outputs[1] == outputs[2]
    # bench aggregates carry no wall-clock field, so they match byte for byte
    assert b"wall_time" not in outputs[0][2]


def test_engine_error_exits_1_with_the_same_message(tmp_path, capsys, monkeypatch):
    src = tmp_path / "in.ppm"
    write_block_image(src, colors=((250, 10, 10), (10, 250, 10)))
    stderr = []
    for count in (1, 2):
        use_cpus(monkeypatch, count)
        out = tmp_path / f"out{count}"
        assert run_cli(["compare", str(src), str(out), "--clusters", "3", *FAST]) == 1
        assert not (out / "report.json").exists()
        stderr.append(capsys.readouterr().err)
    assert stderr[0] == stderr[1]
    assert "only 2 distinct pixel values" in stderr[0]


def test_no_worker_outlives_main(tmp_path, monkeypatch):
    src, flat = tmp_path / "in.ppm", tmp_path / "flat.ppm"
    write_blob_image(src)
    write_block_image(flat)
    use_cpus(monkeypatch, 2)
    assert run_cli(["compare", str(src), str(tmp_path / "out"), "--clusters", "3", *FAST]) == 0
    assert multiprocessing.active_children() == []
    # exact block colors give zero objectives: the parent's report fails
    # while later seeds may still be running in the workers
    argv = ["bench", str(flat), "--seeds", "0,1,2", "--clusters", "3",
            "--report", str(tmp_path / "bench.json"), *FAST]
    assert run_cli(argv) == 1
    assert multiprocessing.active_children() == []


LINUX_ONLY = pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="a forked worker inherits the patch only on Linux",
)


@LINUX_ONLY
def test_the_first_failing_task_in_task_order_is_raised(tmp_path, capsys, monkeypatch):
    real = cli.run_algorithm

    def run_algorithm(name, *args):
        if name == "apsof":
            raise RuntimeError("apsof failed")
        if name == "fcm":
            time.sleep(0.3)
            raise RuntimeError("fcm failed")
        return real(name, *args)

    src = tmp_path / "in.ppm"
    write_blob_image(src)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_algorithm", run_algorithm)
    out = tmp_path / "out"
    # apsof fails first in time, but fcm comes first in task order
    assert run_cli(["compare", str(src), str(out), "--clusters", "3", *FAST]) == 1
    assert capsys.readouterr().err == "swarmseg: error: fcm failed\n"
    assert not (out / "report.json").exists()
    assert multiprocessing.active_children() == []
    report = tmp_path / "bench.json"
    argv = ["bench", str(src), "--seeds", "0,1", "--clusters", "3",
            "--report", str(report), *FAST]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == "swarmseg: error: fcm failed\n"
    assert not report.exists()
    assert multiprocessing.active_children() == []


@LINUX_ONLY
@pytest.mark.parametrize("message", ["", "Unable to allocate 12.0 GiB for an array"])
def test_a_workers_out_of_memory_reads_as_in_process(tmp_path, capsys, monkeypatch, message):
    def run_algorithm(*args):
        raise MemoryError(message)

    src = tmp_path / "in.ppm"
    write_block_image(src)
    monkeypatch.setattr(cli, "run_algorithm", run_algorithm)
    stderr = []
    for count in (1, 2):
        use_cpus(monkeypatch, count)
        out = tmp_path / f"out{count}"
        assert run_cli(["compare", str(src), str(out), "--clusters", "3", *FAST]) == 1
        assert not (out / "report.json").exists()
        stderr.append(capsys.readouterr().err)
    assert stderr[0] == stderr[1]
    assert stderr[1] == f"swarmseg: error: out of memory{': ' + message if message else ''}\n"
    assert multiprocessing.active_children() == []


@LINUX_ONLY
def test_a_worker_that_dies_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    real = cli.run_algorithm

    def run_algorithm(name, *args):
        if name == "psofcm":
            os._exit(3)
        return real(name, *args)

    src = tmp_path / "in.ppm"
    write_blob_image(src)
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_algorithm", run_algorithm)
    out = tmp_path / "out"
    assert run_cli(["compare", str(src), str(out), "--clusters", "3", *FAST]) == 1
    # the pool reports the lost worker as BrokenProcessPool, a RuntimeError
    err = capsys.readouterr().err
    assert err.startswith(
        "swarmseg: error: A process in the process pool was terminated abruptly"
    )
    assert not (out / "report.json").exists()
    assert multiprocessing.active_children() == []


@LINUX_ONLY
def test_linux_workers_are_forked_with_the_parents_bindings(monkeypatch):
    # a spawned worker would import cli afresh and call the real run_algorithm
    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(cli, "run_algorithm", lambda name: (name, os.getpid()))
    with processes.pool_map(cli._run_engine, [(name,) for name in swarmseg.ALGORITHMS]) as results:
        results = list(results)
    assert [name for name, _ in results] == list(swarmseg.ALGORITHMS)
    # every task runs in a worker; the parent only reads the results
    assert all(pid != os.getpid() for _, pid in results)
    assert multiprocessing.active_children() == []


@LINUX_ONLY
def test_spawned_workers_write_the_forked_workers_outputs(tmp_path, monkeypatch):
    # spawn is the only start on macOS and Windows; here it runs next to fork
    src, log = tmp_path / "in.ppm", tmp_path / "runs.log"
    write_blob_image(src)
    use_cpus(monkeypatch, 2)
    real = cli.run_algorithm

    def run_algorithm(*args):
        # only a forked worker has this binding; a spawned one imports cli afresh
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(cli, "run_algorithm", run_algorithm)
    outputs = []
    for method in ("fork", "spawn"):
        monkeypatch.setattr(processes, "START_METHOD", method)
        log.write_text("")
        out = tmp_path / method
        assert run_cli(["compare", str(src), str(out), "--clusters", "3", *FAST]) == 0
        assert multiprocessing.active_children() == []
        outputs.append((
            {a: (out / f"{a}.ppm").read_bytes() for a in swarmseg.ALGORITHMS},
            strip_wall_times(read_report(out / "report.json")),
            len(log.read_text().splitlines()),
        ))
    (fork_images, fork_report, fork_runs), (spawn_images, spawn_report, spawn_runs) = outputs
    assert (fork_runs, spawn_runs) == (len(swarmseg.ALGORITHMS), 0)
    assert spawn_images == fork_images
    assert spawn_report == fork_report


# the benchmark's set-up: imports, then the datasets and configs it runs on
SETUP_STEPS = {
    "package": "import swarmseg",
    "cli-and-report": "import swarmseg.cli, swarmseg.report",
    "datasets-and-configs": (
        "import numpy as np, swarmseg.cli, swarmseg.report; "
        "from swarmseg import ClusterConfig, PixelDataset, SwarmConfig; "
        "PixelDataset(np.zeros((4096, 3)), 64, 64); ClusterConfig(); SwarmConfig()"
    ),
}


@pytest.mark.parametrize("setup", sorted(SETUP_STEPS))
def test_importing_the_cli_starts_no_pool_machinery(setup):
    # multiprocessing is imported only when a pool starts or a swarm splits
    code = (
        f"import sys; {SETUP_STEPS[setup]}; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True
    )
    assert proc.stdout.strip() == "[]"


def package_exceptions():
    found = []
    for info in pkgutil.iter_modules(swarmseg.__path__):
        module = importlib.import_module(f"swarmseg.{info.name}")
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                found.append(obj)
    return found


@pytest.mark.parametrize("cls", package_exceptions(), ids=lambda cls: cls.__name__)
def test_exceptions_survive_pickling(cls):
    # errors raised in a worker reach the parent by pickle
    exc = cls([1, 2]) if cls is DeadClusterError else cls("requested 3 clusters")
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


def test_dead_cluster_error_keeps_its_message_and_clusters():
    copy = pickle.loads(pickle.dumps(DeadClusterError([1, 2])))
    assert str(copy) == "clusters with zero total weight: [1, 2]"
    assert copy.dead == [1, 2]
