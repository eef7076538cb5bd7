"""Command-line interface: segment, compare, and bench subcommands.

Every invocation is a pure function of its flags, input bytes, and seed:
repeat runs write byte-identical images and reports (wall-clock fields
aside). Normal operation writes files only; all diagnostics go to stderr.
Exit codes: 0 success, 1 runtime failure (IO, malformed image, degenerate
clustering, out of memory), 2 usage error.

``segment`` runs its one engine in-process. ``compare`` and ``bench`` run
their engines on W worker processes (one pool per invocation; forked on
Linux to skip the imports, spawned elsewhere), where W is the smaller of
the usable CPUs and the engine runs (``processes``). The parent builds
every image and report from the results in ``ALGORITHMS`` order, so
outputs do not depend on the worker count. With one usable CPU they run
in-process only. A swarm run in-process may split its fitness over
helper processes (``swarm``); one in a pool worker does not.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import replace
from itertools import islice
from pathlib import Path
from typing import Iterator

from . import processes
from .core import ClusterConfig, PixelDataset
from .imaging import load_ppm, reconstruct_quantized, to_dataset, write_ppm
from .pipeline import ALGORITHMS, SegmentationResult, run_algorithm
from .report import aggregate_reports, build_report, dump_json, report_to_json
from .swarm import SwarmConfig

COMPARE_PAIRINGS = (("fcm", "apsof"),)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _seed_list(text: str) -> list[int]:
    try:
        seeds = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad seed list {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError("seed list must not be empty")
    return seeds


# One row per run setting: (flag, config class, field, help). Each flag's
# dest is its field, its default the field's default, and its type that
# default's type. The config class is the only check on a flag's value:
# ``_build_configs`` reports its error as a usage error.
RUN_FLAGS = (
    ("--clusters", ClusterConfig, "cluster_count", "number of clusters C"),
    ("--seed", ClusterConfig, "seed", "random seed"),
    ("--fuzzifier", ClusterConfig, "fuzzifier", "fuzzy exponent m > 1"),
    ("--swarm-size", SwarmConfig, "swarm_size", "particles in the swarm"),
    ("--iters", SwarmConfig, "n_max", "maximum swarm iterations"),
    ("--w-max", SwarmConfig, "w_max", "maximum inertia weight"),
    ("--w-min", SwarmConfig, "w_min", "minimum inertia weight"),
    ("--c1-init", SwarmConfig, "c1_init", "initial cognitive factor"),
    ("--c1-final", SwarmConfig, "c1_final", "final cognitive factor"),
    ("--c2-init", SwarmConfig, "c2_init", "initial social factor"),
    ("--c2-final", SwarmConfig, "c2_final", "final social factor"),
    ("--variance-tol", SwarmConfig, "variance_tol", "relative fitness-variance stop threshold"),
    ("--vmax-frac", SwarmConfig, "v_max_fraction", "velocity cap as a fraction of the 255 range"),
)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    for flag, owner, field, text in RUN_FLAGS:
        # a dataclass keeps each field's default as its class attribute
        default = getattr(owner, field)
        parser.add_argument(flag, type=type(default), dest=field, default=default,
                            help=f"{text} (default %(default)s)")
    parser.add_argument("--max-side", type=_positive_int, default=None,
                        help="downscale so the longer image side is at most this")
    parser.add_argument("--report", type=Path, default=None,
                        help="write a JSON report to this path")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmseg",
        description="Color image segmentation by swarm-seeded fuzzy clustering.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_segment = sub.add_parser(
        "segment", help="segment one image with one algorithm"
    )
    p_segment.add_argument("input", type=Path, help="input PPM (P6) image")
    p_segment.add_argument("output", type=Path, help="quantized PPM to write")
    p_segment.add_argument("--algo", choices=ALGORITHMS, default="apsof",
                           help="algorithm to run (default apsof)")
    _add_run_flags(p_segment)
    p_segment.set_defaults(func=cmd_segment, parser=p_segment)

    p_compare = sub.add_parser(
        "compare", help="run all algorithms on one image and report"
    )
    p_compare.add_argument("input", type=Path, help="input PPM (P6) image")
    p_compare.add_argument("outdir", type=Path,
                           help="directory for per-algorithm quantized images")
    _add_run_flags(p_compare)
    p_compare.set_defaults(func=cmd_compare, parser=p_compare)

    p_bench = sub.add_parser(
        "bench", help="aggregate comparisons over many seeds"
    )
    p_bench.add_argument("inputs", type=Path, nargs="+",
                         help="input PPM (P6) images")
    seeds = p_bench.add_mutually_exclusive_group(required=True)
    seeds.add_argument("--seeds", type=_seed_list, default=None,
                       help="comma-separated explicit seed list")
    seeds.add_argument("--seed-count", type=_positive_int, default=None,
                       help="run this many consecutive seeds starting at --seed")
    _add_run_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench, parser=p_bench)

    return parser


def _build_configs(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[ClusterConfig, SwarmConfig]:
    """Build each config from its rows of ``RUN_FLAGS``; bad values are usage errors."""
    try:
        return tuple(
            cls(**{field: getattr(args, field) for _, owner, field, _ in RUN_FLAGS
                   if owner is cls})
            for cls in (ClusterConfig, SwarmConfig)
        )
    except ValueError as exc:
        parser.error(str(exc))


def _load_dataset(path: Path, max_side: int | None) -> PixelDataset:
    image = load_ppm(path.read_bytes())
    return to_dataset(image, max_side=max_side)


def cmd_segment(args, parser) -> int:
    config, sconfig = _build_configs(args, parser)
    dataset = _load_dataset(args.input, args.max_side)
    result = run_algorithm(args.algo, dataset, config, sconfig)
    quantized = reconstruct_quantized(dataset, result.labels, result.centers)
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_bytes(write_ppm(quantized))
    if args.report is not None:
        report = build_report(
            dataset, [result], image=str(args.input), fuzzifier=args.fuzzifier
        )
        args.report.parent.mkdir(parents=True, exist_ok=True)
        args.report.write_text(report_to_json(report))
    return 0


def _run_engine(task: tuple) -> SegmentationResult:
    """Run one ``(name, dataset, config, sconfig)`` task.

    Module-level, so a worker process can unpickle it by name; it calls
    this module's ``run_algorithm`` binding when run in-process.
    """
    return run_algorithm(*task)


@contextmanager
def _engine_results(tasks: list[tuple]) -> Iterator[Iterator[SegmentationResult]]:
    """An iterator over the results of ``_run_engine`` on every task, in task order.

    With W the smaller of the usable CPUs and the task count, W pool
    workers (forked on Linux to skip the imports, else spawned) run every
    task and the parent reads the results; with W = 1 the parent runs each
    task in turn as the iterator advances. A task's exception is raised
    when its result is read, so the first failing task in task order
    reaches the caller, as in-process. No worker outlives the ``with`` block.
    """
    workers = min(processes.usable_cpus(), len(tasks))
    if workers <= 1:
        yield map(_run_engine, tasks)
        return
    # imported only when a pool starts: segment and one-CPU runs skip the cost
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    context = multiprocessing.get_context(processes.START_METHOD)
    pool = ProcessPoolExecutor(workers, mp_context=context)
    try:
        yield pool.map(_run_engine, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


def _engine_tasks(
    dataset: PixelDataset, config: ClusterConfig, sconfig: SwarmConfig
) -> list[tuple]:
    return [(name, dataset, config, sconfig) for name in ALGORITHMS]


def _compare_report(
    dataset: PixelDataset, results: list, image_name: str, fuzzifier: float
):
    return build_report(
        dataset, results, COMPARE_PAIRINGS, image=image_name, fuzzifier=fuzzifier
    )


def cmd_compare(args, parser) -> int:
    config, sconfig = _build_configs(args, parser)
    dataset = _load_dataset(args.input, args.max_side)
    with _engine_results(_engine_tasks(dataset, config, sconfig)) as results:
        results = list(results)
    report = _compare_report(dataset, results, str(args.input), args.fuzzifier)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for result in results:
        quantized = reconstruct_quantized(dataset, result.labels, result.centers)
        path = args.outdir / f"{result.algorithm}.ppm"
        path.write_bytes(write_ppm(quantized))
    report_path = args.report or (args.outdir / "report.json")
    report_path.parent.mkdir(parents=True, exist_ok=True)
    report_path.write_text(report_to_json(report))
    return 0


def cmd_bench(args, parser) -> int:
    if args.report is None:
        parser.error("bench requires --report")
    if args.seeds is not None:
        seeds = args.seeds
    else:
        seeds = list(range(args.seed, args.seed + args.seed_count))
    config, sconfig = _build_configs(args, parser)
    # every seed is checked before the first comparison runs
    try:
        configs = [replace(config, seed=seed) for seed in seeds]
    except ValueError as exc:
        parser.error(str(exc))

    datasets = [_load_dataset(path, args.max_side) for path in args.inputs]
    tasks = [
        task
        for dataset in datasets
        for seed_config in configs
        for task in _engine_tasks(dataset, seed_config, sconfig)
    ]
    # reports are built as results arrive, so no more results are held than
    # the workers have finished ahead of the one awaited
    benchmarks = []
    with _engine_results(tasks) as results:
        for input_path, dataset in zip(args.inputs, datasets):
            reports = [
                _compare_report(
                    dataset, list(islice(results, len(ALGORITHMS))),
                    str(input_path), args.fuzzifier,
                )
                for _ in configs
            ]
            benchmarks.append(aggregate_reports(reports))

    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(dump_json({"benchmarks": benchmarks}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        # a bad value is reported against its subcommand's usage, as argparse does
        return args.func(args, args.parser)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"swarmseg: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy names the allocation that failed; a bare MemoryError says nothing
        detail = f": {exc}" if str(exc) else ""
        print(f"swarmseg: error: out of memory{detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
