"""One workload process: set up, run whole rounds, check every output, report.

Started by ``run.py`` with one thread per numeric library. With
``--setup-only`` it times the set-up (import swarmseg, generate and write
the inputs, build datasets) and stops. Otherwise it then runs whole rounds
of the workload's operations, one caller in a closed loop, at least
MIN_ROUNDS of them and then more while another round is expected to be
half done within ``--seconds``. Between operations, untimed, it starts fresh
``--setup-only`` processes to sample the set-up time. With ``--trace 1``
odd rounds run traced and even rounds untraced, which measures the tracing
overhead. The last line of standard output is one JSON object for
``run.py``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MAX_PROBLEMS = 20
# A fresh set-up process starts between operations whenever this share of
# --seconds has passed since the last one. Set-up is mostly imports, whose
# time drifts with the host's load by up to 1.7x over tens of seconds, so
# samples spread over the whole run are steadier than a burst of them.
SETUP_PROBES_PER_RUN = 8
# Every operation runs at least this often, in separate rounds.
MIN_ROUNDS = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--trace-file", type=Path, default=None)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def setup_probe(args, n: int) -> float:
    """Set up once in a fresh process and return its set-up time."""
    workdir = args.workdir.parent / f"setup{n}"
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--setup-only", "--workdir", str(workdir)],
        stdout=subprocess.PIPE, text=True, timeout=60, check=True,
    )
    shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_checkout_swarmseg():
    """Import swarmseg from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import swarmseg

    origin = Path(swarmseg.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"swarmseg imported from {origin}, not from {ROOT / 'src'}")
    return swarmseg


def main(argv=None) -> int:
    args = parse_args(argv)
    import_checkout_swarmseg()
    import numpy as np

    import workloads
    from tracing import Tracer, round_metrics

    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload.install_capture()
    tracer = Tracer() if args.trace else None
    operations = workload.operations()
    rounds = []  # (traced, [op seconds], [op ids])
    attempted = failed = wrong = 0
    problems: list[str] = []
    first_digests: dict[str, dict] = {}
    first_found: dict[str, list] = {}
    jm_sum = 0.0
    peak_rss_mb = None
    setup_samples = [setup_s]
    start = time.perf_counter()
    probe_every = args.seconds / SETUP_PROBES_PER_RUN if tracer is None else None
    next_probe = start + (probe_every or 0.0)
    round_start = start
    while True:
        # Start another round if its midpoint, judged by the last round's
        # length, falls within --seconds, so a run measures about --seconds.
        now = time.perf_counter()
        if len(rounds) >= MIN_ROUNDS and now - start + (now - round_start) / 2 > args.seconds:
            break
        round_start = now
        traced = tracer is not None and len(rounds) % 2 == 1
        times, ids = [], []
        for i, (label, run) in enumerate(operations):
            op_id = len(rounds) * len(operations) + i + 1
            if probe_every is not None and time.perf_counter() >= next_probe:
                setup_samples.append(setup_probe(args, len(setup_samples)))
                next_probe = time.perf_counter() + probe_every
            attempted += 1
            workload.prepare()
            try:
                if traced:
                    tracer.install()
                    try:
                        t = time.perf_counter()
                        out = tracer.op(op_id, run)
                        dt = time.perf_counter() - t
                    finally:
                        tracer.uninstall()
                else:
                    t = time.perf_counter()
                    out = run()
                    dt = time.perf_counter() - t
            except Exception as exc:  # an operation that raises counts as failed
                failed += 1
                problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
                continue
            if peak_rss_mb is None:
                # Read before any check has run: the checks' references must
                # not count towards the program's peak.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            full = label not in first_digests
            try:
                found, digests, jm = workload.check(label, out, full)
            except Exception as exc:  # outputs missing or malformed
                found, digests, jm = [f"{label}: outputs unreadable: {exc!r}"], None, 0.0
            del out
            times.append(dt)
            ids.append(op_id)
            if full:
                first_digests[label] = digests
                first_found[label] = found
                jm_sum += jm
            elif digests != first_digests[label]:
                found = [f"{label}: outputs differ from the first run of the same inputs"]
            else:
                # Identical bytes get the first occurrence's verdict.
                found = first_found[label]
            if found:
                failed += 1
                wrong += 1
                problems += found
        rounds.append((traced, times, ids))

    plain = [r for r in rounds if not r[0]]
    round_s = [sum(r[1]) for r in plain if len(r[1]) == len(operations)]
    op_s = [t for r in plain for t in r[1]]
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "problems": problems[:MAX_PROBLEMS],
        "setup_samples_s": setup_samples,
        "wall_s": statistics.median(round_s) if round_s else None,
        "op_p50_s": statistics.median(op_s) if op_s else None,
        "op_s": [r[1] for r in plain],
        "rounds": len(rounds),
        "ops_per_round": len(operations),
        "peak_rss_mb": peak_rss_mb,
        "jm_sum": jm_sum,
        "digests": first_digests,
        "numpy": np.__version__,
    }
    if tracer is not None:
        traced_rounds = [r for r in rounds if r[0] and len(r[1]) == len(operations)]
        per_round = [round_metrics(tracer, r[2]) for r in traced_rounds]
        layers = {}
        if per_round:
            layers = {k: statistics.median([m[k] for m in per_round]) for k in per_round[0]}
        traced_s = [sum(r[1]) for r in traced_rounds]
        if traced_s and round_s:
            traced_wall, plain_wall = statistics.median(traced_s), statistics.median(round_s)
            layers["trace.traced_wall_s"] = traced_wall
            layers["trace.untraced_wall_s"] = plain_wall
            layers["trace.overhead_ratio"] = traced_wall / plain_wall
        result["per_layer"] = layers
        if args.trace_file is not None:
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.trace_file, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
