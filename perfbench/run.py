#!/usr/bin/env python3
"""swarmseg benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload seed-protocol-64 --seed 0 --seconds 36 --trace 0

Runs from a source checkout: swarmseg is imported from ``src/`` next to
this directory and nowhere else, so the command fails (exit 2, no result)
where that source is missing. Every child process runs with one thread
per numeric library.

With ``--trace 0`` the result holds the end-to-end metrics: the median
set-up time over fresh processes started throughout the run, then the
measured pass. With ``--trace 1`` it holds the per-layer metrics from
spans recorded around calls into each swarmseg module, and the tracing
overhead. Every metric name and unit comes from BENCHMARK.json at the
checkout root.

The last line of standard output is the result; the lines before it
record the environment, the SHA-256 of every output and one SHA-256 over
all of them (``outputs_sha256``), which a change that keeps outputs
byte-identical leaves unchanged for the same seed. They are also written,
with the full result, under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("seed-protocol-64", "compare-256", "segment-1024")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 175.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="Run one swarmseg benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "swarmseg" / "__init__.py").is_file():
        print(f"perfbench: no swarmseg source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out_dir = ROOT / ".perfbench_out"
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = Path(tempfile.mkdtemp(prefix=f"{stem}-", dir=tmp_root))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(work / "run"),
             "--trace-file", str(out_dir / f"trace-{stem}.jsonl.gz")],
            env=env, stdout=subprocess.PIPE, text=True, timeout=DEADLINE_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = {
        "setup_s": statistics.median(res["setup_samples_s"]),
        "wall_s": res["wall_s"],
        "op_p50_s": res["op_p50_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        "jm_sum": res["jm_sum"],
        **res.get("per_layer", {}),
    }
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    if missing:
        print(f"perfbench: {args.workload}: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    environment = {
        "python": platform.python_version(),
        "numpy": res["numpy"],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **{var: env[var] for var in THREAD_VARS},
    }
    result = {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment,
        "setup_samples_s": res["setup_samples_s"],
        "rounds": res["rounds"], "ops_per_round": res["ops_per_round"], "op_s": res["op_s"],
        "problems": res["problems"], "digests": res["digests"], "result": result,
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    for problem in res["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print("environment " + json.dumps(environment))
    digests = json.dumps(res["digests"], sort_keys=True)
    print("digests " + digests)
    print("outputs_sha256 " + hashlib.sha256(digests.encode()).hexdigest())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
