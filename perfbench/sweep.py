#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/sweep.py --seeds 0-9
    python3 perfbench/sweep.py --workloads segment-1024 --seeds 0,1,2,3,4 --trace 1

Runs ``run.py`` once per (workload, seed), one at a time, with the run
length from BENCHMARK.json, and prints for every metric the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread: the distance
between the quartiles as a share of the median. The per-run results and
the summary are written to ``.perfbench_out/sweep.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    runs, summary = [], {}
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": workload, "seed": seed, **result})
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        per_metric = {}
        for name in results[0]["metrics"]:
            per_metric[name] = summarize([r["metrics"][name]["value"] for r in results])
        per_metric["failed_share"] = sorted({r["failed"] / r["attempted"] for r in results})
        summary[workload] = per_metric
        for name, s in per_metric.items():
            if name == "failed_share":
                print(f"  {name}: {s}")
            else:
                print(f"  {name:32s} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                      f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    out = ROOT / ".perfbench_out" / "sweep.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
