"""Spans around calls into each swarmseg layer, recorded from outside the package.

``Tracer.install`` rebinds each traced module-level function, at every
module of the package that imports it, to a wrapper that records a span:
(id, parent id, operation id, name, start, end). A function that one module
imports from another (``squared_distances`` is bound in ``core``, ``fcm``
and ``kmeans``) is therefore traced whichever module calls it.
``uninstall`` restores the original bindings, so traced and untraced rounds
can alternate in one process. Spans stay in memory until ``write``.

Some wrappers also read counters off arguments and results (iterations,
convergence, improved personal bests, computed kernel flops and bytes).
Reading never changes what the program computes.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

BYTES_PER_FLOAT = 8


def _squared_distances_cost(args, kwargs, result, counts):
    # squared_distances(points (N, d), centers (C, d)): per center one
    # subtract, one multiply and a d-wide row sum per pixel, each a full pass
    # over (N, d) float64 arrays, then a strided write of the (N,) column.
    n, d = args[0].shape
    c = len(args[1])
    counts["core.distance_flops"] += 3 * n * c * d
    counts["core.distance_bytes"] += BYTES_PER_FLOAT * n * c * (5 * d + 3)


def _min_squared_distances_cost(args, kwargs, result, counts):
    # min_squared_distances(dataset, centers (C, d)): per center and channel
    # a subtract, a square and an accumulate over contiguous (N,) columns,
    # then one running minimum.
    dataset, centers = args[0], args[1]
    n, d, c = dataset.n_pixels, dataset.n_channels, len(centers)
    counts["core.distance_flops"] += 3 * n * c * d
    counts["core.distance_bytes"] += BYTES_PER_FLOAT * n * c * 7 * d


def _step_counts(args, kwargs, result, counts):
    counts["swarm.steps"] += 1
    if result.pbest_fitness < args[0].pbest_fitness:
        counts["swarm.pbest_improved"] += 1


def _swarm_counts(args, kwargs, result, counts):
    history = result[1]
    counts["swarm.iterations"] += history.iterations
    counts["swarm.converged_runs"] += int(history.converged)


def _fcm_counts(args, kwargs, result, counts):
    counts["fcm.iterations"] += result.iterations
    counts["fcm.capped_runs"] += int(not result.converged)


def _reseed_counts(args, kwargs, result, counts):
    counts["fcm.reseeds"] += len(args[2])


def _kmeans_counts(args, kwargs, result, counts):
    counts["kmeans.iterations"] += result.iterations


def _bytes_in(args, kwargs, result, counts):
    counts["imaging.bytes_in"] += len(args[0])


def _bytes_out(args, kwargs, result, counts):
    counts["imaging.bytes_out"] += len(result)


# (span name, defining module, function name, counter hook). The span name
# of pipeline.run_algorithm is completed with the algorithm it runs.
TRACED = (
    ("core.squared_distances", "swarmseg.core", "squared_distances", _squared_distances_cost),
    ("core.min_squared_distances", "swarmseg.core", "min_squared_distances",
     _min_squared_distances_cost),
    ("core.validate_config", "swarmseg.core", "validate_config", None),
    ("core.sample_distinct_pixels", "swarmseg.core", "sample_distinct_pixels", None),
    ("swarm.particle_fitness", "swarmseg.swarm", "particle_fitness", None),
    ("swarm.step_particle", "swarmseg.swarm", "step_particle", _step_counts),
    ("swarm.run_swarm", "swarmseg.swarm", "run_swarm", _swarm_counts),
    ("fcm.run_fcm", "swarmseg.fcm", "run_fcm", _fcm_counts),
    ("fcm.compute_memberships", "swarmseg.fcm", "compute_memberships", None),
    ("fcm.update_centers", "swarmseg.fcm", "_update_centers_partial", None),
    ("fcm.objective", "swarmseg.fcm", "fcm_objective", None),
    ("fcm.reseed_dead", "swarmseg.fcm", "_reseed_dead", _reseed_counts),
    ("kmeans.run_kmeans", "swarmseg.kmeans", "run_kmeans", _kmeans_counts),
    ("imaging.load_ppm", "swarmseg.imaging", "load_ppm", _bytes_in),
    ("imaging.to_dataset", "swarmseg.imaging", "to_dataset", None),
    ("imaging.reconstruct_quantized", "swarmseg.imaging", "reconstruct_quantized", None),
    ("imaging.write_ppm", "swarmseg.imaging", "write_ppm", _bytes_out),
    ("report.evaluate_jm", "swarmseg.report", "evaluate_jm", None),
    ("report.build_report", "swarmseg.report", "build_report", None),
    ("report.report_to_json", "swarmseg.report", "report_to_json", None),
    ("pipeline", "swarmseg.pipeline", "run_algorithm", None),
    ("cli.main", "swarmseg.cli", "main", None),
)

ROOT = "op"


class Tracer:
    """In-memory span recorder; one instance per workload process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack = [0]
        self._next_id = 1
        self._op = 0
        self._patches: list[tuple] = []

    def install(self) -> None:
        for name, module_name, attr, hook in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original, hook)
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "swarmseg" and not mod_name.startswith("swarmseg."):
                    continue
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, hook):
        tracer = self
        by_algorithm = name == "pipeline"

        def traced(*args, **kwargs):
            span_name = f"pipeline.{args[0]}" if by_algorithm else name
            parent = tracer._stack[-1]
            sid = tracer._next_id
            tracer._next_id += 1
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer._op, span_name, start, end))
            if hook is not None:
                hook(args, kwargs, result, tracer.counts[tracer._op])
            return result

        traced.__wrapped__ = fn
        return traced

    def op(self, op_id: int, fn):
        """Run ``fn()`` as operation ``op_id`` under a root span."""
        self._op = op_id
        sid = self._next_id
        self._next_id += 1
        self._stack.append(sid)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, 0, op_id, ROOT, start, end))

    def write(self, path, header: dict) -> None:
        """Gzipped JSON lines: a header, then one span per line."""
        fields = ["id", "parent", "op", "name", "start_s", "end_s"]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({**header, "fields": fields}) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                row = [sid, parent, op, name, round(start, 7), round(end, 7)]
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")


def round_metrics(tracer: Tracer, op_ids) -> dict[str, float]:
    """Per-layer totals over the spans and counters of one round's operations."""
    ops = set(op_ids)
    spans = [s for s in tracer.spans if s[2] in ops]
    names = {s[0]: s[3] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for sid, parent, _op, _name, start, end in spans:
        child_time[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    kmeans_assign = 0.0
    coverage = []
    for sid, parent, _op, name, start, end in spans:
        dur = end - start
        total[name] += dur
        self_time[name] += dur - child_time[sid]
        calls[name] += 1
        if name == "core.squared_distances" and names.get(parent) == "kmeans.run_kmeans":
            kmeans_assign += dur
        if name == ROOT:
            coverage.append(child_time[sid] / dur)
    counts: Counter = Counter()
    for op in ops:
        counts.update(tracer.counts[op])

    def per_iter(seconds: float, iterations: float) -> float:
        return seconds / iterations if iterations else 0.0

    m = {}
    for fn in ("squared_distances", "min_squared_distances", "validate_config"):
        m[f"core.{fn}.calls"] = calls[f"core.{fn}"]
        m[f"core.{fn}.s"] = total[f"core.{fn}"]
    m["core.sample_distinct_pixels.s"] = total["core.sample_distinct_pixels"]
    m["core.distance_flops"] = counts["core.distance_flops"]
    m["core.distance_bytes"] = counts["core.distance_bytes"]
    m["swarm.particle_fitness.calls"] = calls["swarm.particle_fitness"]
    m["swarm.particle_fitness.s"] = total["swarm.particle_fitness"]
    m["swarm.step_particle.calls"] = calls["swarm.step_particle"]
    m["swarm.step_particle.self_s"] = self_time["swarm.step_particle"]
    m["swarm.run_swarm.s"] = total["swarm.run_swarm"]
    m["swarm.run_swarm.self_s"] = self_time["swarm.run_swarm"]
    m["swarm.iterations"] = counts["swarm.iterations"]
    m["swarm.converged_runs"] = counts["swarm.converged_runs"]
    m["swarm.pbest_improve_ratio"] = (
        counts["swarm.pbest_improved"] / counts["swarm.steps"] if counts["swarm.steps"] else 0.0
    )
    for fn in ("run_fcm", "compute_memberships", "objective"):
        m[f"fcm.{fn}.calls"] = calls[f"fcm.{fn}"]
        m[f"fcm.{fn}.s"] = total[f"fcm.{fn}"]
    m["fcm.update_centers.s"] = total["fcm.update_centers"]
    m["fcm.s_per_iter"] = per_iter(total["fcm.run_fcm"], counts["fcm.iterations"])
    m["fcm.iterations"] = counts["fcm.iterations"]
    m["fcm.capped_runs"] = counts["fcm.capped_runs"]
    m["fcm.reseeds"] = counts["fcm.reseeds"]
    m["kmeans.run_kmeans.s"] = total["kmeans.run_kmeans"]
    m["kmeans.iterations"] = counts["kmeans.iterations"]
    m["kmeans.assign.s"] = kmeans_assign
    m["kmeans.update.s"] = self_time["kmeans.run_kmeans"]
    m["kmeans.s_per_iter"] = per_iter(total["kmeans.run_kmeans"], counts["kmeans.iterations"])
    for fn in ("load_ppm", "to_dataset", "reconstruct_quantized", "write_ppm"):
        m[f"imaging.{fn}.s"] = total[f"imaging.{fn}"]
    m["imaging.bytes_in"] = counts["imaging.bytes_in"]
    m["imaging.bytes_out"] = counts["imaging.bytes_out"]
    m["report.evaluate_jm.calls"] = calls["report.evaluate_jm"]
    m["report.evaluate_jm.s"] = total["report.evaluate_jm"]
    m["report.build_report.s"] = total["report.build_report"]
    m["report.report_to_json.s"] = total["report.report_to_json"]
    for algo in ("kmeans", "fcm", "psofcm", "apsof"):
        m[f"pipeline.{algo}.s"] = total[f"pipeline.{algo}"]
    m["cli.self_s"] = self_time["cli.main"]
    m["trace.coverage"] = statistics.median(coverage) if coverage else 0.0
    return m
