"""Particle swarm search over candidate center sets.

Every swarm is the adaptive one: per-particle inertia driven by each
particle's fitness relative to the swarm statistics, plus learning factors
that slide linearly from self-weighted to socially-weighted over the run.
Classic constant-coefficient PSO is the same loop on a flat schedule,
``CLASSIC_SCHEDULE``, where both computations return the constants exactly.

A particle's position is a flattened (C*d,) array of center coordinates;
its fitness is the total squared distance from every pixel to its nearest
center (the quantization error of that center set). The swarm is held as
(P, C*d) position, velocity and personal-best arrays plus a (P,) array of
personal-best fitness, and one step advances every row at once. One
scorer, built once per run, scores the whole swarm at every step: it
sweeps the dataset's stored channel-major pixels (``pixels.T``, no copy)
a few particles at a time, and in each pixel block scores only the
centers that the bounding boxes of its pixels allow to be nearest to some
pixel there (``quantization_errors``). A skipped center is strictly
farther than a kept one from every pixel of its box, so the fitness
matches ``particle_fitness`` row by row bit for bit. Where a step is
large enough and processes fork, the particles are split into contiguous
slices, at most one per usable CPU, each scored in a forked helper or in
this process by the one scorer, which the helpers inherit from this
process (``_swarm_fitness``); the values are the same bits. The swarm
stops when the relative fitness variance collapses or the iteration
budget runs out.

Determinism contract: one seeded generator drives the whole run, consumed
in a fixed order: the particles are initialized one by one, then each step
takes one (P, 2) block of draws whose row i holds particle i's r1 and r2.
Identical (seed, config, dataset) therefore always reproduce the same
history bit for bit.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import processes
from .core import (
    CENTER_SETS_PER_SWEEP,
    EPS_ZERO,
    ClusterConfig,
    PixelDataset,
    _Fitness,
    min_squared_distances,
    quantization_errors,
    require_integer,
    sample_distinct_pixels,
    validate_config,
)

POSITION_LO = 0.0
POSITION_HI = 255.0

# Classic PSO as a SwarmConfig schedule: inertia 0.7 and both learning
# factors 2.0 at every step, for ``replace(sconfig, **CLASSIC_SCHEDULE)``.
CLASSIC_SCHEDULE = MappingProxyType(dict(
    w_max=0.7, w_min=0.7,
    c1_init=2.0, c1_final=2.0, c2_init=2.0, c2_final=2.0,
))


@dataclass
class Particle:
    """One particle as ``step_particle`` sees it: a row of the swarm arrays."""

    position: np.ndarray
    velocity: np.ndarray
    pbest: np.ndarray
    pbest_fitness: float
    fitness: float


@dataclass(frozen=True)
class SwarmStats:
    """Per-iteration fitness statistics: mean, minimum, and population variance."""

    f_avg: float
    f_min: float
    variance: float


@dataclass(frozen=True)
class SwarmConfig:
    """Swarm hyperparameters; the defaults are sized for 64x64 color images.

    Each particle's inertia comes from fitness statistics within
    [w_min, w_max], and c1/c2 follow linear schedules. Schedule endpoints
    may be equal, which gives constant coefficients (``CLASSIC_SCHEDULE``);
    reversed orderings are rejected.
    """

    swarm_size: int = 20
    n_max: int = 100
    w_max: float = 0.9
    w_min: float = 0.4
    c1_init: float = 2.5
    c1_final: float = 0.5
    c2_init: float = 0.5
    c2_final: float = 2.5
    variance_tol: float = 1e-3
    v_max_fraction: float = 0.2

    def __post_init__(self):
        require_integer("swarm_size", self.swarm_size)
        require_integer("n_max", self.n_max)
        for name in (
            "w_max", "w_min", "c1_init", "c1_final", "c2_init", "c2_final",
            "variance_tol",
        ):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.swarm_size < 1:
            raise ValueError("swarm_size must be positive")
        if self.n_max < 1:
            raise ValueError("n_max must be positive")
        if self.w_max < self.w_min:
            raise ValueError("w_max must not be below w_min")
        if self.c1_init < self.c2_init or self.c1_final > self.c2_final:
            raise ValueError(
                "schedules need c1_init >= c2_init and c1_final <= c2_final"
            )
        if self.variance_tol < 0.0:
            raise ValueError("variance_tol must be non-negative")
        if not 0.0 < self.v_max_fraction <= 1.0:
            raise ValueError("v_max_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class SwarmHistory:
    """Per-iteration record of the search: best fitness and spread."""

    gbest_fitness: np.ndarray
    f_avg: np.ndarray
    variance: np.ndarray
    iterations: int
    converged: bool


def particle_fitness(dataset: PixelDataset, position: np.ndarray) -> float:
    """Quantization error of the center set encoded by ``position``.

    Each pixel contributes the squared distance to its nearest center only.
    """
    centers = np.asarray(position, dtype=np.float64).reshape(
        -1, dataset.n_channels
    )
    return float(np.sum(min_squared_distances(dataset, centers)))


def swarm_stats(fitnesses: np.ndarray) -> SwarmStats:
    """Mean, minimum, and population variance of the swarm's fitness values."""
    f = np.asarray(fitnesses, dtype=np.float64)
    if f.size == 0:
        raise ValueError("swarm_stats needs at least one fitness value")
    f_avg = float(np.mean(f))
    return SwarmStats(
        f_avg=f_avg,
        f_min=float(np.min(f)),
        variance=float(np.mean((f - f_avg) ** 2)),
    )


def adaptive_inertia(f_i: float, stats: SwarmStats, config: SwarmConfig) -> float:
    """Per-particle inertia weight from fitness relative to the swarm.

    Better-than-average particles (minimization: fitness below the mean)
    keep the maximum inertia; the rest scale between w_min and w_max with
    their distance from the swarm's best, clamped into [w_min, w_max].
    Degenerate statistics (everyone equally fit) also yield w_max.
    """
    spread = stats.f_avg - stats.f_min
    if f_i < stats.f_avg or spread < EPS_ZERO:
        return config.w_max
    raw = (config.w_max - config.w_min) * (f_i - stats.f_min) / spread
    return min(config.w_max, max(config.w_min, raw))


def _inertia(fitness: np.ndarray, stats: SwarmStats, config: SwarmConfig) -> np.ndarray:
    """``adaptive_inertia`` of every particle at once, bit for bit, shape (P,)."""
    spread = stats.f_avg - stats.f_min
    if spread < EPS_ZERO:
        return np.full(len(fitness), config.w_max)
    raw = (config.w_max - config.w_min) * (fitness - stats.f_min) / spread
    w = np.minimum(config.w_max, np.maximum(config.w_min, raw))
    return np.where(fitness < stats.f_avg, config.w_max, w)


def adaptive_learning_factors(
    n: int, config: SwarmConfig
) -> tuple[float, float]:
    """Linearly scheduled (c1, c2) at iteration ``n`` of ``n_max``.

    c1 runs from c1_init to c1_final and c2 from c2_init to c2_final, so the
    swarm shifts weight from self-learning to social learning as it ages.
    """
    frac = n / config.n_max
    c1 = config.c1_init + (config.c1_final - config.c1_init) * frac
    c2 = config.c2_init + (config.c2_final - config.c2_init) * frac
    return c1, c2


def _step(
    score: Callable[[np.ndarray], np.ndarray],
    position: np.ndarray,
    velocity: np.ndarray,
    pbest: np.ndarray,
    pbest_fitness: np.ndarray,
    gbest: np.ndarray,
    w: np.ndarray,
    c1: float,
    c2: float,
    r: np.ndarray,
    config: SwarmConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Advance every row of the swarm: velocity update, move, clamp, re-evaluate.

    ``score`` maps the (P, C*d) positions to their (P,) fitness. Row i uses
    inertia ``w[i]`` and draws ``r[i] = (r1, r2)``, shared across all of its
    dimensions. The new velocity is clamped per component to
    +/- v_max_fraction * 255 and the new position to [0, 255]; a personal
    best moves to the new position where that improves on it. Returns the
    new (position, velocity, fitness, pbest, pbest_fitness).
    """
    v_cap = config.v_max_fraction * (POSITION_HI - POSITION_LO)
    velocity = (
        w[:, None] * velocity
        + (c1 * r[:, :1]) * (pbest - position)
        + (c2 * r[:, 1:]) * (gbest - position)
    )
    np.clip(velocity, -v_cap, v_cap, out=velocity)
    position = np.clip(position + velocity, POSITION_LO, POSITION_HI)
    fitness = score(position)
    improved = fitness < pbest_fitness
    pbest = np.where(improved[:, None], position, pbest)
    pbest_fitness = np.where(improved, fitness, pbest_fitness)
    return position, velocity, fitness, pbest, pbest_fitness


def step_particle(
    p: Particle,
    gbest: np.ndarray,
    dataset: PixelDataset,
    w: float,
    c1: float,
    c2: float,
    config: SwarmConfig,
    rng: np.random.Generator,
) -> Particle:
    """Advance one particle with the swarm step's formula.

    r1 then r2 are drawn from ``rng``, as row i of a whole-swarm step.
    """
    r = np.array([[rng.random(), rng.random()]])
    position, velocity, fitness, pbest, pbest_fitness = _step(
        lambda x: quantization_errors(dataset, x.reshape(1, -1, dataset.n_channels)),
        p.position[None], p.velocity[None], p.pbest[None],
        np.array([p.pbest_fitness]), gbest, np.array([w]), c1, c2, r, config,
    )
    return Particle(
        position=position[0],
        velocity=velocity[0],
        pbest=pbest[0],
        pbest_fitness=float(pbest_fitness[0]),
        fitness=float(fitness[0]),
    )


# Center-to-pixel distances (particles x clusters x pixels) one swarm step
# must compute before its fitness is split over processes. Below it, a
# helper's pipe round trip and its share of the start (about 1.5 ms) and
# join can cost more than the step saves: timing whole 100-step runs on
# two CPUs, split against one process, every swarm measured at 65,536 or
# more took 0.67-1.00 of the one-process time, and below it 4 particles
# took up to 1.42 (C = 3, 1024 pixels), 10 up to 1.91 (C = 3, 64 pixels)
# and 20 up to 1.13. Below it run the test suite's small swarms and
# `segment` on images under about 650 pixels at 20 particles and 5 clusters.
SPLIT_MIN_WORK = 65_536


def _fitness_processes(sets: int, work: int) -> int:
    """How many processes score a swarm step of ``sets`` center sets and ``work`` distances.

    W = min(usable CPUs, groups of ``CENTER_SETS_PER_SWEEP`` sets), or 1
    unless all of these hold:
    - processes fork;
    - ``work`` reaches ``SPLIT_MIN_WORK``;
    - this process runs one thread. A fork copies only the calling thread,
      and a lock another thread holds stays held in the copy;
    - this process is not a multiprocessing child. A ``compare`` or
      ``bench`` pool worker is one, and its siblings already fill the CPUs.
    """
    if (
        processes.START_METHOD != "fork"
        or work < SPLIT_MIN_WORK
        or threading.active_count() > 1
    ):
        return 1
    workers = min(processes.usable_cpus(), -(-sets // CENTER_SETS_PER_SWEEP))
    if workers <= 1:
        return 1
    import multiprocessing

    return workers if multiprocessing.parent_process() is None else 1


def _shares(sets: int, workers: int) -> list[slice]:
    """``workers`` contiguous slices of ``sets`` sets, whole groups each, larger ones first."""
    groups, extra = divmod(-(-sets // CENTER_SETS_PER_SWEEP), workers)
    bounds = [0]
    for i in range(workers):
        step = (groups + (i < extra)) * CENTER_SETS_PER_SWEEP
        bounds.append(min(sets, bounds[-1] + step))
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _serve(conn, parent_ends, score: _Fitness, cpus: set[int]) -> None:
    """A helper's loop on ``cpus`` (if any): ``score`` each slice of positions received on ``conn``.

    ``score`` is the parent's scorer, inherited by the fork; the helper
    builds nothing. ``parent_ends`` are the parent's ends of this pipe and
    of the earlier helpers' pipes, copied by the fork. Closed here, they let
    the parent's exit, however it exits, read as EOF, and the helper then
    returns. Positions and errors travel as raw float64 bytes; an exception
    goes back as an empty reply and then the pickled exception. Otherwise
    the helper runs until it is terminated.
    """
    import signal

    for end in parent_ends:
        end.close()
    # Ctrl-C reaches the whole process group; the parent stops its helpers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        while True:
            position = np.frombuffer(conn.recv_bytes())
            try:
                errors = score(position)
            except Exception as exc:
                conn.send_bytes(b"")
                conn.send(exc)
            else:
                conn.send_bytes(errors)
    except (EOFError, OSError):  # the parent is gone
        return


def _start_helper(context, conn, *args):
    """Start a helper process running ``_serve(conn, *args)``; return it."""
    helper = context.Process(target=_serve, args=(conn, *args), daemon=True)
    helper.start()
    return helper


def _stopped(helper) -> RuntimeError:
    """The error for ``helper``, whose end of the pipe closed: it exited, so join it."""
    helper.join()
    return RuntimeError(f"a swarm fitness helper exited with code {helper.exitcode}")


def _split_errors(position: np.ndarray, score: _Fitness, own: slice, helpers: list) -> np.ndarray:
    """The (sets,) errors of ``position``: each helper's slice from that helper, ``own`` from ``score``."""
    for helper, conn, share in helpers:
        try:
            conn.send_bytes(position[share])
        except OSError:
            raise _stopped(helper) from None
    errors = np.empty(len(position))
    errors[own] = score(position[own])
    for helper, conn, share in helpers:
        try:
            reply = conn.recv_bytes() or conn.recv()
        except (EOFError, OSError):
            raise _stopped(helper) from None
        if isinstance(reply, BaseException):
            raise reply
        errors[share] = np.frombuffer(reply)
    return errors


@contextmanager
def _swarm_fitness(
    dataset: PixelDataset, sets: int, clusters: int
) -> Iterator[Callable[[np.ndarray], np.ndarray]]:
    """The fitness of one swarm run: (sets, clusters * d) positions to (sets,) errors.

    This process builds the run's one ``_Fitness`` first, so a failure to
    build it, ``MemoryError`` included, is raised here before any fork.
    With W from ``_fitness_processes`` above 1, W - 1 helpers forked after
    it each score a fixed contiguous slice of the sets (``_shares``) with
    their inherited copy, and this process scores the last slice with the
    same object and reads theirs back in set order. A set's error does not
    depend on the sets scored beside it, so every value keeps its bits
    whatever W is. A helper's exception is raised here, and a helper that
    dies raises ``RuntimeError``. Every helper is terminated and joined
    when the ``with`` block ends, however it ends, and returns by itself if
    this process dies first.

    The helpers may run on every usable CPU but the one this process runs
    on when they start. Unpinned, the kernel's wake-up placement often
    kept a helper on this process's CPU for a whole run, and the split run
    was slower than one process.
    """
    score = _Fitness(dataset, sets, clusters)
    workers = _fitness_processes(sets, sets * clusters * dataset.n_pixels)
    if workers == 1:
        yield score
        return
    import multiprocessing

    context = multiprocessing.get_context(processes.START_METHOD)
    *shares, own = _shares(sets, workers)
    cpus = processes.other_cpus()
    helpers = []
    try:
        for share in shares:
            conn, child = context.Pipe()
            try:
                parent_ends = [end for _, end, _ in helpers] + [conn]
                helper = _start_helper(context, child, parent_ends, score, cpus)
            finally:
                # this process keeps only its own end, so a helper's exit reads as EOF
                child.close()
            helpers.append((helper, conn, share))
        yield lambda position: _split_errors(position, score, own, helpers)
    finally:
        for helper, _, _ in helpers:
            helper.terminate()
        for helper, conn, _ in helpers:
            helper.join()
            conn.close()


def run_swarm(
    dataset: PixelDataset, config: ClusterConfig, sconfig: SwarmConfig
) -> tuple[np.ndarray, SwarmHistory]:
    """Search for the center set minimizing the quantization error.

    Every particle starts on C pixels with distinct values (zero velocity).
    Each iteration records the swarm statistics, stops if the relative
    fitness variance has collapsed below ``variance_tol``, and otherwise
    steps all particles with the scheduled c1, c2 and each particle's
    adaptive inertia. Returns the best position found, decoded to a (C, d)
    center array, plus the per-iteration history.
    """
    validate_config(config, dataset)
    rng = np.random.default_rng(config.seed)
    size = sconfig.swarm_size
    position = np.stack([
        sample_distinct_pixels(dataset, config.cluster_count, rng).ravel()
        for _ in range(size)
    ])
    gbest_hist: list[float] = []
    favg_hist: list[float] = []
    var_hist: list[float] = []
    converged = False

    with _swarm_fitness(dataset, size, config.cluster_count) as score:
        fitness = score(position)
        velocity = np.zeros_like(position)
        pbest, pbest_fitness = position.copy(), fitness.copy()
        best = int(np.argmin(pbest_fitness))
        gbest, gbest_fitness = pbest[best].copy(), float(pbest_fitness[best])

        for n in range(sconfig.n_max + 1):
            stats = swarm_stats(fitness)
            gbest_hist.append(gbest_fitness)
            favg_hist.append(stats.f_avg)
            var_hist.append(stats.variance)
            if stats.variance / max(stats.f_avg**2, EPS_ZERO) <= sconfig.variance_tol:
                converged = True
                break
            if n == sconfig.n_max:
                break

            c1, c2 = adaptive_learning_factors(n, sconfig)
            w = _inertia(fitness, stats, sconfig)
            position, velocity, fitness, pbest, pbest_fitness = _step(
                score, position, velocity, pbest, pbest_fitness, gbest,
                w, c1, c2, rng.random((size, 2)), sconfig,
            )
            best = int(np.argmin(pbest_fitness))
            if pbest_fitness[best] < gbest_fitness:
                gbest, gbest_fitness = pbest[best].copy(), float(pbest_fitness[best])

    # in range already: every position is a pixel or was clipped in ``_step``
    centers = gbest.reshape(config.cluster_count, dataset.n_channels)
    history = SwarmHistory(
        gbest_fitness=np.array(gbest_hist),
        f_avg=np.array(favg_hist),
        variance=np.array(var_hist),
        iterations=n,
        converged=converged,
    )
    return centers, history
