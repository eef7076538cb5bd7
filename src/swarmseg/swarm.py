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
personal-best fitness, and one step advances every row at once. The
swarm stops when the relative fitness variance collapses or the iteration
budget runs out.

One scorer (``_Fitness``), built once per run, scores the whole swarm at
every step: it sweeps the dataset's stored channel-major pixels
(``pixels.T``, no copy) ``CENTER_SETS_PER_SWEEP`` particles at a time.
With more than one pixel block it is a bounded nearest-center pass: each
block scores only the centers that can be nearest to one of its pixels.
Each box of ``BOUND_BOX`` pixels drops a center when its squared distance
to the box exceeds the smallest squared distance from any center of its
set to the box's farthest corner, and a block skips the centers all of
its boxes drop. Both bounds are accumulated as the kernel accumulates its
distances, and rounding is monotone, so a skipped center is strictly
farther than a kept one from every pixel of the box: each minimum, and so
each set's sum, keeps its bits, and the fitness matches
``particle_fitness`` row by row bit for bit. Where a step is large enough
and processes fork, the particles are split into contiguous slices of
whole groups, at most one per usable CPU, each scored by the one scorer
in this process or in a helper that ``processes``, the package's one
home for process starts, forks from it (``_swarm_fitness``); the values
are the same bits.

Determinism contract: one seeded generator drives the whole run, consumed
in a fixed order: the particles are initialized one by one, then each step
takes one (P, 2) block of draws whose row i holds particle i's r1 and r2.
Identical (seed, config, dataset) therefore always reproduce the same
history bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import processes
from .core import (
    EPS_ZERO,
    PIXEL_BLOCK,
    ClusterConfig,
    PixelDataset,
    _aligned_empty,
    _block_squared_distances,
    min_squared_distances,
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
        lambda x: np.array([particle_fitness(dataset, x[0])]),
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


# Center sets scored per sweep over the pixels by ``_Fitness``. Scoring
# the whole swarm in one sweep is slower: its work arrays leave the cache.
CENTER_SETS_PER_SWEEP = 2

# Pixels per bounding box of the swarm fitness's bound (``_kept_rows``);
# divides ``PIXEL_BLOCK``. Smaller boxes are tighter, and more of them cost
# more bound arithmetic per call.
BOUND_BOX = 256


def _box_extents(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel minimum and maximum of each box of ``BOUND_BOX`` pixels: two (d, boxes) arrays."""
    starts = np.arange(0, cols.shape[1], BOUND_BOX)
    return np.minimum.reduceat(cols, starts, axis=1), np.maximum.reduceat(cols, starts, axis=1)


def _kept_rows(
    cols: np.ndarray,
    sets: np.ndarray,
    extents: tuple[np.ndarray, np.ndarray],
    scratch: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Which center rows can be nearest to some pixel of each block.

    ``cols`` is the (d, N) channel-major pixels and ``sets`` the (P, C, d)
    center sets; ``extents`` is ``_box_extents(cols)`` and ``scratch`` is
    (5, P, C, boxes) work space. Per box of ``BOUND_BOX`` pixels and per
    set, a center's lower bound is its squared distance to the box and its
    upper bound its squared distance to the box's farthest corner, both
    accumulated in place channel by channel in the kernel's order. Rounding
    is monotone and every term is non-negative, so the kernel's distance
    from any pixel of the box lies between the two bounds as computed. A box
    drops a center whose lower bound exceeds ``1 + 1e-9`` times the set's
    smallest upper bound: it is strictly farther than that set's
    closest-corner center, which the box keeps, from every pixel of the
    box. A block of ``PIXEL_BLOCK`` pixels keeps the centers any of its
    boxes keeps, so no pixel's nearest center is dropped.

    Returns ``(index, count)``: ``count[p, j]`` is the number of rows of set
    p kept in block j, (P, nb); ``index[p, :, j]`` lists the kept rows of
    set p in center order, then repeats the first kept row, (P, C, nb).
    """
    lo, hi = extents
    lower, upper, below, above, far = scratch
    scratch[:2] = 0.0
    for k in range(cols.shape[0]):
        center = sets[:, :, k, None]
        np.subtract(lo[k], center, out=below)
        np.subtract(center, hi[k], out=above)
        # the farthest corner is -min(below, above) away; negating is exact
        np.minimum(below, above, out=far)
        gap = np.maximum(np.maximum(below, above, out=below), 0.0, out=below)
        lower += np.square(gap, out=gap)
        upper += np.square(far, out=far)
    keep = lower <= upper.min(axis=1, keepdims=True) * (1.0 + 1e-9)
    keep = np.logical_or.reduceat(keep, range(0, lo.shape[1], PIXEL_BLOCK // BOUND_BOX), axis=2)
    count = np.count_nonzero(keep, axis=1)
    # kept rows first, each part in center order; then pad with the first
    index = np.argsort(~keep, axis=1, kind="stable")
    c = sets.shape[1]
    pad = np.arange(c)[:, None] >= count[:, None, :]
    index = np.where(pad, index[:, :1], index)
    return index, count


class _Fitness:
    """The swarm's fitness: the quantization errors of ``sets`` center sets of ``clusters`` rows.

    Built once per swarm run and called once per step with a (p, clusters
    * d) position array of any p <= ``sets``, or anything that reshapes to
    (p, clusters, d); returns (p,) errors. Entry i equals
    ``particle_fitness`` of row i bit for bit: the distances come from the
    same kernel, the minimum is exact, and each set's error is one sum over
    its whole (N,) row of nearest-center distances. A set's error does not
    depend on the sets beside it, so a slice of the positions scores the
    bits of the same slice of a whole call.

    The sets are scored ``CENTER_SETS_PER_SWEEP`` at a time per sweep over
    the pixel blocks. With more than one block, each block scores only the
    center rows ``_kept_rows`` keeps. Within a group, each set's kept rows
    are padded to the group's largest count with a repeat of its first kept
    row, which cannot change a minimum. A group that keeps every row in a
    block is scored from its own rows, with no gather.

    What does not change between calls is made here: the boxes' extents,
    since the pixels never change during a run, the kernel's scratch and
    the per-pixel minima, since fresh arrays of that size cost a page fault
    per page, and the bound's scratch, in place of about ten fresh arrays
    per channel. A call allocates no array of N values.
    """

    def __init__(self, dataset: PixelDataset, sets: int, clusters: int):
        self._cols = dataset.pixels.T
        self._shape = (sets, clusters, len(self._cols))
        n = dataset.n_pixels
        per_sweep = min(sets, CENTER_SETS_PER_SWEEP)
        self._mins = np.empty((per_sweep, n))
        self._work = _aligned_empty((2, per_sweep * clusters, min(n, PIXEL_BLOCK)))
        # with one block the bound costs more than it drops: forced on, the
        # lone block of each seed-protocol mixture (64x64) kept at least
        # 99.97% of the center rows over the 121 fitness calls of a swarm
        boxes = -(-n // BOUND_BOX) if n > PIXEL_BLOCK else 0
        self._extents = _box_extents(self._cols) if boxes else None
        self._bound = np.empty((5, sets, clusters, boxes))

    def __call__(self, center_sets: np.ndarray) -> np.ndarray:
        most_sets, c, d = self._shape
        sets = center_sets.reshape(-1, c, d)
        p = len(sets)
        if p > most_sets:
            raise ValueError(f"{p} center sets given to a scorer built for {most_sets}")
        # once per call: a check per group of sets slows the swarm's fitness
        if not np.all(np.isfinite(sets)):
            raise ValueError("centers must be finite")
        cols, mins, work = self._cols, self._mins, self._work
        n = cols.shape[1]
        count = np.full((p, 1), c)
        if self._extents is not None:
            index, count = _kept_rows(cols, sets, self._extents, self._bound[:, :p])
            index += (np.arange(p) * c)[:, None, None]
        firsts = range(0, p, CENTER_SETS_PER_SWEEP)
        # per group and block: the fewest and the most rows a set keeps
        fewest = np.minimum.reduceat(count, firsts, axis=0).tolist()
        most = np.maximum.reduceat(count, firsts, axis=0).tolist()
        flat = sets.reshape(p * c, d)
        errors = np.empty(p)
        for g, first in enumerate(firsts):
            k = min(p - first, CENTER_SETS_PER_SWEEP)
            for j, start in enumerate(range(0, n, PIXEL_BLOCK)):
                b = min(n - start, PIXEL_BLOCK)
                m = most[g][j]
                if fewest[g][j] == c:
                    centers = flat[first * c : (first + k) * c]
                else:
                    centers = flat[index[first : first + k, :m, j].ravel()]
                block = _block_squared_distances(
                    cols[:, start : start + b], centers, work[0, : k * m, :b], work[1, : k * m, :b]
                )
                np.min(block.reshape(k, m, b), axis=1, out=mins[:k, start : start + b])
            # summed along a row, as one np.sum of that row would
            np.sum(mins[:k], axis=1, out=errors[first : first + k])
        return errors


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


def _shares(sets: int, workers: int) -> list[slice]:
    """``workers`` contiguous slices of ``sets`` sets, whole groups each, larger ones first."""
    groups, extra = divmod(-(-sets // CENTER_SETS_PER_SWEEP), workers)
    bounds = [0]
    for i in range(workers):
        step = (groups + (i < extra)) * CENTER_SETS_PER_SWEEP
        bounds.append(min(sets, bounds[-1] + step))
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _swarm_fitness(dataset: PixelDataset, sets: int, clusters: int) -> AbstractContextManager:
    """The fitness of one swarm run, as a context: (sets, clusters * d) positions to (sets,) errors.

    The run's one ``_Fitness`` is built first, so a failure to build it,
    ``MemoryError`` included, is raised here before any fork. A step of
    ``SPLIT_MIN_WORK`` or more distances may be split into ``_shares``
    (``processes.forked_split``). A set's error does not depend on the sets
    scored beside it, so every value keeps its bits whatever the split.
    """
    score = _Fitness(dataset, sets, clusters)
    work = sets * clusters * dataset.n_pixels
    workers = processes.fork_count(-(-sets // CENTER_SETS_PER_SWEEP)) if work >= SPLIT_MIN_WORK else 1
    return processes.forked_split(score, _shares(sets, workers)) if workers > 1 else nullcontext(score)


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
