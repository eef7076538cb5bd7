"""The one module that starts processes: the engine pool and the swarm's helpers.

``cli`` runs its engines on ``pool_map``, and ``swarm`` splits a step's
fitness with ``fork_count`` and ``forked_split``. ``multiprocessing`` is
imported only when a pool or a helper starts.
"""

from __future__ import annotations

import os
import sys
import threading
from collections.abc import Callable, Iterator
from contextlib import contextmanager

import numpy as np

# A forked process holds the parent's numpy and swarmseg imports, which a
# spawned one spends about 0.25 s redoing. Safe here: with fork,
# ProcessPoolExecutor forks before it starts its manager thread, a swarm
# forks its helpers only from a process with one thread (``fork_count``),
# fork flushes stdout and stderr, and swarmseg makes no BLAS calls. macOS
# frameworks are not fork-safe and Windows has no fork. Named, since
# Linux's default is forkserver from 3.14.
START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _other_cpus() -> set[int]:
    """The CPUs this process may run on, less the one it runs on now (Linux only).

    All of them where /proc is not mounted.
    """
    cpus = os.sched_getaffinity(0)
    try:
        with open("/proc/self/stat") as stat:
            # field 39, the CPU last run on; the name in field 2 may hold spaces
            here = int(stat.read().rsplit(")", 1)[1].split()[36])
    except OSError:
        return cpus
    return cpus - {here}


def _context():
    """The ``multiprocessing`` context of ``START_METHOD``, imported at first use."""
    import multiprocessing

    return multiprocessing.get_context(START_METHOD)


@contextmanager
def pool_map(function: Callable, tasks: list) -> Iterator[Iterator]:
    """An iterator over ``function`` of every task, in task order.

    With W the smaller of the usable CPUs and the task count, W pool
    workers (forked on Linux to skip the imports, else spawned) run every
    task and the parent reads the results; with W = 1 the parent runs each
    task in turn as the iterator advances. A task's exception is raised
    when its result is read, so the first failing task in task order
    reaches the caller, as in-process. No worker outlives the ``with`` block.
    """
    workers = min(usable_cpus(), len(tasks))
    if workers <= 1:
        yield map(function, tasks)
        return
    # imported only when a pool starts: segment and one-CPU runs skip the cost
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=_context())
    try:
        yield pool.map(function, tasks)
    finally:
        pool.shutdown(cancel_futures=True)


def fork_count(most: int) -> int:
    """How many processes may share work that splits at most ``most`` ways.

    W = min(usable CPUs, ``most``), or 1 unless all of these hold:
    - processes fork;
    - this process runs one thread. A fork copies only the calling thread,
      and a lock another thread holds stays held in the copy;
    - this process is not a multiprocessing child. A ``compare`` or
      ``bench`` pool worker is one, and its siblings already fill the CPUs.
    """
    workers = min(usable_cpus(), most)
    if START_METHOD != "fork" or threading.active_count() > 1 or workers <= 1:
        return 1
    return workers if _context().parent_process() is None else 1


def _serve(conn, parent_ends, score: Callable, cpus: set[int]) -> None:
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


def _split_errors(position: np.ndarray, score: Callable, own: slice, helpers: list) -> np.ndarray:
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
def forked_split(score: Callable, shares: list[slice]) -> Iterator[Callable]:
    """``score`` of float64 rows, split over one process per slice of ``shares``.

    A helper forked for each slice but the last scores it with its
    inherited copy of ``score``; this process scores the last slice with
    the same object and reads theirs back in row order. A helper's
    exception is raised here, and a helper that dies raises
    ``RuntimeError``. Every helper is terminated and joined when the
    ``with`` block ends, however it ends, and returns by itself if this
    process dies first.

    The helpers may run on every usable CPU but the one this process runs
    on when they start. Unpinned, the kernel's wake-up placement often
    kept a helper on this process's CPU for a whole run, and the split run
    was slower than one process.
    """
    context = _context()
    *shares, own = shares
    cpus = _other_cpus()
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
