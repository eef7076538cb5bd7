"""How many processes a run may use, and how they start.

``cli`` sizes its engine pool from these, and ``swarm`` its fitness
helpers. Importing this module imports no ``multiprocessing``.
"""

from __future__ import annotations

import os
import sys

# A forked process holds the parent's numpy and swarmseg imports, which a
# spawned one spends about 0.25 s redoing. Safe here: with fork,
# ProcessPoolExecutor forks before it starts its manager thread, a swarm
# forks its helpers only from a process with one thread, fork flushes stdout
# and stderr, and swarmseg makes no BLAS calls. macOS frameworks are not
# fork-safe and Windows has no fork. Named, since Linux's default is
# forkserver from 3.14.
START_METHOD = "fork" if sys.platform.startswith("linux") else "spawn"


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def other_cpus() -> set[int]:
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
