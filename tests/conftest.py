"""Shared pytest hooks and fixtures."""

import os

import numpy as np
import pytest

from swarmseg import report
from swarmseg.processes import START_METHOD, usable_cpus

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_report_header(config):
    # the bitwise tests pin numpy's summation orders and loop choices, which a
    # numpy release may change: a log names the numpy it was checked against
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    # the worker and helper tests run on the start method, which depends on the
    # host; unpatched, compare and bench start a pool, and a large enough swarm
    # its fitness helpers, only with 2+ CPUs
    return (
        f"numpy {np.__version__}; {threads}; process start method {START_METHOD}; "
        f"usable CPUs {usable_cpus()}"
    )


@pytest.fixture
def jm_calls(monkeypatch):
    """The fuzzifiers ``report.evaluate_jm`` is called with, one per call."""
    calls, evaluate_jm = [], report.evaluate_jm

    def counted(dataset, centers, fuzzifier=2.0):
        calls.append(fuzzifier)
        return evaluate_jm(dataset, centers, fuzzifier)

    monkeypatch.setattr(report, "evaluate_jm", counted)
    return calls
