"""Shared pytest hooks."""

import os

import numpy as np

from swarmseg.cli import POOL_START_METHOD

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_report_header(config):
    # the bitwise tests pin numpy's summation orders and loop choices, which a
    # numpy release may change: a log names the numpy it was checked against
    threads = ", ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    # the worker tests run on the pool's start method, which depends on the host
    return f"numpy {np.__version__}; {threads}; CLI pool start method {POOL_START_METHOD}"
