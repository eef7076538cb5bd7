"""The benchmark's traced functions exist where its tracer looks for them.

``perfbench/tracing.py`` rebinds each (module, function) listed in its
``TRACED`` table; renaming or deleting one of them breaks traced benchmark
runs. This test reads that table and fails first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_traced_table():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_function_resolves():
    traced = load_traced_table()
    assert traced
    for _span, module_name, attr, _hook in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_traced_kernels_keep_their_signatures():
    # the tracer's cost hooks read these arguments by position
    from swarmseg import core, fcm, swarm

    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(core.squared_distances) == ["points", "centers"]
    assert params(core.min_squared_distances) == ["dataset", "centers"]
    assert params(swarm.particle_fitness) == ["dataset", "position"]
    assert params(fcm._reseed_dead)[:3] == ["dataset", "centers", "dead"]
