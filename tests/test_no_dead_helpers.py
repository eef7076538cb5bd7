"""Every module-level function and class of the package has a user.

A definition counts as used when a module of the package other than
``__init__`` names it (a call, an attribute access or an import), when it
is exported in ``swarmseg.__all__``, or when the benchmark's tracer
rebinds it (``TRACED`` in ``perfbench/tracing.py``).
"""

import ast
import importlib.util
from pathlib import Path

import swarmseg

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swarmseg"
TRACING = ROOT / "perfbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr for _span, _module, attr, _hook in module.TRACED}


def referenced_names(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_no_module_level_definition_is_dead():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    used = set(swarmseg.__all__) | traced_names()
    for module, tree in trees.items():
        if module != "__init__":
            used |= referenced_names(tree)
    dead = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used
    ]
    assert not dead, f"defined but never used: {dead}"
