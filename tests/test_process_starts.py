"""Only ``processes`` starts processes.

No module of the package other than ``processes.py`` imports
``multiprocessing``, ``concurrent.futures`` or ``threading``, names
``sched_setaffinity`` or ``active_count``, or names a ``/proc`` path.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swarmseg"
MODULES = ("multiprocessing", "concurrent.futures", "threading")
NAMES = {"sched_setaffinity", "active_count"}


def process_machinery(tree):
    """The process-starting imports, names and ``/proc`` strings of a module's AST."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            imported = []
        found |= {name for name in imported for m in MODULES if name == m or name.startswith(m + ".")}
        if isinstance(node, ast.Name) and node.id in NAMES:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in NAMES:
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "/proc" in node.value:
            found.add("/proc")
    return found


def test_no_module_but_processes_starts_processes():
    hits = {
        path.name: process_machinery(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    # the check sees every kind of machinery where it belongs
    assert {*MODULES, *NAMES, "/proc"} <= hits.pop("processes.py")
    assert {name: found for name, found in hits.items() if found} == {}
