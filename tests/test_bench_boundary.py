"""The library names the benchmark in ``perfbench/`` reaches.

``perfbench/spans.py`` wraps every function its ``TARGETS`` lists,
``perfbench/run.py`` reports ``_kernels.backend()``, and every ``perfbench/``
module imports names from ``modframes``.  A name deleted from ``src/`` would
otherwise show only when the benchmark runs.  These tests read ``perfbench/``
and change nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


NAMES = [(mod, fn) for mod, fns in _load_spans().TARGETS.items() for fn in fns]


@pytest.mark.parametrize("mod, name", [*NAMES, ("_kernels", "backend")])
def test_benchmark_name_resolves(mod, name):
    home = importlib.import_module(f"modframes.{mod}")
    if "." in name:  # spans.py wraps a method through its class's __dict__
        cls, meth = name.split(".")
        assert callable(vars(getattr(home, cls))[meth])
    else:
        assert callable(getattr(home, name))


def _imported_names() -> list[tuple[str, str]]:
    """(file, dotted name) for each name a ``perfbench/`` file takes from
    ``modframes``: every name it imports, and every attribute it reads off one."""
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {}  # local name -> the dotted modframes name it holds
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("modframes"):
                bound.update({a.asname or a.name: f"{node.module}.{a.name}" for a in node.names})
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("modframes"):
                        found.add((path.name, a.name))
                        if a.asname:
                            bound[a.asname] = a.name
        found |= {(path.name, dotted) for dotted in bound.values()}
        found |= {
            (path.name, f"{bound[node.value.id]}.{node.attr}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in bound
        }
    return sorted(found)


IMPORTED = _imported_names()


def test_perfbench_imports_are_found():
    """The parse sees the imports the benchmark is known to make."""
    assert {
        ("checks.py", "modframes.module.ModuleVector"),
        ("checks.py", "modframes.module.inner_product"),
        ("checks.py", "modframes.operators.ModuleOperator"),
        ("checks.py", "modframes.operators.apply"),
        ("checks.py", "modframes.operators.op_adjoint"),
        ("workloads.py", "modframes.cli"),
        ("workloads.py", "modframes.io"),
        ("workloads.py", "modframes.frames.FrameBounds"),
        ("workloads.py", "modframes.operators.ModuleOperator"),
        ("workloads.py", "modframes.cli.run_command"),
    } <= set(IMPORTED)


@pytest.mark.parametrize("where, dotted", IMPORTED, ids=[f"{w}:{d}" for w, d in IMPORTED])
def test_perfbench_import_resolves(where, dotted):
    """Import the longest module prefix of ``dotted``, then read the rest as attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
            break
        except ModuleNotFoundError:
            continue
    for attr in parts[cut:]:
        obj = getattr(obj, attr)  # AttributeError once the name has left src/
