"""The library names the benchmark in ``perfbench/`` reaches.

``perfbench/spans.py`` wraps every function its ``TARGETS`` lists, and
``perfbench/run.py`` reports ``_kernels.backend()``.  A name deleted from
``src/`` would otherwise show only when the benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
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
