"""Span recorder for the traced benchmark run.

The recorder times the library's layers from outside: it replaces the public
functions listed in ``TARGETS`` with timing wrappers and puts the originals
back on ``uninstall``.  A name brought in with ``from .frames import certify``
is a separate binding, so every ``modframes.*`` module that holds the original
object is rebound, not only the defining module.

Each wrapper call becomes one span ``(span_id, parent_id, op_id, name, t0,
t1)``.  Spans stay in memory until the run ends; a layer's self time is its
span's duration minus the durations of its direct children, which nest
without overlap because one op runs at a time on one thread.

``numpy.linalg`` entry points are wrapped for call counts only (a span per
call would cost more than many of the calls).  ``linalg.eig_n3`` is a
computed operation count, sum of n**3 over eigen-solves, not a measurement.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

# module -> public functions wrapped in that module ("Class.method" for methods)
TARGETS = {
    "cli": ("run_command", "build_parser", "RunReport.render"),
    "io": ("load_spec", "save_spec", "generate_instance"),
    "frames": (
        "frame_operator",
        "certify",
        "sample_vectors",
        "norm_bound_check",
        "optimal_scalar_bounds",
    ),
    "_kernels": ("gap_eigs", "minimize_gap"),
    "operators": ("douglas_check", "pencil_alpha_flat"),
    "duals": ("verify_dual", "canonical_dual", "minimal_dual", "preframe_consistency"),
    "perturbation": ("perturbation_check",),
    "tensor": ("kron_operator", "tensor_dual_check"),
}

LINALG = ("eigh", "eigvalsh", "svd", "norm", "pinv")
EIGEN_SOLVES = ("eigh", "eigvalsh")

# Metric names must start with a letter, so ``_kernels`` spans are named ``kernels.*``.
def span_name(mod: str, fn: str) -> str:
    return f"{mod.lstrip('_')}.{fn}"


WRAPPED = tuple(span_name(mod, fn) for mod, fns in TARGETS.items() for fn in fns)

# ROADMAP stage of each span name; spans not listed belong to no stage
# (argument parsing and glue in run_command, spec generation and writing).
STAGE_OF = {"io.load_spec": "spec_parse", "frames.frame_operator": "gram_assembly",
            "cli.RunReport.render": "report_render"}
for _name in WRAPPED:
    if _name.split(".")[0] in ("frames", "kernels", "operators", "duals", "perturbation", "tensor"):
        STAGE_OF.setdefault(_name, "decision")
STAGES = ("import", "spec_parse", "gram_assembly", "decision", "witness_recheck", "report_render")


class Recorder:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.op_id: int | None = None
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------
    def merge(self, spans, counters) -> None:
        """Add the spans and counters of a traced child process as op ``op_id``."""
        ids = {s[0]: next(self._ids) for s in spans}
        for sid, parent, _op, name, t0, t1 in spans:
            self.spans.append((ids[sid], ids.get(parent), self.op_id, name, t0, t1))
        self.counters.update(counters)

    def _wrap(self, name: str, fn, hook=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(rec._ids)
            parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                rec._stack.pop()
                rec.spans.append((sid, parent, rec.op_id, name, t0, t1))
            if hook is not None:
                hook(rec.counters, args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = args[0] if args else None
            shape = getattr(a, "shape", ())
            if name == "norm":
                order = args[1] if len(args) > 1 else kwargs.get("ord")
                if order == 2 and len(shape) == 2:
                    counters["linalg.norm2.calls"] += 1
            else:
                counters[f"linalg.{name}.calls"] += 1
                if name in EIGEN_SOLVES and len(shape) >= 2:
                    counters["linalg.eig_n3"] += math.prod(shape[:-2]) * shape[-1] ** 3
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> "Recorder":
        """Wrap every target in every ``modframes`` namespace holding it."""
        import numpy.linalg

        import modframes.cli  # noqa: F401  (loads every module that holds a target)

        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == "modframes" or n.startswith("modframes."))]
        for mod_name, fns in TARGETS.items():
            home = sys.modules[f"modframes.{mod_name}"]
            for fn_name in fns:
                name = span_name(mod_name, fn_name)
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._set(cls, meth, original, self._wrap(name, original))
                    continue
                original = getattr(home, fn_name)
                wrapper = self._wrap(name, original, _HOOKS.get(name))
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, attr, original, wrapper)
        for fn_name in LINALG:
            original = getattr(numpy.linalg, fn_name)
            self._set(numpy.linalg, fn_name, original, self._count(fn_name, original))
        return self

    def _set(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis --------------------------------------------------------
    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(("id", "parent", "op", "name", "t0", "t1"), s))) + "\n")


def self_times(spans) -> tuple[Counter, Counter]:
    """(calls, self seconds) per span name."""
    child = defaultdict(float)
    for sid, parent, _op, _name, t0, t1 in spans:
        if parent is not None:
            child[parent] += t1 - t0
    calls, self_s = Counter(), Counter()
    for sid, _parent, _op, name, t0, t1 in spans:
        calls[name] += 1
        self_s[name] += (t1 - t0) - child[sid]
    return calls, self_s


def _gap_eigs_hook(counters, args, result):
    counters["kernels.gap_eigs.samples"] += int(args[0].shape[0])


def _minimize_gap_hook(counters, args, result):
    # signature (x0, p, q, c1, c2, iters, step0, stop_tol) -> (best, x_best)
    counters["kernels.minimize_gap.useful"] += int(result[0] < -args[7])


def _load_spec_hook(counters, args, result):
    counters["io.spec_bytes"] += os.path.getsize(args[0])


_HOOKS = {
    "kernels.gap_eigs": _gap_eigs_hook,
    "kernels.minimize_gap": _minimize_gap_hook,
    "io.load_spec": _load_spec_hook,
}
