"""The benchmark's workloads: inputs built from a seed, ops, and executors.

An op is one CLI command.  Its expected exit codes and its check come from
how the benchmark built the input, never from the library's verdict.  Each
workload is a fixed cycle of ops run closed-loop by a single client: one
process, one op in flight.

Why these workloads:

``exact-pipeline``
    Warm, in-process ``run_command`` over the grid d in {1,2,4,8},
    n in {2,4}, count in {3,8}: verify (certified, and with beta tightened so
    that it must falsify), bounds, canonical and minimal duals, perturb,
    douglas with and without range inclusion, and tensors of 2, 3 and 4
    dual-pair factors.  "It covers every exact path, plus the sampled norm
    sandwich and the sampled M estimate that ROADMAP item 2 replaces. It
    makes no ``_kernels`` call, so a change to sampled certification must
    leave it unchanged. Its 4-factor tensor members (about 100 MB) exceed
    the 4 MiB L2, while everything else fits in L2."

``algebra-bounds``
    Warm, in-process ``verify`` with algebra-valued bounds on known-bounds
    instances with d in {2,4}, n in {2,3}: a non-scalar lower bound
    c*alpha*(I + 0.05 E12) that must be falsified, and a complex-phase scalar
    e^{i theta} 0.9 alpha I that must not be (exit 2 today, exit 0 once
    phases are decided exactly).  "Nearly all of its time is in
    ``_kernels.minimize_gap`` and ``gap_eigs``. It never touches
    ``perturbation``, ``duals`` or ``tensor``. It also uses
    ``frames.certify`` differently from ``exact-pipeline``."  The ops pass
    ``--samples 200 --restarts 4`` so that a run holds well over a hundred
    ops, enough for ten samples beyond p90; at the defaults (1000 samples,
    20 restarts) an op takes 0.45-1.6 s.

``cold-cli``
    Each op is a fresh ``python -m modframes.cli`` process on small specs
    (d=2, n=2, count=3): gen, exact verify (certified and falsified), bounds,
    dual, douglas and a 2-factor tensor, each writing its report with
    ``--out``.  "Each call
    took 265-350 ms. Of that, about 70 ms is interpreter start, about 90 ms
    is numpy, and about 115 ms is modframes plus the cli import. So lazy
    imports move this workload and nothing else. It also exercises ``io``
    writes as well as reads."
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io as _io
import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from modframes import cli
from modframes import io as spec_io
from modframes.frames import FrameBounds
from modframes.operators import ModuleOperator

ALGEBRA_FLAGS = ("--samples", "200", "--restarts", "4")
# the generator relaxes optimal bounds by these factors (io.generate_instance)
_RELAX_LO, _RELAX_UP = 1 - 1e-6, 1 + 1e-6


@dataclass
class Op:
    """One CLI command with the outcome its construction implies."""

    sub: str
    argv: list[str]
    codes: tuple[int, ...]
    check: Callable[[dict], str | None]
    out: str | None = None  # report path of a subprocess op


class _Inputs:
    """Writes the specs of one workload; instance seeds follow from the run seed."""

    def __init__(self, seed: int, workdir: Path):
        self.rng = np.random.default_rng(seed % 2**64)
        self.workdir = workdir

    def seed(self) -> int:
        return int(self.rng.integers(2**31))

    def save(self, spec, name: str) -> str:
        path = str(self.workdir / name)
        spec_io.save_spec(spec, path)
        return path

    def cgauss(self, *shape) -> np.ndarray:
        return (self.rng.standard_normal(shape) + 1j * self.rng.standard_normal(shape)) / math.sqrt(2)

    def instance(self, kind: str, d: int, n: int, count: int):
        """``generate_instance`` on the first seed whose members' target ranks
        add up to ceil(count * (n + 1) / 2).  Op costs grow with that sum, so
        fixing it keeps them from varying with the run seed."""
        while True:
            spec = spec_io.generate_instance(kind, d, n, count, self.seed())
            if sum(m.target_rank for m in spec.operators) == (count * (n + 1) + 1) // 2:
                return spec

    def known_bounds(self, d: int, n: int, count: int, tag: str):
        spec = self.instance("known-bounds", d, n, count)
        alpha, beta = spec.bounds.alpha / _RELAX_LO, spec.bounds.beta / _RELAX_UP
        return spec, self.save(spec, f"{tag}-kb.json"), alpha, beta

    def douglas_pair(self, d: int, n: int, included: bool, tag: str):
        """(K, L) with L of rank nd - d; K = D L when range inclusion is built in."""
        nd = n * d
        l_flat = self.cgauss(nd, nd - d) @ self.cgauss(nd - d, nd)
        k_flat = self.cgauss(nd, nd) @ l_flat if included else self.cgauss(nd, nd)
        k, l = (ModuleOperator(d, n, n, f) for f in (k_flat, l_flat))
        spec = spec_io.FrameSpecFile(algebra_dim=d, module_rank=n, operators=[k, l], seed=self.seed())
        name = f"{tag}-douglas-{'in' if included else 'out'}.json"
        return Op("douglas", ["douglas", self.save(spec, name)], (0,) if included else (1,),
                  functools.partial(checks.douglas, k=k, l=l, included=included))

    def dual_pairs(self, count: int, tag: str):
        specs = [self.instance("dual-pair", 2, 2, 3) for _ in range(count)]
        paths = [self.save(s, f"{tag}-dp{i}.json") for i, s in enumerate(specs)]
        return [(s.operators, s.second_operators, s.target_operator) for s in specs], paths


def _tensor_op(pairs, paths) -> Op:
    return Op("tensor", ["tensor", *paths], (0,), functools.partial(checks.tensor, pairs=pairs))


def _exact_pipeline(inp: _Inputs, tiny: bool) -> list[Op]:
    grid = [(d, n, c) for d in (1, 2) for n in (2,) for c in (3,)] if tiny else [
        (d, n, c) for d in (1, 2, 4, 8) for n in (2, 4) for c in (3, 8)]
    ops = []
    for d, n, count in grid:
        tag = f"d{d}n{n}c{count}"
        kb, path, alpha, beta = inp.known_bounds(d, n, count, tag)
        members, k = kb.operators, kb.target_operator
        tight = FrameBounds.scalar(kb.bounds.alpha, 0.9 * beta, d)
        fpath = inp.save(dataclasses.replace(kb, bounds=tight), f"{tag}-kb-tight.json")
        pp = inp.instance("perturbed-pair", d, n, count)
        ops += [
            Op("verify", ["verify", path], (0,), checks.not_falsified),
            Op("verify", ["verify", fpath], (1,), functools.partial(
                checks.witness, members=members, target=k, lower=tight.lower, upper=tight.upper)),
            Op("bounds", ["bounds", path], (0,), functools.partial(
                checks.optimal_bounds, members=members, target=k, alpha=alpha, beta=beta)),
            Op("dual", ["dual", path], (0,), functools.partial(checks.dual, members=members, target=k)),
            Op("dual", ["dual", path, "--method", "minimal"], (0,),
               functools.partial(checks.dual, members=members, target=k)),
            Op("perturb", ["perturb", inp.save(pp, f"{tag}-pp.json")], (0,), functools.partial(
                checks.perturb, primary=pp.operators, perturbed=pp.second_operators,
                norm_a=pp.bounds.alpha, norm_b=pp.bounds.beta)),
            inp.douglas_pair(d, n, True, tag),
            inp.douglas_pair(d, n, False, tag),
        ]
    factors = (2, 3) if tiny else (2, 3, 4)
    pairs, paths = inp.dual_pairs(max(factors), "tensor")
    ops += [_tensor_op(pairs[:k], paths[:k]) for k in factors]
    return ops


def _algebra_bounds(inp: _Inputs, tiny: bool) -> list[Op]:
    # Three instances per shape, so that a run's figures do not hinge on the
    # descent lengths of one instance.
    ops = []
    shapes = [(2, 2)] if tiny else [(d, n) for d in (2, 4) for n in (2, 3)]
    for (d, n), j in itertools.product(shapes, range(1 if tiny else 3)):
        tag = f"d{d}n{n}-{j}"
        kb, _, alpha, _ = inp.known_bounds(d, n, 3, tag)
        eye = np.eye(d, dtype=np.complex128)
        e12 = np.zeros((d, d), dtype=np.complex128)
        e12[0, 1] = 1.0
        upper = kb.bounds.upper
        skew = FrameBounds(lower=0.5 * alpha * (eye + 0.05 * e12), upper=upper, mode="algebra")
        phase = FrameBounds(lower=np.exp(1j * inp.rng.uniform(0, 2 * np.pi)) * 0.9 * alpha * eye,
                            upper=upper, mode="algebra")
        for kind, bounds in (("skew", skew), ("phase", phase)):
            path = inp.save(dataclasses.replace(kb, bounds=bounds), f"{tag}-{kind}.json")
            argv = ["verify", path, *ALGEBRA_FLAGS]
            if kind == "skew":
                ops.append(Op("verify", argv, (1,), functools.partial(
                    checks.witness, members=kb.operators, target=kb.target_operator,
                    lower=bounds.lower, upper=bounds.upper)))
            else:
                ops.append(Op("verify", argv, (0, 2), checks.not_falsified))
    return ops


def _cold_cli(inp: _Inputs, tiny: bool) -> list[Op]:
    kb, path, alpha, beta = inp.known_bounds(2, 2, 3, "d2n2c3")
    members, k = kb.operators, kb.target_operator
    tight = FrameBounds.scalar(kb.bounds.alpha, 0.9 * beta, 2)
    fpath = inp.save(dataclasses.replace(kb, bounds=tight), "d2n2c3-kb-tight.json")
    gen_seed = inp.seed()
    gen_path = str(inp.workdir / "gen-spec.json")
    expected = spec_io.generate_instance("known-bounds", 2, 2, 3, gen_seed).to_json()
    pairs, paths = inp.dual_pairs(2, "tensor")
    ops = [
        Op("gen", ["gen", "--kind", "known-bounds", "--dim", "2", "--rank", "2", "--count", "3",
                   "--seed", str(gen_seed), "--spec-out", gen_path], (0,),
           lambda report: checks.generated(Path(gen_path).read_text(encoding="utf-8"), expected)),
        Op("verify", ["verify", path], (0,), checks.not_falsified),
        Op("verify", ["verify", fpath], (1,), functools.partial(
            checks.witness, members=members, target=k, lower=tight.lower, upper=tight.upper)),
        Op("bounds", ["bounds", path], (0,), functools.partial(
            checks.optimal_bounds, members=members, target=k, alpha=alpha, beta=beta)),
        Op("dual", ["dual", path], (0,), functools.partial(checks.dual, members=members, target=k)),
        inp.douglas_pair(2, 2, True, "d2n2"),
        _tensor_op(pairs, paths),
    ]
    for i, op in enumerate(ops):
        op.out = str(inp.workdir / f"report-{i}.json")
        op.argv = [*op.argv, "--out", op.out]
    return ops


_BUILDERS = {"exact-pipeline": _exact_pipeline, "algebra-bounds": _algebra_bounds,
             "cold-cli": _cold_cli}


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Op]:
    """Write the workload's specs under ``workdir`` and return its op cycle.

    ``tiny`` shrinks the grid for the harness self-test."""
    return _BUILDERS[workload](_Inputs(seed, workdir), tiny)


# -- executors ---------------------------------------------------------------

def run_in_process(op: Op) -> tuple[int, str]:
    buf = _io.StringIO()
    with contextlib.redirect_stdout(buf):
        code, _ = cli.run_command(op.argv)
    return code, buf.getvalue()


def child_env(src: Path) -> dict:
    """Environment of a child interpreter that imports modframes from ``src``."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))


class ColdRunner:
    """Runs each op as a fresh interpreter with PYTHONPATH at the checkout's src.

    With ``spans_dir`` set, the child is ``traced_cli.py``, which records the
    op's spans into a file per op instead of running ``-m modframes.cli``."""

    def __init__(self, src: Path, spans_dir: Path | None = None):
        self.env = child_env(src)
        self.spans_dir = spans_dir
        self.calls = 0

    def __call__(self, op: Op) -> tuple[int, None]:
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "modframes.cli", *op.argv]
        else:
            out = self.spans_dir / f"op-{self.calls}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), str(out), *op.argv]
        self.calls += 1
        proc = subprocess.run(cmd, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
        return proc.returncode, None
