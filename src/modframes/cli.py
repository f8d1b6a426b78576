"""Command-line surface tying the certification pipelines together.

Subcommands: gen, verify, bounds, dual, perturb, tensor, douglas.  Every
run produces a RunReport (JSON or text) that is byte-deterministic for a
fixed argv, input files, and seed; wall-clock timing is only recorded when
--timing is passed, precisely because it would break that determinism.

Exit codes:
    0  verified / certified, or informational success
    1  falsified or not verified (witness emitted when available)
    2  inconclusive: a bound element that is not a multiple of I with a
       nonzero Gram matrix on its side, whose failure margin stays within
       --tol (the near-scalar window); the inequality fails, but no witness
       clears the tolerance
    3  input error (missing file, parse error, inconsistent shapes,
       non-finite or oversized entries)
    4  hypothesis failure (singular frame operator, missing range
       inclusion, non-co-isometry, infinite perturbation constant,
       criteria conflict)
    5  internal error: an unexpected exception, reported as
       "InternalError: <type>: <message>"
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

from . import io as spec_io
from .duals import canonical_dual, minimal_dual, preframe_consistency, verify_dual
from .errors import HypothesisError, ToleranceConflictError
from .frames import CertConfig, FrameBounds, OperatorFamily, certify, optimal_scalar_bounds
from .operators import ModuleOperator, douglas_check
from .perturbation import perturbation_check
from .tensor import nfold_tensor_dual

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5

SEED_ENV = "MODFRAMES_SEED"


@dataclass
class RunReport:
    """Deterministic record of one CLI invocation."""

    command: list[str]
    subcommand: str
    seed: int | None = None
    verdicts: dict = field(default_factory=dict)
    bounds: dict | None = None
    residuals: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    timing_s: float | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        return {
            "command": list(self.command),
            "subcommand": self.subcommand,
            "seed": self.seed,
            "verdicts": self.verdicts,
            "bounds": self.bounds,
            "residuals": self.residuals,
            "witnesses": self.witnesses,
            "timing_s": self.timing_s,
            "error": self.error,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"
        lines = [f"modframes {self.subcommand}"]
        d = self.to_dict()
        for key in sorted(d):
            if key in ("command",):
                lines.append(f"{key}: {' '.join(d[key])}")
            else:
                lines.append(f"{key}: {json.dumps(d[key], sort_keys=True)}")
        return "\n".join(lines) + "\n"


def _num(x: float) -> float | str:
    """JSON-safe float: non-finite values become strings."""
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def _resolve_seed(args, spec: spec_io.FrameSpecFile | None) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    if spec is not None and spec.seed is not None:
        return int(spec.seed)
    env = os.environ.get(SEED_ENV)
    if env is not None:
        return int(env)
    return 0


def _family(spec: spec_io.FrameSpecFile) -> OperatorFamily:
    return OperatorFamily(spec.operators)


def _target(spec: spec_io.FrameSpecFile) -> ModuleOperator:
    if spec.target_operator is not None:
        return spec.target_operator
    return ModuleOperator.identity(spec.algebra_dim, spec.module_rank)


def _bounds_or_optimal(
    spec: spec_io.FrameSpecFile, family: OperatorFamily, target: ModuleOperator
) -> tuple[FrameBounds, str]:
    if spec.bounds is not None:
        return spec.bounds, "file"
    alpha, beta = optimal_scalar_bounds(family, target)
    alpha = 1.0 if not math.isfinite(alpha) else max(alpha * (1 - 1e-8), 1e-12)
    beta = max(beta * (1 + 1e-8), 1e-12)
    return FrameBounds.scalar(alpha, beta, family.dim), "optimal"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol", type=float, default=1e-9, help="certification tolerance")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (overrides file/env)")
    # Accepted and ignored, since every decision is exact; existing scripts
    # (the benchmark's algebra-bounds workload among them) still pass them.
    parser.add_argument("--samples", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--restarts", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--out", default=None, help="write the report to this path")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument(
        "--timing", action="store_true", help="record wall time (breaks byte determinism)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modframes",
        description="Certify operator-family frame inequalities over matrix algebras.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_gen = sub.add_parser("gen", help="generate a reproducible instance file")
    p_gen.add_argument("--kind", choices=spec_io.GENERATOR_KINDS, required=True)
    p_gen.add_argument("--dim", type=int, default=2, help="algebra dimension d")
    p_gen.add_argument("--rank", type=int, default=2, help="module rank n")
    p_gen.add_argument("--count", type=int, default=3, help="family member count")
    p_gen.add_argument("--spec-out", required=True, help="instance file to write")
    _add_common(p_gen)

    for name, helptext in (
        ("verify", "certify a family against its target and bounds"),
        ("bounds", "optimal scalar frame bounds"),
        ("dual", "construct and verify a dual family"),
        ("perturb", "perturbation transfer pipeline"),
        ("douglas", "range-inclusion / majorization / factorization check"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("spec", help="frame specification file")
        if name == "dual":
            p.add_argument("--method", choices=("canonical", "minimal"), default="canonical")
        _add_common(p)

    p_tensor = sub.add_parser("tensor", help="tensor-product duality check")
    p_tensor.add_argument("spec", nargs="+", help="dual-pair specification files")
    _add_common(p_tensor)
    return parser


def _cmd_gen(args, report: RunReport) -> int:
    seed = _resolve_seed(args, None)
    spec = spec_io.generate_instance(args.kind, args.dim, args.rank, args.count, seed)
    spec_io.save_spec(spec, args.spec_out)
    report.seed = seed
    report.verdicts = {"generated": True, "kind": args.kind}
    report.bounds = spec_io.encode_bounds(spec.bounds) if spec.bounds else None
    report.residuals = {"members": len(spec.operators)}
    return EXIT_OK


def _cmd_verify(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    family = _family(spec)
    target = _target(spec)
    bounds, bounds_source = _bounds_or_optimal(spec, family, target)
    cert = certify(family, target, bounds, CertConfig(tol=args.tol))

    report.seed = _resolve_seed(args, spec)
    report.bounds = spec_io.encode_bounds(bounds)
    report.verdicts = {
        "certificate": cert.verdict,
        "mode": cert.mode,
        "bounds_source": bounds_source,
    }
    report.residuals = {
        "min_gap_lower": _num(cert.min_gap_lower),
        "min_gap_upper": _num(cert.min_gap_upper),
        "min_gap_lower_kind": cert.gap_kinds[0],
        "min_gap_upper_kind": cert.gap_kinds[1],
    }
    if cert.witness is not None:
        report.witnesses["falsifying_vector"] = spec_io.encode_vector(cert.witness)
    if cert.verdict == "falsified":
        return EXIT_FALSIFIED
    return EXIT_OK if cert.verdict == "certified" else EXIT_INCONCLUSIVE


def _cmd_bounds(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    family = _family(spec)
    target = _target(spec)
    alpha, beta = optimal_scalar_bounds(family, target)
    report.seed = _resolve_seed(args, spec)
    report.bounds = {"mode": "scalar", "lower": _num(alpha), "upper": _num(beta)}
    report.verdicts = {"computed": True}
    return EXIT_OK


def _cmd_dual(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    family = _family(spec)
    target = _target(spec)
    tols = spec.tolerances
    if args.method == "canonical":
        dual = canonical_dual(family, target, cond_cap=tols.get("cond_cap", 1e12))
    else:
        dual = minimal_dual(family, target, rank_tol=tols.get("rank_tol", 1e-12))
    pair = verify_dual(family, dual, target, tol=args.tol)
    pre = preframe_consistency(pair)
    report.seed = _resolve_seed(args, spec)
    report.verdicts = {"verified": pair.verified, "method": args.method}
    report.residuals = {
        "reconstruction": _num(pair.reconstruction_residual),
        "preframe_target_deviation": _num(pre.target_deviation),
        "preframe_max_member_deviation": _num(
            max(pre.member_deviations) if pre.member_deviations else 0.0
        ),
        "dual_bessel_bound": _num(pair.dual_bessel_bound),
    }
    report.witnesses["dual_family"] = [spec_io.encode_operator(m) for m in dual.members]
    return EXIT_OK if pair.verified else EXIT_FALSIFIED


def _cmd_perturb(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    if not spec.second_operators:
        raise spec_io.SpecFormatError("second_operators: required for the perturb pipeline")
    family = _family(spec)
    perturbed = OperatorFamily(spec.second_operators)
    target = _target(spec)
    aux = spec.aux_operator if spec.aux_operator is not None else target
    bounds, bounds_source = _bounds_or_optimal(spec, family, target)
    rep = perturbation_check(family, perturbed, target, aux, bounds, CertConfig(tol=args.tol))
    ok = rep.derived.verdict == "certified"
    report.seed = _resolve_seed(args, spec)
    report.bounds = {
        "input": spec_io.encode_bounds(bounds),
        "bounds_source": bounds_source,
        "derived_lower": _num(rep.derived_lower),
        "derived_upper": _num(rep.derived_upper),
    }
    report.verdicts = {
        "derived_bounds_hold": ok,
        "analysis_rank": rep.analysis_rank,
    }
    report.residuals = {
        "M_estimate": _num(rep.M_estimate),
        "M_kind": rep.M_kind,
        "worst_lower_margin": _num(rep.derived.min_gap_lower),
        "worst_upper_margin": _num(rep.derived.min_gap_upper),
        "converse_M": None if rep.converse_M is None else _num(rep.converse_M),
    }
    report.witnesses["M_witness"] = spec_io.encode_vector(rep.witness)
    return EXIT_OK if ok else EXIT_FALSIFIED


def _cmd_tensor(args, report: RunReport) -> int:
    pairs = []
    factors = []
    for path in args.spec:
        spec = spec_io.load_spec(path)
        if not spec.second_operators:
            raise spec_io.SpecFormatError(
                f"{path}: second_operators (the dual family) required for tensor"
            )
        pair = verify_dual(
            _family(spec), OperatorFamily(spec.second_operators), _target(spec), tol=args.tol
        )
        factors.append(_num(pair.reconstruction_residual))
        pairs.append(pair)
    report.seed = _resolve_seed(args, None)
    report.residuals = {"factor_residuals": factors}
    if not all(p.verified for p in pairs):
        # a failing factor is a falsification, not a hypothesis error
        report.verdicts = {
            "verified": False,
            "factors": len(pairs),
            "failing_factor": next(i for i, p in enumerate(pairs) if not p.verified),
        }
        return EXIT_FALSIFIED
    result = nfold_tensor_dual(pairs, tol=args.tol)
    report.verdicts = {"verified": result.verified, "factors": len(pairs)}
    report.residuals["tensor_residual"] = _num(result.reconstruction_residual)
    return EXIT_OK if result.verified else EXIT_FALSIFIED


def _cmd_douglas(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    if len(spec.operators) < 2:
        raise spec_io.SpecFormatError(
            "operators: douglas needs two operators (K first, L second)"
        )
    k, l = spec.operators[0], spec.operators[1]
    rep = douglas_check(k, l, tol=max(args.tol, 1e-10))
    report.seed = _resolve_seed(args, spec)
    report.verdicts = {"range_included": rep.range_included}
    report.residuals = {
        "lambda_min": None if rep.lambda_min is None else _num(rep.lambda_min),
        "factor_residual": _num(rep.residual),
    }
    if rep.factor is not None:
        report.witnesses["factor"] = spec_io.encode_operator(rep.factor)
    return EXIT_OK if rep.range_included else EXIT_FALSIFIED


_COMMANDS = {
    "gen": _cmd_gen,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
    "dual": _cmd_dual,
    "perturb": _cmd_perturb,
    "tensor": _cmd_tensor,
    "douglas": _cmd_douglas,
}


def run_command(argv: list[str]) -> tuple[int, RunReport]:
    """Parse and execute; returns (exit_code, report) and never raises."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        report = RunReport(command=list(argv), subcommand="parse-error")
        report.error = f"argument parsing failed (argparse status {exc.code})"
        return (EXIT_OK if exc.code == 0 else EXIT_INPUT), report

    report = RunReport(command=list(argv), subcommand=args.subcommand)
    started = time.perf_counter()
    try:
        code = _COMMANDS[args.subcommand](args, report)
    except ToleranceConflictError as exc:
        report.error = f"ToleranceConflict: {exc} {exc.details}"
        code = EXIT_HYPOTHESIS
    except HypothesisError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        code = EXIT_HYPOTHESIS
    except (spec_io.SpecFormatError, FileNotFoundError, ValueError) as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        code = EXIT_INPUT
    except Exception as exc:  # the CLI surfaces failures, it never panics
        traceback.print_exc(file=sys.stderr)  # a bug: keep where it happened
        report.error = f"InternalError: {type(exc).__name__}: {exc}"
        code = EXIT_INTERNAL
    if getattr(args, "timing", False):
        report.timing_s = time.perf_counter() - started

    rendered = report.render(getattr(args, "format", "json"))
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    return code, report


def main() -> None:
    code, _ = run_command(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
