"""Command-line surface tying the certification pipelines together.

Subcommands: gen, verify, bounds, dual, perturb, tensor, douglas.  Every
run produces a RunReport (JSON or text) that is byte-deterministic for a
fixed argv and input files; wall-clock timing is only recorded when
--timing is passed, precisely because it would break that determinism.
Every decision is exact, so only ``gen`` takes a seed (``--seed``, default
0); the report's ``seed`` is that seed for ``gen`` and null otherwise.
A JSON report is ``json.dumps(report, sort_keys=True)`` and a newline, compact
like a spec file; ``--format text`` is the view for people.  The parser is
built once per process, and each subcommand takes only the flags it reads: a
rejected command line (``bounds --tol 1e-3`` too) exits 3 with argparse's
message in ``error`` and its usage on stderr.

Exit codes:
    0  verified / certified, or informational success
    1  falsified or not verified (witness emitted when available)
    2  inconclusive: a bound element that is not a multiple of I with a
       nonzero Gram matrix on its side, whose failure margin stays within
       --tol (the near-scalar window); the inequality fails, but no witness
       clears the tolerance.  Also a tensor product too large to form whose
       residual bounds straddle the tolerance (``undecided_factors``)
    3  input error (a path that cannot be read or written, parse error,
       inconsistent shapes, non-finite or oversized entries)
    4  hypothesis failure (singular frame operator, missing range
       inclusion, non-co-isometry, infinite perturbation constant); a
       failure that carries a vector reports it as ``hypothesis_vector``
    5  internal error: an unexpected exception, a LAPACK LinAlgError
       included, reported as "InternalError: <type>: <message>"
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field

from numpy.linalg import LinAlgError

from . import io as spec_io
from .algebra import DEFAULT_TOL
from .duals import canonical_dual, minimal_dual, verify_dual
from .errors import HypothesisError
from .frames import FrameBounds, OperatorFamily, certify, optimal_scalar_bounds
from .operators import ModuleOperator, douglas_check
from .perturbation import perturbation_check
from .tensor import nfold_tensor_dual

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5


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
        d = self.to_dict()  # fresh dicts, lists and numbers: no cycle for json to check
        if fmt == "json":
            return json.dumps(d, sort_keys=True, check_circular=False) + "\n"
        lines = [f"modframes {self.subcommand}"]
        for key in sorted(d):
            value = json.dumps(d[key], sort_keys=True, check_circular=False)
            lines.append(f"{key}: {' '.join(d[key]) if key == 'command' else value}")
        return "\n".join(lines) + "\n"


def _num(x: float) -> float | str:
    """JSON-safe float: non-finite values become strings."""
    x = float(x)
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else ("-inf" if x < 0 else "nan")


def _target(spec: spec_io.FrameSpecFile) -> ModuleOperator:
    if spec.target_operator is not None:
        return spec.target_operator
    return ModuleOperator.identity(spec.algebra_dim, spec.module_rank)


def _second_family(spec: spec_io.FrameSpecFile, pipeline: str) -> OperatorFamily:
    if spec.second_family is None:
        raise spec_io.SpecFormatError(f"second_operators: required for the {pipeline}")
    return spec.second_family


def _bounds_or_optimal(
    spec: spec_io.FrameSpecFile, family: OperatorFamily, target: ModuleOperator
) -> tuple[FrameBounds, str]:
    if spec.bounds is not None:
        return spec.bounds, "file"
    alpha, beta = optimal_scalar_bounds(family, target)
    alpha = 1.0 if not math.isfinite(alpha) else max(alpha * (1 - 1e-8), 1e-12)
    beta = max(beta * (1 + 1e-8), 1e-12)
    return FrameBounds.scalar(alpha, beta, family.dim), "optimal"


class ArgumentParseError(Exception):
    """A command line argparse rejects; the message is argparse's."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # raise, not exit, so one parser outlives a bad call
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise ArgumentParseError(message)


def _at_least(least: int | float):
    """An argparse ``type`` that reads a number of ``least``'s type and names its
    flag when it is below ``least``, NaN or infinite."""
    kind = type(least)

    def read(text: str):
        value = kind(text)
        if not least <= value < math.inf:
            what = "an integer" if kind is int else "a finite number"
            raise argparse.ArgumentTypeError(f"must be {what} at least {least:g}, got {value}")
        return value
    read.__name__ = kind.__name__  # argparse's "invalid int value: 'x'" for a non-number
    return read


def _cmd_gen(args, report: RunReport) -> int:
    spec = spec_io.generate_instance(args.kind, args.dim, args.rank, args.count, args.seed)
    spec_io.save_spec(spec, args.spec_out)
    report.seed = args.seed
    report.verdicts = {"generated": True, "kind": args.kind}
    report.bounds = spec_io.encode_bounds(spec.bounds) if spec.bounds else None
    report.residuals = {"members": len(spec.operators)}
    return EXIT_OK


def _cmd_verify(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    family = spec.family
    target = _target(spec)
    bounds, bounds_source = _bounds_or_optimal(spec, family, target)
    cert = certify(family, target, bounds, args.tol)

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
    alpha, beta = optimal_scalar_bounds(spec.family, _target(spec))
    report.bounds = {"mode": "scalar", "lower": _num(alpha), "upper": _num(beta)}
    report.verdicts = {"computed": True}
    return EXIT_OK


def _cmd_dual(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    family = spec.family
    target = _target(spec)
    dual = (canonical_dual if args.method == "canonical" else minimal_dual)(family, target)
    pair = verify_dual(family, dual, target, tol=args.tol)
    report.verdicts = {"verified": pair.verified, "method": args.method}
    report.residuals = {
        "reconstruction": _num(pair.reconstruction_residual),
        "dual_bessel_bound": _num(pair.dual_bessel_bound),
    }
    report.witnesses["dual_family"] = [spec_io.encode_operator(m) for m in dual.members]
    return EXIT_OK if pair.verified else EXIT_FALSIFIED


def _cmd_perturb(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    family = spec.family
    perturbed = _second_family(spec, "perturb pipeline")
    target = _target(spec)
    aux = spec.aux_operator if spec.aux_operator is not None else target
    bounds, bounds_source = _bounds_or_optimal(spec, family, target)
    rep = perturbation_check(family, perturbed, target, aux, bounds, args.tol)
    ok = rep.derived.verdict == "certified"
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
    verified = {}  # id(spec) -> (spec, pair); holding the spec keeps its id from reuse
    pairs = []
    for path in args.spec:
        spec = spec_io.load_spec(path)
        if id(spec) not in verified:
            dual = _second_family(spec, f"tensor pipeline: the dual family of {path}")
            verified[id(spec)] = spec, verify_dual(spec.family, dual, _target(spec), tol=args.tol)
        pairs.append(verified[id(spec)][1])
    report.residuals = {"factor_residuals": [_num(p.reconstruction_residual) for p in pairs]}
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
    if result.reconstruction_residual is not None:
        report.residuals["tensor_residual"] = _num(result.reconstruction_residual)
        return EXIT_OK if result.verified else EXIT_FALSIFIED
    lower, upper = result.residual_bounds  # above DENSE_LIMIT rows: bounds only
    report.residuals.update(
        tensor_residual_kind="bounds",
        tensor_residual_lower=_num(lower),
        tensor_residual_upper=_num(upper),
    )
    if result.undecided:
        report.verdicts["undecided_factors"] = result.undecided
        return EXIT_INCONCLUSIVE
    return EXIT_OK if result.verified else EXIT_FALSIFIED


def _cmd_douglas(args, report: RunReport) -> int:
    spec = spec_io.load_spec(args.spec)
    if len(spec.operators) < 2:
        raise spec_io.SpecFormatError(
            "operators: douglas needs two operators (K first, L second)"
        )
    k, l = spec.operators[0], spec.operators[1]
    if l.target_rank != k.target_rank:
        raise spec_io.SpecFormatError(
            f"operators[1].target_rank: douglas needs K and L on one target, but L maps to "
            f"rank {l.target_rank} and K (operators[0]) to rank {k.target_rank}"
        )
    rep = douglas_check(k, l)
    report.verdicts = {"range_included": rep.range_included}
    report.residuals = {
        "lambda_min": None if rep.lambda_min is None else _num(rep.lambda_min),
        "factor_residual": _num(rep.residual),
    }
    if not rep.range_included:
        report.witnesses["falsifying_vector"] = spec_io.encode_vector(rep.witness)
        return EXIT_FALSIFIED
    report.witnesses["factor"] = spec_io.encode_operator(rep.factor)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """Each subcommand with its handler and only the flags that handler reads;
    run_command reads --out, --format and --timing for every report."""
    spec = ("spec", dict(help="frame specification file"))
    tol = ("--tol", dict(type=_at_least(0.0), default=DEFAULT_TOL, help="certification tolerance"))
    commands = (
        ("gen", _cmd_gen, "generate a reproducible instance file", (
            ("--kind", dict(choices=spec_io.GENERATOR_KINDS, required=True)),
            ("--dim", dict(type=_at_least(1), default=2, help="algebra dimension d")),
            ("--rank", dict(type=_at_least(1), default=2, help="module rank n")),
            ("--count", dict(type=_at_least(1), default=3, help="family member count")),
            ("--spec-out", dict(required=True, help="instance file to write")),
            ("--seed", dict(type=_at_least(0), default=0, help="generator seed")),
        )),
        ("verify", _cmd_verify, "certify a family against its target and bounds", (
            spec, tol,
            # Accepted and ignored, since every decision is exact; the benchmark's
            # algebra-bounds workload still passes them.
            ("--samples", dict(type=int, help=argparse.SUPPRESS)),
            ("--restarts", dict(type=int, help=argparse.SUPPRESS)),
        )),
        ("bounds", _cmd_bounds, "optimal scalar frame bounds", (spec,)),
        ("dual", _cmd_dual, "construct and verify a dual family",
         (spec, tol, ("--method", dict(choices=("canonical", "minimal"), default="canonical")))),
        ("perturb", _cmd_perturb, "perturbation transfer pipeline", (spec, tol)),
        ("douglas", _cmd_douglas, "range-inclusion / majorization / factorization check", (spec,)),
        ("tensor", _cmd_tensor, "tensor-product duality check",
         (("spec", dict(nargs="+", help="dual-pair specification files")), tol)),
    )
    parser = _Parser(prog="modframes",
                     description="Certify operator-family frame inequalities over matrix algebras.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, handler, helptext, flags in commands:
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        for flag, options in flags:
            p.add_argument(flag, **options)
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--timing", action="store_true",
                       help="record wall time (breaks byte determinism)")
    return parser


_parser: argparse.ArgumentParser | None = None  # parse_args leaves it unchanged


def run_command(argv: list[str]) -> tuple[int, RunReport]:
    """Parse and execute; returns (exit_code, report) and never raises."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except ArgumentParseError as exc:
        report = RunReport(list(argv), "parse-error", error=f"argument parsing failed: {exc}")
        return EXIT_INPUT, report
    except SystemExit as exc:  # --help
        report = RunReport(command=list(argv), subcommand="parse-error")
        report.error = f"argument parsing failed (argparse status {exc.code})"
        return (EXIT_OK if exc.code == 0 else EXIT_INPUT), report

    report = RunReport(command=list(argv), subcommand=args.subcommand)
    started = time.perf_counter()
    try:
        code = args.handler(args, report)
    except HypothesisError as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        if getattr(exc, "witness", None) is not None:
            report.witnesses["hypothesis_vector"] = spec_io.encode_vector(exc.witness)
        code = EXIT_HYPOTHESIS
    except Exception as exc:  # the CLI surfaces failures, it never panics
        # ValueError (SpecFormatError too) and OSError (a path that cannot be read
        # or written) are input errors; LAPACK's LinAlgError is ours
        internal = isinstance(exc, LinAlgError) or not isinstance(exc, (OSError, ValueError))
        if internal:
            traceback.print_exc(file=sys.stderr)  # a bug: keep where it happened
        report.error = f"{'InternalError: ' if internal else ''}{type(exc).__name__}: {exc}"
        code = EXIT_INTERNAL if internal else EXIT_INPUT
    if args.timing:
        report.timing_s = time.perf_counter() - started

    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report.render(args.format))
            return code, report
        except OSError as exc:  # the report still reaches stdout, naming --out
            failure = f"--out: {type(exc).__name__}: {exc}"
            report.error = failure if report.error is None else f"{report.error}; {failure}"
            code = EXIT_INPUT
    sys.stdout.write(report.render(args.format))
    return code, report


def main() -> None:
    code, _ = run_command(sys.argv[1:])
    sys.exit(code)


if __name__ == "__main__":
    main()
