"""Frame-specification files and reproducible instance generators.

A spec file is JSON with complex entries encoded as [re, im] pairs and
matrices as row-major nested lists.  Operators are stored blockwise: a
``blocks`` field is a source_rank x target_rank nest of d x d matrices.
The same helpers serialize vectors and bounds for CLI reports; round-trips
are byte-stable because floats are emitted with shortest round-trip repr.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .duals import canonical_dual
from .errors import ModframesError
from .frames import FrameBounds, OperatorFamily, optimal_scalar_bounds
from .module import ModuleVector
from .operators import ModuleOperator, compose, random_operator


class SpecFormatError(ModframesError, ValueError):
    """Spec file is malformed; the message names the offending field."""


# Largest |re|, |im| of a spec entry and largest scalar bound: below it, Gram
# matrices (about MAX_ENTRY**2) times squared bounds stay finite.
MAX_ENTRY = 1e50


def _decode_entry(value, path: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
    ):
        raise SpecFormatError(f"{path}: complex entry must be a [re, im] pair, got {value!r}")
    if not all(math.isfinite(v) for v in value if isinstance(v, float)):
        raise SpecFormatError(f"{path}: complex entry must be finite, got {value!r}")
    if not all(abs(v) <= MAX_ENTRY for v in value):
        raise SpecFormatError(
            f"{path}: complex entry exceeds {MAX_ENTRY:g} in magnitude, got {value!r}"
        )
    return complex(value[0], value[1])


def _as_int(value, path: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: int(1e400)
        raise SpecFormatError(f"{path}: must be an integer, got {value!r}") from None


def _as_tolerance(value, path: str) -> float:
    """A tolerance is a finite positive JSON number: no bool, string or list."""
    try:
        if type(value) in (int, float) and 0 < float(value) < math.inf:
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise SpecFormatError(f"{path}: must be a finite positive number, got {value!r}")


def decode_matrix(data, dim: int, path: str) -> np.ndarray:
    # Fast path for a well-formed numeric matrix; anything else is decoded
    # entry by entry, which names the offending field.
    try:
        arr = np.asarray(data)
    except ValueError:  # ragged nesting
        arr = None
    if arr is not None and arr.shape == (dim, dim, 2) and arr.dtype.kind in "iuf":
        arr = arr.astype(np.float64)
        if np.all(np.abs(arr) <= MAX_ENTRY):  # NaN and inf fail this too
            out = np.empty((dim, dim), dtype=np.complex128)
            out.real, out.imag = arr[..., 0], arr[..., 1]
            return out
    if not isinstance(data, list) or len(data) != dim:
        raise SpecFormatError(f"{path}: expected {dim} rows")
    out = np.empty((dim, dim), dtype=np.complex128)
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != dim:
            raise SpecFormatError(f"{path}[{r}]: expected {dim} entries")
        for c, entry in enumerate(row):
            out[r, c] = _decode_entry(entry, f"{path}[{r}][{c}]")
    return out


def encode_matrix(mat: np.ndarray) -> list:
    mat = np.asarray(mat, dtype=np.complex128)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def decode_operator(data, dim: int, source_rank: int, path: str) -> ModuleOperator:
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected an object with target_rank and blocks")
    target_rank = _as_int(data.get("target_rank"), f"{path}.target_rank")
    blocks = data.get("blocks")
    if not isinstance(blocks, list) or len(blocks) != source_rank:
        raise SpecFormatError(f"{path}.blocks: expected {source_rank} block rows")
    rows = []
    for i, brow in enumerate(blocks):
        if not isinstance(brow, list) or len(brow) != target_rank:
            raise SpecFormatError(f"{path}.blocks[{i}]: expected {target_rank} blocks")
        rows.append(
            [decode_matrix(b, dim, f"{path}.blocks[{i}][{j}]") for j, b in enumerate(brow)]
        )
    return ModuleOperator.from_blocks(rows)


def encode_operator(op: ModuleOperator) -> dict:
    return {
        "target_rank": op.target_rank,
        "blocks": [
            [encode_matrix(op.block(i, j)) for j in range(op.target_rank)]
            for i in range(op.source_rank)
        ],
    }


def encode_vector(x: ModuleVector) -> dict:
    return {
        "dim": x.dim,
        "rank": x.rank,
        "blocks": [encode_matrix(b) for b in x.blocks],
    }


def decode_vector(data, path: str = "vector") -> ModuleVector:
    try:
        dim = int(data["dim"])
        blocks = data["blocks"]
    except (KeyError, TypeError, ValueError):
        raise SpecFormatError(f"{path}: needs dim and blocks") from None
    mats = [decode_matrix(b, dim, f"{path}.blocks[{i}]") for i, b in enumerate(blocks)]
    return ModuleVector.from_blocks(mats)


def encode_bounds(bounds: FrameBounds) -> dict:
    if bounds.mode == "scalar":
        return {"mode": "scalar", "lower": bounds.alpha, "upper": bounds.beta}
    return {
        "mode": "algebra",
        "lower": encode_matrix(bounds.lower),
        "upper": encode_matrix(bounds.upper),
    }


def decode_bounds(data, dim: int, path: str = "bounds") -> FrameBounds:
    if not isinstance(data, dict) or data.get("mode") not in ("scalar", "algebra"):
        raise SpecFormatError(f"{path}.mode: must be 'scalar' or 'algebra'")
    if data["mode"] == "scalar":
        try:
            bounds = FrameBounds.scalar(float(data["lower"]), float(data["upper"]), dim)
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecFormatError(f"{path}: bad scalar bounds ({exc})") from None
        for name, value in (("lower", bounds.alpha), ("upper", bounds.beta)):
            if value > MAX_ENTRY:
                raise SpecFormatError(f"{path}.{name}: exceeds {MAX_ENTRY:g}, got {value!r}")
        return bounds
    lower = decode_matrix(data.get("lower"), dim, f"{path}.lower")
    upper = decode_matrix(data.get("upper"), dim, f"{path}.upper")
    return FrameBounds(lower=lower, upper=upper, mode="algebra")


@dataclass
class FrameSpecFile:
    """In-memory form of a frame specification file."""

    algebra_dim: int
    module_rank: int
    operators: list[ModuleOperator]
    second_operators: list[ModuleOperator] | None = None
    target_operator: ModuleOperator | None = None
    aux_operator: ModuleOperator | None = None
    bounds: FrameBounds | None = None
    seed: int | None = None
    tolerances: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {
            "algebra_dim": self.algebra_dim,
            "module_rank": self.module_rank,
            "operators": [encode_operator(op) for op in self.operators],
        }
        if self.second_operators is not None:
            out["second_operators"] = [encode_operator(op) for op in self.second_operators]
        if self.target_operator is not None:
            out["target_operator"] = encode_operator(self.target_operator)
        if self.aux_operator is not None:
            out["aux_operator"] = encode_operator(self.aux_operator)
        if self.bounds is not None:
            out["bounds"] = encode_bounds(self.bounds)
        if self.seed is not None:
            out["seed"] = self.seed
        if self.tolerances:
            out["tolerances"] = dict(sorted(self.tolerances.items()))
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FrameSpecFile":
        if not isinstance(data, dict):
            raise SpecFormatError("top level: expected a JSON object")
        for key in ("algebra_dim", "module_rank", "operators"):
            if key not in data:
                raise SpecFormatError(f"{key}: required field missing")
        dim = _as_int(data["algebra_dim"], "algebra_dim")
        rank = _as_int(data["module_rank"], "module_rank")
        if dim < 1 or rank < 1:
            raise SpecFormatError("algebra_dim/module_rank: must be positive")
        ops_data = data["operators"]
        if not isinstance(ops_data, list) or not ops_data:
            raise SpecFormatError("operators: expected a non-empty list")
        operators = [
            decode_operator(o, dim, rank, f"operators[{i}]") for i, o in enumerate(ops_data)
        ]
        second = None
        if data.get("second_operators") is not None:
            second = [
                decode_operator(o, dim, rank, f"second_operators[{i}]")
                for i, o in enumerate(data["second_operators"])
            ]
        target = None
        if data.get("target_operator") is not None:
            target = decode_operator(data["target_operator"], dim, rank, "target_operator")
        aux = None
        if data.get("aux_operator") is not None:
            aux = decode_operator(data["aux_operator"], dim, rank, "aux_operator")
        bounds = None
        if data.get("bounds") is not None:
            bounds = decode_bounds(data["bounds"], dim)
        seed = None if data.get("seed") is None else _as_int(data["seed"], "seed")
        tolerances = data.get("tolerances") or {}
        if not isinstance(tolerances, dict):
            raise SpecFormatError("tolerances: expected an object")
        return cls(
            algebra_dim=dim,
            module_rank=rank,
            operators=operators,
            second_operators=second,
            target_operator=target,
            aux_operator=aux,
            bounds=bounds,
            seed=seed,
            tolerances={str(k): _as_tolerance(v, f"tolerances.{k}") for k, v in tolerances.items()},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def save_spec(spec: FrameSpecFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())


def load_spec(path) -> FrameSpecFile:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return FrameSpecFile.from_dict(data)


GENERATOR_KINDS = ("tight", "known-bounds", "bessel-only", "perturbed-pair", "dual-pair")

_DEFAULT_TOLERANCES = {"tol": 1e-9, "cond_cap": 1e12, "rank_tol": 1e-12}


def _random_family(
    dim: int, rank: int, count: int, rng: np.random.Generator
) -> list[ModuleOperator]:
    # Target ranks are drawn in [1, rank] but padded so the frame operator
    # can have full rank.
    ranks = [int(rng.integers(1, rank + 1)) for _ in range(count)]
    while sum(ranks) < rank:
        ranks[rng.integers(0, count)] += 1
    return [random_operator(dim, rank, r, rng) for r in ranks]


def generate_instance(
    kind: str, d: int, n: int, count: int, seed: int
) -> FrameSpecFile:
    """Reproducible named test instances.

    tight          family with frame operator exactly the identity, K = I.
    known-bounds   random family and K with slightly relaxed optimal scalar
                   bounds, so exact certification confirms them.
    bessel-only    family with a common dead direction and K = I: Bessel
                   holds but no strictly nonzero lower bound can.
    perturbed-pair family plus a small perturbation in second_operators.
    dual-pair      full-rank family, invertible K, canonical dual in
                   second_operators.
    """
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown instance kind {kind!r}; choose from {GENERATOR_KINDS}")
    if d < 1 or n < 1 or count < 1:
        raise ValueError("d, n, count must all be >= 1")
    rng = np.random.default_rng(seed)
    members = _random_family(d, n, count, rng)
    family = OperatorFamily(members)
    eye = ModuleOperator.identity(d, n)
    spec = FrameSpecFile(
        algebra_dim=d,
        module_rank=n,
        operators=members,
        seed=seed,
        tolerances=dict(_DEFAULT_TOLERANCES),
    )

    if kind == "tight":
        w, v = family.spectrum
        inv_sqrt = ModuleOperator(d, n, n, (v / np.sqrt(w)[None, :]) @ np.conj(v.T))
        spec.operators = [compose(inv_sqrt, m) for m in members]
        spec.target_operator = eye
        spec.bounds = FrameBounds.scalar(1.0, 1.0, d)
    elif kind == "known-bounds":
        k = random_operator(d, n, n, rng)
        alpha, beta = optimal_scalar_bounds(family, k)
        spec.target_operator = k
        spec.bounds = FrameBounds.scalar(alpha * (1 - 1e-6), beta * (1 + 1e-6), d)
    elif kind == "bessel-only":
        vec = rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)
        vec /= np.linalg.norm(vec)
        proj = ModuleOperator(d, n, n, np.eye(n * d) - np.outer(vec, np.conj(vec)))
        dead = [compose(proj, m) for m in members]
        _, beta = optimal_scalar_bounds(OperatorFamily(dead), eye)
        spec.operators = dead
        spec.target_operator = eye
        spec.bounds = FrameBounds.scalar(0.1, beta * (1 + 1e-6), d)
    elif kind == "perturbed-pair":
        alpha, beta = optimal_scalar_bounds(family, eye)
        noise = [random_operator(d, n, m.target_rank, rng, scale=1e-3) for m in members]
        spec.second_operators = [m + e for m, e in zip(members, noise)]
        spec.target_operator = eye
        spec.aux_operator = eye
        spec.bounds = FrameBounds.scalar(
            max(alpha * (1 - 1e-6), 1e-12), beta * (1 + 1e-6), d
        )
    elif kind == "dual-pair":
        k = random_operator(d, n, n, rng)
        dual = canonical_dual(family, k)
        spec.second_operators = dual.members
        spec.target_operator = k
        alpha, beta = optimal_scalar_bounds(family, k)
        spec.bounds = FrameBounds.scalar(
            max(alpha * (1 - 1e-6), 1e-12), beta * (1 + 1e-6), d
        )
    return spec
