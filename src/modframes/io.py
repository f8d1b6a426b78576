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
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str

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
    """An integer field is a JSON integer: no bool, string or float (2.0 too)."""
    if type(value) is not int:
        raise SpecFormatError(f"{path}: must be an integer, got {value!r}")
    return value


def _as_positive(value, path: str, cap: float = sys.float_info.max) -> float:
    """A positive JSON number at most ``cap``: no bool, string, list or NaN."""
    try:
        if type(value) in (int, float) and 0 < float(value) <= cap:
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise SpecFormatError(
        f"{path}: must be a finite positive number at most {cap:g}, got {value!r}"
    )


def _complex_array(data, shape: tuple) -> np.ndarray | None:
    """One array for a well-formed nest of numeric [re, im] pairs of ``shape``,
    or None when the per-entry walk must decide (and name the field at fault)."""
    try:
        arr = np.asarray(data)
    except ValueError:  # ragged nesting
        return None
    if arr.shape != (*shape, 2) or arr.dtype.kind not in "iuf":
        return None
    arr = arr.astype(np.float64, copy=False)
    if not np.all(np.abs(arr) <= MAX_ENTRY):  # NaN and inf fail this too
        return None
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = arr[..., 0], arr[..., 1]  # separately, so signed zeros survive
    return out


def decode_matrix(data, dim: int, path: str) -> np.ndarray:
    out = _complex_array(data, (dim, dim))
    if out is not None:
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
    """Nested lists of [re, im] float pairs, one per entry of ``mat`` (any shape)."""
    mat = np.asarray(mat, dtype=np.complex128)
    return np.stack((mat.real, mat.imag), axis=-1).tolist()


def decode_operator(data, dim: int, source_rank: int, path: str) -> ModuleOperator:
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected an object with target_rank and blocks")
    target_rank = _as_int(data.get("target_rank"), f"{path}.target_rank")
    blocks = data.get("blocks")
    arr = _complex_array(blocks, (source_rank, target_rank, dim, dim))
    if arr is not None:
        flat = arr.transpose(0, 2, 1, 3).reshape(source_rank * dim, target_rank * dim)
        return ModuleOperator(dim, source_rank, target_rank, flat)
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
    n, m, d = op.source_rank, op.target_rank, op.dim
    blocks = op.flat.reshape(n, d, m, d).transpose(0, 2, 1, 3)
    return {"target_rank": m, "blocks": encode_matrix(blocks)}


def encode_vector(x: ModuleVector) -> dict:
    return {
        "dim": x.dim,
        "rank": x.rank,
        "blocks": encode_matrix(x.flat.reshape(x.dim, x.rank, x.dim).transpose(1, 0, 2)),
    }


def decode_vector(data, path: str = "vector") -> ModuleVector:
    if not isinstance(data, dict) or "dim" not in data or "blocks" not in data:
        raise SpecFormatError(f"{path}: needs dim and blocks")
    dim = _as_int(data["dim"], f"{path}.dim")
    blocks = data["blocks"]
    if dim < 1 or not isinstance(blocks, list) or not blocks:
        raise SpecFormatError(f"{path}: needs a positive dim and a non-empty list of blocks")
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
        lower, upper = (
            _as_positive(data.get(k), f"{path}.{k}", MAX_ENTRY) for k in ("lower", "upper")
        )
        return FrameBounds.scalar(lower, upper, dim)
    lower = decode_matrix(data.get("lower"), dim, f"{path}.lower")
    upper = decode_matrix(data.get("upper"), dim, f"{path}.upper")
    return FrameBounds(lower=lower, upper=upper, mode="algebra")


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _float_rows(o: list, inner: str) -> str | None:
    """The body of a list of floats, or of non-empty lists of floats (a row of
    [re, im] pairs), in one ``join``; None for anything else, nan and inf too."""
    sep = "," + inner
    try:
        if type(o[0]) is float:
            body = sep.join(map(float.__repr__, o))
        elif type(o[0]) is list and o[0] and type(o[0][0]) is float:
            open_, row_sep, close = "[" + inner + "  ", sep + "  ", inner + "]"
            rows = [open_ + row_sep.join(map(float.__repr__, v)) + close
                    for v in o if type(v) is list and v]
            if len(rows) != len(o):  # a row that is not a non-empty list
                return None
            body = sep.join(rows)
        else:
            return None
    except TypeError:  # an item that is not a float
        return None
    return None if "n" in body else body  # json spells nan and inf itself


def _render(o, nl: str) -> str:
    if type(o) is float:
        text = float.__repr__(o)
        return _NONFINITE.get(text, text)
    if type(o) is str:
        return _encode_str(o)
    if type(o) is int:
        return int.__repr__(o)
    if o is None or o is True or o is False:
        return _CONSTANTS[o]
    inner = nl + "  "
    if type(o) is dict:
        items = [_encode_str(k) + ": " + _render(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if o else "{}"
    if type(o) is not list and type(o) is not tuple:
        raise TypeError(type(o).__name__)
    if not o:
        return "[]"
    body = _float_rows(o, inner) or ("," + inner).join([_render(v, inner) for v in o])
    return "[" + inner + body + nl + "]"


def dumps(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte, in about half
    json's time: ``indent`` sends json to its pure-Python encoder, while this
    joins whole rows of floats at once.  Other types and non-``str`` keys go
    to ``json.dumps`` itself."""
    try:
        return _render(obj, "\n")
    except (TypeError, ValueError, RecursionError):
        pass
    return json.dumps(obj, sort_keys=True, indent=2)


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
        second = data.get("second_operators")
        if second is not None:
            if not isinstance(second, list):
                raise SpecFormatError(
                    f"second_operators: expected a list, got {type(second).__name__}"
                )
            second = [
                decode_operator(o, dim, rank, f"second_operators[{i}]")
                for i, o in enumerate(second)
            ]
        target, aux = (
            None if data.get(key) is None else decode_operator(data[key], dim, rank, key)
            for key in ("target_operator", "aux_operator")
        )
        for key, op in (("target_operator", target), ("aux_operator", aux)):
            if op is not None and op.target_rank != rank:  # K and aux map A^n to A^n
                raise SpecFormatError(
                    f"{key}.target_rank: must equal module_rank {rank}, got {op.target_rank}"
                )
        bounds = None
        if data.get("bounds") is not None:
            bounds = decode_bounds(data["bounds"], dim)
        # The seed records how ``gen`` made the file; no decision reads it.
        seed = None if data.get("seed") is None else _as_int(data["seed"], "seed")
        tolerances = {} if data.get("tolerances") is None else data["tolerances"]
        if not isinstance(tolerances, dict):
            raise SpecFormatError(f"tolerances: expected an object, got {tolerances!r}")
        tolerances = {k: _as_positive(v, f"tolerances.{k}") for k, v in tolerances.items()}
        unknown = sorted(tolerances.keys() - _DEFAULT_TOLERANCES.keys())
        if unknown:
            raise SpecFormatError(
                f"tolerances.{unknown[0]}: unknown key; a spec sets only cond_cap and "
                "rank_tol, and the certification tolerance is the --tol flag"
            )
        return cls(
            algebra_dim=dim,
            module_rank=rank,
            operators=operators,
            second_operators=second,
            target_operator=target,
            aux_operator=aux,
            bounds=bounds,
            seed=seed,
            tolerances=tolerances,
        )

    def to_json(self) -> str:
        return dumps(self.to_dict()) + "\n"


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

# The tolerances a spec may set, both read by ``dual``; --tol is not one of them.
_DEFAULT_TOLERANCES = {"cond_cap": 1e12, "rank_tol": 1e-12}


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
