"""Frame-specification files and reproducible instance generators.

A spec file is JSON with complex entries encoded as [re, im] pairs and
matrices as row-major nested lists.  Operators are stored blockwise: a
``blocks`` field is a source_rank x target_rank nest of d x d matrices.
The same helpers serialize vectors and bounds for CLI reports.  A spec is
written compact, ``json.dumps(spec, sort_keys=True)`` and a newline, and read
in any layout; floats are spelled in shortest round-trip repr, so a round
trip is byte-stable.  A spec sets no tolerance; a ``tolerances`` field loads
only as ``gen`` once wrote it, since the duals' kernel rule is fixed.

Every reader of a nest of [re, im] pairs walks it entry by entry, so a
boolean in a pair is rejected, ``decode_vector`` included.  ``load_spec``
skips the walk, reading each nest through one ``np.asarray``, only when its
text spells neither ``true`` nor ``false``.  A spec with several faults names
the first in read order, from a dict and a file alike.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .duals import canonical_dual
from .errors import SpecFormatError
from .frames import FrameBounds, OperatorFamily, optimal_scalar_bounds
from .module import ModuleVector
from .operators import KERNEL_RTOL, ModuleOperator, compose, random_operator


# Largest |re|, |im| of a spec entry and largest scalar bound: below it, Gram
# matrices (about MAX_ENTRY**2) times squared bounds stay finite.
MAX_ENTRY = 1e50

# What each level of an operator's ``blocks`` holds; a vector's and a matrix's are the last.
_LEVELS = ("block rows", "blocks", "rows", "entries")


def _nest_fault(data, shape: tuple, path: str) -> str | None:
    """The message naming the first field of a nest of [re, im] pairs of
    ``shape`` at fault, or None when there is none."""
    if shape:
        if not isinstance(data, list) or len(data) != shape[0]:
            return f"{path}: expected {shape[0]} {_LEVELS[-len(shape)]}"
        faults = (_nest_fault(v, shape[1:], f"{path}[{i}]") for i, v in enumerate(data))
        return next(filter(None, faults), None)
    if not isinstance(data, list) or len(data) != 2 or not {*map(type, data)} <= {int, float}:
        return f"{path}: complex entry must be a [re, im] pair, got {data!r}"
    if not all(math.isfinite(v) for v in data if type(v) is float):
        return f"{path}: complex entry must be finite, got {data!r}"
    if not all(abs(v) <= MAX_ENTRY for v in data):
        return f"{path}: complex entry exceeds {MAX_ENTRY:g} in magnitude, got {data!r}"
    return None


def _complex_nest(data, shape: tuple, path: str, fast: bool = False) -> np.ndarray:
    """The complex array of ``shape`` that a nest of [re, im] pairs spells, bit
    for bit; on any fault, the error names its field.  The nest is walked, then
    read by one ``np.asarray``; ``fast`` reads first, unwalked, a nest known to
    hold no boolean (which the read takes as 1 or 0), walking only if that fails."""
    if fast:
        try:
            arr = np.asarray(data)
            if arr.shape == (*shape, 2) and arr.dtype.kind in "iuf":
                arr = arr.astype(np.float64, copy=False)
                if np.all(np.abs(arr) <= MAX_ENTRY):  # NaN and inf fail this too
                    return arr.view(np.complex128)[..., 0]
        except (ValueError, OverflowError):  # ragged nesting; an integer beyond the float range
            pass
    fault = _nest_fault(data, shape, path)
    if fault:
        raise SpecFormatError(fault)
    return np.asarray(data, dtype=np.float64).view(np.complex128)[..., 0]


def _as_int(value, path: str, least: int = 1) -> int:
    """An integer field is a JSON integer: no bool, string or float (2.0 too)."""
    if type(value) is not int or value < least:
        raise SpecFormatError(f"{path}: must be an integer at least {least}, got {value!r}")
    return value


def _as_positive(value, path: str) -> float:
    """A positive JSON number at most ``MAX_ENTRY``: no bool, string, list or NaN."""
    try:
        if type(value) in (int, float) and 0 < float(value) <= MAX_ENTRY:
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise SpecFormatError(
        f"{path}: must be a finite positive number at most {MAX_ENTRY:g}, got {value!r}"
    )


def _known(data: dict, keys, prefix: str) -> None:
    """Reject the first key of ``data`` outside ``keys``, named by its path."""
    extra = sorted(data.keys() - set(keys))
    if extra:
        known = ", ".join(keys)
        raise SpecFormatError(f"{prefix}{extra[0]}: unknown key, not one of {known}")


def encode_matrix(mat: np.ndarray) -> list:
    """[re, im] float pairs nested as ``mat`` (any shape): the view ``_complex_nest`` reads."""
    mat = np.asarray(mat, dtype=np.complex128)
    return np.ascontiguousarray(mat).view(np.float64).reshape(*mat.shape, 2).tolist()


def _decode_operator(data, dim: int, source_rank: int, path: str, fast: bool) -> ModuleOperator:
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected an object with target_rank and blocks")
    n, m = source_rank, _as_int(data.get("target_rank"), f"{path}.target_rank")
    arr = _complex_nest(data.get("blocks"), (n, m, dim, dim), f"{path}.blocks", fast)
    _known(data, ("target_rank", "blocks"), f"{path}.")
    return ModuleOperator(dim, n, m, arr.transpose(0, 2, 1, 3).reshape(n * dim, m * dim))


def encode_operator(op: ModuleOperator) -> dict:
    n, m, d = op.source_rank, op.target_rank, op.dim
    blocks = op.flat.reshape(n, d, m, d).transpose(0, 2, 1, 3)
    return {"target_rank": m, "blocks": encode_matrix(blocks)}


def encode_vector(x: ModuleVector) -> dict:
    blocks = encode_matrix(x.flat.reshape(x.dim, x.rank, x.dim).transpose(1, 0, 2))
    return {"dim": x.dim, "rank": x.rank, "blocks": blocks}


def decode_vector(data, path: str = "vector") -> ModuleVector:
    if not isinstance(data, dict) or not isinstance(data.get("blocks"), list) or not data["blocks"]:
        raise SpecFormatError(f"{path}: needs dim and a non-empty list of blocks")
    dim, rank = _as_int(data.get("dim"), f"{path}.dim"), len(data["blocks"])
    arr = _complex_nest(data["blocks"], (rank, dim, dim), f"{path}.blocks")
    return ModuleVector(dim, rank, arr.transpose(1, 0, 2).reshape(dim, rank * dim))


def encode_bounds(bounds: FrameBounds) -> dict:
    if bounds.mode == "scalar":
        return {"mode": "scalar", "lower": bounds.alpha, "upper": bounds.beta}
    return {
        "mode": "algebra",
        "lower": encode_matrix(bounds.lower),
        "upper": encode_matrix(bounds.upper),
    }


def _decode_bounds(data, dim: int, path: str, fast: bool) -> FrameBounds:
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected an object with mode, lower and upper")
    if data.get("mode") not in ("scalar", "algebra"):
        raise SpecFormatError(f"{path}.mode: must be 'scalar' or 'algebra'")
    scalar = data["mode"] == "scalar"
    lower, upper = (
        _as_positive(data.get(k), f"{path}.{k}") if scalar
        else _complex_nest(data.get(k), (dim, dim), f"{path}.{k}", fast) for k in ("lower", "upper")
    )
    bounds = (FrameBounds.scalar(lower, upper, dim) if scalar
              else FrameBounds(lower=lower, upper=upper, mode="algebra"))
    _known(data, ("mode", "lower", "upper"), f"{path}.")
    return bounds


def _same_target(op: ModuleOperator, want: int, path: str, what: str) -> ModuleOperator:
    if op.target_rank != want:
        raise SpecFormatError(f"{path}.target_rank: must equal {what} {want}, got {op.target_rank}")
    return op


def _family(data, dim: int, rank: int, path: str, fast: bool, like=None) -> list[ModuleOperator]:
    """A non-empty list of operators on A^rank.  A second family is indexed
    ``like`` the first: one member per member, on the same target rank."""
    if not isinstance(data, list):
        raise SpecFormatError(f"{path}: expected a list, got {type(data).__name__}")
    if not data or like is not None and len(data) != len(like):
        want = "a non-empty list" if like is None else f"{len(like)} members, one per operator"
        raise SpecFormatError(f"{path}: expected {want}, got {len(data)}")
    ops = [_decode_operator(o, dim, rank, f"{path}[{i}]", fast) for i, o in enumerate(data)]
    for i, ref in enumerate(like or ()):
        _same_target(ops[i], ref.target_rank, f"{path}[{i}]", f"operators[{i}].target_rank")
    return ops


# What ``gen`` wrote as ``tolerances`` until the duals' rank rule became the kernel rule.
_LEGACY_TOLERANCES = {"cond_cap": 1e12, "rank_tol": 1e-12}


def _legacy_tolerances(data, path: str) -> None:
    """Accept exactly the legacy ``tolerances``; otherwise name the first key at fault."""
    if data != _LEGACY_TOLERANCES:
        legacy = _LEGACY_TOLERANCES
        where = path if not isinstance(data, dict) else f"{path}." + min(
            k for k in data.keys() | legacy.keys() if k not in data or data[k] != legacy.get(k))
        raise SpecFormatError(f"{where}: the kernel rule is fixed at {KERNEL_RTOL:g} of the "
                              f"largest eigenvalue, so a spec may carry only what gen once wrote, "
                              f"{json.dumps(legacy)}; the certification tolerance is --tol")


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
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FrameSpecFile":
        """Read each field once, naming the first fault in read order; an unknown key is one."""
        return cls._read(data, fast=False)

    @classmethod
    def _read(cls, data: dict, fast: bool) -> "FrameSpecFile":
        """``from_dict``, with ``fast`` passed to every nest of [re, im] pairs."""
        if not isinstance(data, dict):
            raise SpecFormatError("top level: expected a JSON object")
        for key in ("algebra_dim", "module_rank", "operators"):
            if key not in data:
                raise SpecFormatError(f"{key}: required field missing")
        dim, rank = (_as_int(data[key], key) for key in ("algebra_dim", "module_rank"))
        operators = _family(data["operators"], dim, rank, "operators", fast)

        def endomorphism(value, path):  # K and aux map A^n to A^n
            op = _decode_operator(value, dim, rank, path, fast)
            return _same_target(op, rank, path, "module_rank")

        optional = {  # null reads as absent
            "second_operators": lambda value, path: _family(
                value, dim, rank, path, fast, operators),
            "target_operator": endomorphism,
            "aux_operator": endomorphism,
            "bounds": lambda value, path: _decode_bounds(value, dim, path, fast),
            # The seed records how ``gen`` made the file; no decision reads it.
            "seed": lambda value, path: _as_int(value, path, least=0),
        }
        read = {key: optional[key](data[key], key) for key in optional if data.get(key) is not None}
        if data.get("tolerances") is not None:
            _legacy_tolerances(data["tolerances"], "tolerances")
        _known(data, ("algebra_dim", "module_rank", "operators", *optional, "tolerances"), "")
        return cls(dim, rank, operators, **read)

    def to_json(self) -> str:
        """``to_dict`` builds fresh dicts, lists and numbers: no cycle for json to check."""
        return json.dumps(self.to_dict(), sort_keys=True, check_circular=False) + "\n"


def save_spec(spec: FrameSpecFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())


def load_spec(path) -> FrameSpecFile:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    # No spec field is boolean, so a text spelling neither "true" nor "false" holds
    # none for the unwalked read to take as 1 or 0.  Key names hold no "f" and few
    # "u", and a one-letter search runs at memchr speed, many times faster than "true".
    at = text.find("u")
    while at >= 0 and text[max(at - 2, 0):at + 2] != "true":
        at = text.find("u", at + 1)
    return FrameSpecFile._read(data, fast=at < 0 and not ("f" in text and "false" in text))


GENERATOR_KINDS = ("tight", "known-bounds", "bessel-only", "perturbed-pair", "dual-pair")


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
    spec = FrameSpecFile(algebra_dim=d, module_rank=n, operators=members, seed=seed)

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
        dead = OperatorFamily([compose(proj, m) for m in members])
        spec.operators = dead.members
        spec.target_operator = eye
        spec.bounds = FrameBounds.scalar(0.1, dead.bessel_bound * (1 + 1e-6), d)
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
