"""Frame-specification files and reproducible instance generators.

A spec file is JSON.  An operator's ``blocks`` is the (n, m, d, d) array of
block row, block column, row, column, written packed: strict base64 of its
little-endian complex128 bytes in that order (``pack_blocks``).  The nested
form, [re, im] pairs in row-major lists, is still read, and reports write it
for vectors, operators and bounds.  A spec is written compact,
``json.dumps(spec, sort_keys=True)`` and a newline, and read in any layout;
floats keep their shortest round-trip repr and packed entries their bits, so
a round trip is byte-stable.  A spec sets no tolerance, since the duals'
kernel rule is fixed: a ``tolerances`` key is rejected like any unknown key.

One reader takes every nest of [re, im] pairs, ``decode_vector`` included: it
checks each level whole, so a boolean in a pair is rejected, and walks the
nest only to name the first fault.  A spec with several faults names the
first in read order, from a dict and a file alike.  A process decodes each
distinct spec text once while it is among the last two read (``CACHED_TEXTS``):
every load of it returns the same frozen spec over read-only arrays, and no
error is kept.  A spec owns its families (``family``, ``second_family``), so
every subcommand reading one spec shares one Gram matrix and one spectrum.
The kept texts are the decode window: a new text takes each operator a kept
text holds under the same packed ``blocks`` and shape as that very object, bit
for bit a fresh decode, and an operator tuple a kept spec holds with its family,
Gram and spectrum.  A failing text never enters the window, ``cache_clear()``
empties it, and ``from_dict`` keeps none.  The rest of a list reads one buffer.
"""

from __future__ import annotations

import binascii
import collections
import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .duals import canonical_dual
from .errors import ModframesError, SpecFormatError
from .frames import FrameBounds, OperatorFamily, optimal_scalar_bounds
from .module import ModuleVector
from .operators import ModuleOperator, compose, random_operator


# Largest |re|, |im| of a spec entry and largest scalar bound: below it, Gram
# matrices (about MAX_ENTRY**2) times squared bounds stay finite.
MAX_ENTRY = 1e50
CACHED_TEXTS = 2  # distinct spec texts ``load_spec`` keeps decoded, the most recently read

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


def _complex_nest(data, shape: tuple, path: str) -> np.ndarray:
    """The complex array of ``shape`` that a nest of [re, im] pairs holds, bit
    for bit.  Each level is checked whole, its types and lengths, then the leaves
    are ints and floats (no bool) read by one ``np.array``; only a nest at fault
    is walked, by ``_nest_fault``, to name its field."""
    level = [data]
    for size in (*shape, 2):
        if {*map(type, level)} != {list} or {*map(len, level)} != {size}:
            raise SpecFormatError(_nest_fault(data, shape, path))
        level = [*itertools.chain.from_iterable(level)]
    try:
        parts = np.array(level, dtype=np.float64) if {*map(type, level)} <= {int, float} else None
    except OverflowError:  # an integer beyond the float range
        parts = None
    if parts is None or not np.all(np.abs(parts) <= MAX_ENTRY):  # NaN and inf fail this too
        raise SpecFormatError(_nest_fault(data, shape, path))
    return parts.view(np.complex128).reshape(shape)


def pack_blocks(arr: np.ndarray) -> str:
    """Strict base64 of ``arr``'s little-endian complex128 bytes in C order: what
    ``_unpack`` reads and a spec file stores as an operator's ``blocks``."""
    raw = np.ascontiguousarray(arr, dtype="<c16").tobytes()
    return binascii.b2a_base64(raw, newline=False).decode("ascii")


def _strict_bytes(text: str) -> bytes | None:
    """The bytes whose one base64 spelling is ``text``, or None when there are none."""
    try:
        raw = binascii.a2b_base64(text)
    except (binascii.Error, ValueError):  # bad padding; a character beyond ASCII
        return None
    return raw if binascii.b2a_base64(raw, newline=False).decode("ascii") == text else None


def _unpack(text: str, shape: tuple, path: str) -> np.ndarray:
    """The writable complex array of ``shape`` that ``pack_blocks`` wrote as ``text``."""
    raw = _strict_bytes(text)
    if raw is None:
        raise SpecFormatError(f"{path}: packed blocks must be strict base64")
    if len(raw) != 16 * math.prod(shape):
        raise SpecFormatError(f"{path}: expected {16 * math.prod(shape)} bytes, got {len(raw)}")
    parts = np.frombuffer(bytearray(raw), dtype="<f8")
    if not np.all(np.abs(parts) <= MAX_ENTRY):  # NaN and inf fail this too
        raise SpecFormatError(f"{path}: every |re|, |im| must be finite, at most {MAX_ENTRY:g}")
    return parts.view("<c16").reshape(shape)


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


def _decode_operator(data, dim: int, source_rank: int, path: str) -> ModuleOperator:
    """One operator object, walked: the reader of the nested form, and the one
    that names the first fault of a list ``_operators`` cannot take whole."""
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected an object with target_rank and blocks")
    n, m = source_rank, _as_int(data.get("target_rank"), f"{path}.target_rank")
    read = _unpack if isinstance(data.get("blocks"), str) else _complex_nest
    arr = read(data.get("blocks"), (n, m, dim, dim), f"{path}.blocks")
    _known(data, ("target_rank", "blocks"), f"{path}.")
    return ModuleOperator(dim, n, m, arr.transpose(0, 2, 1, 3).reshape(n * dim, m * dim))


def _operators(items: list, dim: int, rank: int, paths: list) -> list[ModuleOperator]:
    """The operators on A^rank that ``items`` hold: the window's (see ``_Decoder``),
    and the rest read from one buffer, each checked strict base64 and copied out
    once.  A nested or faulty list is read, or its fault named, by ``_decode_operator``."""
    keys = [(o.get("blocks"), dim, rank, o.get("target_rank"))
            if isinstance(o, dict) and len(o) == 2 else None for o in items]  # no unknown key
    if all(k and isinstance(k[0], str) and type(k[3]) is int and k[3] >= 1 for k in keys):
        fresh = [k for k in keys if k not in _decode.window]
        raws = [_strict_bytes(k[0]) for k in fresh]
        if all(r is not None and len(r) == 16 * rank * k[3] * dim**2 for r, k in zip(raws, fresh)):
            parts = np.frombuffer(b"".join(raws), dtype="<f8").view("<c16")
            if not fresh or np.all(np.abs(parts.view("<f8")) <= MAX_ENTRY):  # NaN, inf fail
                ops, at = [], 0
                for key in keys:
                    op, m = _decode.window.get(key), key[3]
                    if op is None:
                        blocks = parts[at:at + rank * m * dim * dim].reshape(rank, m, dim, dim)
                        at += blocks.size
                        flat = blocks.transpose(0, 2, 1, 3).copy().reshape(rank * dim, m * dim)
                        op = ModuleOperator(dim, rank, m, flat)
                    ops.append(op)
                if _decode.read is not None:
                    _decode.read.update(zip(keys, ops))
                return ops
    return [_decode_operator(o, dim, rank, path) for o, path in zip(items, paths)]


def encode_operator(op: ModuleOperator, encode=encode_matrix) -> dict:
    """The operator with its (n, m, d, d) blocks through ``encode``: nested
    [re, im] pairs for a report, ``pack_blocks`` text for a spec file."""
    n, m, d = op.source_rank, op.target_rank, op.dim
    blocks = op.flat.reshape(n, d, m, d).transpose(0, 2, 1, 3)
    return {"target_rank": m, "blocks": encode(blocks)}


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


def _decode_bounds(data, dim: int, path: str) -> FrameBounds:
    if not isinstance(data, dict):
        raise SpecFormatError(f"{path}: expected an object with mode, lower and upper")
    if data.get("mode") not in ("scalar", "algebra"):
        raise SpecFormatError(f"{path}.mode: must be 'scalar' or 'algebra'")
    scalar = data["mode"] == "scalar"
    lower, upper = (
        _as_positive(data.get(k), f"{path}.{k}") if scalar
        else _complex_nest(data.get(k), (dim, dim), f"{path}.{k}") for k in ("lower", "upper")
    )
    bounds = (FrameBounds.scalar(lower, upper, dim) if scalar
              else FrameBounds(lower=lower, upper=upper, mode="algebra"))
    _known(data, ("mode", "lower", "upper"), f"{path}.")
    return bounds


def _same_target(op: ModuleOperator, want: int, path: str, what: str) -> ModuleOperator:
    if op.target_rank != want:
        raise SpecFormatError(f"{path}.target_rank: must equal {what} {want}, got {op.target_rank}")
    return op


def _family(data, dim: int, rank: int, path: str, like=None) -> list[ModuleOperator]:
    """A non-empty list of operators on A^rank.  A second family is indexed
    ``like`` the first: one member per member, on the same target rank."""
    if not isinstance(data, list):
        raise SpecFormatError(f"{path}: expected a list, got {type(data).__name__}")
    if not data or like is not None and len(data) != len(like):
        want = "a non-empty list" if like is None else f"{len(like)} members, one per operator"
        raise SpecFormatError(f"{path}: expected {want}, got {len(data)}")
    ops = _operators(data, dim, rank, [f"{path}[{i}]" for i in range(len(data))])
    for i, ref in enumerate(like or ()):
        _same_target(ops[i], ref.target_rank, f"{path}[{i}]", f"operators[{i}].target_rank")
    return ops


@dataclass(frozen=True)
class FrameSpecFile:
    """In-memory form of a frame specification file, a frozen value owning the
    families of its operator tuples and its ``target``: each is built, Gram and
    spectrum or flat(KK*), once, so mutate no array it holds once one is read."""

    algebra_dim: int
    module_rank: int
    operators: tuple[ModuleOperator, ...]
    second_operators: tuple[ModuleOperator, ...] | None = None
    target_operator: ModuleOperator | None = None
    aux_operator: ModuleOperator | None = None
    bounds: FrameBounds | None = None
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "operators", tuple(self.operators))
        if self.second_operators is not None:
            object.__setattr__(self, "second_operators", tuple(self.second_operators))

    @functools.cached_property
    def family(self) -> OperatorFamily:
        return OperatorFamily(self.operators)

    @functools.cached_property
    def second_family(self) -> OperatorFamily | None:
        return None if self.second_operators is None else OperatorFamily(self.second_operators)

    @functools.cached_property
    def target(self) -> ModuleOperator:
        """``target_operator``, or the identity, read-only, when the file names none."""
        if self.target_operator is not None:
            return self.target_operator
        eye = ModuleOperator.identity(self.algebra_dim, self.module_rank)
        eye.flat.flags.writeable = False
        return eye

    def to_dict(self) -> dict:
        """The file's fields, each operator's ``blocks`` packed as ``save_spec`` writes it."""
        pack = functools.partial(encode_operator, encode=pack_blocks)
        out: dict = {
            "algebra_dim": self.algebra_dim,
            "module_rank": self.module_rank,
            "operators": [pack(op) for op in self.operators],
        }
        if self.second_operators is not None:
            out["second_operators"] = [pack(op) for op in self.second_operators]
        if self.target_operator is not None:
            out["target_operator"] = pack(self.target_operator)
        if self.aux_operator is not None:
            out["aux_operator"] = pack(self.aux_operator)
        if self.bounds is not None:
            out["bounds"] = encode_bounds(self.bounds)
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FrameSpecFile":
        """Read each field once, naming the first fault in read order; an unknown key is one."""
        if not isinstance(data, dict):
            raise SpecFormatError("top level: expected a JSON object")
        for key in ("algebra_dim", "module_rank", "operators"):
            if key not in data:
                raise SpecFormatError(f"{key}: required field missing")
        dim, rank = (_as_int(data[key], key) for key in ("algebra_dim", "module_rank"))
        operators = _family(data["operators"], dim, rank, "operators")

        def endomorphism(value, path):  # K and aux map A^n to A^n
            op = _operators([value], dim, rank, [path])[0]
            return _same_target(op, rank, path, "module_rank")

        optional = {  # null reads as absent
            "second_operators": lambda value, path: _family(value, dim, rank, path, operators),
            "target_operator": endomorphism,
            "aux_operator": endomorphism,
            "bounds": lambda value, path: _decode_bounds(value, dim, path),
            # The seed records how ``gen`` made the file; no decision reads it.
            "seed": lambda value, path: _as_int(value, path, least=0),
        }
        read = {key: optional[key](data[key], key) for key in optional if data.get(key) is not None}
        _known(data, ("algebra_dim", "module_rank", "operators", *optional), "")
        return cls(dim, rank, operators, **read)

    def to_json(self) -> str:
        """``to_dict`` builds fresh dicts, lists, strings and numbers: no cycle to check."""
        return json.dumps(self.to_dict(), sort_keys=True, check_circular=False) + "\n"


def save_spec(spec: FrameSpecFile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json())


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Decoder:
    """``load_spec``'s cache of the last ``CACHED_TEXTS`` texts' specs, as an
    ``lru_cache`` would keep them, and their decode window: while a text is read,
    ``window`` maps the kept texts' operators by ``_operators``' key and ``read``
    gathers the new text's; outside a read they are empty and None."""

    window, read = {}, None  # outside a read

    def __init__(self):
        self.cache_clear()

    def cache_clear(self) -> None:
        self.kept, self.hits, self.misses = {}, 0, 0  # text -> (spec, its read), last read last

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, CACHED_TEXTS, len(self.kept))

    def __call__(self, raw: bytes) -> FrameSpecFile:
        if raw in self.kept:
            self.hits += 1
            self.kept[raw] = self.kept.pop(raw)
            return self.kept[raw][0]
        self.misses += 1
        self.window = {key: op for _, read in self.kept.values() for key, op in read.items()}
        self.read = read = {}
        try:
            spec = FrameSpecFile.from_dict(json.loads(raw.decode("utf-8")))
        finally:
            self.window, self.read = {}, None
        kept_tuples = {tuple(map(id, ops)): (kept, name) for kept, _ in self.kept.values()
                       for name, ops in (("family", kept.operators),
                                         ("second_family", kept.second_operators)) if ops}
        for name, members in (("family", spec.operators), ("second_family", spec.second_operators)):
            if tuple(map(id, members or ())) in kept_tuples:  # stored as cached_property stores it
                vars(spec)[name] = getattr(*kept_tuples[tuple(map(id, members))])
        ops = [*spec.operators, *(spec.second_operators or ()), spec.target_operator,
               spec.aux_operator]
        bounds = [spec.bounds.lower, spec.bounds.upper] if spec.bounds else []
        for arr in [op.flat for op in ops if op] + bounds:
            arr.flags.writeable = False
        self.kept[raw] = spec, read
        if len(self.kept) > CACHED_TEXTS:
            del self.kept[next(iter(self.kept))]
        return spec


_decode = _Decoder()


def load_spec(path) -> FrameSpecFile:
    """The spec in ``path``, read on every call and decoded unless its bytes are one of
    the last ``CACHED_TEXTS`` read, whose decoded spec it then returns as is."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _decode(raw)
    except ModframesError:  # raised by from_dict, not by json: pass it on
        raise
    except UnicodeDecodeError as exc:
        raise SpecFormatError(f"{path}: not UTF-8 at byte {exc.start}: {exc.reason}") from None
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (RecursionError, ValueError) as exc:  # json's own limits: nesting, integer digits
        raise SpecFormatError(f"{path}: invalid JSON: {exc}") from None


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
    spec = functools.partial(FrameSpecFile, d, n, seed=seed)

    if kind == "tight":
        w, v = family.spectrum
        inv_sqrt = ModuleOperator(d, n, n, (v / np.sqrt(w)[None, :]) @ np.conj(v.T))
        return spec([compose(inv_sqrt, m) for m in members], target_operator=eye,
                    bounds=FrameBounds.scalar(1.0, 1.0, d))
    if kind == "known-bounds":
        k = random_operator(d, n, n, rng)
        alpha, beta = optimal_scalar_bounds(family, k)
        return spec(members, target_operator=k,
                    bounds=FrameBounds.scalar(alpha * (1 - 1e-6), beta * (1 + 1e-6), d))
    if kind == "bessel-only":
        vec = rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)
        vec /= np.linalg.norm(vec)
        proj = ModuleOperator(d, n, n, np.eye(n * d) - np.outer(vec, np.conj(vec)))
        dead = OperatorFamily([compose(proj, m) for m in members])
        return spec(dead.members, target_operator=eye,
                    bounds=FrameBounds.scalar(0.1, dead.bessel_bound * (1 + 1e-6), d))
    if kind == "perturbed-pair":
        alpha, beta = optimal_scalar_bounds(family, eye)
        noise = [random_operator(d, n, m.target_rank, rng, scale=1e-3) for m in members]
        return spec(members, second_operators=[m + e for m, e in zip(members, noise)],
                    target_operator=eye, aux_operator=eye, bounds=FrameBounds.scalar(
                        max(alpha * (1 - 1e-6), 1e-12), beta * (1 + 1e-6), d))
    k = random_operator(d, n, n, rng)  # dual-pair
    dual = canonical_dual(family, k)
    alpha, beta = optimal_scalar_bounds(family, k)
    return spec(members, second_operators=dual.members, target_operator=k,
                bounds=FrameBounds.scalar(max(alpha * (1 - 1e-6), 1e-12), beta * (1 + 1e-6), d))
