"""Adjointable operators between free modules A^n -> A^m.

Because the modules are left modules, operators act by right multiplication
with an n x m block matrix over A.  Flattened, an operator is an ordinary
(n*d) x (m*d) complex matrix T acting on flattened vectors as X -> X T, the
adjoint is the conjugate transpose, and composition is the matrix product.
Every operation here (pseudoinverse, range-inclusion tests, the
majorization/factorization equivalence, the pencil extremum) is therefore
plain dense linear algebra on the flattened matrices.

``pencil_max`` is the only pencil routine, so the optimal lower frame bound,
the perturbation constant and the minimal dual share its kernel rule
(``algebra.range_mask``, ``kernel_reach``: reach is per direction and allows
for ``eigh``'s backward error, so every range lies in itself, at the cut
too).  It takes s as its ``eigh``, a frame operator's cached
``OperatorFamily.spectrum``; ``pencil_alpha_flat`` is the entry for a raw
matrix s.  ``douglas_check`` decides range inclusion by the same rule, on the
``eigh`` of l* l that one SVD of l gives, and ``pseudoinverse`` keeps its cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import DEFAULT_TOL, KERNEL_RTOL, range_mask
from .errors import NotPositiveError, ShapeMismatchError
from .module import ModuleVector


@dataclass
class ModuleOperator:
    """Adjointable A-linear map A^source_rank -> A^target_rank.

    ``flat`` is the (source_rank*d) x (target_rank*d) block matrix; the
    action on a flattened vector X (a d x (source_rank*d) block row) is
    X @ flat.
    """

    dim: int
    source_rank: int
    target_rank: int
    flat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.flat = np.ascontiguousarray(self.flat, dtype=np.complex128)
        expected = (self.source_rank * self.dim, self.target_rank * self.dim)
        if self.flat.shape != expected:
            raise ShapeMismatchError(
                f"operator flat has shape {self.flat.shape}, expected {expected}"
            )

    @classmethod
    def identity(cls, dim: int, rank: int) -> "ModuleOperator":
        return cls(dim, rank, rank, np.eye(rank * dim, dtype=np.complex128))

    @classmethod
    def zero(cls, dim: int, source_rank: int, target_rank: int) -> "ModuleOperator":
        return cls(
            dim,
            source_rank,
            target_rank,
            np.zeros((source_rank * dim, target_rank * dim), dtype=np.complex128),
        )

    def block(self, i: int, j: int) -> np.ndarray:
        d = self.dim
        return self.flat[i * d : (i + 1) * d, j * d : (j + 1) * d].copy()

    def is_endomorphism(self) -> bool:
        return self.source_rank == self.target_rank

    def __add__(self, other: "ModuleOperator") -> "ModuleOperator":
        _check_same_shape(self, other)
        return ModuleOperator(self.dim, self.source_rank, self.target_rank, self.flat + other.flat)

    def __sub__(self, other: "ModuleOperator") -> "ModuleOperator":
        _check_same_shape(self, other)
        return ModuleOperator(self.dim, self.source_rank, self.target_rank, self.flat - other.flat)

    def __mul__(self, scalar: complex) -> "ModuleOperator":
        return ModuleOperator(self.dim, self.source_rank, self.target_rank, self.flat * scalar)

    __rmul__ = __mul__


def _check_same_shape(a: ModuleOperator, b: ModuleOperator) -> None:
    if (a.dim, a.source_rank, a.target_rank) != (b.dim, b.source_rank, b.target_rank):
        raise ShapeMismatchError("operators have different shapes")


def apply(T: ModuleOperator, x: ModuleVector) -> ModuleVector:
    """Right-multiplication action: equals flatten(x) @ flatten(T)."""
    if x.dim != T.dim or x.rank != T.source_rank:
        raise ShapeMismatchError(
            f"cannot apply (d={T.dim}, {T.source_rank}->{T.target_rank}) operator "
            f"to vector (d={x.dim}, n={x.rank})"
        )
    return ModuleVector(T.dim, T.target_rank, x.flat @ T.flat)


def op_adjoint(T: ModuleOperator) -> ModuleOperator:
    """Adjoint operator; blockwise (T*)_{ji} = (t_{ij})*, i.e. the conjugate
    transpose of the flattened matrix."""
    return ModuleOperator(T.dim, T.target_rank, T.source_rank, np.conj(T.flat.T))


def compose(T: ModuleOperator, S: ModuleOperator) -> ModuleOperator:
    """Composite x -> S(T(x)); flattened, the matrix product flat(T) @ flat(S)."""
    if T.dim != S.dim or T.target_rank != S.source_rank:
        raise ShapeMismatchError(
            f"cannot compose {T.source_rank}->{T.target_rank} with "
            f"{S.source_rank}->{S.target_rank}"
        )
    return ModuleOperator(T.dim, T.source_rank, S.target_rank, T.flat @ S.flat)


def flatten(T: ModuleOperator) -> np.ndarray:
    return T.flat.copy()


def unflatten(mat: np.ndarray, dim: int, source_rank: int, target_rank: int) -> ModuleOperator:
    return ModuleOperator(dim, source_rank, target_rank, mat)


def operator_norm(T: ModuleOperator) -> float:
    return float(np.linalg.norm(T.flat, 2))


def pseudoinverse(T: ModuleOperator) -> ModuleOperator:
    """Moore-Penrose pseudoinverse of the flattened matrix, keeping the singular
    values ``douglas_check`` keeps (sigma^2 > ``KERNEL_RTOL`` sigma_max^2)."""
    u, s, vh = np.linalg.svd(T.flat, full_matrices=False)
    r = int(np.sum(range_mask(s[::-1] ** 2)))  # s descends, so the kept values lead
    pinv = (np.conj(vh[:r].T) / s[:r]) @ np.conj(u[:, :r].T)
    return ModuleOperator(T.dim, T.target_rank, T.source_rank, pinv)


def random_operator(
    dim: int, source_rank: int, target_rank: int, rng: np.random.Generator, scale: float = 1.0
) -> ModuleOperator:
    """Operator with independent standard complex Gaussian block entries."""
    shape = (source_rank * dim, target_rank * dim)
    flat = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
    return ModuleOperator(dim, source_rank, target_rank, flat)


@dataclass
class DouglasReport:
    """Verdict on R(K) in R(L) <=> KK* <= lambda^2 LL* <=> K = LD (common target).

    ``lambda_min`` is the smallest lambda >= 0 with KK* <= lambda^2 LL*,
    computed on the range of L only; ``factor`` is the minimal-norm D with
    K = LD and ``residual`` the flattened operator norm of K - LD.  Without
    inclusion both are None and ``witness`` is a rank-one X with L*X ~ 0
    and K*X != 0; with inclusion it is None.
    """

    range_included: bool
    lambda_min: float | None
    factor: ModuleOperator | None
    residual: float
    witness: ModuleVector | None = None


def douglas_check(K: ModuleOperator, L: ModuleOperator) -> DouglasReport:
    """Decide R(K) subseteq R(L) from one SVD l = U S Vh of flat(L).

    The padded, reversed S**2 and V are the ascending ``eigh`` of l* l, so
    the verdict is the kernel rule's: K is included unless k* k reaches the
    kernel of l* l (``kernel_reach``), whose direction x is the witness.
    On the kept columns, c = k V1 S1^{-1} gives lambda = ||c|| and the
    factor D = c U1*, with D l = k V1 V1*.
    """
    if K.dim != L.dim or K.target_rank != L.target_rank:
        raise ShapeMismatchError("douglas_check needs a common target space")
    k = K.flat
    u, s, vh = np.linalg.svd(L.flat, full_matrices=True)
    w = np.zeros(len(vh))
    w[: len(s)] = s**2
    x = kernel_reach(np.conj(k.T) @ k, (w[::-1], np.conj(vh[::-1].T)))
    r = int(np.sum(range_mask(w[::-1])))  # s descends, so the kept columns lead
    c = k @ np.conj(vh[:r].T) / s[:r]
    lam = float(np.linalg.norm(c, 2)) if r else 0.0
    d_flat = c @ np.conj(u[:, :r].T)
    residual = float(np.linalg.norm(k - d_flat @ L.flat, 2))
    if x is not None:
        return DouglasReport(False, None, None, residual, ModuleVector.rank_one(K.dim, x))
    factor = ModuleOperator(K.dim, K.source_rank, L.source_rank, d_flat)
    return DouglasReport(range_included=True, lambda_min=lam, factor=factor, residual=residual)


def kernel_reach(p: np.ndarray, spectrum: tuple) -> np.ndarray | None:
    """The kernel rule's test for Hermitian PSD p and s = ``spectrum`` (its ``eigh``):
    None unless p reaches s's kernel V0, else the kernel direction where p is largest.
    p reaches V0 when the top eigenvalue of V0* p V0 exceeds (``KERNEL_RTOL`` +
    len(p) eps) tr(p), the second term ``eigh``'s backward error, so s never
    reaches its own, at the cut too; the trace, which bounds it, filters first."""
    w, v = spectrum
    v0 = v[:, ~range_mask(w)]
    p0 = np.conj(v0.T) @ p @ v0
    cut = (KERNEL_RTOL + len(p) * np.finfo(np.float64).eps) * float(np.trace(p).real)
    if float(np.trace(p0).real) <= cut:
        return None
    lam, y = np.linalg.eigh(algebra.hermitian_part(p0))
    return v0 @ y[:, -1] if lam[-1] > cut else None


def pencil_max(p: np.ndarray, spectrum: tuple[np.ndarray, np.ndarray]) -> tuple[float, np.ndarray]:
    """lambda_max(p, s) = sup_x x* p x / x* s x for PSD p, s, with a maximiser x.

    ``spectrum`` is ``(w, v) = eigh`` of s's Hermitian part.  The one kernel
    rule: s splits along ``range_mask(w)``.  When p reaches the kernel the
    supremum is ``inf`` and x is ``kernel_reach``'s direction; otherwise it
    is the largest eigenvalue of p whitened on the range of s.
    A zero p gives 0 with x = e_1.  Whitening amplifies eigh's residual, so
    the result carries relative error up to about nd eps cond(s on its kept
    range): near 1e-4 when an eigenvalue of s sits just above the cut.
    """
    p = algebra.hermitian_part(p)
    if not np.any(p):
        return 0.0, np.eye(len(p))[0]
    x = kernel_reach(p, spectrum)
    if x is not None:
        return math.inf, x
    w, v = spectrum
    keep = range_mask(w)
    whiten = v[:, keep] / np.sqrt(w[keep])[None, :]
    lam, y = np.linalg.eigh(algebra.hermitian_part(np.conj(whiten.T) @ p @ whiten))
    return max(float(lam[-1]), 0.0), whiten @ y[:, -1]


def pencil_alpha_flat(p: np.ndarray, s: np.ndarray) -> float:
    """Largest alpha >= 0 with alpha*p <= s in Loewner order, for PSD p, s.

    The raw-matrix entry: 1 / ``pencil_max`` on s's own ``eigh``, ``inf``
    when p is zero and 0 when p reaches the kernel of s.
    """
    lam = pencil_max(p, np.linalg.eigh(algebra.hermitian_part(s)))[0]
    return math.inf if lam == 0.0 else 1.0 / lam


def operator_pencil_alpha(P: ModuleOperator, S: ModuleOperator, tol: float = DEFAULT_TOL) -> float:
    """Pencil extremum for self-adjoint positive module endomorphisms.

    ``tol`` only validates the operands (self-adjoint and positive within
    ``tol * (1 + ||op||)``); the extremum itself is ``pencil_alpha_flat``.
    """
    if (P.dim, P.source_rank, P.target_rank) != (S.dim, S.source_rank, S.target_rank):
        raise ShapeMismatchError("pencil operands must share one space")
    for name, op in (("P", P), ("S", S)):
        if not op.is_endomorphism():
            raise ShapeMismatchError(f"{name} must be an endomorphism")
        verdict = algebra.is_positive(op.flat, tol)
        if not verdict.is_hermitian:
            raise NotPositiveError(f"{name} is not self-adjoint")
        if not verdict.is_positive:
            raise NotPositiveError(f"{name} is not positive")
    return pencil_alpha_flat(P.flat, S.flat)
