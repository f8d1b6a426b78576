"""Adjointable operators between free modules A^n -> A^m.

Because the modules are left modules, operators act by right multiplication
with an n x m block matrix over A.  Flattened, an operator is an ordinary
(n*d) x (m*d) complex matrix T acting on flattened vectors as X -> X T, the
adjoint is the conjugate transpose, and composition is the matrix product.
Every operation here (pseudoinverse, range-inclusion tests, the
majorization/factorization equivalence, the pencil extremum) is therefore
plain dense linear algebra on the flattened matrices.

``pencil_max`` is the only pencil routine: the optimal lower frame bound
(``pencil_alpha_flat``) and the perturbation constant both come from it,
so both follow its one kernel rule, a split of s at ``KERNEL_RTOL``
relative to its largest eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .errors import NotPositiveError, ShapeMismatchError, ToleranceConflictError
from .module import ModuleVector

DOUGLAS_TOL = 1e-8


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
    def from_blocks(cls, blocks) -> "ModuleOperator":
        """Assemble from an n x m nest of d x d algebra elements."""
        rows = [[algebra.as_element(b) for b in row] for row in blocks]
        if not rows or not rows[0]:
            raise ValueError("operator needs at least one block")
        d = rows[0][0].shape[0]
        m = len(rows[0])
        if any(len(row) != m for row in rows) or any(
            b.shape != (d, d) for row in rows for b in row
        ):
            raise ShapeMismatchError("ragged or mixed-dimension block structure")
        return cls(dim=d, source_rank=len(rows), target_rank=m, flat=np.block(rows))

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


def pseudoinverse(T: ModuleOperator, rank_tol: float = 1e-12) -> ModuleOperator:
    """Moore-Penrose pseudoinverse on the flattened matrix.

    Singular values below ``rank_tol`` times the largest are treated as zero.
    """
    pinv = np.linalg.pinv(T.flat, rcond=rank_tol)
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
    """Joint verdict of the range-inclusion / majorization / factorization
    equivalence for a pair (K, L) with common target.

    ``lambda_min`` is the smallest lambda >= 0 with KK* <= lambda^2 LL*,
    computed on the range of L only; ``factor`` is the minimal-norm D with
    K = LD and ``residual`` the flattened operator norm of K - LD.  The
    three criteria are evaluated independently and must agree.
    """

    range_included: bool
    lambda_min: float | None
    factor: ModuleOperator | None
    residual: float


def douglas_check(K: ModuleOperator, L: ModuleOperator, tol: float = DOUGLAS_TOL) -> DouglasReport:
    """Check R(K) subseteq R(L) three independent ways and cross-validate.

    (a) rank comparison of flat(L) against the row-augmented [flat(L); flat(K)];
    (b) existence of the majorization constant: lambda = largest singular
        value of flat(K) restricted to the row space of flat(L), confirmed by
        a PSD test of lambda^2 L L* - K K* in flattened form;
    (c) factorization: D = K pinv(L) with residual ||K - D L||.

    Raises ``ToleranceConflictError`` if the verdicts disagree; disagreement
    is surfaced, never reconciled.
    """
    if K.dim != L.dim or K.target_rank != L.target_rank:
        raise ShapeMismatchError("douglas_check needs a common target space")
    k = K.flat
    l = L.flat

    stacked = np.vstack([l, k])
    sig_stack = np.linalg.svd(stacked, compute_uv=False)
    smax = sig_stack[0] if sig_stack.size else 0.0
    cut = tol * max(smax, 1.0)
    # One SVD of l gives both its rank and, with l = U S Vh, the admissible
    # directions of the majorization constant: the leading right singular
    # vectors, where ||k v|| / ||l v|| reduces to the norm of k V1 S1^{-1}.
    _, s_l, vh_l = np.linalg.svd(l, full_matrices=False)
    mask = s_l > cut
    rank_l = int(np.sum(mask))
    rank_stack = int(np.sum(sig_stack > cut))
    v_rank = rank_stack == rank_l

    norm_k = float(np.linalg.norm(k, 2))
    if np.any(mask):
        v1 = np.conj(vh_l[mask].T)
        lam = float(np.linalg.norm(k @ v1 / s_l[mask][None, :], 2))
    else:
        lam = 0.0
    major_gap = float(
        np.linalg.eigvalsh(algebra.hermitian_part(lam**2 * np.conj(l.T) @ l - np.conj(k.T) @ k))[0]
    )
    v_major = major_gap >= -tol * (1.0 + norm_k**2)

    d_flat = k @ np.linalg.pinv(l, rcond=tol)
    residual = float(np.linalg.norm(k - d_flat @ l, 2))
    v_factor = residual <= tol * (1.0 + norm_k)

    if not (v_rank == v_major == v_factor):
        raise ToleranceConflictError(
            "range-inclusion criteria disagree",
            details={
                "rank": v_rank,
                "majorization": v_major,
                "factorization": v_factor,
                "lambda": lam,
                "majorization_gap": major_gap,
                "residual": residual,
            },
        )

    if not v_rank:
        return DouglasReport(range_included=False, lambda_min=None, factor=None, residual=residual)
    factor = ModuleOperator(K.dim, K.source_rank, L.source_rank, d_flat)
    return DouglasReport(range_included=True, lambda_min=lam, factor=factor, residual=residual)


# Eigenvalues of s below this multiple of its largest one span its kernel;
# p reaches that kernel when its trace there exceeds this multiple of its
# whole trace.
KERNEL_RTOL = 1e-12


def pencil_max(p: np.ndarray, s: np.ndarray) -> tuple[float, np.ndarray]:
    """lambda_max(p, s) = sup_x x* p x / x* s x for PSD p, s, with a maximiser x.

    The one kernel rule: s splits along its kernel (eigenvalues below
    ``KERNEL_RTOL`` times its largest).  When p reaches that kernel the
    supremum is ``inf`` and x is the kernel direction where p is largest;
    otherwise it is the largest eigenvalue of p whitened on the range of s.
    A zero p gives 0 with x = e_1.
    """
    p = algebra.hermitian_part(p)
    if not np.any(p):
        return 0.0, np.eye(len(p))[0]
    w, v = np.linalg.eigh(algebra.hermitian_part(s))
    keep = w > KERNEL_RTOL * max(float(w[-1]), 0.0)
    v0 = v[:, ~keep]
    p0 = np.conj(v0.T) @ p @ v0
    if float(np.trace(p0).real) > KERNEL_RTOL * float(np.trace(p).real):
        _, y = np.linalg.eigh(algebra.hermitian_part(p0))
        return math.inf, v0 @ y[:, -1]
    whiten = v[:, keep] / np.sqrt(w[keep])[None, :]
    lam, y = np.linalg.eigh(algebra.hermitian_part(np.conj(whiten.T) @ p @ whiten))
    return max(float(lam[-1]), 0.0), whiten @ y[:, -1]


def pencil_alpha_flat(p: np.ndarray, s: np.ndarray) -> float:
    """Largest alpha >= 0 with alpha*p <= s in Loewner order, for PSD p, s.

    This is 1 / ``pencil_max(p, s)``: ``inf`` when p is zero and 0 when p
    reaches the kernel of s.
    """
    lam = pencil_max(p, s)[0]
    return math.inf if lam == 0.0 else 1.0 / lam


def operator_pencil_alpha(P: ModuleOperator, S: ModuleOperator, tol: float = 1e-9) -> float:
    """Pencil extremum for self-adjoint positive module endomorphisms.

    ``tol`` only validates the operands (self-adjoint and positive within
    ``tol * (1 + ||op||)``); the extremum itself is ``pencil_alpha_flat``.
    """
    if (P.dim, P.source_rank, P.target_rank) != (S.dim, S.source_rank, S.target_rank):
        raise ShapeMismatchError("pencil operands must share one space")
    for name, op in (("P", P), ("S", S)):
        if not op.is_endomorphism():
            raise ShapeMismatchError(f"{name} must be an endomorphism")
        nrm = operator_norm(op)
        if float(np.linalg.norm(op.flat - np.conj(op.flat.T), 2)) > tol * (1.0 + nrm):
            raise NotPositiveError(f"{name} is not self-adjoint")
        if float(np.linalg.eigvalsh(algebra.hermitian_part(op.flat))[0]) < -tol * (1.0 + nrm):
            raise NotPositiveError(f"{name} is not positive")
    return pencil_alpha_flat(P.flat, S.flat)
