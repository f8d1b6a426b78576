"""Operator families and frame-inequality certification.

A family {L_i : A^n -> A^{n_i}} is certified against the two-sided
inequality

    A <K*x, K*x> A*  <=  sum_i <L_i x, L_i x>  <=  B <x, x> B*

with algebra-valued bound elements A, B and target endomorphism K.

``certify`` is one deterministic decision per side; no sampling or search
is involved.  With S_hat the flattened frame operator and M_hat = flat(KK*),
fix a unit v in C^d: then v* gap(X) v = u* S_hat u - w* M_hat w with
u = X* v and w = X* A* v, and X* maps v and A* v independently unless
A* v is parallel to v.  Hence:

* A bound element c*I (any complex c) makes its side the exact PSD test
  S_hat - |c|^2 M_hat >= 0 (lower) or |c|^2 I - S_hat >= 0 (upper).
* A bound element that is not a multiple of I makes its side fail for
  every family, unless the side's Gram matrix (M_hat lower, S_hat upper)
  is zero, in which case the side holds.  The failure is exhibited by the
  best X = v p* + v_perp q* over a fixed set of candidate v; that margin is
  an attained value, so only an upper bound on the infimum, and a side
  whose margin stays within tolerance is reported as inconclusive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import (
    NotCoisometryError,
    NotCommutingError,
    NoInclusionError,
    ShapeMismatchError,
    SpecFormatError,
)
from .module import ModuleVector, module_action, norm
from .module import sample_vectors  # noqa: F401  (public name of this module too)
from .operators import (
    ModuleOperator,
    apply,
    compose,
    douglas_check,
    op_adjoint,
    operator_norm,
    pencil_max,
)


@dataclass
class OperatorFamily:
    """Finite indexed family of adjointable operators with a common source,
    owning its frame operator: ``gram`` and ``spectrum`` are cached."""

    members: list[ModuleOperator]

    def __post_init__(self):
        if not self.members:
            raise ValueError("operator family must be non-empty")
        d = self.members[0].dim
        n = self.members[0].source_rank
        if any(m.dim != d or m.source_rank != n for m in self.members):
            raise ShapeMismatchError("family members must share dim and source rank")

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def source_rank(self) -> int:
        return self.members[0].source_rank

    @property
    def target_ranks(self) -> tuple[int, ...]:
        return tuple(m.target_rank for m in self.members)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def gram(self) -> np.ndarray:
        """Flat frame operator (read-only), built once: members must not change."""
        if "_gram" not in self.__dict__:
            self._gram = frame_operator(self).flat
            self._gram.flags.writeable = False
        return self._gram

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """``(w, v)``, the ``eigh`` of ``gram``'s Hermitian part, computed once."""
        if "_spectrum" not in self.__dict__:
            self._spectrum = np.linalg.eigh(algebra.hermitian_part(self.gram))
        return self._spectrum

    @property
    def bessel_bound(self) -> float:
        """The optimal Bessel (upper) scalar beta: sqrt of the largest eigenvalue of S."""
        return math.sqrt(max(float(self.spectrum[0][-1]), 0.0))


@dataclass
class FrameBounds:
    """Bound pair (lower, upper); in scalar mode both are multiples of I."""

    lower: np.ndarray
    upper: np.ndarray
    mode: str = "algebra"

    def __post_init__(self):
        self.lower = algebra.as_element(self.lower)
        self.upper = algebra.as_element(self.upper)
        if self.lower.shape != self.upper.shape:
            raise ShapeMismatchError("bound elements must share the algebra dimension")
        if self.mode not in ("scalar", "algebra"):
            raise ValueError(f"unknown bounds mode {self.mode!r}")
        if self.mode == "scalar":
            d = self.lower.shape[0]
            for name, el in (("lower", self.lower), ("upper", self.upper)):
                s = el[0, 0]
                if (
                    s.imag != 0
                    or s.real <= 0
                    or not math.isfinite(s.real)
                    or not np.array_equal(el, s.real * np.eye(d))
                ):
                    raise ValueError(
                        f"scalar-mode {name} bound must be a finite positive multiple of I"
                    )

    @classmethod
    def scalar(cls, alpha: float, beta: float, dim: int) -> "FrameBounds":
        eye = np.eye(dim, dtype=np.complex128)
        return cls(lower=alpha * eye, upper=beta * eye, mode="scalar")

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    @property
    def alpha(self) -> float:
        if self.mode != "scalar":
            raise ValueError("alpha is only defined for scalar bounds")
        return float(self.lower[0, 0].real)

    @property
    def beta(self) -> float:
        if self.mode != "scalar":
            raise ValueError("beta is only defined for scalar bounds")
        return float(self.upper[0, 0].real)


def is_tight(bounds: FrameBounds, tol: float = 1e-12) -> bool:
    """Both bound elements coincide."""
    return algebra.opnorm(bounds.lower - bounds.upper) <= tol


def is_normalized(bounds: FrameBounds, tol: float = 1e-12) -> bool:
    """Both bound elements equal the identity."""
    eye = np.eye(bounds.dim)
    return (
        algebra.opnorm(bounds.lower - eye) <= tol and algebra.opnorm(bounds.upper - eye) <= tol
    )


@dataclass
class FrameCertificate:
    """Outcome of ``certify``.

    ``gap_kinds`` labels (lower, upper) margins: ``exact`` is the smallest
    eigenvalue of the side's PSD test (or the exact infimum 0 of a side whose
    Gram matrix vanishes); ``upper_bound`` is a value attained at a unit
    Frobenius-norm X, so the true infimum of the gap lies at or below it.
    """

    verdict: str  # certified | falsified | inconclusive
    bounds: FrameBounds
    witness: ModuleVector | None
    min_gap_lower: float
    min_gap_upper: float
    mode: str  # exact (both bounds c*I) | structural
    gap_kinds: tuple[str, str]


def analysis_operator(F: OperatorFamily) -> ModuleOperator:
    """T: x -> {L_i x}, the block concatenation into the direct sum."""
    flat = np.hstack([m.flat for m in F.members])
    return ModuleOperator(F.dim, F.source_rank, sum(F.target_ranks), flat)


def synthesis_operator(F: OperatorFamily) -> ModuleOperator:
    """T*: {x_i} -> sum_i L_i* x_i."""
    return op_adjoint(analysis_operator(F))


def frame_operator(F: OperatorFamily) -> ModuleOperator:
    """S = T*T as an endomorphism; flattened it is sum_i flat(L_i) flat(L_i)*."""
    t = analysis_operator(F)
    return compose(t, op_adjoint(t))


def _target_gram(K: ModuleOperator) -> np.ndarray:
    """Flat of KK* (the composite x -> K(K* x)): flat(K)^H flat(K)."""
    return np.conj(K.flat.T) @ K.flat


def _check_certify_inputs(
    F: OperatorFamily, K: ModuleOperator, bounds: FrameBounds
) -> tuple[float | None, float | None]:
    """Check the shapes, and that each bound element is strictly nonzero;
    return each element's ``_scalar_modulus``.  An exact c*I needs only
    c != 0 (its condition number is 1); any other element needs its SVD."""
    if K.dim != F.dim or not K.is_endomorphism() or K.source_rank != F.source_rank:
        raise ShapeMismatchError("target operator must be an endomorphism of the family's source")
    if bounds.dim != F.dim:
        raise ShapeMismatchError("bound elements must live in the family's algebra")
    moduli = []
    for name, el in (("lower", bounds.lower), ("upper", bounds.upper)):
        mod = _scalar_modulus(el)
        if mod == 0.0 or (mod is None and not algebra.is_strictly_nonzero(el)):
            raise SpecFormatError(f"bounds.{name}: not strictly nonzero (not safely invertible)")
        moduli.append(mod)
    return moduli[0], moduli[1]


def _scalar_modulus(el: np.ndarray) -> float | None:
    """|c| when the element is exactly c*I for a complex c, else None."""
    c = el[0, 0]
    return float(abs(c)) if np.array_equal(el, c * np.eye(el.shape[0])) else None


def _candidate_vectors(d: int) -> np.ndarray:
    """Rows e_j and (e_i + e_j)/sqrt(2), i < j."""
    eye = np.eye(d, dtype=np.complex128)
    pairs = [(eye[i] + eye[j]) / math.sqrt(2) for i, j in itertools.combinations(range(d), 2)]
    return np.vstack([eye, *pairs])


def _structural_side(c1, p, c2, q) -> tuple[float, ModuleVector | None, str]:
    """Margin of the side gap(X) = C1 X P X* C1* - C2 X Q X* C2* when one of
    C1, C2 is a bound element that is not a multiple of I.

    For a unit v, v* gap(X) v = |X* C1* v|_P^2 - |X* C2* v|_Q^2.  With
    [C1* v, C2* v] = basis R (reduced QR), X = basis [p, q]* has unit
    Frobenius norm when z = [p; q] does, and v* gap(X) v = z* H z for
    H = conj(r1) r1^T (x) P - conj(r2) r2^T (x) Q, r_j the columns of R.
    The smallest eigenvalue of H over the candidate v is the margin: one
    batched ``eigvalsh`` picks the candidate, and one ``eigh`` of its H gives
    the margin and the witness.
    """
    if not np.any(q):
        return 0.0, None, "exact"
    d, nd = c1.shape[0], p.shape[0]
    vs = _candidate_vectors(d)
    basis, r = np.linalg.qr(np.stack([vs @ np.conj(c1), vs @ np.conj(c2)], axis=2))
    r1, r2 = r[:, :, 0], r[:, :, 1]
    h = np.einsum("ki,kj,ab->kiajb", np.conj(r1), r1, p) - np.einsum(
        "ki,kj,ab->kiajb", np.conj(r2), r2, q
    )
    h = h.reshape(len(vs), 2 * nd, 2 * nd)
    best = int(np.argmin(np.linalg.eigvalsh(h)[:, 0]))
    w, z = np.linalg.eigh(h[best])
    flat = basis[best] @ np.conj(z[:, 0].reshape(2, nd))
    return float(w[0]), ModuleVector(d, nd // d, flat), "upper_bound"


def certify(
    F: OperatorFamily, K: ModuleOperator, bounds: FrameBounds, tol: float = algebra.DEFAULT_TOL
) -> FrameCertificate:
    """Decide the two-sided frame inequality for (F, K, bounds).

    Each side is the exact PSD test when its bound element is c*I, and the
    structural rule otherwise (see the module docstring).  The verdict is
    ``falsified`` when a margin is below ``-algebra.threshold(tol)``, which is
    ``-tol`` (the witness comes from the side with the lower margin),
    ``inconclusive`` when a structural side with a nonzero Gram matrix stays
    within tolerance, and ``certified`` otherwise.
    """
    a_mod, b_mod = _check_certify_inputs(F, K, bounds)
    s_hat = F.gram
    m_hat = _target_gram(K)
    d, n = F.dim, F.source_rank
    eye_d = np.eye(d, dtype=np.complex128)

    # b^2 I - S_hat is smallest along the top eigenvector of the cached spectrum.
    if a_mod is not None:
        w, v = np.linalg.eigh(algebra.hermitian_part(s_hat - a_mod**2 * m_hat))
        lower = (float(w[0]), ModuleVector.rank_one(d, v[:, 0]), "exact")
    else:
        lower = _structural_side(eye_d, s_hat, bounds.lower, m_hat)
    if b_mod is not None:
        w, v = F.spectrum
        upper = (b_mod**2 - float(w[-1]), ModuleVector.rank_one(d, v[:, -1]), "exact")
    else:
        upper = _structural_side(bounds.upper, np.eye(n * d), eye_d, s_hat)

    gap_lower, gap_upper = lower[0], upper[0]
    kinds = (lower[2], upper[2])
    witness = None
    if min(gap_lower, gap_upper) < -algebra.threshold(tol):
        verdict = "falsified"
        witness = lower[1] if gap_lower <= gap_upper else upper[1]
    elif "upper_bound" in kinds:
        verdict = "inconclusive"
    else:
        verdict = "certified"
    return FrameCertificate(
        verdict=verdict,
        bounds=bounds,
        witness=witness,
        min_gap_lower=gap_lower,
        min_gap_upper=gap_upper,
        mode="exact" if a_mod is not None and b_mod is not None else "structural",
        gap_kinds=kinds,
    )


def gap_matrices(
    F: OperatorFamily, K: ModuleOperator, bounds: FrameBounds, x: ModuleVector
) -> tuple[np.ndarray, np.ndarray]:
    """The algebra-valued lower/upper gaps at a single vector.

    Used to re-validate falsification witnesses independently of the
    decision in ``certify``.
    """
    m_hat = _target_gram(K)
    xs = x.flat @ F.gram @ np.conj(x.flat.T)
    xm = x.flat @ m_hat @ np.conj(x.flat.T)
    xx = x.flat @ np.conj(x.flat.T)
    a, b = bounds.lower, bounds.upper
    g_lo = xs - a @ xm @ np.conj(a.T)
    g_up = b @ xx @ np.conj(b.T) - xs
    return g_lo, g_up


def optimal_scalar_bounds(F: OperatorFamily, K: ModuleOperator) -> tuple[float, float]:
    """Extremal scalars (alpha, beta) making exact certification pass.

    alpha^2 = 1 / pencil_max(flat(KK*), S_hat) with S_hat the flattened frame
    operator (inf when K vanishes, 0 when flat(KK*) reaches the kernel of
    S_hat); beta^2 is the frame operator's largest eigenvalue
    (``F.bessel_bound``).  Both read the family's cached ``spectrum``.
    """
    lam = pencil_max(_target_gram(K), F.spectrum)[0]
    return (math.inf if lam == 0.0 else math.sqrt(1.0 / lam)), F.bessel_bound


@dataclass
class NormBoundReport:
    """Worst margins of the scalar-norm sandwich over a sample set."""

    worst_lower_margin: float
    worst_upper_margin: float
    worst_lower_index: int
    worst_upper_index: int
    samples_used: int


def norm_bound_check(
    F: OperatorFamily,
    K: ModuleOperator,
    bounds: FrameBounds,
    samples: list[ModuleVector],
) -> NormBoundReport:
    """Evaluate ||A K* f||^2 <= ||sum_i <L_i f, L_i f>|| <= ||B f||^2 per sample.

    This is the necessary scalar-norm condition of the frame inequality;
    margins below zero disprove the corresponding bound.  For scalar bounds
    it holds for every f exactly when the PSD pair ``certify`` decides holds,
    so the pipelines call ``certify`` instead.
    """
    if not samples:
        raise ValueError("norm_bound_check needs at least one sample")
    k_adj = op_adjoint(K)
    worst_lo, worst_up = math.inf, math.inf
    idx_lo = idx_up = 0
    for i, f in enumerate(samples):
        mid = float(np.linalg.norm(f.flat @ F.gram @ np.conj(f.flat.T), 2))
        left_vec = module_action(bounds.lower, apply(k_adj, f))
        left = norm(left_vec) ** 2
        right = norm(module_action(bounds.upper, f)) ** 2
        lo = mid - left
        up = right - mid
        if lo < worst_lo:
            worst_lo, idx_lo = lo, i
        if up < worst_up:
            worst_up, idx_up = up, i
    return NormBoundReport(
        worst_lower_margin=worst_lo,
        worst_upper_margin=worst_up,
        worst_lower_index=idx_lo,
        worst_upper_index=idx_up,
        samples_used=len(samples),
    )


def transform_coisometry(
    F: OperatorFamily, K: ModuleOperator, U: ModuleOperator, tol: float = algebra.DEFAULT_TOL
) -> OperatorFamily:
    """Family {L_i U*} for a co-isometry U commuting with K.

    The transform preserves the frame inequality with the same bounds, since
    <K* U* f, K* U* f> = <U* K* f, U* K* f> = <K* f, K* f>.
    """
    if U.dim != F.dim or not U.is_endomorphism() or U.source_rank != F.source_rank:
        raise ShapeMismatchError("U must be an endomorphism of the family's source")
    eye = np.eye(U.source_rank * U.dim)
    # UU* = id: the composite x -> U(U* x) flattens to flat(U)^H flat(U).
    if float(np.linalg.norm(np.conj(U.flat.T) @ U.flat - eye, 2)) > tol:
        raise NotCoisometryError("U U* differs from the identity beyond tolerance")
    comm = float(np.linalg.norm(U.flat @ K.flat - K.flat @ U.flat, 2))
    if comm > tol * (1.0 + operator_norm(K) * operator_norm(U)):
        raise NotCommutingError(f"KU - UK has norm {comm:.3e}")
    u_adj = op_adjoint(U)
    return OperatorFamily([compose(u_adj, m) for m in F.members])


@dataclass
class PrecomposedFrame:
    """Result of the precompose transform: family {L_i (L*)^p}, the shifted
    target L^p K, and the rescaled bounds (A, B ||L||^p)."""

    family: OperatorFamily
    target: ModuleOperator
    bounds: FrameBounds


def transform_precompose(
    F: OperatorFamily,
    K: ModuleOperator,
    L: ModuleOperator,
    bounds: FrameBounds,
    power: int = 1,
) -> PrecomposedFrame:
    """Precompose every member with (L*)^power; the result is a frame for
    the target L^power K with upper bound scaled by ||L||^power."""
    if L.dim != F.dim or not L.is_endomorphism() or L.source_rank != F.source_rank:
        raise ShapeMismatchError("L must be an endomorphism of the family's source")
    if power < 1:
        raise ValueError("power must be a positive integer")
    l_adj_pow = np.linalg.matrix_power(np.conj(L.flat.T), power)
    members = [
        ModuleOperator(m.dim, m.source_rank, m.target_rank, l_adj_pow @ m.flat)
        for m in F.members
    ]
    target_flat = K.flat @ np.linalg.matrix_power(L.flat, power)
    target = ModuleOperator(K.dim, K.source_rank, K.target_rank, target_flat)
    scale = operator_norm(L) ** power
    new_bounds = FrameBounds(
        lower=bounds.lower.copy(), upper=bounds.upper * scale, mode=bounds.mode
    )
    return PrecomposedFrame(family=OperatorFamily(members), target=target, bounds=new_bounds)


def range_transfer_check(
    F: OperatorFamily,
    K: ModuleOperator,
    L: ModuleOperator,
    bounds: FrameBounds,
    tol: float = algebra.DEFAULT_TOL,
) -> FrameCertificate:
    """Re-certify a K-frame as an L-frame when range(L) is inside range(K).

    The majorization constant lambda with LL* <= lambda^2 KK* converts the
    lower bound: A <K*f, K*f> A* >= (A/lambda) <L*f, L*f> (A/lambda)*, so the
    family is certified against L with lower bound A/lambda.  A vanishing
    lambda (L = 0) makes the lower inequality vacuous and the original bound
    is kept.  ``tol`` is passed to ``certify``.
    """
    report = douglas_check(L, K)
    if not report.range_included:
        raise NoInclusionError("range(L) is not contained in range(K)")
    lam = report.lambda_min or 0.0
    if lam > 0.0:
        new_lower = bounds.lower / lam
    else:
        new_lower = bounds.lower.copy()
    new_bounds = FrameBounds(lower=new_lower, upper=bounds.upper.copy(), mode=bounds.mode)
    return certify(F, L, new_bounds, tol)
