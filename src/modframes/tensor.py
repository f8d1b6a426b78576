"""Tensor products of module vectors, operators, families, and dual pairs.

The tensor product of modules over M_{d1} and M_{d2} is realized concretely
over M_{d1*d2} via the Kronecker isomorphism: block (i, j) of x (x) y is the
matrix Kronecker product x_i (x) y_j, ordered lexicographically with the
first factor outermost.  Flattened, everything is an index permutation of
ordinary Kronecker products: columns regroup from (block1, col1, block2,
col2) to (block1, block2, col1, col2), and operator rows likewise.

``kron_family`` and ``tensor_dual_check`` build the product members, and
serve as the materialized form.  ``nfold_tensor_dual`` never does: the
permutations cancel in every quantity the duality check needs, so it
decides the n-fold product from the factors' reconstruction operators, by
a certified upper bound, the exact residual up to ``DENSE_LIMIT`` rows,
and matrix-free power steps above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import DEFAULT_TOL, threshold
from .duals import DualPair, verify_dual
from .errors import HypothesisFailedError
from .frames import OperatorFamily
from .module import ModuleVector
from .operators import ModuleOperator, operator_norm


@dataclass(frozen=True)
class TensorSpace:
    """Composite module descriptor; dim and rank multiply over the factors."""

    factor_dims: tuple[int, ...]
    factor_ranks: tuple[int, ...]

    def __post_init__(self):
        if len(self.factor_dims) != len(self.factor_ranks) or not self.factor_dims:
            raise ValueError("need matching, non-empty factor dims and ranks")

    @property
    def dim(self) -> int:
        return int(np.prod(self.factor_dims))

    @property
    def rank(self) -> int:
        return int(np.prod(self.factor_ranks))


def _regroup_cols(mat: np.ndarray, n1: int, d1: int, n2: int, d2: int) -> np.ndarray:
    """Permute Kronecker columns from (b1, c1, b2, c2) to (b1, b2, c1, c2)."""
    rows = mat.shape[0]
    return (
        mat.reshape(rows, n1, d1, n2, d2)
        .transpose(0, 1, 3, 2, 4)
        .reshape(rows, n1 * n2 * d1 * d2)
    )


def kron_vector(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    """Elementary tensor x (x) y with blocks x_i (x) y_j, i outermost."""
    flat = _regroup_cols(np.kron(x.flat, y.flat), x.rank, x.dim, y.rank, y.dim)
    return ModuleVector(x.dim * y.dim, x.rank * y.rank, flat)


def kron_operator(T: ModuleOperator, S: ModuleOperator) -> ModuleOperator:
    """Operator with blocks t_ij (x) s_kl satisfying
    apply(T (x) S, x (x) y) = apply(T, x) (x) apply(S, y)."""
    kron = np.kron(T.flat, S.flat)
    d = T.dim * S.dim
    n = T.source_rank * S.source_rank
    m = T.target_rank * S.target_rank
    # Rows regroup like columns: (i, r1, k, r2) -> (i, k, r1, r2).
    kron = _regroup_cols(kron.T, T.source_rank, T.dim, S.source_rank, S.dim).T
    kron = _regroup_cols(kron, T.target_rank, T.dim, S.target_rank, S.dim)
    return ModuleOperator(d, n, m, kron)


def kron_family(F: OperatorFamily, G: OperatorFamily) -> OperatorFamily:
    """Doubly indexed family {F_i (x) G_j}, row-major (i outer, j inner)."""
    return OperatorFamily(
        [kron_operator(a, b) for a in F.members for b in G.members]
    )


def tensor_dual_check(LP: DualPair, GP: DualPair, tol: float = DEFAULT_TOL) -> DualPair:
    """Form the tensor families and verify the product reconstruction.

    Given verified pairs for targets K and L, the doubly indexed family of
    tensor duals must reconstruct K (x) L; the returned pair carries the
    verified residual.
    """
    for name, pair in (("first", LP), ("second", GP)):
        if not pair.verified:
            raise HypothesisFailedError(f"{name} pair is not a verified dual pair")
    primary = kron_family(LP.primary_family, GP.primary_family)
    dual = kron_family(LP.dual_family, GP.dual_family)
    target = kron_operator(LP.target, GP.target)
    return verify_dual(primary, dual, target, tol)


# Above this many rows (prod n_i d_i) no product matrix is formed: a product
# is decided by two-sided bounds on its residual, and reports carry them.
DENSE_LIMIT = 1024
# Power steps on D^H D behind the lower bound, from a fixed start vector.
POWER_STEPS = 60


@dataclass(frozen=True)
class TensorDual:
    """The n-fold tensor product of dual pairs, decided from its factors.

    ``factors`` are the pairs, first factor outermost.
    ``reconstruction_residual`` and ``verified`` are what ``verify_dual``
    reports for the product families {L_1 (x) ... (x) L_m} and
    {G_1 (x) ... (x) G_m}, which are never built (``kron_family`` builds
    them); the residual is None when only ``residual_bounds`` (lower, upper)
    are known.  ``undecided`` is 0 for a verdict, else the count k of leading
    factors whose product the bounds leave inconclusive (k < m for a partial
    product).
    """

    factors: tuple[DualPair, ...]
    reconstruction_residual: float | None
    verified: bool
    residual_bounds: tuple[float, float] | None = None
    undecided: int = 0

    @property
    def dual_bessel_bound(self) -> float:
        """The product of the factors' bounds, each read on access."""
        return math.prod(p.dual_bessel_bound for p in self.factors)


def _dense_residual(rec: np.ndarray, tgt: np.ndarray, r: np.ndarray, k: np.ndarray) -> float:
    """||rec (x) r - tgt (x) k||_2 from one buffer, row block by row block.

    Each entry is rec[a, c] r[i, j] - tgt[a, c] k[i, j], the broadcast
    products ``np.kron`` forms, so the matrix and its norm are bitwise those
    of kron-then-subtract; only the buffer and LAPACK's copy are full-size.
    """
    (ra, ca), (ri, cj) = rec.shape, r.shape
    buf = np.empty((ra, ri, ca, cj), dtype=np.complex128)
    for a in range(ra):
        np.multiply(rec[a, None, :, None], r[:, None, :], out=buf[a])
        buf[a] -= tgt[a, None, :, None] * k[:, None, :]
    return float(np.linalg.norm(buf.reshape(ra * ri, ca * cj), 2))


def _kron_apply(mats: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """((x) mats) x, one ``tensordot`` per factor; the product is never formed."""
    x = x.reshape([m.shape[1] for m in mats])
    for m in mats:  # contracts the leading axis, appends the factor's row axis
        x = np.tensordot(x, m, axes=(0, 1))
    return x.reshape(-1)


def _residual_lower(recs: list[np.ndarray], tgts: list[np.ndarray]) -> float:
    """A lower bound ||D x|| on ||D||_2, D = (x)recs - (x)tgts, for unit x.

    ``POWER_STEPS`` power steps on D^H D from a fixed Gaussian start vector
    (Golub and Van Loan, *Matrix Computations*); the largest ||D x||
    seen is returned.  D and D^H act matrix-free through ``_kron_apply``.
    """
    recs_h = [np.conj(r.T) for r in recs]
    tgts_h = [np.conj(t.T) for t in tgts]
    x = np.random.default_rng(0).standard_normal((2, math.prod(r.shape[1] for r in recs)))
    x = x[0] + 1j * x[1]
    x /= np.linalg.norm(x)
    lower = 0.0
    for _ in range(POWER_STEPS):
        y = _kron_apply(recs, x) - _kron_apply(tgts, x)
        lower = max(lower, float(np.linalg.norm(y)))
        z = _kron_apply(recs_h, y) - _kron_apply(tgts_h, y)
        size = float(np.linalg.norm(z))
        if size == 0.0:
            break
        x = z / size
    return lower


def nfold_tensor_dual(pairs: list[DualPair], tol: float = DEFAULT_TOL) -> DualPair | TensorDual:
    """Left fold of ``tensor_dual_check`` over ``pairs``, decided from the factors.

    Flattened, a product member is P (A_1 (x) ... (x) A_m) Q for permutation
    matrices P, fixed by the source modules, and Q, fixed by the member's
    target ranks.  Q cancels in every term of the reconstruction, so the
    product reconstruction minus the product target is P D P^T with
    D = (x)R_i - (x)K_i, R_i the ``reconstruction`` of pair i.  ||(x)K_i||
    is prod ||K_i||, and the product frame operator is P ((x)S_i) P^T, so the
    dual Bessel bound is the product of the factors'.

    The product of the first k pairs is decided against
    tau = threshold(tol, prod ||K_i||).  Telescoping D gives the certified
    bound u = sum_i ||R_i - K_i|| prod_{j<i} ||R_j|| prod_{j>i} ||K_j||, so
    u <= tau verifies a partial product with no matrix formed.  The full
    product, and a partial one u does not verify, take the exact 2-norm of
    D while D has at most ``DENSE_LIMIT`` rows.  Above that, u <= tau
    verifies, a power-step lower bound above tau falsifies, and otherwise
    the product is undecided; the result then carries the bounds alone.

    As in the fold, an unverified factor or a falsified left partial
    product of 2..m-1 pairs raises ``HypothesisFailedError``; an undecided
    partial product ends the fold undecided.  One pair is returned as it is.
    """
    if not pairs:
        raise ValueError("nfold_tensor_dual needs at least one pair")
    if len(pairs) == 1:
        return pairs[0]
    bad = next((i for i, p in enumerate(pairs) if not p.verified), None)
    if bad is not None:
        raise HypothesisFailedError(f"pair {bad} is not a verified dual pair")
    upper, r_norm, k_norm = 0.0, 1.0, 1.0  # u, prod ||R_j||, prod ||K_j|| so far
    for k, p in enumerate(pairs, 1):
        k_i = operator_norm(p.target)
        upper = upper * k_i + p.reconstruction_residual * r_norm
        k_norm *= k_i
        tau = threshold(tol, k_norm)
        if k == len(pairs):
            return _decide(pairs, k, upper, tau)
        if k > 1 and upper > tau:
            partial = _decide(pairs, k, upper, tau)
            if partial.undecided:
                return partial
            if not partial.verified:
                raise HypothesisFailedError(
                    f"the product of pairs 0..{k - 1} is not a verified dual pair"
                )
        r_norm *= operator_norm(p.reconstruction)


def _decide(pairs: list[DualPair], k: int, upper: float, tau: float) -> TensorDual:
    """The product of the first k pairs against tau, given its bound u = ``upper``."""
    recs = [p.reconstruction.flat for p in pairs[:k]]
    tgts = [p.target.flat for p in pairs[:k]]
    if math.prod(r.shape[0] for r in recs) <= DENSE_LIMIT:
        one = np.ones((1, 1), dtype=np.complex128)
        rec, tgt = reduce(np.kron, recs[:-1], one), reduce(np.kron, tgts[:-1], one)
        residual = _dense_residual(rec, tgt, recs[-1], tgts[-1])
        return TensorDual(tuple(pairs), residual, residual <= tau)
    lower = 0.0 if upper <= tau else _residual_lower(recs, tgts)
    undecided = 0 if upper <= tau or lower > tau else k
    return TensorDual(tuple(pairs), None, upper <= tau, (lower, upper), undecided)
