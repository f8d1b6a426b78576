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
decides the n-fold product from the factors' reconstruction operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duals import DualPair, reconstruction_operator, verify_dual
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


def tensor_dual_check(LP: DualPair, GP: DualPair, tol: float = 1e-10) -> DualPair:
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


@dataclass(frozen=True)
class TensorDual:
    """The n-fold tensor product of dual pairs, decided from its factors.

    ``factors`` are the pairs, first factor outermost.  The other fields
    are what ``verify_dual`` reports for the product families
    {L_1 (x) ... (x) L_m} and {G_1 (x) ... (x) G_m}, which are never built
    (``kron_family`` builds them).
    """

    factors: tuple[DualPair, ...]
    reconstruction_residual: float
    verified: bool

    @property
    def dual_bessel_bound(self) -> float:
        """The product of the factors' bounds, each read on access."""
        return math.prod(p.dual_bessel_bound for p in self.factors)


def nfold_tensor_dual(pairs: list[DualPair], tol: float = 1e-10) -> DualPair | TensorDual:
    """Left fold of ``tensor_dual_check`` over ``pairs``, decided from the factors.

    Flattened, a product member is P (A_1 (x) ... (x) A_m) Q for permutation
    matrices P, fixed by the source modules, and Q, fixed by the member's
    target ranks.  Q cancels in every term of the reconstruction, so the
    product reconstruction minus the product target is
    P ((x)R_i - (x)K_i) P^T with R_i = ``reconstruction_operator`` of pair i.
    The residual is the exact 2-norm of that one dense (prod n_i d_i)-square
    matrix, ||(x)K_i|| is prod ||K_i||, and the product frame operator is
    P ((x)S_i) P^T, so the dual Bessel bound is the product of the factors'.

    As in the fold, an unverified factor or an unverified left partial
    product of 2..m-1 pairs raises ``HypothesisFailedError``; only the full
    product can come back unverified.  One pair is returned as it is.
    """
    if not pairs:
        raise ValueError("nfold_tensor_dual needs at least one pair")
    if len(pairs) == 1:
        return pairs[0]
    bad = next((i for i, p in enumerate(pairs) if not p.verified), None)
    if bad is not None:
        raise HypothesisFailedError(f"pair {bad} is not a verified dual pair")
    rec = tgt = np.ones((1, 1), dtype=np.complex128)
    k_norm = 1.0
    for k, p in enumerate(pairs, 1):
        rec = np.kron(rec, reconstruction_operator(p.primary_family, p.dual_family).flat)
        tgt = np.kron(tgt, p.target.flat)
        k_norm *= operator_norm(p.target)
        if k == 1:
            continue
        residual = float(np.linalg.norm(rec - tgt, 2))
        verified = residual <= tol * max(1.0, k_norm)
        if not verified and k < len(pairs):
            raise HypothesisFailedError(
                f"the product of pairs 0..{k - 1} is not a verified dual pair"
            )
    return TensorDual(
        factors=tuple(pairs),
        reconstruction_residual=residual,
        verified=verified,
    )
