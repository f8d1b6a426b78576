"""Dual families: verification, the canonical dual, and minimal duals.

A family {G_i} is a dual of {L_i} for the target K when K f = sum_i L_i* G_i f
for every f.  In finite dimensions that holds for all f iff the assembled
operators coincide, so verification compares sum_i flat(G_i) flat(L_i)^H
against flat(K) exactly rather than by sampling.  The canonical dual's
S^{-1} and condition check and the dual's Bessel bound read the family's
one cached ``OperatorFamily.spectrum``; the Bessel bound only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoInclusionError, ShapeMismatchError, SingularFrameOperatorError
from .frames import OperatorFamily, analysis_operator, synthesis_operator
from .operators import ModuleOperator, compose, douglas_check, operator_norm


@dataclass
class DualPair:
    """A candidate dual pair together with its reconstruction residual.

    ``reconstruction_residual`` is the flattened operator norm of
    sum_i L_i* G_i - K; the pair is ``verified`` when it is at most
    ``tol * max(1, ||K||)`` for the ``tol`` of ``verify_dual``.
    """

    primary_family: OperatorFamily
    dual_family: OperatorFamily
    target: ModuleOperator
    reconstruction_residual: float
    verified: bool

    @property
    def dual_bessel_bound(self) -> float:
        """Optimal upper (Bessel) scalar of the dual family (finite), read on access."""
        return float(np.sqrt(max(float(self.dual_family.spectrum[0][-1]), 0.0)))


def _check_pair_shapes(L: OperatorFamily, G: OperatorFamily, K: ModuleOperator) -> None:
    if len(L) != len(G):
        raise ShapeMismatchError("families must have the same member count")
    if L.dim != G.dim or L.source_rank != G.source_rank:
        raise ShapeMismatchError("families must share the source module")
    if L.target_ranks != G.target_ranks:
        raise ShapeMismatchError("families must share per-index target ranks")
    if K.dim != L.dim or not K.is_endomorphism() or K.source_rank != L.source_rank:
        raise ShapeMismatchError("target must be an endomorphism of the source module")


def _member_blocks(flat: np.ndarray, F: OperatorFamily) -> list[np.ndarray]:
    """Column blocks of a source x codomain matrix, one per member of F."""
    return np.split(flat, np.cumsum([m.target_rank * F.dim for m in F.members])[:-1], axis=1)


def reconstruction_operator(L: OperatorFamily, G: OperatorFamily) -> ModuleOperator:
    """The operator f -> sum_i L_i* G_i f."""
    flat = sum(g.flat @ np.conj(m.flat.T) for m, g in zip(L.members, G.members))
    return ModuleOperator(L.dim, L.source_rank, L.source_rank, flat)


def verify_dual(
    L: OperatorFamily, G: OperatorFamily, K: ModuleOperator, tol: float = 1e-10
) -> DualPair:
    """Check the reconstruction identity as an exact operator identity.

    The pair is verified when ``residual <= tol * max(1, ||K||)``: relative
    to the target's norm, so a rescaled correct pair stays verified, and
    absolute for targets of norm at most 1 (K = 0 included).
    """
    _check_pair_shapes(L, G, K)
    residual = operator_norm(reconstruction_operator(L, G) - K)
    return DualPair(
        primary_family=L,
        dual_family=G,
        target=K,
        reconstruction_residual=residual,
        verified=residual <= tol * max(1.0, operator_norm(K)),
    )


def canonical_dual(
    L: OperatorFamily, K: ModuleOperator, cond_cap: float = 1e12
) -> OperatorFamily:
    """The dual {L_i S^{-1} K} built from the inverse frame operator.

    Invertibility of S is checked numerically against the condition-number
    cap; it is never assumed from surjectivity of K.  The family's cached
    ``spectrum`` gives both: cond(S) = w_max / w_min and S^{-1} = (V/w) V^H.
    """
    w, v = L.spectrum
    if w[0] <= 0 or w[-1] / w[0] > cond_cap:
        raise SingularFrameOperatorError(
            f"frame operator condition number exceeds cap ({cond_cap:.1e})"
        )
    s_inv = (v / w) @ np.conj(v.T)
    # Member action x -> L_i(S^{-1}(K x)) flattens to flat(K) S^{-1} flat(L_i).
    prefix = ModuleOperator(K.dim, K.source_rank, K.target_rank, K.flat @ s_inv)
    return OperatorFamily([compose(prefix, m) for m in L.members])


def minimal_dual(
    L: OperatorFamily, K: ModuleOperator, rank_tol: float = 1e-12
) -> OperatorFamily:
    """Minimal-Frobenius-norm dual via the pre-frame factorization.

    Every dual corresponds to a pre-frame operator eta with theta* eta = K
    (theta the analysis operator of L); the minimal-norm solution is
    flat(K) pinv(flat(theta*)) and its column blocks are the dual members.
    Raises ``NoInclusionError`` when range(K) is not inside range(theta*),
    in which case no dual exists in this representation.
    """
    theta_star = synthesis_operator(L)
    report = douglas_check(K, theta_star)
    if not report.range_included:
        raise NoInclusionError("range(K) is not contained in range of the synthesis operator")
    eta_flat = K.flat @ np.linalg.pinv(theta_star.flat, rcond=rank_tol)
    blocks = _member_blocks(eta_flat, L)
    return OperatorFamily(
        [ModuleOperator(L.dim, L.source_rank, m.target_rank, b) for m, b in zip(L.members, blocks)]
    )


@dataclass
class PreframeReport:
    """Deviations of the two pre-frame identities for a dual pair.

    ``target_deviation`` is ||theta* eta - K||; ``member_deviations[i]`` is
    ||Pi_i eta - G_i|| for each index.
    """

    target_deviation: float
    member_deviations: list[float]

    @property
    def max_deviation(self) -> float:
        return max([self.target_deviation] + self.member_deviations)


def preframe_consistency(P: DualPair, eta: ModuleOperator | None = None) -> PreframeReport:
    """Check theta* eta = K and G_i = Pi_i eta as exact operator identities.

    ``eta`` defaults to the pre-frame (analysis) operator assembled from the
    stored dual family; passing an independently obtained eta localizes
    discrepancies to the affected members.
    """
    L, G, K = P.primary_family, P.dual_family, P.target
    if eta is None:
        eta = analysis_operator(G)
    theta = analysis_operator(L)
    if (eta.dim, eta.source_rank, eta.target_rank) != (
        theta.dim,
        theta.source_rank,
        theta.target_rank,
    ):
        raise ShapeMismatchError("eta must map the source module into the family codomain")
    target_dev = float(np.linalg.norm(eta.flat @ np.conj(theta.flat.T) - K.flat, 2))
    devs = [
        float(np.linalg.norm(block - g.flat, 2))
        for g, block in zip(G.members, _member_blocks(eta.flat, G))
    ]
    return PreframeReport(target_deviation=target_dev, member_deviations=devs)
