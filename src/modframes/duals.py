"""Dual families: verification, the canonical dual, and minimal duals.

A family {G_i} is a dual of {L_i} for the target K when K f = sum_i L_i* G_i f
for every f.  In finite dimensions that holds for all f iff the assembled
operators coincide, so verification compares sum_i flat(G_i) flat(L_i)^H
against flat(K) exactly rather than by sampling.

Both duals are one construction, K S^+ T (T the analysis operator), with S^+
read from the family's cached ``OperatorFamily.spectrum`` under the one kernel
rule, so they agree bit for bit when S is invertible.  The dual's Bessel bound
reads the dual family's spectrum, only when asked for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import NoInclusionError, ShapeMismatchError, SingularFrameOperatorError
from .frames import OperatorFamily, analysis_operator
from .operators import KERNEL_RTOL, ModuleOperator, compose, kernel_reach, operator_norm, range_mask


@dataclass
class DualPair:
    """A candidate dual pair together with its reconstruction residual.

    ``reconstruction`` is R = sum_i L_i* G_i, as ``verify_dual`` built it, and
    ``reconstruction_residual`` the flattened operator norm of R - K; the
    pair is ``verified`` when it is at most ``algebra.threshold(tol, ||K||)``
    for the ``tol`` of ``verify_dual``.
    """

    primary_family: OperatorFamily
    dual_family: OperatorFamily
    target: ModuleOperator
    reconstruction: ModuleOperator
    reconstruction_residual: float
    verified: bool

    @property
    def dual_bessel_bound(self) -> float:
        """Optimal upper (Bessel) scalar of the dual family (finite), read on access."""
        return self.dual_family.bessel_bound


def _check_indexed_like(L: OperatorFamily, G: OperatorFamily) -> None:
    """G is indexed like L on L's source module: one member per member, each
    on the same target rank."""
    if len(L) != len(G):
        raise ShapeMismatchError("families must have the same member count")
    if L.dim != G.dim or L.source_rank != G.source_rank:
        raise ShapeMismatchError("families must share the source module")
    if L.target_ranks != G.target_ranks:
        raise ShapeMismatchError("families must share per-index target ranks")


def reconstruction_operator(L: OperatorFamily, G: OperatorFamily) -> ModuleOperator:
    """The operator f -> sum_i L_i* G_i f."""
    flat = sum(g.flat @ np.conj(m.flat.T) for m, g in zip(L.members, G.members))
    return ModuleOperator(L.dim, L.source_rank, L.source_rank, flat)


def verify_dual(
    L: OperatorFamily, G: OperatorFamily, K: ModuleOperator, tol: float = algebra.DEFAULT_TOL
) -> DualPair:
    """Check the reconstruction identity as an exact operator identity.

    The pair is verified when ``residual <= threshold(tol, ||K||)``: relative
    to the target's norm, so a rescaled correct pair stays verified, and
    absolute for targets of norm at most 1 (K = 0 included).
    """
    _check_indexed_like(L, G)
    if K.dim != L.dim or not K.is_endomorphism() or K.source_rank != L.source_rank:
        raise ShapeMismatchError("target must be an endomorphism of the source module")
    rec = reconstruction_operator(L, G)
    residual = operator_norm(rec - K)
    return DualPair(
        primary_family=L,
        dual_family=G,
        target=K,
        reconstruction=rec,
        reconstruction_residual=residual,
        verified=residual <= algebra.threshold(tol, operator_norm(K)),
    )


def _dual(L: OperatorFamily, K: ModuleOperator, keep: np.ndarray) -> OperatorFamily:
    """The members L_i S^+ K: S^+ = (V/w) V^H over the eigenvalues ``keep`` marks."""
    w, v = L.spectrum
    s_pinv = np.divide(v, w, out=np.zeros_like(v), where=keep) @ np.conj(v.T)
    # Member action x -> L_i(S^+(K x)) flattens to flat(K) S^+ flat(L_i).
    prefix = ModuleOperator(K.dim, K.source_rank, K.target_rank, K.flat @ s_pinv)
    return OperatorFamily([compose(prefix, m) for m in L.members])


def canonical_dual(L: OperatorFamily, K: ModuleOperator) -> OperatorFamily:
    """The dual {L_i S^{-1} K}, for S invertible under the kernel rule: every
    eigenvalue of S above ``KERNEL_RTOL`` times its largest, so cond(S) <= 1e12.
    Invertibility is checked, never assumed from surjectivity of K."""
    keep = range_mask(L.spectrum[0])
    if not keep.all():
        raise SingularFrameOperatorError(
            f"frame operator condition number exceeds cap ({1 / KERNEL_RTOL:.1e})"
        )
    return _dual(L, K, keep)


def minimal_dual(L: OperatorFamily, K: ModuleOperator) -> OperatorFamily:
    """The minimal-Frobenius-norm dual {L_i S^+ K}, for S of any rank.

    Every dual is a pre-frame operator eta with theta* eta = K (theta the
    analysis operator of L); the minimal-norm one is K S^+ theta.  It exists
    when range(K) lies in range(theta*) = range(S), that is when flat(KK*) does
    not reach S's kernel, the test that makes alpha positive; else this raises
    ``NoInclusionError``."""
    if kernel_reach(algebra.hermitian_part(K.kk_star), L.spectrum) is not None:
        raise NoInclusionError("range(K) is not contained in range of the synthesis operator")
    return _dual(L, K, range_mask(L.spectrum[0]))


@dataclass
class PreframeReport:
    """Deviations of the two pre-frame identities for a dual pair.

    ``target_deviation`` is ||theta* eta - K||; ``member_deviations[i]`` is
    ||Pi_i eta - G_i|| for each index.
    """

    target_deviation: float
    member_deviations: list[float]


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
    cuts = np.cumsum([m.target_rank * G.dim for m in G.members])[:-1]  # eta's member blocks
    blocks = np.split(eta.flat, cuts, axis=1)
    devs = [float(np.linalg.norm(block - g.flat, 2)) for g, block in zip(G.members, blocks)]
    return PreframeReport(target_deviation=target_dev, member_deviations=devs)
