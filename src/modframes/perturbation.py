"""Perturbation analysis for certified families.

Given a certified family {L_i} and a candidate perturbation {G_i}, the
relative perturbation constant M is the smallest number with

    ||sum_i <(L_i - G_i) f, (L_i - G_i) f>||
        <= M * min(||sum_i <L_i f, L_i f>||, ||sum_i <G_i f, G_i f>||)

for all f; a finite M transfers the frame property to {G_i} with norm
bounds ||A||^2 / (1 + sqrt(M))^2 and (1 + sqrt(M))^2 ||B||^2.  Over M_d(C)
M is decided exactly: with D = sum_i flat(L_i - G_i) flat(L_i - G_i)^H and
S the flattened frame operator, sup_X ||X D X*|| / ||X S X*|| is the pencil
maximum lambda_max(D, S), attained at a rank-one X, so
M = max(lambda_max(D, S_L), lambda_max(D, S_G)).  Both maxima come from
``operators.pencil_max`` on each family's cached ``spectrum``, as the
optimal lower frame bound does, so M follows its kernel rule: M is infinite
when D reaches the kernel of either frame operator, and ``analysis_rank``
counts the directions that rule keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import HypothesisFailedError, ShapeMismatchError
from .frames import (
    FrameBounds,
    FrameCertificate,
    OperatorFamily,
    analysis_operator,
    certify,
    optimal_scalar_bounds,
)
from .module import ModuleVector
from .operators import ModuleOperator, douglas_check, pencil_max, range_mask


@dataclass
class PerturbationReport:
    """Outcome of the perturbation transfer check.

    ``M_estimate`` is the exact constant (``M_kind`` says so), attained at
    the rank-one ``witness``; ``derived`` certifies {G_i} against Lop at the
    bounds derived from (||A||, ||B||, M).  ``analysis_rank`` is the rank of
    the perturbed analysis operator, which the converse machinery needs to
    have closed range (full rank here; counted by the kernel rule of M).
    """

    M_estimate: float
    M_kind: str
    derived_lower: float
    derived_upper: float
    witness: ModuleVector
    derived: FrameCertificate
    analysis_rank: int
    converse_M: float | None


def _difference_gram(L: OperatorFamily, G: OperatorFamily) -> np.ndarray:
    if len(L) != len(G) or L.target_ranks != G.target_ranks or L.dim != G.dim:
        raise ShapeMismatchError("families must be indexed alike to compare")
    diff = analysis_operator(L).flat - analysis_operator(G).flat
    return diff @ np.conj(diff.T)


def _exact_constant(L: OperatorFamily, G: OperatorFamily) -> tuple[float, ModuleVector]:
    """M and the rank-one witness X of its maximiser: X D X* = (x* D x) e_1 e_1*."""
    d_hat = _difference_gram(L, G)
    m, x = max((pencil_max(d_hat, F.spectrum) for F in (L, G)), key=lambda t: t[0])
    return m, ModuleVector.rank_one(L.dim, x)


def perturbation_constant(L: OperatorFamily, G: OperatorFamily) -> float:
    """The exact perturbation constant M (``inf`` when D reaches the kernel
    of either frame operator); 0 when the families coincide."""
    return _exact_constant(L, G)[0]


def perturbed_frame_bounds(normA: float, normB: float, M: float) -> tuple[float, float]:
    """Transferred norm bounds (||A||^2/(1+sqrt(M))^2, (1+sqrt(M))^2 ||B||^2)."""
    if normA <= 0 or normB <= 0:
        raise ValueError("bound norms must be positive")
    if M < 0:
        raise ValueError("M must be nonnegative")
    s = (1.0 + math.sqrt(M)) ** 2
    return normA**2 / s, s * normB**2


def converse_constant(
    normA: float, normB: float, normC: float, normD: float, lam: float
) -> float:
    """Constant min((1 + lambda ||B||)/||C||, 1 + ||D||/||A||) bounding the
    perturbation ratio in the converse direction."""
    if min(normA, normB, normC, normD) <= 0:
        raise ValueError("all bound norms must be positive")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return min((1.0 + lam * normB) / normC, 1.0 + normD / normA)


def perturbation_check(
    L: OperatorFamily,
    G: OperatorFamily,
    K: ModuleOperator,
    Lop: ModuleOperator,
    boundsL: FrameBounds,
    tol: float = algebra.DEFAULT_TOL,
) -> PerturbationReport:
    """Full perturbation pipeline.

    Hypotheses checked first: {L_i} must certify (not falsify) against
    (K, boundsL), and range(Lop) must be contained in range(K) with K of
    closed range (automatic here; ``douglas_check`` decides it).  M is
    then computed exactly (a finite M is a hypothesis too), the transferred
    bounds follow from it, and {G_i} is certified against Lop at those
    bounds.  ``tol`` is ``certify``'s, for both certificates, and
    1e3 * ``tol`` bounds ||K K* - I|| for the converse.
    """
    cert = certify(L, K, boundsL, tol)
    if cert.verdict == "falsified":
        raise HypothesisFailedError(
            "primary family falsified against (K, bounds)", witness=cert.witness
        )
    incl = douglas_check(Lop, K)
    if not incl.range_included:
        raise HypothesisFailedError(
            "range(Lop) is not contained in range(K)", witness=incl.witness
        )

    m, witness = _exact_constant(L, G)
    if math.isinf(m):
        raise HypothesisFailedError(
            "perturbation constant is infinite: the difference family reaches "
            "the kernel of a frame operator",
            witness=witness,
        )
    norm_a = algebra.opnorm(boundsL.lower)
    norm_b = algebra.opnorm(boundsL.upper)
    lo, up = perturbed_frame_bounds(norm_a, norm_b, m)
    derived = certify(G, Lop, FrameBounds.scalar(math.sqrt(lo), math.sqrt(up), L.dim), tol)
    rank = int(np.sum(range_mask(G.spectrum[0])))

    converse = _converse_if_applicable(G, K, Lop, norm_a, norm_b, tol)
    return PerturbationReport(
        M_estimate=m,
        M_kind="exact",
        derived_lower=lo,
        derived_upper=up,
        witness=witness,
        derived=derived,
        analysis_rank=rank,
        converse_M=converse,
    )


def _converse_if_applicable(
    G: OperatorFamily,
    K: ModuleOperator,
    Lop: ModuleOperator,
    norm_a: float,
    norm_b: float,
    tol: float,
) -> float | None:
    """Converse constant when its hypotheses hold: K a co-isometry and
    range(K) inside range(Lop); (C, D) are taken as the optimal scalar
    bounds of {G_i} against Lop."""
    eye = np.eye(K.source_rank * K.dim)
    if float(np.linalg.norm(np.conj(K.flat.T) @ K.flat - eye, 2)) > tol * 1e3:
        return None
    rev = douglas_check(K, Lop)
    if not rev.range_included:
        return None
    lam = rev.lambda_min or 0.0
    c, d = optimal_scalar_bounds(G, Lop)
    if not (math.isfinite(c) and c > 0 and d > 0):
        return None
    return converse_constant(norm_a, norm_b, c, d, lam)
