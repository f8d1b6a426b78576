"""Perturbation analysis for certified families.

Given a certified family {L_i} and a candidate perturbation {G_i}, the
relative perturbation constant M bounds

    ||sum_i <(L_i - G_i) f, (L_i - G_i) f>||
        <= M * min(||sum_i <L_i f, L_i f>||, ||sum_i <G_i f, G_i f>||)

over the sample set; a finite M transfers the frame property to {G_i} with
norm bounds ||A||^2 / (1 + sqrt(M))^2 and (1 + sqrt(M))^2 ||B||^2.  The
"for all f" hypothesis cannot be decided exactly for algebra-valued data,
so M is estimated on samples and the report always records how many were
used and how many were skipped for vanishing denominators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import (
    AllSamplesDegenerateError,
    HypothesisFailedError,
    ShapeMismatchError,
)
from .frames import (
    CertConfig,
    FrameBounds,
    NormBoundReport,
    OperatorFamily,
    analysis_operator,
    certify,
    norm_bound_check,
    optimal_scalar_bounds,
)
from .module import ModuleVector, sample_vectors
from .operators import ModuleOperator, douglas_check

DENOM_TOL = 1e-12


@dataclass
class PerturbationReport:
    """Outcome of the perturbation transfer check.

    ``derived_lower``/``derived_upper`` are computed exactly from the stated
    formulas given (||A||, ||B||, M); ``analysis_rank`` is the rank of the
    perturbed family's analysis operator, surfaced because the converse
    machinery needs it to have closed range (full rank here).
    """

    M_estimate: float
    samples_used: int
    samples_skipped: int
    derived_lower: float
    derived_upper: float
    worst_sample: ModuleVector
    norm_margins: NormBoundReport
    analysis_rank: int
    converse_M: float | None


def _quadratic_norms(
    families: tuple[OperatorFamily, ...], samples: list[ModuleVector]
) -> np.ndarray:
    """||sum_i <L_i f, L_i f>|| per (family, sample)."""
    grams = [sum(m.flat @ np.conj(m.flat.T) for m in fam.members) for fam in families]
    out = np.empty((len(families), len(samples)))
    for j, f in enumerate(samples):
        for i, g in enumerate(grams):
            out[i, j] = np.linalg.norm(f.flat @ g @ np.conj(f.flat.T), 2)
    return out


def _difference_family(L: OperatorFamily, G: OperatorFamily) -> OperatorFamily:
    if len(L) != len(G) or L.target_ranks != G.target_ranks or L.dim != G.dim:
        raise ShapeMismatchError("families must be indexed alike to compare")
    return OperatorFamily([a - b for a, b in zip(L.members, G.members)])


def _perturbation_scan(
    L: OperatorFamily,
    G: OperatorFamily,
    samples: list[ModuleVector],
    denom_tol: float = DENOM_TOL,
) -> tuple[float, int, int, ModuleVector]:
    diff = _difference_family(L, G)
    vals = _quadratic_norms((diff, L, G), samples)
    num = vals[0]
    den = np.minimum(vals[1], vals[2])
    usable = den >= denom_tol
    if not np.any(usable):
        raise AllSamplesDegenerateError(
            "all sample denominators vanished; the ratio is undefined"
        )
    ratios = np.where(usable, num / np.maximum(den, denom_tol), -math.inf)
    worst = int(np.argmax(ratios))
    m = float(ratios[worst])
    return m, int(np.sum(usable)), int(np.sum(~usable)), samples[worst]


def perturbation_constant(
    L: OperatorFamily,
    G: OperatorFamily,
    samples: list[ModuleVector],
    denom_tol: float = DENOM_TOL,
) -> float:
    """Smallest M validating the perturbation hypothesis over the samples."""
    if not samples:
        raise ValueError("perturbation_constant needs at least one sample")
    m, _, _, _ = _perturbation_scan(L, G, samples, denom_tol)
    return m


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
    cfg: CertConfig | None = None,
) -> PerturbationReport:
    """Full perturbation pipeline.

    Hypotheses checked first: {L_i} must certify (not falsify) against
    (K, boundsL), and range(Lop) must be contained in range(K) with K of
    closed range (automatic here).  M is then estimated on the configured
    sample set, the transferred bounds are computed, and the scalar-norm
    sandwich for {G_i} against Lop at the derived bounds is evaluated on the
    same samples.
    """
    cfg = cfg or CertConfig()
    cert = certify(L, K, boundsL, cfg)
    if cert.verdict == "falsified":
        raise HypothesisFailedError(
            "primary family falsified against (K, bounds)", witness=cert.witness
        )
    incl = douglas_check(Lop, K)
    if not incl.range_included:
        raise HypothesisFailedError("range(Lop) is not contained in range(K)")

    samples = sample_vectors(L.dim, L.source_rank, cfg.samples, cfg.seed)
    m, used, skipped, worst = _perturbation_scan(L, G, samples)
    norm_a = algebra.opnorm(boundsL.lower)
    norm_b = algebra.opnorm(boundsL.upper)
    lo, up = perturbed_frame_bounds(norm_a, norm_b, m)
    derived = FrameBounds.scalar(math.sqrt(lo), math.sqrt(up), L.dim)
    margins = norm_bound_check(G, Lop, derived, samples)
    rank = int(np.linalg.matrix_rank(analysis_operator(G).flat))

    converse = _converse_if_applicable(G, K, Lop, norm_a, norm_b, cfg)
    return PerturbationReport(
        M_estimate=m,
        samples_used=used,
        samples_skipped=skipped,
        derived_lower=lo,
        derived_upper=up,
        worst_sample=worst,
        norm_margins=margins,
        analysis_rank=rank,
        converse_M=converse,
    )


def _converse_if_applicable(
    G: OperatorFamily,
    K: ModuleOperator,
    Lop: ModuleOperator,
    norm_a: float,
    norm_b: float,
    cfg: CertConfig,
) -> float | None:
    """Converse constant when its hypotheses hold: K a co-isometry and
    range(K) inside range(Lop); (C, D) are taken as the optimal scalar
    bounds of {G_i} against Lop."""
    eye = np.eye(K.source_rank * K.dim)
    if float(np.linalg.norm(np.conj(K.flat.T) @ K.flat - eye, 2)) > cfg.tol * 1e3:
        return None
    rev = douglas_check(K, Lop)
    if not rev.range_included:
        return None
    lam = rev.lambda_min or 0.0
    c, d = optimal_scalar_bounds(G, Lop)
    if not (math.isfinite(c) and c > 0 and d > 0):
        return None
    return converse_constant(norm_a, norm_b, c, d, lam)
