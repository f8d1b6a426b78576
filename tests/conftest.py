"""Shared fixtures and independent oracles used across the test suite."""

import numpy as np
import pytest

from modframes import ModuleOperator, OperatorFamily, random_operator


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_family(d: int, n: int, count: int, rng: np.random.Generator) -> OperatorFamily:
    """Family with random target ranks whose frame operator is full rank."""
    ranks = [int(rng.integers(1, n + 1)) for _ in range(count)]
    while sum(ranks) < n:
        ranks[int(rng.integers(0, count))] += 1
    return OperatorFamily([random_operator(d, n, r, rng) for r in ranks])


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    k = rank if rank is not None else dim
    a = (rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))) / np.sqrt(2)
    return a @ np.conj(a.T)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def pencil_alpha_bisect(p: np.ndarray, s: np.ndarray, tol: float = 1e-12) -> float:
    """Independent oracle for the pencil extremum: bisection on the
    feasibility predicate lambda_min(s - a*p) >= -slack."""
    p = 0.5 * (p + np.conj(p.T))
    s = 0.5 * (s + np.conj(s.T))
    slack = 1e-11 * (1.0 + np.linalg.norm(s, 2))
    if np.linalg.norm(p, 2) <= 1e-12:
        return float("inf")

    def feasible(a: float) -> bool:
        return np.linalg.eigvalsh(s - a * p)[0] >= -slack

    if not feasible(0.0):
        return 0.0
    hi = 1.0
    for _ in range(200):
        if not feasible(hi):
            break
        hi *= 2.0
    else:
        return float("inf")
    lo = 0.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def direct_gap_eigs(family: OperatorFamily, K: ModuleOperator, a, b, x) -> tuple[float, float]:
    """Gap eigenvalues computed blockwise from member inner products,
    independently of the gram-matrix shortcut used by the library."""
    from modframes import apply, inner_product, op_adjoint

    quad = sum(
        inner_product(apply(m, x), apply(m, x)) for m in family.members
    )
    kx = apply(op_adjoint(K), x)
    lower = quad - np.asarray(a) @ inner_product(kx, kx) @ np.conj(np.asarray(a).T)
    upper = np.asarray(b) @ inner_product(x, x) @ np.conj(np.asarray(b).T) - quad
    lo = np.linalg.eigvalsh(0.5 * (lower + np.conj(lower.T)))[0]
    up = np.linalg.eigvalsh(0.5 * (upper + np.conj(upper.T)))[0]
    return float(lo), float(up)


def descent_oracle(family: OperatorFamily, K: ModuleOperator, a, b, rng, restarts=3, iters=100):
    """Lowest (lower, upper) gap eigenvalues reached by projected-gradient
    descent over unit-Frobenius X from random starts.

    The descents run ``_kernels.minimize_gap`` on Gram matrices summed from
    the members here, independently of ``certify``.  Each value is attained
    at some X, so it bounds the true infimum of its side from above.
    """
    from modframes import _kernels

    d, nd = family.dim, family.source_rank * family.dim
    s_hat = sum(m.flat @ np.conj(m.flat.T) for m in family.members)
    m_hat = np.conj(K.flat.T) @ K.flat
    eye_d = np.eye(d, dtype=np.complex128)
    eye_nd = np.eye(nd, dtype=np.complex128)
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    lo = up = np.inf
    for _ in range(restarts):
        x0 = rng.standard_normal((d, nd)) + 1j * rng.standard_normal((d, nd))
        lo = min(lo, _kernels.minimize_gap(x0, s_hat, m_hat, eye_d, a, iters, 1e-2, np.inf)[0])
        up = min(up, _kernels.minimize_gap(x0, eye_nd, s_hat, b, eye_d, iters, 1e-2, np.inf)[0])
    return float(lo), float(up)


def near_scalar_spec(path, eps: float, seed: int = 3, d: int = 2):
    """A known-bounds instance whose lower bound alpha*(I + eps E_12) is not a
    multiple of I; alpha is the generator's relaxed optimum (1 - 1e-6)."""
    from modframes import FrameBounds, generate_instance, save_spec

    spec = generate_instance("known-bounds", d, 2, 3, seed)
    skew = np.eye(d, dtype=np.complex128)
    skew[0, 1] = eps
    spec.bounds = FrameBounds(
        lower=spec.bounds.alpha * skew, upper=spec.bounds.upper, mode="algebra"
    )
    save_spec(spec, path)
    return spec


def cholesky_pencil_max(p: np.ndarray, s: np.ndarray) -> float:
    """Independent oracle for lambda_max(p, s) = max_x x*px / x*sx with s
    positive definite: the largest eigenvalue of p whitened by the Cholesky
    factor of s."""
    ci = np.linalg.inv(np.linalg.cholesky(0.5 * (s + np.conj(s.T))))
    w = ci @ p @ np.conj(ci.T)
    return float(np.linalg.eigvalsh(0.5 * (w + np.conj(w.T)))[-1])


def quadratic_norm(members, x) -> float:
    """||sum_i <L_i x, L_i x>||, summed blockwise from member inner products."""
    from modframes import apply, inner_product

    quad = sum(inner_product(apply(m, x), apply(m, x)) for m in members)
    return float(np.linalg.norm(quad, 2))


def sampled_perturbation_scan(L: OperatorFamily, G: OperatorFamily, samples, denom_tol=1e-12):
    """Largest ratio ||sum <D_i f, D_i f>|| / min(||sum <L_i f, L_i f>||,
    ||sum <G_i f, G_i f>||) over the samples whose denominator clears
    ``denom_tol``, with D_i = L_i - G_i.  Each ratio is attained at its
    sample, so the scan bounds the perturbation constant from below."""
    diff = [a - b for a, b in zip(L.members, G.members)]
    best = -np.inf
    for f in samples:
        den = min(quadratic_norm(L.members, f), quadratic_norm(G.members, f))
        if den >= denom_tol:
            best = max(best, quadratic_norm(diff, f) / den)
    return float(best)
