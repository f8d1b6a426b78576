"""Shared fixtures and independent oracles used across the test suite."""

import dataclasses

import numpy as np
import pytest

from modframes import ModuleOperator, OperatorFamily, random_operator
from modframes import io as spec_io


@pytest.fixture(autouse=True)
def _no_spec_decoded():
    """Each test starts with no spec text decoded: a loaded spec keeps its
    families' Gram matrices and spectra, so without this a test could find
    them built by an earlier test that read the same text."""
    spec_io._decode.cache_clear()


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


def nested_dict(spec) -> dict:
    """``spec.to_dict()`` with each operator's ``blocks`` as nested [re, im]
    pairs (``io.encode_operator``), the layout older writers used."""
    data = spec.to_dict()
    for key in ("operators", "second_operators", "target_operator", "aux_operator"):
        value = getattr(spec, key)
        if isinstance(value, ModuleOperator):
            data[key] = spec_io.encode_operator(value)
        elif value is not None:
            data[key] = [spec_io.encode_operator(op) for op in value]
    return data


def random_psd(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    k = rank if rank is not None else dim
    a = (rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))) / np.sqrt(2)
    return a @ np.conj(a.T)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))[None, :]


def tiny_singular_target() -> ModuleOperator:
    """K = U diag(1, 6.3e-7 x 7) V^H (d = 2, n = 4) from seeded unitaries: its
    seven small singular values have sigma^2 = 4e-13 < 1e-12 sigma_max^2, so the
    kernel rule marks them as the kernel of K*K."""
    rng = make_rng(31)
    u, v = random_unitary(8, rng), random_unitary(8, rng)
    return ModuleOperator(2, 4, 4, (u * np.r_[1.0, [6.3e-7] * 7]) @ np.conj(v.T))


def parseval_family(k: ModuleOperator) -> OperatorFamily:
    """The Parseval *-K-g-frame of one member whose flat is K^H: its frame
    operator K^H K is flat(KK*), so the optimal lower bound is 1."""
    return OperatorFamily([ModuleOperator(k.dim, k.source_rank, k.source_rank, np.conj(k.flat.T))])


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
    spec = dataclasses.replace(spec, bounds=FrameBounds(
        lower=spec.bounds.alpha * skew, upper=spec.bounds.upper, mode="algebra"
    ))
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


def douglas_oracle(k: np.ndarray, l: np.ndarray) -> bool:
    """Independent oracle for R(K) in R(L) on flat k, l of unit scale: three
    criteria, each cut at ``tol * max(sigma_max, 1)`` with tol = 1e-8
    (absolute, so meant for operands near norm 1), asserted to agree.

    (a) rank of l equals the rank of the row-stacked [l; k];
    (b) lambda^2 l*l - k*k is PSD for lambda = ||k V1 S1^-1|| on the kept
        right singular vectors V1 of l;
    (c) D = k pinv(l) reproduces k: ||k - D l|| is within tolerance.
    """
    tol = 1e-8
    sig_stack = np.linalg.svd(np.vstack([l, k]), compute_uv=False)
    cut = tol * max(float(sig_stack[0]), 1.0)
    _, s_l, vh_l = np.linalg.svd(l, full_matrices=False)
    mask = s_l > cut
    by_rank = int(np.sum(sig_stack > cut)) == int(np.sum(mask))

    norm_k = float(np.linalg.norm(k, 2))
    lam = 0.0
    if np.any(mask):
        lam = float(np.linalg.norm(k @ np.conj(vh_l[mask].T) / s_l[mask][None, :], 2))
    gap = lam**2 * np.conj(l.T) @ l - np.conj(k.T) @ k
    by_major = np.linalg.eigvalsh(0.5 * (gap + np.conj(gap.T)))[0] >= -tol * (1.0 + norm_k**2)

    residual = float(np.linalg.norm(k - k @ np.linalg.pinv(l, rcond=tol) @ l, 2))
    by_factor = residual <= tol * (1.0 + norm_k)
    assert by_rank == by_major == by_factor, (by_rank, by_major, by_factor)
    return bool(by_rank)
