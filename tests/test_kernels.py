"""The reference gap kernels that the certification tests use as an oracle."""

import numpy as np
import pytest

from modframes import _kernels
from conftest import make_rng, random_psd


def _random_inputs(seed, n_samples=40, d=2, n=3):
    rng = make_rng(seed)
    nd = n * d
    samples = (
        rng.standard_normal((n_samples, d, nd)) + 1j * rng.standard_normal((n_samples, d, nd))
    ) / np.sqrt(2)
    s_hat = random_psd(nd, rng)
    m_hat = random_psd(nd, rng)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return samples, s_hat, m_hat, a, b


def test_backend_reported():
    assert _kernels.backend() == "numpy"


def test_gap_eigs_matches_direct_formula():
    samples, s_hat, m_hat, a, b = _random_inputs(1, n_samples=20)
    lo, up = _kernels.gap_eigs(samples, s_hat, m_hat, a, b)
    for k in range(samples.shape[0]):
        x = samples[k]
        g_lo = x @ s_hat @ np.conj(x.T) - a @ (x @ m_hat @ np.conj(x.T)) @ np.conj(a.T)
        g_up = b @ (x @ np.conj(x.T)) @ np.conj(b.T) - x @ s_hat @ np.conj(x.T)
        assert lo[k] == pytest.approx(
            np.linalg.eigvalsh(0.5 * (g_lo + np.conj(g_lo.T)))[0], abs=1e-11
        )
        assert up[k] == pytest.approx(
            np.linalg.eigvalsh(0.5 * (g_up + np.conj(g_up.T)))[0], abs=1e-11
        )


def test_minimize_gap_finds_known_negative_direction():
    """With C1 = C2 = I the objective is lambda_min of X(P - Q)X*; descending
    must reach the most negative eigenvalue of P - Q at d = 1."""
    rng = make_rng(3)
    n = 5
    p = random_psd(n, rng)
    q = random_psd(n, rng) + 0.5 * np.eye(n)
    eye1 = np.eye(1, dtype=np.complex128)
    target = np.linalg.eigvalsh(0.5 * ((p - q) + np.conj((p - q).T)))[0]
    best = np.inf
    for trial in range(10):
        x0 = (rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))) / np.sqrt(2)
        val, wit = _kernels.minimize_gap(x0, p, q, eye1, eye1, 400, 1e-2, np.inf)
        best = min(best, val)
        # the reported witness reproduces the reported value
        g = wit @ (p - q) @ np.conj(wit.T)
        assert val == pytest.approx(g[0, 0].real, abs=1e-9)
    assert best == pytest.approx(target, rel=1e-4, abs=1e-7)


def test_minimize_gap_stops_early_on_violation():
    rng = make_rng(4)
    n = 4
    p = np.zeros((n, n), dtype=np.complex128)
    q = np.eye(n, dtype=np.complex128)
    eye1 = np.eye(1, dtype=np.complex128)
    x0 = (rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))) / np.sqrt(2)
    # objective is -||X||^2 = -1 on the sphere: any step certifies violation
    val, _ = _kernels.minimize_gap(x0, p, q, eye1, eye1, 400, 1e-2, 1e-9)
    assert val <= -0.9
