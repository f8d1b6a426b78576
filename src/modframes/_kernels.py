"""Reference gap kernels, kept as the test oracle for ``frames.certify``.

Both kernels evaluate the algebra-valued gap

    gap(X) = C1 X P X* C1* - C2 X Q X* C2*

for flattened module vectors X (d x nd blocks): ``gap_eigs`` evaluates the
smallest eigenvalues of both frame-inequality gaps over a sample array, and
``minimize_gap`` runs projected gradient descent with backtracking on the
smallest eigenvalue over the unit sphere, hunting for falsifying directions.
The library does not call them: ``certify`` decides every case exactly or
structurally, and the tests compare it against these searches.
"""

from __future__ import annotations

import numpy as np


def gap_eigs(samples, s_hat, m_hat, a_low, b_up):
    """Smallest eigenvalues of the lower/upper gap matrices per sample.

    samples: (N, d, n*d) complex; s_hat, m_hat: (n*d, n*d) Hermitian;
    a_low, b_up: (d, d) bound elements.  Returns (lower[N], upper[N]).
    """
    n = samples.shape[0]
    lower = np.empty(n, dtype=np.float64)
    upper = np.empty(n, dtype=np.float64)
    a_h = np.conj(a_low.T)
    b_h = np.conj(b_up.T)
    for k in range(n):
        x = samples[k]
        xh = np.conj(x.T)
        xs = x @ s_hat @ xh
        xx = x @ xh
        xm = x @ m_hat @ xh
        g_lo = xs - a_low @ xm @ a_h
        g_lo = 0.5 * (g_lo + np.conj(g_lo.T))
        lower[k] = np.linalg.eigvalsh(g_lo)[0]
        g_up = b_up @ xx @ b_h - xs
        g_up = 0.5 * (g_up + np.conj(g_up.T))
        upper[k] = np.linalg.eigvalsh(g_up)[0]
    return lower, upper


def minimize_gap(x0, p, q, c1, c2, iters, step0, stop_tol):
    """Projected gradient descent for min_X lambda_min(gap(X)), ||X||_F = 1.

    The descent direction is the Wirtinger gradient of the smallest
    eigenvalue, C1* v v* C1 X P - C2* v v* C2 X Q for the current minimal
    eigenvector v.  Backtracking halves the step until the value decreases;
    the search stops early once a value below -stop_tol is found or the
    step stalls.
    """
    x = x0 / np.linalg.norm(x0)
    y1 = c1 @ x
    y2 = c2 @ x
    g = y1 @ p @ np.conj(y1.T) - y2 @ q @ np.conj(y2.T)
    g = 0.5 * (g + np.conj(g.T))
    w, v = np.linalg.eigh(g)
    f = w[0]
    vec = np.ascontiguousarray(v[:, 0])
    best = f
    x_best = x.copy()
    step = step0
    for _ in range(iters):
        if best < -stop_tol:
            break
        vv = np.outer(vec, np.conj(vec))
        grad = (
            np.conj(c1.T) @ vv @ c1 @ x @ p
            - np.conj(c2.T) @ vv @ c2 @ x @ q
        )
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            break
        accepted = False
        for _ in range(30):
            x_new = x - step * grad
            nrm = np.linalg.norm(x_new)
            if nrm < 1e-14:
                step *= 0.5
                continue
            x_new = x_new / nrm
            y1 = c1 @ x_new
            y2 = c2 @ x_new
            g = y1 @ p @ np.conj(y1.T) - y2 @ q @ np.conj(y2.T)
            g = 0.5 * (g + np.conj(g.T))
            w, v = np.linalg.eigh(g)
            f_new = w[0]
            if f_new < f:
                x = x_new
                f = f_new
                vec = np.ascontiguousarray(v[:, 0])
                accepted = True
                break
            step *= 0.5
            if step < 1e-12:
                break
        if not accepted:
            break
        if f < best:
            best = f
            x_best = x.copy()
        step = min(step * 1.5, step0 * 10.0)
    return best, x_best


def backend() -> str:
    """Kernel backend; pure numpy is the only one."""
    return "numpy"
