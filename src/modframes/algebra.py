"""Kernel operations on the matrix C*-algebra M_d(C).

Algebra elements are plain complex d x d ndarrays; the functions here give
them the C*-structure: involution, positivity and the Loewner order,
positive square roots, modulus, and an invertibility test used for
"strictly nonzero" bound elements.  The package's one kernel rule
(``KERNEL_RTOL``, ``range_mask``) and its one certification tolerance
(``DEFAULT_TOL``, ``threshold``) live here, below every module using them.

Positivity is decided with a relative tolerance: an element counts as
positive when it is Hermitian within ``tol * (1 + ||a||)`` and its smallest
eigenvalue is above ``-tol * (1 + ||a||)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveError, ShapeMismatchError

# The default of every decision's ``tol`` and of the CLI's --tol.
DEFAULT_TOL = 1e-9

# Eigenvalues of a PSD s below this multiple of its largest span its kernel;
# p reaches that kernel when p's largest eigenvalue there exceeds this
# multiple of p's whole trace, plus eigh's backward error, len(p) eps of it.
KERNEL_RTOL = 1e-12


def range_mask(w: np.ndarray) -> np.ndarray:
    """The kernel rule on s's ascending eigenvalues w: True on s's range."""
    return w > KERNEL_RTOL * max(float(w[-1]), 0.0)


def threshold(tol: float, scale: float = 0.0) -> float:
    """The one certification threshold: ``tol`` relative to ``scale`` above 1, absolute below."""
    return tol * max(1.0, scale)


def as_element(a) -> np.ndarray:
    """Coerce to a square complex128 matrix, validating the shape."""
    arr = np.ascontiguousarray(a, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeMismatchError(f"algebra element must be square 2-D, got shape {arr.shape}")
    return arr


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def zero(dim: int) -> np.ndarray:
    return np.zeros((dim, dim), dtype=np.complex128)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Involution a -> a*: the conjugate transpose."""
    return np.conj(as_element(a).T)


def opnorm(a: np.ndarray) -> float:
    """C*-norm of an element: the largest singular value."""
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of a positivity test.

    ``min_eigenvalue`` refers to the Hermitian part (a + a*)/2 and
    ``tolerance_used`` is the absolute threshold after scaling, so
    ``is_positive == is_hermitian and min_eigenvalue >= -tolerance_used``.
    """

    is_hermitian: bool
    min_eigenvalue: float
    is_positive: bool
    tolerance_used: float


def hermitian_part(a: np.ndarray) -> np.ndarray:
    a = as_element(a)
    return 0.5 * (a + np.conj(a.T))


def is_positive(a: np.ndarray, tol: float = DEFAULT_TOL) -> PositivityVerdict:
    """Decide membership in the positive cone of M_d(C).

    The element is first checked for Hermiticity (``||a - a*||`` against the
    scaled tolerance), then symmetrized before the eigenvalue call so the
    spectral computation is numerically stable.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    a = as_element(a)
    scale = tol * (1.0 + opnorm(a))
    hermitian = opnorm(a - np.conj(a.T)) <= scale
    min_eig = float(np.linalg.eigvalsh(hermitian_part(a))[0])
    return PositivityVerdict(
        is_hermitian=hermitian,
        min_eigenvalue=min_eig,
        is_positive=hermitian and min_eig >= -scale,
        tolerance_used=scale,
    )


def loewner_leq(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Loewner order: a <= b iff b - a is positive."""
    a = as_element(a)
    b = as_element(b)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"Loewner comparison needs equal dims, got {a.shape} vs {b.shape}")
    return is_positive(b - a, tol).is_positive


def sqrt_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a positive element.

    Eigenvalues that are negative but within tolerance are clamped to zero;
    a genuinely negative spectrum raises ``NotPositiveError``.
    """
    verdict = is_positive(a, tol)
    if not verdict.is_positive:
        raise NotPositiveError(
            f"sqrt_psd needs a positive element (hermitian={verdict.is_hermitian}, "
            f"min eigenvalue={verdict.min_eigenvalue:.3e})"
        )
    w, v = np.linalg.eigh(hermitian_part(a))
    w = np.clip(w, 0.0, None)
    r = (v * np.sqrt(w)) @ np.conj(v.T)
    return hermitian_part(r)


def abs_element(a: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Modulus |a| = (a* a)^(1/2)."""
    a = as_element(a)
    return sqrt_psd(np.conj(a.T) @ a, tol)


def is_strictly_nonzero(a: np.ndarray) -> bool:
    """Whether the kernel rule finds no kernel in a a* (eigenvalues sigma(a)^2),
    i.e. cond(a) < 1e6: bound elements get multiplied and norm-divided, so
    they must be invertible, as ``canonical_dual`` asks of the frame operator.
    """
    sigma = np.linalg.svd(as_element(a), compute_uv=False)
    return bool(range_mask(sigma[::-1] ** 2)[0])  # the smallest decides
