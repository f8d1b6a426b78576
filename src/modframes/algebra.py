"""Kernel operations on the matrix C*-algebra M_d(C).

Algebra elements are plain complex d x d ndarrays; the functions here give
them the C*-structure: involution, norm, positivity, and an invertibility
test used for "strictly nonzero" bound elements.  The package's one kernel rule
(``KERNEL_RTOL``, ``range_mask``) and its one certification tolerance
(``DEFAULT_TOL``, ``threshold``) live here, below every module using them.

Positivity is decided with a relative tolerance: an element counts as
positive when it is Hermitian within ``tol * (1 + ||a||)`` and its smallest
eigenvalue is above ``-tol * (1 + ||a||)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatchError

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


def is_strictly_nonzero(a: np.ndarray) -> bool:
    """Whether the kernel rule finds no kernel in a a* (eigenvalues sigma(a)^2),
    i.e. cond(a) < 1e6: bound elements get multiplied and norm-divided, so
    they must be invertible, as ``canonical_dual`` asks of the frame operator.
    """
    sigma = np.linalg.svd(as_element(a), compute_uv=False)
    return bool(range_mask(sigma[::-1] ** 2)[0])  # the smallest decides
