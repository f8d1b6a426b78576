"""Elements of the free left Hilbert module A^n over A = M_d(C).

A vector x = (x_1, ..., x_n) with d x d blocks is stored flattened as the
d x (n*d) block row [x_1 ... x_n].  In this representation the A-valued
inner product is an ordinary matrix product, <x, y> = X Y*, linear in the
first slot, and the module action a.x is the left product a X.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .errors import ShapeMismatchError


@dataclass
class ModuleVector:
    """Element of A^n, stored as the flattened d x (n*d) block row."""

    dim: int
    rank: int
    flat: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.flat = np.ascontiguousarray(self.flat, dtype=np.complex128)
        if self.flat.shape != (self.dim, self.rank * self.dim):
            raise ShapeMismatchError(
                f"flat array has shape {self.flat.shape}, expected "
                f"({self.dim}, {self.rank * self.dim})"
            )

    @classmethod
    def rank_one(cls, dim: int, x: np.ndarray) -> "ModuleVector":
        """First row conj(x), zeros below: X P X* = (x* P x) e_1 e_1* for any P."""
        flat = np.zeros((dim, len(x)), dtype=np.complex128)
        flat[0, :] = np.conj(x)
        return cls(dim, len(x) // dim, flat)

    @classmethod
    def zero(cls, dim: int, rank: int) -> "ModuleVector":
        return cls(dim=dim, rank=rank, flat=np.zeros((dim, rank * dim), dtype=np.complex128))

    def block(self, i: int) -> np.ndarray:
        if not 0 <= i < self.rank:
            raise IndexError(f"block index {i} out of range for rank {self.rank}")
        return self.flat[:, i * self.dim : (i + 1) * self.dim].copy()

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _check_same_space(self, other)
        return ModuleVector(self.dim, self.rank, self.flat + other.flat)


def _check_same_space(x: ModuleVector, y: ModuleVector) -> None:
    if x.dim != y.dim or x.rank != y.rank:
        raise ShapeMismatchError(
            f"vectors live in different spaces: (d={x.dim}, n={x.rank}) vs "
            f"(d={y.dim}, n={y.rank})"
        )


def inner_product(x: ModuleVector, y: ModuleVector) -> np.ndarray:
    """A-valued inner product sum_i x_i y_i*, linear in the first slot."""
    _check_same_space(x, y)
    return x.flat @ np.conj(y.flat.T)


def module_action(a: np.ndarray, x: ModuleVector) -> ModuleVector:
    """Left module action a.x = (a x_i)_i."""
    a = algebra.as_element(a)
    if a.shape[0] != x.dim:
        raise ShapeMismatchError(f"algebra dim {a.shape[0]} != vector dim {x.dim}")
    return ModuleVector(x.dim, x.rank, a @ x.flat)


def norm(x: ModuleVector) -> float:
    """Module norm ||x|| = ||<x, x>||^(1/2), the largest singular value of X."""
    return float(np.linalg.norm(x.flat, 2))


def random_vector(dim: int, rank: int, rng: np.random.Generator) -> ModuleVector:
    """Standard complex Gaussian entries, normalized to unit norm."""
    flat = (
        rng.standard_normal((dim, rank * dim)) + 1j * rng.standard_normal((dim, rank * dim))
    ) / np.sqrt(2.0)
    x = ModuleVector(dim, rank, flat)
    nrm = norm(x)
    return ModuleVector(dim, rank, flat / nrm) if nrm > 0 else x


def sample_vectors(dim: int, rank: int, count: int, seed: int) -> list[ModuleVector]:
    """Shared sampling scheme: ``count`` random unit vectors, reproducible from
    the seed, followed by one rank-one probe per flattened direction,
    X_k = e_{k mod d} e_k^H."""
    rng = np.random.default_rng(seed)
    vecs = [random_vector(dim, rank, rng) for _ in range(count)]
    for k in range(rank * dim):
        flat = np.zeros((dim, rank * dim), dtype=np.complex128)
        flat[k % dim, k] = 1.0
        vecs.append(ModuleVector(dim, rank, flat))
    return vecs
