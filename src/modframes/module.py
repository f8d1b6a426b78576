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
class ModuleSpace:
    """Descriptor of A^n (and of direct sums, via the per-summand ranks)."""

    dim: int
    rank: int
    ranks: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.dim < 1 or self.rank < 1:
            raise ValueError("dim and rank must be positive")
        if self.ranks is not None:
            self.ranks = tuple(int(r) for r in self.ranks)
            if sum(self.ranks) != self.rank:
                raise ShapeMismatchError(
                    f"sum of summand ranks {self.ranks} != total rank {self.rank}"
                )

    @classmethod
    def direct_sum_of(cls, dim: int, ranks) -> "ModuleSpace":
        ranks = tuple(int(r) for r in ranks)
        return cls(dim=dim, rank=sum(ranks), ranks=ranks)

    @property
    def flat_size(self) -> int:
        return self.dim * self.rank


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
    def from_blocks(cls, blocks) -> "ModuleVector":
        blocks = [algebra.as_element(b) for b in blocks]
        if not blocks:
            raise ValueError("a module vector needs at least one block")
        d = blocks[0].shape[0]
        if any(b.shape != (d, d) for b in blocks):
            raise ShapeMismatchError("all blocks must share the algebra dimension")
        return cls(dim=d, rank=len(blocks), flat=np.hstack(blocks))

    @classmethod
    def zero(cls, dim: int, rank: int) -> "ModuleVector":
        return cls(dim=dim, rank=rank, flat=np.zeros((dim, rank * dim), dtype=np.complex128))

    def block(self, i: int) -> np.ndarray:
        if not 0 <= i < self.rank:
            raise IndexError(f"block index {i} out of range for rank {self.rank}")
        return self.flat[:, i * self.dim : (i + 1) * self.dim].copy()

    @property
    def blocks(self) -> list[np.ndarray]:
        return [self.block(i) for i in range(self.rank)]

    @property
    def space(self) -> ModuleSpace:
        return ModuleSpace(dim=self.dim, rank=self.rank)

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _check_same_space(self, other)
        return ModuleVector(self.dim, self.rank, self.flat + other.flat)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        _check_same_space(self, other)
        return ModuleVector(self.dim, self.rank, self.flat - other.flat)

    def __mul__(self, scalar: complex) -> "ModuleVector":
        return ModuleVector(self.dim, self.rank, self.flat * scalar)

    __rmul__ = __mul__


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


def direct_sum(parts: list[ModuleVector]) -> ModuleVector:
    """Concatenate vectors into the direct-sum module; rank adds up."""
    if not parts:
        raise ValueError("direct_sum of an empty list")
    d = parts[0].dim
    if any(p.dim != d for p in parts):
        raise ShapeMismatchError("direct_sum parts must share the algebra dimension")
    return ModuleVector(d, sum(p.rank for p in parts), np.hstack([p.flat for p in parts]))


def coordinate_projection(space: ModuleSpace, i: int, x: ModuleVector) -> ModuleVector:
    """The i-th summand of a vector living in the direct sum ``space``."""
    if space.ranks is None:
        raise ValueError("space does not describe a direct sum (no ranks)")
    if x.dim != space.dim or x.rank != space.rank:
        raise ShapeMismatchError("vector does not live in the given direct sum")
    if not 0 <= i < len(space.ranks):
        raise IndexError(f"summand index {i} out of range for {len(space.ranks)} summands")
    offset = sum(space.ranks[:i])
    ni = space.ranks[i]
    flat = x.flat[:, offset * space.dim : (offset + ni) * space.dim]
    return ModuleVector(space.dim, ni, flat.copy())


def random_vector(dim: int, rank: int, rng: np.random.Generator, unit: bool = True) -> ModuleVector:
    """Standard complex Gaussian entries, optionally normalized to unit norm."""
    flat = (
        rng.standard_normal((dim, rank * dim)) + 1j * rng.standard_normal((dim, rank * dim))
    ) / np.sqrt(2.0)
    x = ModuleVector(dim, rank, flat)
    if unit:
        nrm = norm(x)
        if nrm > 0:
            x = ModuleVector(dim, rank, flat / nrm)
    return x


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
