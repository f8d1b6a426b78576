"""Hilbert module axioms, norms, and the inner product over a direct sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modframes import (
    ModuleVector,
    ShapeMismatchError,
    algebra,
    inner_product,
    module_action,
    norm,
    random_vector,
)
from conftest import make_rng


def test_inner_product_orthogonal_coordinates():
    x = ModuleVector(1, 2, [[1.0, 0.0]])
    y = ModuleVector(1, 2, [[0.0, 1.0]])
    assert inner_product(x, y) == pytest.approx(0.0)


def test_inner_product_single_identity_block():
    x = ModuleVector(2, 1, np.eye(2))
    assert np.allclose(inner_product(x, x), np.eye(2))


def test_inner_product_conjugate_symmetry():
    rng = make_rng(0)
    for _ in range(30):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        x = random_vector(d, n, rng)
        y = random_vector(d, n, rng)
        lhs = inner_product(x, y)
        rhs = algebra.adjoint(inner_product(y, x))
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


def test_positivity_axiom_and_definiteness():
    rng = make_rng(1)
    for _ in range(30):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        x = random_vector(d, n, rng)
        assert algebra.is_positive(inner_product(x, x)).is_positive
        assert np.linalg.norm(inner_product(x, x), 2) > 1e-12
    z = ModuleVector.zero(2, 3)
    assert np.linalg.norm(inner_product(z, z), 2) == 0.0


def test_module_action_identity_and_zero():
    rng = make_rng(2)
    x = random_vector(2, 3, rng)
    assert np.array_equal(module_action(algebra.identity(2), x).flat, x.flat)
    assert not np.any(module_action(algebra.zero(2), x).flat)


def test_sesquilinearity_axiom():
    # <a x + y, z> = a <x, z> + <y, z>
    rng = make_rng(3)
    for _ in range(30):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x, y, z = (random_vector(d, n, rng) for _ in range(3))
        lhs = inner_product(module_action(a, x) + y, z)
        rhs = a @ inner_product(x, z) + inner_product(y, z)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


def test_module_action_is_linear_in_inner_product():
    rng = make_rng(4)
    for _ in range(20):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x, z = random_vector(2, 3, rng), random_vector(2, 3, rng)
        lhs = inner_product(module_action(a, x), z)
        assert np.linalg.norm(lhs - a @ inner_product(x, z), 2) <= 1e-12


def test_norm_zero_vector():
    assert norm(ModuleVector.zero(3, 2)) == 0.0


def test_norm_euclidean_reduction():
    x = ModuleVector(1, 2, [[3.0, 4.0]])
    assert norm(x) == pytest.approx(5.0)


def test_norm_single_block_is_max_singular_value(rng):
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    x = ModuleVector(3, 1, a)
    assert norm(x) == pytest.approx(np.linalg.svd(a, compute_uv=False)[0])


def test_classical_reduction_dim_one():
    rng = make_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        x = random_vector(1, n, rng)
        y = random_vector(1, n, rng)
        xv, yv = x.flat.ravel(), y.flat.ravel()
        assert abs(inner_product(x, y)[0, 0] - np.sum(xv * np.conj(yv))) <= 1e-14


def test_direct_sum_inner_product_is_blockwise_sum(rng):
    xs = [random_vector(2, r, rng) for r in (2, 1)]
    ys = [random_vector(2, r, rng) for r in (2, 1)]
    x_sum, y_sum = (ModuleVector(2, 3, np.hstack([v.flat for v in vs])) for vs in (xs, ys))
    lhs = inner_product(x_sum, y_sum)
    rhs = sum(inner_product(a, b) for a, b in zip(xs, ys))
    assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


def test_shape_mismatch_raises(rng):
    with pytest.raises(ShapeMismatchError):
        inner_product(random_vector(2, 3, rng), random_vector(2, 2, rng))
    with pytest.raises(ShapeMismatchError):
        module_action(algebra.identity(3), random_vector(2, 2, rng))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_vectors_have_unit_norm(seed):
    rng = make_rng(seed)
    x = random_vector(int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng)
    assert norm(x) == pytest.approx(1.0, abs=1e-12)
