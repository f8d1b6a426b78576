"""Algebra kernel: involution, positivity, Loewner order, roots, modulus."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modframes import NotPositiveError, ShapeMismatchError, algebra
from conftest import make_rng, random_psd, random_unitary


class TestAdjoint:
    def test_identity_self_adjoint(self):
        eye = algebra.identity(2)
        assert np.array_equal(algebra.adjoint(eye), eye)

    def test_real_nilpotent_transposes(self):
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.array_equal(algebra.adjoint(a), np.array([[0, 0], [1, 0]]))

    def test_entrywise_conjugation(self):
        a = np.array([[1j, 0], [0, 0]])
        assert np.array_equal(algebra.adjoint(a), np.array([[-1j, 0], [0, 0]]))

    def test_involution(self):
        rng = make_rng(0)
        for _ in range(20):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert np.array_equal(algebra.adjoint(algebra.adjoint(a)), a)


class TestIsPositive:
    def test_identity(self):
        v = algebra.is_positive(algebra.identity(2))
        assert v.is_positive and v.is_hermitian
        assert v.min_eigenvalue == pytest.approx(1.0)

    def test_non_hermitian_rejected(self):
        v = algebra.is_positive(np.array([[0, 1], [0, 0]], dtype=complex))
        assert not v.is_hermitian and not v.is_positive

    def test_known_min_eigenvalue(self):
        # Characteristic polynomial of [[2,1],[1,1]] is l^2 - 3l + 1.
        expected = (3 - math.sqrt(5)) / 2
        v = algebra.is_positive(np.array([[2, 1], [1, 1]], dtype=complex))
        assert v.is_positive
        assert v.min_eigenvalue == pytest.approx(expected, abs=1e-12)

    def test_verdict_internal_consistency(self):
        rng = make_rng(1)
        for _ in range(50):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            v = algebra.is_positive(a)
            assert v.is_positive == (v.is_hermitian and v.min_eigenvalue >= -v.tolerance_used)
            if v.is_positive:
                assert v.is_hermitian

    def test_star_square_always_positive(self):
        rng = make_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert algebra.is_positive(algebra.adjoint(a) @ a).is_positive


class TestLoewner:
    def test_zero_below_identity(self):
        assert algebra.loewner_leq(algebra.zero(2), algebra.identity(2))

    def test_identity_not_below_zero(self):
        assert not algebra.loewner_leq(algebra.identity(2), algebra.zero(2))

    def test_known_difference(self):
        # Difference [[1,1],[1,1]] has eigenvalues {0, 2}.
        a = np.eye(2, dtype=complex)
        b = np.array([[2, 1], [1, 2]], dtype=complex)
        assert algebra.loewner_leq(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            algebra.loewner_leq(algebra.identity(2), algebra.identity(3))

    def test_reflexive_and_transitive(self):
        rng = make_rng(3)
        for _ in range(30):
            a = random_psd(3, rng)
            assert algebra.loewner_leq(a, a)
            b = a + random_psd(3, rng)
            c = b + random_psd(3, rng)
            assert algebra.loewner_leq(a, b) and algebra.loewner_leq(b, c)
            assert algebra.loewner_leq(a, c)


class TestSqrt:
    def test_diagonal(self):
        r = algebra.sqrt_psd(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(r, np.diag([2.0, 3.0]))

    def test_identity(self):
        assert np.allclose(algebra.sqrt_psd(algebra.identity(3)), algebra.identity(3))

    def test_multiply_back_on_random_psd(self):
        rng = make_rng(4)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            p = random_psd(d, rng)
            r = algebra.sqrt_psd(p)
            assert np.linalg.norm(r @ r - p, 2) <= 1e-10 * (1 + np.linalg.norm(p, 2))
            assert np.linalg.norm(r - np.conj(r.T), 2) <= 1e-12 * (1 + np.linalg.norm(r, 2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveError):
            algebra.sqrt_psd(np.diag([1.0, -1.0]).astype(complex))


class TestAbs:
    def test_identity(self):
        assert np.allclose(algebra.abs_element(algebra.identity(2)), algebra.identity(2))

    def test_nilpotent(self):
        # a*a = diag(0, 1), so |a| = diag(0, 1).
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert np.allclose(algebra.abs_element(a), np.diag([0.0, 1.0]))

    def test_unitary_has_unit_modulus(self):
        rng = make_rng(5)
        for _ in range(20):
            u = random_unitary(3, rng)
            assert np.linalg.norm(algebra.abs_element(u) - np.eye(3), 2) <= 1e-10


class TestStrictlyNonzero:
    def test_identity(self):
        assert algebra.is_strictly_nonzero(algebra.identity(2))

    def test_zero(self):
        assert not algebra.is_strictly_nonzero(algebra.zero(2))

    def test_condition_cap(self):
        """a a* has eigenvalues sigma^2, so the kernel rule's cut
        sigma_min^2 > 1e-12 sigma_max^2 is cond(a) < 1e6."""
        a = np.diag([1.0, 1e-15]).astype(complex)
        assert not algebra.is_strictly_nonzero(a)
        assert algebra.is_strictly_nonzero(np.diag([1.0, 1e-3]).astype(complex))
        u, v = random_unitary(3, make_rng(8)), random_unitary(3, make_rng(9))
        for cond, strict in ((9e5, True), (2e6, False)):
            a = (u * np.array([1.0, 0.5, 1.0 / cond])) @ np.conj(v.T)
            assert algebra.is_strictly_nonzero(a) is strict


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=5))
def test_sqrt_of_star_square_is_modulus(seed, d):
    rng = make_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = algebra.abs_element(a)
    # |a| is positive and squares back to a*a.
    assert algebra.is_positive(m).is_positive
    assert np.linalg.norm(m @ m - np.conj(a.T) @ a, 2) <= 1e-9 * (1 + np.linalg.norm(a, 2) ** 2)
