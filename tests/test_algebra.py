"""Algebra kernel: involution, positivity, invertibility, the kernel rule and tolerance."""

import inspect
import math

import numpy as np
import pytest

from modframes import algebra, cli
from modframes import (
    certify,
    nfold_tensor_dual,
    perturbation_check,
    range_transfer_check,
    tensor_dual_check,
    transform_coisometry,
    verify_dual,
)
from conftest import make_rng, random_unitary


class TestAdjoint:
    def test_identity_self_adjoint(self):
        eye = np.eye(2, dtype=complex)
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
        v = algebra.is_positive(np.eye(2, dtype=complex))
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

    def test_negative_tol_is_rejected(self):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            algebra.is_positive(np.eye(2, dtype=complex), tol=-1e-9)

    def test_star_square_always_positive(self):
        rng = make_rng(2)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert algebra.is_positive(algebra.adjoint(a) @ a).is_positive


class TestStrictlyNonzero:
    def test_identity(self):
        assert algebra.is_strictly_nonzero(np.eye(2, dtype=complex))

    def test_zero(self):
        assert not algebra.is_strictly_nonzero(np.zeros((2, 2), dtype=complex))

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


class TestThreshold:
    """The one certification tolerance: its rule and its default."""

    def test_absolute_up_to_scale_one_relative_above(self):
        assert algebra.threshold(1e-9) == 1e-9
        assert algebra.threshold(1e-9, 0.5) == algebra.threshold(1e-9, 1.0) == 1e-9
        assert algebra.threshold(1e-9, 8.0) == 8e-9
        assert algebra.threshold(0.0, 1e300) == 0.0

    @pytest.mark.parametrize("decision", [
        certify, verify_dual, tensor_dual_check, nfold_tensor_dual, perturbation_check,
        range_transfer_check, transform_coisometry, algebra.is_positive,
    ], ids=lambda f: f.__name__)
    def test_every_decision_defaults_to_it(self, decision):
        assert inspect.signature(decision).parameters["tol"].default == algebra.DEFAULT_TOL

    @pytest.mark.parametrize("sub", ["verify", "dual", "perturb", "tensor"])
    def test_the_cli_defaults_to_it(self, sub):
        assert cli.build_parser().parse_args([sub, "spec.json"]).tol == algebra.DEFAULT_TOL
