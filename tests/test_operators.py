"""Adjointable operator algebra and the range-inclusion toolkit."""

import math

import numpy as np
import pytest

from modframes import (
    ModuleOperator,
    NotPositiveError,
    OperatorFamily,
    ShapeMismatchError,
    apply,
    compose,
    douglas_check,
    flatten,
    generate_instance,
    inner_product,
    module_action,
    op_adjoint,
    operator_pencil_alpha,
    optimal_scalar_bounds,
    pseudoinverse,
    random_operator,
    random_vector,
    unflatten,
)
from modframes.operators import pencil_alpha_flat, pencil_max
from conftest import cholesky_pencil_max, make_rng, pencil_alpha_bisect, random_psd


class TestApply:
    def test_identity(self, rng):
        x = random_vector(2, 3, rng)
        assert np.allclose(apply(ModuleOperator.identity(2, 3), x).flat, x.flat)

    def test_zero(self, rng):
        x = random_vector(2, 3, rng)
        assert not np.any(apply(ModuleOperator.zero(2, 3, 2), x).flat)

    def test_a_linearity(self):
        rng = make_rng(0)
        for _ in range(30):
            d, n, m = 2, 3, 2
            t = random_operator(d, n, m, rng)
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x = random_vector(d, n, rng)
            lhs = apply(t, module_action(a, x))
            rhs = module_action(a, apply(t, x))
            assert np.linalg.norm(lhs.flat - rhs.flat) <= 1e-12 * (1 + np.linalg.norm(rhs.flat))

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            apply(random_operator(2, 3, 2, rng), random_vector(2, 2, rng))


class TestAdjoint:
    def test_identity(self):
        t = ModuleOperator.identity(2, 3)
        assert np.array_equal(op_adjoint(t).flat, t.flat)

    def test_dim_one_is_conjugate_transpose(self, rng):
        t = random_operator(1, 3, 2, rng)
        assert np.array_equal(op_adjoint(t).flat, np.conj(t.flat.T))

    def test_blockwise_conjugate_transpose(self, rng):
        t = random_operator(2, 3, 2, rng)
        ta = op_adjoint(t)
        for i in range(3):
            for j in range(2):
                assert np.array_equal(ta.block(j, i), np.conj(t.block(i, j).T))

    def test_adjoint_identity_on_inner_products(self):
        rng = make_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 5))
            t = random_operator(d, n, m, rng)
            x = random_vector(d, n, rng)
            y = random_vector(d, m, rng)
            lhs = inner_product(apply(t, x), y)
            rhs = inner_product(x, apply(op_adjoint(t), y))
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-12

    def test_involution(self, rng):
        t = random_operator(3, 2, 4, rng)
        assert np.array_equal(op_adjoint(op_adjoint(t)).flat, t.flat)


class TestComposeFlatten:
    def test_identity_neutral(self, rng):
        t = random_operator(2, 3, 2, rng)
        assert np.allclose(compose(ModuleOperator.identity(2, 3), t).flat, t.flat)
        assert np.allclose(compose(t, ModuleOperator.identity(2, 2)).flat, t.flat)

    def test_zero_absorbs(self, rng):
        t = random_operator(2, 3, 2, rng)
        assert not np.any(compose(t, ModuleOperator.zero(2, 2, 4)).flat)

    def test_action_replay(self):
        rng = make_rng(2)
        for _ in range(30):
            t = random_operator(2, 3, 2, rng)
            s = random_operator(2, 2, 4, rng)
            x = random_vector(2, 3, rng)
            lhs = apply(compose(t, s), x)
            rhs = apply(s, apply(t, x))
            assert np.linalg.norm(lhs.flat - rhs.flat) <= 1e-12 * (1 + np.linalg.norm(rhs.flat))

    def test_flatten_homomorphism(self):
        rng = make_rng(3)
        for _ in range(30):
            t = random_operator(2, 3, 2, rng)
            s = random_operator(2, 2, 4, rng)
            lhs = flatten(compose(t, s))
            rhs = flatten(t) @ flatten(s)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * (1 + np.linalg.norm(rhs, 2))

    def test_flatten_round_trip(self, rng):
        t = random_operator(3, 2, 4, rng)
        back = unflatten(flatten(t), 3, 2, 4)
        assert np.array_equal(back.flat, t.flat)

    def test_flatten_identity(self):
        assert np.array_equal(flatten(ModuleOperator.identity(2, 3)), np.eye(6))

    def test_flatten_action_consistency(self, rng):
        t = random_operator(2, 3, 2, rng)
        x = random_vector(2, 3, rng)
        assert np.allclose(x.flat @ flatten(t), apply(t, x).flat)


class TestPseudoinverse:
    def test_identity(self):
        t = ModuleOperator.identity(2, 3)
        assert np.allclose(pseudoinverse(t).flat, t.flat)

    def test_zero(self):
        t = ModuleOperator.zero(2, 3, 2)
        p = pseudoinverse(t)
        assert (p.source_rank, p.target_rank) == (2, 3)
        assert not np.any(p.flat)

    def test_penrose_identities(self):
        rng = make_rng(4)
        for _ in range(30):
            t = random_operator(2, int(rng.integers(1, 4)), int(rng.integers(1, 4)), rng)
            p = pseudoinverse(t)
            left = flatten(t) @ flatten(p) @ flatten(t)
            assert np.linalg.norm(left - flatten(t), 2) <= 1e-10 * (1 + np.linalg.norm(t.flat, 2))


class TestDouglas:
    def test_k_equals_l(self, rng):
        l = random_operator(2, 3, 2, rng)
        rep = douglas_check(l, l)
        assert rep.range_included
        assert rep.lambda_min == pytest.approx(1.0, abs=1e-9)
        assert rep.residual <= 1e-10
        assert np.linalg.norm(
            flatten(compose(rep.factor, l)) - flatten(l), 2
        ) <= 1e-10

    def test_k_zero(self, rng):
        l = random_operator(2, 3, 2, rng)
        rep = douglas_check(ModuleOperator.zero(2, 3, 2), l)
        assert rep.range_included
        assert rep.lambda_min == pytest.approx(0.0, abs=1e-12)
        assert not np.any(rep.factor.flat)

    def test_constructed_inclusion(self):
        rng = make_rng(5)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            e, f, g = (int(rng.integers(1, 4)) for _ in range(3))
            l = random_operator(d, e, f, rng)
            r = random_operator(d, g, e, rng)
            k = compose(r, l)  # K = L o R, so range(K) inside range(L)
            rep = douglas_check(k, l)
            assert rep.range_included
            assert rep.residual <= 1e-10
            # factor reproduces K = L D
            assert np.linalg.norm(
                flatten(compose(rep.factor, l)) - flatten(k), 2
            ) <= 1e-9 * (1 + np.linalg.norm(k.flat, 2))
            # the majorization constant is feasible and near-tight
            m_k = np.conj(k.flat.T) @ k.flat
            m_l = np.conj(l.flat.T) @ l.flat
            lam = rep.lambda_min
            assert np.linalg.eigvalsh(lam**2 * m_l - m_k)[0] >= -1e-8 * (
                1 + np.linalg.norm(m_k, 2)
            )
            if lam > 1e-6:
                shrunk = (lam * 0.99) ** 2
                assert np.linalg.eigvalsh(shrunk * m_l - m_k)[0] < 0

    def test_generic_non_inclusion(self):
        rng = make_rng(6)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            f = int(rng.integers(2, 4))
            l = random_operator(d, 1, f, rng)  # deficient row space
            k = random_operator(d, f, f, rng)
            rep = douglas_check(k, l)
            assert not rep.range_included
            assert rep.lambda_min is None and rep.factor is None
            assert rep.residual > 1e-6

    def test_target_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            douglas_check(random_operator(2, 3, 2, rng), random_operator(2, 3, 3, rng))


class TestPencil:
    def test_identity_pair(self):
        eye = ModuleOperator.identity(1, 3)
        assert operator_pencil_alpha(eye, eye) == pytest.approx(1.0)

    def test_scaled_identity(self):
        eye = ModuleOperator.identity(1, 3)
        assert operator_pencil_alpha(eye, 2.0 * eye) == pytest.approx(2.0)

    def test_zero_gives_sentinel(self):
        eye = ModuleOperator.identity(1, 3)
        assert math.isinf(operator_pencil_alpha(ModuleOperator.zero(1, 3, 3), eye))

    @pytest.mark.parametrize("c", [1e-3, 1e-5, 1e-8])
    def test_scale_invariance_of_small_target(self, c):
        # alpha(cK) = alpha(K) / c: a small p is not a zero p
        spec = generate_instance("known-bounds", 2, 2, 2, seed=1)
        fam, k = OperatorFamily(spec.operators), spec.target_operator
        alpha, _ = optimal_scalar_bounds(fam, k)
        alpha_c, _ = optimal_scalar_bounds(fam, c * k)
        assert c * alpha_c == pytest.approx(alpha, rel=1e-9)
        assert math.isinf(optimal_scalar_bounds(fam, 0.0 * k)[0])

    def test_rejects_non_positive(self):
        bad = ModuleOperator(1, 2, 2, np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(NotPositiveError):
            operator_pencil_alpha(bad, ModuleOperator.identity(1, 2))

    def test_matches_bisection_oracle_full_rank(self):
        rng = make_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            p = random_psd(n, rng)
            s = random_psd(n, rng)
            alpha = pencil_alpha_flat(p, s)
            oracle = pencil_alpha_bisect(p, s)
            assert alpha == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_matches_bisection_oracle_singular(self):
        rng = make_rng(8)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            p = random_psd(n, rng, rank=int(rng.integers(1, n + 1)))
            s = random_psd(n, rng)
            alpha = pencil_alpha_flat(p, s)
            oracle = pencil_alpha_bisect(p, s)
            if math.isinf(oracle):
                assert math.isinf(alpha)
            else:
                assert alpha == pytest.approx(oracle, rel=1e-6, abs=1e-9)

    def test_feasibility_of_reported_alpha(self):
        rng = make_rng(9)
        for _ in range(20):
            n = 4
            p = random_psd(n, rng, rank=2)
            s = random_psd(n, rng)
            alpha = pencil_alpha_flat(p, s)
            if math.isinf(alpha):
                continue
            gap = s - alpha * p
            assert np.linalg.eigvalsh(0.5 * (gap + np.conj(gap.T)))[0] >= -1e-9 * (
                1 + np.linalg.norm(s, 2)
            )


class TestPencilMax:
    """pencil_max is the one pencil routine: alpha = 1 / lambda_max."""

    def test_matches_cholesky_oracle(self):
        rng = make_rng(12)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            p = random_psd(n, rng, rank=int(rng.integers(1, n + 1)))
            s = random_psd(n, rng)
            lam, x = pencil_max(p, s)
            assert lam == pytest.approx(cholesky_pencil_max(p, s), rel=1e-9)
            # the witness attains the value
            ratio = (np.conj(x) @ p @ x).real / (np.conj(x) @ s @ x).real
            assert ratio == pytest.approx(lam, rel=1e-9)
            assert pencil_alpha_flat(p, s) * lam == pytest.approx(1.0, rel=1e-12)

    def test_singular_s_reached_by_p_is_infinite(self):
        rng = make_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = random_psd(n, rng, rank=n - 1)
            p = random_psd(n, rng)
            lam, x = pencil_max(p, s)
            assert math.isinf(lam)
            assert np.linalg.norm(s @ x) <= 1e-12 * np.linalg.norm(s, 2)  # x spans ker s
            assert (np.conj(x) @ p @ x).real > 0
            assert pencil_alpha_flat(p, s) == 0.0

    @pytest.mark.parametrize("s", [np.eye(4), np.zeros((4, 4))], ids=["s=I", "s=0"])
    def test_zero_p(self, s):
        lam, x = pencil_max(np.zeros((4, 4)), s)
        assert lam == 0.0 and np.linalg.norm(x) == 1.0
        assert math.isinf(pencil_alpha_flat(np.zeros((4, 4)), s))

    def test_zero_family_zero_target(self):
        fam = OperatorFamily([ModuleOperator.zero(2, 2, 1), ModuleOperator.zero(2, 2, 2)])
        assert optimal_scalar_bounds(fam, ModuleOperator.zero(2, 2, 2)) == (math.inf, 0.0)

    @pytest.mark.parametrize("seed", [2, 9, 22])
    def test_bessel_only_lower_bound_is_exactly_zero(self, seed):
        spec = generate_instance("bessel-only", 2, 2, 3, seed)
        alpha, beta = optimal_scalar_bounds(OperatorFamily(spec.operators), spec.target_operator)
        assert alpha == 0.0 and beta > 0


class TestPositivityBridge:
    """A self-adjoint endomorphism H has <Hx, x> >= 0 for all x iff its
    flattened matrix is PSD (both directions, on random instances)."""

    def test_psd_gives_positive_quadratics(self):
        rng = make_rng(10)
        for _ in range(15):
            d, n = 2, 3
            h_flat = random_psd(n * d, rng)
            h = ModuleOperator(d, n, n, h_flat)
            for _ in range(10):
                x = random_vector(d, n, rng)
                form = inner_product(apply(h, x), x)
                assert np.linalg.eigvalsh(0.5 * (form + np.conj(form.T)))[0] >= -1e-10

    def test_non_psd_has_negative_quadratic_direction(self):
        rng = make_rng(11)
        for _ in range(15):
            d, n = 2, 3
            h_flat = random_psd(n * d, rng) - 0.5 * np.eye(n * d)
            w, v = np.linalg.eigh(h_flat)
            if w[0] >= -1e-6:
                continue
            h = ModuleOperator(d, n, n, h_flat)
            flat = np.zeros((d, n * d), dtype=complex)
            flat[0] = np.conj(v[:, 0])
            x = type(random_vector(d, n, rng))(d, n, flat)
            form = inner_product(apply(h, x), x)
            assert np.linalg.eigvalsh(0.5 * (form + np.conj(form.T)))[0] < -1e-8
