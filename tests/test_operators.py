"""Adjointable operator algebra and the range-inclusion toolkit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modframes import (
    ModuleOperator,
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
    optimal_scalar_bounds,
    random_operator,
    random_vector,
)
from modframes.operators import kernel_reach, pencil_alpha_flat, pencil_max, range_mask
from conftest import (
    cholesky_pencil_max,
    douglas_oracle,
    make_rng,
    pencil_alpha_bisect,
    random_psd,
    random_unitary,
    tiny_singular_target,
)


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
        back = ModuleOperator(3, 2, 4, flatten(t))
        assert np.array_equal(back.flat, t.flat)

    def test_flatten_identity(self):
        assert np.array_equal(flatten(ModuleOperator.identity(2, 3)), np.eye(6))

    def test_flatten_action_consistency(self, rng):
        t = random_operator(2, 3, 2, rng)
        x = random_vector(2, 3, rng)
        assert np.allclose(x.flat @ flatten(t), apply(t, x).flat)


class TestPseudoinverse:
    def test_douglas_factor_is_k_times_pinv_l(self):
        """For rank-deficient L and K = D L, douglas's factor is k pinv(l).
        l has rank 2 of 6: its two singular values are above 0.3 sigma_max and
        the rest at rounding level, so numpy's cut and the kernel rule's agree."""
        rng = make_rng(16)
        for _ in range(10):
            l = compose(random_operator(2, 3, 1, rng), random_operator(2, 1, 3, rng))
            k = compose(random_operator(2, 3, 3, rng), l)
            factor = douglas_check(k, l).factor.flat
            expected = k.flat @ np.linalg.pinv(l.flat, rcond=1e-10)
            assert np.linalg.norm(factor - expected, 2) <= 1e-10 * np.linalg.norm(expected, 2)


def _assert_douglas_witness(k: np.ndarray, l: np.ndarray, witness) -> None:
    """The non-inclusion witness X = e_1 x* has L*X ~ 0 while K*X is not:
    ||l x|| <= 1e-6 ||l|| and ||k x||^2 >= 1e-12 ||k||_F^2 / (md)."""
    x = np.conj(witness.flat[0])
    assert np.linalg.norm(x) == pytest.approx(1.0)
    assert np.linalg.norm(l @ x) <= 1e-6 * np.linalg.norm(l, 2)
    assert np.linalg.norm(k @ x) ** 2 >= 1e-12 * np.linalg.norm(k) ** 2 / len(x)


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
            assert rep.range_included and douglas_oracle(k.flat, l.flat)
            assert rep.witness is None
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
            assert not rep.range_included and not douglas_oracle(k.flat, l.flat)
            assert rep.lambda_min is None and rep.factor is None
            assert rep.residual > 1e-6
            _assert_douglas_witness(k.flat, l.flat, rep.witness)

    @pytest.mark.parametrize("included", [True, False])
    @pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e9])
    def test_verdict_is_scale_invariant(self, c, included):
        """(cK, cL) has the verdict and lambda of (K, L): the kernel rule's cut
        is relative to sigma_max(L), with no absolute floor."""
        rng = make_rng(7)
        for _ in range(20):
            l = random_operator(2, 2, 2, rng)
            l = compose(compose(l, ModuleOperator(2, 2, 2, np.diag([1, 1, 0, 0]))), l)
            k = random_operator(2, 2, 2, rng)
            if included:
                k = compose(k, l)
            unit, scaled = douglas_check(k, l), douglas_check(c * k, c * l)
            assert unit.range_included is scaled.range_included is included
            assert douglas_oracle(k.flat, l.flat) is included
            if included:
                assert scaled.lambda_min == pytest.approx(unit.lambda_min, rel=1e-9)
            else:
                _assert_douglas_witness(c * k.flat, c * l.flat, scaled.witness)

    def test_target_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            douglas_check(random_operator(2, 3, 2, rng), random_operator(2, 3, 3, rng))

    def test_range_with_tiny_singular_values_lies_in_itself(self):
        """K's seven sigma^2 = 4e-13 directions are kernel under the rule, and
        k*k reaches none of them beyond 1e-12 of its trace: included, lambda 1."""
        k = tiny_singular_target()
        rep = douglas_check(k, k)
        assert rep.range_included and rep.witness is None
        assert rep.lambda_min == pytest.approx(1.0, rel=1e-9)


class TestPencil:
    def test_identity_pair(self):
        eye = ModuleOperator.identity(1, 3)
        assert pencil_alpha_flat(eye.flat, eye.flat) == pytest.approx(1.0)

    def test_scaled_identity(self):
        eye = ModuleOperator.identity(1, 3)
        assert pencil_alpha_flat(eye.flat, (2.0 * eye).flat) == pytest.approx(2.0)

    def test_zero_gives_sentinel(self):
        eye = ModuleOperator.identity(1, 3)
        assert math.isinf(pencil_alpha_flat(ModuleOperator.zero(1, 3, 3).flat, eye.flat))

    @pytest.mark.parametrize("c", [1e-3, 1e-5, 1e-8])
    def test_scale_invariance_of_small_target(self, c):
        # alpha(cK) = alpha(K) / c: a small p is not a zero p
        spec = generate_instance("known-bounds", 2, 2, 2, seed=1)
        fam, k = OperatorFamily(spec.operators), spec.target_operator
        alpha, _ = optimal_scalar_bounds(fam, k)
        alpha_c, _ = optimal_scalar_bounds(fam, c * k)
        assert c * alpha_c == pytest.approx(alpha, rel=1e-9)
        assert math.isinf(optimal_scalar_bounds(fam, 0.0 * k)[0])

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
            lam, x = pencil_max(p, np.linalg.eigh(s))
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
            lam, x = pencil_max(p, np.linalg.eigh(s))
            assert math.isinf(lam)
            assert np.linalg.norm(s @ x) <= 1e-12 * np.linalg.norm(s, 2)  # x spans ker s
            assert (np.conj(x) @ p @ x).real > 0
            assert pencil_alpha_flat(p, s) == 0.0

    @pytest.mark.parametrize("s", [np.eye(4), np.zeros((4, 4))], ids=["s=I", "s=0"])
    def test_zero_p(self, s):
        lam, x = pencil_max(np.zeros((4, 4)), np.linalg.eigh(s))
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


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_psd_s_contains_its_own_range(data):
    """Reach is per kernel direction: s never reaches its own kernel, and
    lambda_max(s, s) = 1.  s has nd - kernel range eigenvalues in
    [1e-3, 1] w_max and kernel eigenvalues in [0, 1e-12] w_max, at any scale
    w_max.  An eigenvalue at the cut itself falls on either side by eigh's
    rounding, about 1e-3 of the cut: the reach test's len(p) eps term covers
    it as kernel, and as range it whitens with condition up to 1e12, which
    costs lambda_max(s, s) that many ulps."""
    nd = data.draw(st.integers(2, 8))
    kernel = data.draw(st.integers(1, nd - 1))
    fracs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=kernel, max_size=kernel))
    w_max = 10.0 ** data.draw(st.floats(-12.0, 12.0))
    rng = make_rng(data.draw(st.integers(0, 2**32 - 1)))
    w = np.r_[w_max, w_max * rng.uniform(1e-3, 1.0, nd - kernel - 1), w_max * 1e-12 * np.array(fracs)]
    u = random_unitary(nd, rng)
    s = (u * w) @ np.conj(u.T)
    spectrum = np.linalg.eigh(s)
    assert kernel_reach(s, spectrum) is None
    kept = spectrum[0][range_mask(spectrum[0])]
    rel = max(1e-9, nd * np.finfo(np.float64).eps * kept[-1] / kept[0])
    assert pencil_max(s, spectrum)[0] == pytest.approx(1.0, rel=rel)


@pytest.mark.parametrize("nd", range(2, 9))
def test_a_rank_one_range_lies_in_itself_at_the_cut(nd):
    """Kernel eigenvalues at the cut itself, where eigh's rounding decides
    their side and the rank-one range leaves tr(s) no slack above the cut:
    s never reaches its own kernel."""
    rng = make_rng(nd)
    for _ in range(25):
        w = np.r_[1.0, np.full(nd - 1, 1e-12)] * 10.0 ** rng.uniform(-12.0, 12.0)
        u = random_unitary(nd, rng)
        s = (u * w) @ np.conj(u.T)
        assert kernel_reach(s, np.linalg.eigh(s)) is None


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
