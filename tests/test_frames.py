"""Frame operators, certification, optimal bounds, and the family transforms."""

import math

import numpy as np
import pytest

from modframes import frames
from modframes import (
    FrameBounds,
    ModuleOperator,
    ModuleVector,
    NoInclusionError,
    NotCoisometryError,
    NotCommutingError,
    OperatorFamily,
    SpecFormatError,
    analysis_operator,
    apply,
    certify,
    compose,
    flatten,
    frame_operator,
    gap_matrices,
    generate_instance,
    inner_product,
    norm_bound_check,
    op_adjoint,
    operator_norm,
    optimal_scalar_bounds,
    random_operator,
    random_vector,
    range_transfer_check,
    sample_vectors,
    transform_coisometry,
    transform_precompose,
)
from conftest import (
    cholesky_pencil_max,
    descent_oracle,
    direct_gap_eigs,
    make_rng,
    parseval_family,
    random_family,
    random_unitary,
    tiny_singular_target,
)


def coordinate_family(n: int) -> OperatorFamily:
    """d=1 family of coordinate functionals on C^n."""
    members = []
    for i in range(n):
        flat = np.zeros((n, 1), dtype=complex)
        flat[i, 0] = 1.0
        members.append(ModuleOperator(1, n, 1, flat))
    return OperatorFamily(members)


class TestFrameOperators:
    def test_coordinate_analysis_is_identity(self):
        t = analysis_operator(coordinate_family(2))
        assert np.allclose(t.flat, np.eye(2))

    def test_single_member_analysis(self, rng):
        m = random_operator(2, 3, 2, rng)
        assert np.array_equal(analysis_operator(OperatorFamily([m])).flat, m.flat)

    def test_analysis_action_is_direct_sum(self, rng):
        fam = random_family(2, 3, 4, rng)
        t = analysis_operator(fam)
        for _ in range(10):
            x = random_vector(2, 3, rng)
            lhs = apply(t, x)
            rhs = np.hstack([apply(m, x).flat for m in fam.members])
            assert np.linalg.norm(lhs.flat - rhs) <= 1e-12

    def test_synthesis_is_adjoint(self, rng):
        fam = random_family(2, 3, 3, rng)
        t = analysis_operator(fam)
        ts = op_adjoint(t)
        for _ in range(10):
            x = random_vector(2, 3, rng)
            y = random_vector(2, t.target_rank, rng)
            lhs = inner_product(apply(t, x), y)
            rhs = inner_product(x, apply(ts, y))
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-12

    def test_coordinate_frame_operator_identity(self):
        s = frame_operator(coordinate_family(2))
        assert np.allclose(s.flat, np.eye(2))

    def test_quadratic_homogeneity(self, rng):
        fam = random_family(2, 3, 3, rng)
        scaled = OperatorFamily([2.0 * m for m in fam.members])
        assert np.allclose(frame_operator(scaled).flat, 4.0 * frame_operator(fam).flat)

    def test_frame_operator_is_member_sum(self, rng):
        fam = random_family(2, 3, 4, rng)
        s = sum(
            (flatten(compose(m, op_adjoint(m))) for m in fam.members),
            np.zeros((6, 6), dtype=complex),
        )
        assert np.linalg.norm(frame_operator(fam).flat - s, 2) <= 1e-12 * (
            1 + np.linalg.norm(s, 2)
        )

    def test_frame_operator_psd_and_self_adjoint(self):
        rng = make_rng(0)
        for _ in range(30):
            fam = random_family(int(rng.integers(1, 4)), int(rng.integers(1, 4)), 3, rng)
            s = frame_operator(fam)
            assert np.linalg.norm(s.flat - np.conj(s.flat.T), 2) <= 1e-12 * (
                1 + operator_norm(s)
            )
            assert np.linalg.eigvalsh(s.flat)[0] >= -1e-12 * (1 + operator_norm(s))


class TestCertify:
    def test_scalar_bounds_make_no_svd(self, rng, monkeypatch):
        """An exact c*I bound has condition number 1, so it is classified
        without an SVD; an element that is not a multiple of I still needs one."""
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        fam = random_family(2, 3, 3, rng)
        k = random_operator(2, 3, 3, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        cert = certify(fam, k, FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), 2))
        assert cert.verdict == "certified" and calls == []
        certify(fam, k, FrameBounds(np.diag([1.0, 2.0]), 3j * np.eye(2), mode="algebra"))
        assert len(calls) == 1

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_zero_multiple_of_identity_not_strictly_nonzero(self, rng, side):
        fam = random_family(2, 2, 3, rng)
        zero, eye = np.zeros((2, 2)), np.eye(2)
        bounds = FrameBounds(zero if side == "lower" else eye, zero if side == "upper" else eye)
        with pytest.raises(SpecFormatError, match=f"^bounds.{side}: not strictly nonzero"):
            certify(fam, ModuleOperator.identity(2, 2), bounds)

    def test_coordinate_functionals_normalized(self):
        fam = coordinate_family(2)
        cert = certify(fam, ModuleOperator.identity(1, 2), FrameBounds.scalar(1, 1, 1))
        assert cert.verdict == "certified" and cert.mode == "exact"
        assert cert.bounds.alpha == cert.bounds.beta == 1.0

    def test_zero_target_lower_vacuous(self, rng):
        fam = random_family(2, 3, 3, rng)
        _, beta = optimal_scalar_bounds(fam, ModuleOperator.identity(2, 3))
        cert = certify(
            fam,
            ModuleOperator.zero(2, 3, 3),
            FrameBounds.scalar(5.0, beta * (1 + 1e-8), 2),
        )
        assert cert.verdict == "certified"
        assert cert.min_gap_lower >= -1e-12

    def test_falsified_upper_ships_witness(self, rng):
        fam = random_family(2, 3, 3, rng)
        k = ModuleOperator.identity(2, 3)
        alpha, beta = optimal_scalar_bounds(fam, k)
        # A tight family has S_hat = I, so every eigenvalue of the spectrum the
        # upper side reads is repeated; beta = 0.9 must still falsify.
        tight = generate_instance("tight", 2, 3, 4, seed=1)
        cases = [
            (fam, k, FrameBounds.scalar(alpha * (1 - 1e-8), beta * 0.5, 2)),
            (OperatorFamily(tight.operators), tight.target_operator, FrameBounds.scalar(1, 0.9, 2)),
        ]
        for fam, k, bad in cases:
            cert = certify(fam, k, bad)
            assert cert.verdict == "falsified"
            assert cert.witness is not None
            # the witness is the rank-one vector of the cached top eigenvector
            assert np.array_equal(cert.witness.flat[0], np.conj(fam.spectrum[1][:, -1]))
            assert not np.any(cert.witness.flat[1:])
            _, g_up = gap_matrices(fam, k, bad, cert.witness)
            assert np.linalg.eigvalsh(0.5 * (g_up + np.conj(g_up.T)))[0] < -1e-9

    def test_exact_and_sampled_agree(self):
        rng = make_rng(1)
        for trial in range(12):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            fam = random_family(d, n, 3, rng)
            k = random_operator(d, n, n, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            if trial % 2 == 0:
                bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
                expect = "certified"
            else:
                bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * 0.8, d)
                expect = "falsified"
            exact = certify(fam, k, bounds)
            assert exact.verdict == expect and exact.mode == "exact"
            # the sampled descent finds a violation exactly when one exists
            sampled = descent_oracle(fam, k, bounds.lower, bounds.upper, rng)
            assert (min(sampled) < -1e-9) == (expect == "falsified")

    def test_sampled_kernel_matches_module_arithmetic(self, rng):
        # the gram-matrix shortcut equals the blockwise inner-product sums
        fam = random_family(2, 2, 3, rng)
        k = random_operator(2, 2, 2, rng)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        bounds = FrameBounds(lower=a @ np.conj(a.T) + np.eye(2), upper=b @ np.conj(b.T) + np.eye(2))
        for _ in range(10):
            x = random_vector(2, 2, rng)
            g_lo, g_up = gap_matrices(fam, k, bounds, x)
            lo, up = direct_gap_eigs(fam, k, bounds.lower, bounds.upper, x)
            assert np.linalg.eigvalsh(0.5 * (g_lo + np.conj(g_lo.T)))[0] == pytest.approx(
                lo, abs=1e-10
            )
            assert np.linalg.eigvalsh(0.5 * (g_up + np.conj(g_up.T)))[0] == pytest.approx(
                up, abs=1e-10
            )

    def test_algebra_mode_phase_bounds_dim_one(self, rng):
        # phases keep |a| fixed: certification must match the scalar outcome
        fam = random_family(1, 3, 3, rng)
        k = random_operator(1, 3, 3, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        lower = np.array([[alpha * (1 - 1e-8) * np.exp(0.7j)]])
        upper = np.array([[beta * (1 + 1e-8) * np.exp(-0.3j)]])
        cert = certify(fam, k, FrameBounds(lower=lower, upper=upper))
        assert cert.verdict == "certified" and cert.mode == "exact"
        bad = certify(fam, k, FrameBounds(lower=lower * 1.5, upper=upper))
        assert bad.verdict == "falsified" and bad.mode == "exact"
        g_lo, _ = gap_matrices(fam, k, FrameBounds(lower=lower * 1.5, upper=upper), bad.witness)
        assert np.linalg.eigvalsh(0.5 * (g_lo + np.conj(g_lo.T)))[0] < -1e-9

    def test_exact_requires_scalar(self, rng):
        # exact mode is reported exactly when both elements are c*I
        fam = random_family(2, 2, 3, rng)
        k = ModuleOperator.identity(2, 2)
        scalar = FrameBounds(lower=np.eye(2) * 0.1j, upper=np.eye(2) * 10.0)
        assert certify(fam, k, scalar).mode == "exact"
        off = FrameBounds(lower=np.diag([0.1, 0.1 + 1e-3]), upper=np.eye(2) * 10.0)
        assert certify(fam, k, off).mode == "structural"

    def test_rejects_degenerate_bounds(self, rng):
        fam = random_family(2, 2, 3, rng)
        with pytest.raises(ValueError):
            certify(
                fam,
                ModuleOperator.identity(2, 2),
                FrameBounds(lower=np.zeros((2, 2)), upper=np.eye(2)),
            )

    def test_determinism(self, rng):
        fam = random_family(2, 2, 3, rng)
        k = random_operator(2, 2, 2, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds(lower=alpha * np.array([[1.0, 0.05], [0.0, 1.0]]), upper=beta * np.eye(2))
        c1 = certify(fam, k, bounds)
        c2 = certify(fam, k, bounds, tol=1e-9)
        assert c1.verdict == c2.verdict == "falsified"
        assert c1.min_gap_lower == c2.min_gap_lower
        assert c1.min_gap_upper == c2.min_gap_upper
        assert np.array_equal(c1.witness.flat, c2.witness.flat)

    def test_falsified_strictly_below_minus_tol(self):
        # d = 1, S_hat = 1, beta = 0.5: the upper margin is exactly 0.25 - 1.
        fam = OperatorFamily([ModuleOperator(1, 1, 1, np.ones((1, 1)))])
        k = ModuleOperator.identity(1, 1)
        bounds = FrameBounds.scalar(0.5, 0.5, 1)
        at = certify(fam, k, bounds, tol=0.75)
        assert at.min_gap_upper == -0.75 and at.verdict == "certified"
        assert certify(fam, k, bounds, tol=math.nextafter(0.75, 0)).verdict == "falsified"


def _batched_eigh_side(c1, p, c2, q):
    """The structural side as one batched ``eigh`` of every candidate's H."""
    d, nd = c1.shape[0], p.shape[0]
    vs = frames._candidate_vectors(d)
    basis, r = np.linalg.qr(np.stack([vs @ np.conj(c1), vs @ np.conj(c2)], axis=2))
    r1, r2 = r[:, :, 0], r[:, :, 1]
    h = np.einsum("ki,kj,ab->kiajb", np.conj(r1), r1, p) - np.einsum(
        "ki,kj,ab->kiajb", np.conj(r2), r2, q)
    w, z = np.linalg.eigh(h.reshape(len(vs), 2 * nd, 2 * nd))
    best = int(np.argmin(w[:, 0]))
    return float(w[best, 0]), basis[best] @ np.conj(z[best, :, 0].reshape(2, nd))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_structural_side_equals_batched_eigh_bitwise(d, n):
    """One ``eigvalsh`` over the candidates and one ``eigh`` of the argmin give
    the margin and witness of a batched ``eigh``, bit for bit, on both sides."""
    rng = np.random.default_rng(100 * d + n)
    eye_d = np.eye(d, dtype=np.complex128)
    for _ in range(4):
        fam = random_family(d, n, 3, rng)
        m_hat = frames._target_gram(random_operator(d, n, n, rng))
        el = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for args in ((eye_d, fam.gram, el, m_hat), (el, np.eye(n * d), eye_d, fam.gram)):
            margin, witness, kind = frames._structural_side(*args)
            ref_margin, ref_flat = _batched_eigh_side(*args)
            assert kind == "upper_bound" and margin == ref_margin
            assert witness.flat.tobytes() == ref_flat.tobytes()


class TestOptimalBounds:
    def test_coordinate_functionals(self):
        fam = coordinate_family(2)
        alpha, beta = optimal_scalar_bounds(fam, ModuleOperator.identity(1, 2))
        assert alpha == pytest.approx(1.0, abs=1e-12)
        assert beta == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self, rng):
        fam = random_family(2, 2, 3, rng)
        k = ModuleOperator.identity(2, 2)
        a0, b0 = optimal_scalar_bounds(fam, k)
        c = 2.5
        scaled = OperatorFamily([c * m for m in fam.members])
        a1, b1 = optimal_scalar_bounds(scaled, k)
        assert a1 == pytest.approx(c * a0, rel=1e-10)
        assert b1 == pytest.approx(c * b0, rel=1e-10)

    def test_dim_one_generalized_eig_oracle(self):
        rng = make_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            fam = random_family(1, n, 3, rng)
            k = random_operator(1, n, n, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            s = frame_operator(fam).flat
            m = np.conj(k.flat.T) @ k.flat
            gen_min = -cholesky_pencil_max(-s, m)  # lambda_min of the pencil (s, m)
            assert alpha == pytest.approx(math.sqrt(max(gen_min, 0.0)), abs=1e-8)
            assert beta == pytest.approx(
                math.sqrt(np.linalg.svd(s, compute_uv=False)[0]), abs=1e-8
            )

    def test_parseval_frame_of_tiny_singular_target(self):
        """S = flat(KK*) exactly, so alpha = 1: KK* reaches none of the seven
        kernel directions of S beyond 1e-12 of its trace."""
        k = tiny_singular_target()
        alpha, beta = optimal_scalar_bounds(parseval_family(k), k)
        assert alpha == pytest.approx(1.0, abs=1e-9)
        assert beta == pytest.approx(1.0, abs=1e-9)

    def test_certify_passes_at_relaxed_and_fails_above(self):
        rng = make_rng(3)
        for _ in range(10):
            fam = random_family(2, 2, 3, rng)
            k = random_operator(2, 2, 2, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            good = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), 2)
            assert certify(fam, k, good).verdict == "certified"
            pushed = FrameBounds.scalar(alpha * (1 + 1e-3), beta * (1 + 1e-8), 2)
            assert certify(fam, k, pushed).verdict == "falsified"


class TestNormBoundCheck:
    def test_zero_sample_trivial(self, rng):
        fam = random_family(2, 2, 3, rng)
        k = ModuleOperator.identity(2, 2)
        rep = norm_bound_check(
            fam, k, FrameBounds.scalar(0.5, 10.0, 2), [ModuleVector.zero(2, 2)]
        )
        assert rep.worst_lower_margin == pytest.approx(0.0, abs=1e-15)
        assert rep.worst_upper_margin == pytest.approx(0.0, abs=1e-15)

    def test_certified_frame_has_nonnegative_margins(self, rng):
        fam = random_family(2, 3, 3, rng)
        k = random_operator(2, 3, 3, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), 2)
        samples = sample_vectors(2, 3, 100, 0)
        rep = norm_bound_check(fam, k, bounds, samples)
        assert rep.worst_lower_margin >= -1e-10
        assert rep.worst_upper_margin >= -1e-10

    def test_violated_upper_reports_negative_margin(self, rng):
        fam = random_family(2, 3, 3, rng)
        k = random_operator(2, 3, 3, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * 0.5, 2)
        rep = norm_bound_check(fam, k, bounds, sample_vectors(2, 3, 100, 0))
        assert rep.worst_upper_margin < 0


def commuting_unitary_pair(n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """A unitary U and a generic K that commute (common eigenbasis)."""
    v = random_unitary(n, rng)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))
    diag_k = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    u = (v * phases[None, :]) @ np.conj(v.T)
    k = (v * diag_k[None, :]) @ np.conj(v.T)
    return u, k


class TestTransforms:
    def test_coisometry_identity_keeps_family(self, rng):
        fam = random_family(2, 3, 3, rng)
        k = random_operator(2, 3, 3, rng)
        out = transform_coisometry(fam, k, ModuleOperator.identity(2, 3))
        for a, b in zip(out.members, fam.members):
            assert np.allclose(a.flat, b.flat)

    def test_coisometry_preserves_optimal_bounds(self):
        rng = make_rng(4)
        for _ in range(10):
            d, n = 2, 3
            fam = random_family(d, n, 3, rng)
            u_flat, k_flat = commuting_unitary_pair(n * d, rng)
            u = ModuleOperator(d, n, n, u_flat)
            k = ModuleOperator(d, n, n, k_flat)
            out = transform_coisometry(fam, k, u)
            a0, b0 = optimal_scalar_bounds(fam, k)
            a1, b1 = optimal_scalar_bounds(out, k)
            assert a1 == pytest.approx(a0, abs=1e-8, rel=1e-8)
            assert b1 == pytest.approx(b0, abs=1e-8, rel=1e-8)

    def test_coordinate_permutation_dim_one(self, rng):
        n = 3
        fam = random_family(1, n, 3, rng)
        perm = np.eye(n)[[1, 2, 0]].astype(complex)
        u = ModuleOperator(1, n, n, perm)
        k = ModuleOperator.identity(1, n)
        out = transform_coisometry(fam, k, u)
        a0, b0 = optimal_scalar_bounds(fam, k)
        a1, b1 = optimal_scalar_bounds(out, k)
        assert (a1, b1) == pytest.approx((a0, b0), rel=1e-10)

    def test_rejects_non_coisometry(self, rng):
        fam = random_family(2, 2, 3, rng)
        k = ModuleOperator.identity(2, 2)
        with pytest.raises(NotCoisometryError):
            transform_coisometry(fam, k, 2.0 * ModuleOperator.identity(2, 2))

    def test_rejects_non_commuting(self, rng):
        d, n = 1, 3
        fam = random_family(d, n, 3, rng)
        u = ModuleOperator(1, n, n, np.eye(n)[[1, 2, 0]].astype(complex))
        k_flat = np.diag([1.0, 2.0, 3.0]).astype(complex)
        with pytest.raises(NotCommutingError):
            transform_coisometry(fam, ModuleOperator(1, n, n, k_flat), u)

    def test_precompose_identity_keeps_everything(self, rng):
        fam = random_family(2, 3, 3, rng)
        k = random_operator(2, 3, 3, rng)
        bounds = FrameBounds.scalar(0.5, 2.0, 2)
        out = transform_precompose(fam, k, ModuleOperator.identity(2, 3), bounds)
        for a, b in zip(out.family.members, fam.members):
            assert np.allclose(a.flat, b.flat)
        assert np.allclose(out.target.flat, k.flat)
        assert out.bounds.beta == pytest.approx(2.0)

    def test_precompose_scalar_scales_upper(self, rng):
        fam = random_family(2, 3, 3, rng)
        k = random_operator(2, 3, 3, rng)
        bounds = FrameBounds.scalar(0.5, 2.0, 2)
        c = 3.0
        out = transform_precompose(fam, k, c * ModuleOperator.identity(2, 3), bounds)
        assert out.bounds.alpha == pytest.approx(0.5)
        assert out.bounds.beta == pytest.approx(2.0 * c, rel=1e-12)

    def test_precompose_sampled_never_falsified(self):
        rng = make_rng(5)
        for _ in range(5):
            fam = random_family(2, 2, 3, rng)
            k = random_operator(2, 2, 2, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), 2)
            l = random_operator(2, 2, 2, rng)
            out = transform_precompose(fam, k, l, bounds, power=2)
            cert = certify(out.family, out.target, out.bounds)
            assert cert.verdict == "certified"
            sampled = descent_oracle(out.family, out.target, out.bounds.lower, out.bounds.upper, rng)
            assert min(sampled) >= -1e-9

    def test_range_transfer_same_operator(self, rng):
        fam = random_family(2, 2, 3, rng)
        k = random_operator(2, 2, 2, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-6), beta * (1 + 1e-6), 2)
        cert = range_transfer_check(fam, k, k, bounds)
        assert cert.verdict == "certified"

    def test_range_transfer_zero_is_vacuous(self, rng):
        fam = random_family(2, 2, 3, rng)
        k = random_operator(2, 2, 2, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-6), beta * (1 + 1e-6), 2)
        cert = range_transfer_check(fam, k, ModuleOperator.zero(2, 2, 2), bounds)
        assert cert.verdict == "certified"

    def test_range_transfer_composed(self):
        rng = make_rng(6)
        for _ in range(10):
            fam = random_family(2, 2, 3, rng)
            k = random_operator(2, 2, 2, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            bounds = FrameBounds.scalar(alpha * (1 - 1e-6), beta * (1 + 1e-6), 2)
            l = compose(random_operator(2, 2, 2, rng), k)  # range(L) inside range(K)
            cert = range_transfer_check(fam, k, l, bounds)
            assert cert.verdict == "certified"

    def test_range_transfer_requires_inclusion(self, rng):
        d, n = 2, 2
        fam = random_family(d, n, 3, rng)
        k_flat = np.zeros((n * d, n * d), dtype=complex)
        k_flat[0, 0] = 1.0
        k = ModuleOperator(d, n, n, k_flat)
        l = ModuleOperator.identity(d, n)
        bounds = FrameBounds.scalar(1.0, 100.0, d)
        with pytest.raises(NoInclusionError):
            range_transfer_check(fam, k, l, bounds)
