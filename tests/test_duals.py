"""Dual construction and verification; pre-frame identities."""

import numpy as np
import pytest

from modframes import (
    ModuleOperator,
    NoInclusionError,
    OperatorFamily,
    SingularFrameOperatorError,
    analysis_operator,
    canonical_dual,
    compose,
    frame_operator,
    generate_instance,
    minimal_dual,
    operator_norm,
    optimal_scalar_bounds,
    preframe_consistency,
    random_operator,
    synthesis_operator,
    verify_dual,
)
from conftest import make_rng, random_family, random_unitary


def tight_family(d: int, n: int, count: int, rng) -> OperatorFamily:
    fam = random_family(d, n, count, rng)
    s = frame_operator(fam).flat
    w, v = np.linalg.eigh(0.5 * (s + np.conj(s.T)))
    inv_sqrt = (v / np.sqrt(w)[None, :]) @ np.conj(v.T)
    return OperatorFamily(
        [ModuleOperator(m.dim, m.source_rank, m.target_rank, inv_sqrt @ m.flat) for m in fam.members]
    )


class TestVerifyDual:
    def test_family_is_dual_of_itself_for_frame_operator(self, rng):
        fam = random_family(2, 3, 3, rng)
        s = frame_operator(fam)
        pair = verify_dual(fam, fam, s)
        assert pair.verified
        assert pair.reconstruction_residual <= 1e-12 * (1 + operator_norm(s))

    def test_zero_target_zero_dual(self, rng):
        fam = random_family(2, 3, 3, rng)
        zeros = OperatorFamily(
            [ModuleOperator.zero(2, 3, m.target_rank) for m in fam.members]
        )
        pair = verify_dual(fam, zeros, ModuleOperator.zero(2, 3, 3))
        assert pair.verified and pair.reconstruction_residual == 0.0

    def test_canonical_output_verifies(self, rng):
        fam = random_family(2, 3, 4, rng)
        k = random_operator(2, 3, 3, rng)
        pair = verify_dual(fam, canonical_dual(fam, k), k)
        assert pair.verified
        assert pair.reconstruction_residual <= 1e-10
        assert pair.dual_bessel_bound > 0

    @pytest.mark.parametrize("scale", [1e6, 1e7, 1e8])
    def test_scaled_pair_stays_verified(self, scale):
        # the residual is judged against tol * max(1, ||K||), not tol alone
        spec = generate_instance("known-bounds", 2, 2, 3, seed=0)
        fam = OperatorFamily([scale * m for m in spec.operators])
        k = scale * spec.target_operator
        dual = canonical_dual(fam, k)
        assert verify_dual(fam, dual, k, tol=1e-9).verified
        corrupted = OperatorFamily([(1 + 1e-6) * m for m in dual.members])
        pair = verify_dual(fam, corrupted, k, tol=1e-9)
        assert not pair.verified
        assert pair.reconstruction_residual == pytest.approx(1e-6 * operator_norm(k), rel=1e-3)

    @pytest.mark.parametrize("k", [0.5, 4.0], ids=["absolute", "relative"])
    def test_verified_at_the_threshold_not_one_ulp_below(self, k):
        # d = 1: the residual is |g - k| = tol max(1, k) exactly.
        tol = 2.0**-10
        one = OperatorFamily([ModuleOperator(1, 1, 1, np.ones((1, 1)))])
        dual = OperatorFamily([ModuleOperator(1, 1, 1, np.full((1, 1), k + tol * max(1.0, k)))])
        target = ModuleOperator(1, 1, 1, np.full((1, 1), k))
        pair = verify_dual(one, dual, target, tol)
        assert pair.reconstruction_residual == tol * max(1.0, k) and pair.verified
        assert not verify_dual(one, dual, target, np.nextafter(tol, 0)).verified


class TestCanonicalDual:
    def test_tight_identity_target_reproduces_family(self, rng):
        fam = tight_family(2, 3, 4, rng)
        dual = canonical_dual(fam, ModuleOperator.identity(2, 3))
        for a, b in zip(dual.members, fam.members):
            assert np.linalg.norm(a.flat - b.flat, 2) <= 1e-10

    def test_scaled_frame_operator_divides(self, rng):
        fam = tight_family(2, 3, 4, rng)
        c = 4.0
        scaled = OperatorFamily([2.0 * m for m in fam.members])  # S = c * I
        dual = canonical_dual(scaled, ModuleOperator.identity(2, 3))
        for a, b in zip(dual.members, scaled.members):
            assert np.linalg.norm(a.flat - b.flat / c, 2) <= 1e-10

    def test_random_instances_verify(self):
        rng = make_rng(0)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            fam = random_family(d, n, int(rng.integers(1, 7)), rng)
            k = random_operator(d, n, n, rng)
            pair = verify_dual(fam, canonical_dual(fam, k), k)
            assert pair.reconstruction_residual <= 1e-10

    def test_singular_frame_operator_rejected(self, rng):
        # one rank-1 member on a rank-2 module cannot span
        member = random_operator(2, 2, 1, rng)
        fam = OperatorFamily([member])
        with pytest.raises(SingularFrameOperatorError, match=r"exceeds cap \(1\.0e\+12\)$"):
            canonical_dual(fam, ModuleOperator.identity(2, 2))

    @pytest.mark.parametrize("cond, accepted", [(1e11, True), (1e13, False)])
    def test_condition_cap(self, rng, cond, accepted):
        # members T L_i of a tight family have frame operator T T* = U diag(w) U*
        fam = tight_family(2, 2, 3, rng)
        u = random_unitary(4, rng)
        w = np.geomspace(1.0, 1.0 / cond, 4)
        t = (u * np.sqrt(w)[None, :]) @ np.conj(u.T)
        skewed = OperatorFamily(
            [ModuleOperator(2, 2, m.target_rank, t @ m.flat) for m in fam.members]
        )
        if accepted:
            canonical_dual(skewed, ModuleOperator.identity(2, 2))
        else:
            with pytest.raises(SingularFrameOperatorError):
                canonical_dual(skewed, ModuleOperator.identity(2, 2))


class TestMinimalDual:
    def test_zero_target_gives_zero_family(self, rng):
        fam = random_family(2, 3, 3, rng)
        dual = minimal_dual(fam, ModuleOperator.zero(2, 3, 3))
        assert all(not np.any(m.flat) for m in dual.members)

    def test_tight_identity_matches_canonical(self, rng):
        fam = tight_family(2, 3, 4, rng)
        k = ModuleOperator.identity(2, 3)
        dm = minimal_dual(fam, k)
        dc = canonical_dual(fam, k)
        for a, b in zip(dm.members, dc.members):
            assert np.linalg.norm(a.flat - b.flat, 2) <= 1e-9

    def test_minimality_against_kernel_perturbations(self):
        rng = make_rng(1)
        for _ in range(10):
            d, n = 2, 2
            fam = random_family(d, n, 3, rng)
            theta_star = synthesis_operator(fam)
            eta0 = random_operator(d, n, theta_star.source_rank, rng)
            k = compose(eta0, theta_star)  # guarantees a solution exists
            dual = minimal_dual(fam, k)
            eta = analysis_operator(dual)
            # solves the factorization
            resid = np.linalg.norm(eta.flat @ np.conj(analysis_operator(fam).flat.T) - k.flat, 2)
            assert resid <= 1e-10 * (1 + operator_norm(k))
            # minimal among eta0 + kernel perturbations of the solve
            base = np.linalg.norm(eta.flat)
            q = np.conj(analysis_operator(fam).flat.T)  # eta @ q = k
            kernel_proj = np.eye(q.shape[0]) - q @ np.linalg.pinv(q)
            for _ in range(5):
                w = random_operator(d, n, theta_star.source_rank, rng).flat
                other = eta0.flat + w @ kernel_proj
                assert np.linalg.norm(other @ q - k.flat, 2) <= 1e-9 * (1 + operator_norm(k))
                assert base <= np.linalg.norm(other) + 1e-9

    def test_no_dual_without_inclusion(self, rng):
        member = random_operator(2, 2, 1, rng)  # synthesis has deficient range
        fam = OperatorFamily([member])
        with pytest.raises(NoInclusionError):
            minimal_dual(fam, ModuleOperator.identity(2, 2))

    def test_minimal_dual_verifies(self, rng):
        fam = random_family(2, 3, 4, rng)
        k = random_operator(2, 3, 3, rng)
        pair = verify_dual(fam, minimal_dual(fam, k), k)
        assert pair.verified


def singular_k_frame(rng) -> tuple[OperatorFamily, ModuleOperator]:
    """A random family with a singular frame operator, d*n >= 2, and a target K
    that is random (no dual), zero, or random on the range of S (a dual exists)."""
    while True:
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        if d * n >= 2:
            break
    if n >= 2 and rng.integers(2):  # too few target ranks to span
        ranks = [int(rng.integers(1, n)) for _ in range(int(rng.integers(1, 3)))]
        while sum(ranks) >= n:
            ranks = ranks[:-1] or [n - 1]
        fam = OperatorFamily([random_operator(d, n, r, rng) for r in ranks])
    else:  # members killing a common dead direction
        u = rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)
        u /= np.linalg.norm(u)
        proj = ModuleOperator(d, n, n, np.eye(n * d) - np.outer(u, np.conj(u)))
        members = random_family(d, n, int(rng.integers(1, 5)), rng).members
        fam = OperatorFamily([compose(proj, m) for m in members])
    k = random_operator(d, n, n, rng)
    kind = int(rng.choice(3, p=[0.4, 0.1, 0.5]))
    if kind == 1:
        k = ModuleOperator.zero(d, n, n)
    elif kind == 2:  # rows of flat(K) in the range of S: K = K P_range
        w, v = np.linalg.eigh(frame_operator(fam).flat)
        vr = v[:, w > 1e-9 * w[-1]]
        k = ModuleOperator(d, n, n, k.flat @ vr @ np.conj(vr.T))
    return fam, k


class TestOneConstruction:
    """Both duals are K S^+ T from the cached spectrum under the one kernel rule."""

    def test_minimal_matches_pinv_oracle_on_singular_frames(self):
        rng = make_rng(15)
        raised = built = 0
        for _ in range(150):
            fam, k = singular_k_frame(rng)
            assert np.linalg.matrix_rank(frame_operator(fam).flat) < fam.source_rank * fam.dim
            alpha = optimal_scalar_bounds(fam, k)[0]
            try:
                dual = minimal_dual(fam, k)
            except NoInclusionError:
                assert alpha == 0.0
                raised += 1
                continue
            assert alpha != 0.0
            built += 1
            # oracle: eta = K pinv(T*), its column blocks the members
            t_star = np.conj(analysis_operator(fam).flat.T)
            eta = k.flat @ np.linalg.pinv(t_star, rcond=1e-8)
            got = analysis_operator(dual).flat
            assert np.linalg.norm(got - eta) <= 1e-12 * max(np.linalg.norm(eta), 1e-300)
            assert verify_dual(fam, dual, k).verified
        assert raised >= 30 and built >= 60

    def test_invertible_frames_give_bitwise_equal_duals(self):
        rng = make_rng(16)
        for _ in range(40):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            fam = random_family(d, n, int(rng.integers(1, 6)), rng)
            k = random_operator(d, n, n, rng)
            canonical, minimal = canonical_dual(fam, k), minimal_dual(fam, k)
            for a, b in zip(canonical.members, minimal.members):
                assert a.flat.tobytes() == b.flat.tobytes()

    def test_no_svd_or_pinv(self, monkeypatch):
        """The minimal dual reads the cached spectrum: no SVD, pinv or eigvalsh."""
        spec = generate_instance("known-bounds", 4, 4, 8, seed=3)
        fam = OperatorFamily(spec.operators)

        def banned(*args, **kwargs):
            raise AssertionError("the dual decomposes S only through its cached spectrum")

        for name in ("svd", "pinv", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, banned)
        assert verify_dual(fam, minimal_dual(fam, spec.target_operator),
                           spec.target_operator).verified


class TestPreframeConsistency:
    def test_canonical_pair_identities(self, rng):
        fam = random_family(2, 3, 4, rng)
        k = random_operator(2, 3, 3, rng)
        pair = verify_dual(fam, canonical_dual(fam, k), k)
        rep = preframe_consistency(pair)
        assert rep.target_deviation <= 1e-10
        assert max(rep.member_deviations) <= 1e-12
        assert rep.max_deviation <= 1e-10

    def test_zero_target_pair(self, rng):
        fam = random_family(2, 3, 3, rng)
        zeros = OperatorFamily([ModuleOperator.zero(2, 3, m.target_rank) for m in fam.members])
        pair = verify_dual(fam, zeros, ModuleOperator.zero(2, 3, 3))
        rep = preframe_consistency(pair)
        assert rep.max_deviation == 0.0

    def test_corruption_localized(self, rng):
        fam = random_family(2, 3, 4, rng)
        k = random_operator(2, 3, 3, rng)
        dual = canonical_dual(fam, k)
        pair = verify_dual(fam, dual, k)
        eta = analysis_operator(dual)  # pristine pre-frame operator
        corrupted_members = [m for m in dual.members]
        bump = random_operator(2, 3, dual.members[1].target_rank, rng, scale=0.1)
        corrupted_members[1] = dual.members[1] + bump
        pair.dual_family = OperatorFamily(corrupted_members)
        rep = preframe_consistency(pair, eta=eta)
        assert rep.member_deviations[1] > 1e-3
        for i, dev in enumerate(rep.member_deviations):
            if i != 1:
                assert dev <= 1e-12


def test_duality_invariant_under_unitary_module_change(rng):
    # conjugating every operator by a unitary leaves residuals unchanged
    d, n = 2, 3
    fam = random_family(d, n, 4, rng)
    k = random_operator(d, n, n, rng)
    dual = canonical_dual(fam, k)
    u = random_unitary(n * d, rng)
    fam_u = OperatorFamily(
        [ModuleOperator(d, n, m.target_rank, u @ m.flat) for m in fam.members]
    )
    dual_u = OperatorFamily(
        [ModuleOperator(d, n, m.target_rank, u @ m.flat) for m in dual.members]
    )
    k_u = ModuleOperator(d, n, n, u @ k.flat @ np.conj(u.T))
    pair = verify_dual(fam_u, dual_u, k_u)
    assert pair.reconstruction_residual <= 1e-10
