"""Perturbation constants, transferred bounds, and the full pipeline."""

import numpy as np
import pytest

from modframes import (
    FrameBounds,
    HypothesisFailedError,
    ModuleOperator,
    OperatorFamily,
    ShapeMismatchError,
    converse_constant,
    frame_operator,
    optimal_scalar_bounds,
    perturbation_check,
    perturbation_constant,
    perturbed_frame_bounds,
    random_operator,
    sample_vectors,
)
from modframes.perturbation import _exact_constant
from conftest import (
    cholesky_pencil_max,
    make_rng,
    quadratic_norm,
    random_family,
    sampled_perturbation_scan,
)


def _perturbed(fam, rng, scale):
    d, n = fam.dim, fam.source_rank
    return OperatorFamily(
        [m + random_operator(d, n, m.target_rank, rng, scale=scale) for m in fam.members]
    )


def _difference_gram(L, G):
    return sum((a - b).flat @ np.conj((a - b).flat.T) for a, b in zip(L.members, G.members))


class TestPerturbationConstant:
    def test_identical_families_give_zero(self, rng):
        fam = random_family(2, 3, 3, rng)
        assert perturbation_constant(fam, fam) == 0.0

    def test_scalar_scaling_closed_form(self):
        # G = c L gives (1-c)^2 / min(1, c^2) exactly
        rng = make_rng(0)
        fam = random_family(1, 3, 3, rng)
        for c in (0.5, 0.9, 1.1, 1.5, 2.0):
            scaled = OperatorFamily([c * m for m in fam.members])
            expected = (1 - c) ** 2 / min(1.0, c**2)
            assert perturbation_constant(fam, scaled) == pytest.approx(expected, rel=1e-10)

    def test_monotone_in_perturbation_size(self, rng):
        fam = random_family(2, 2, 3, rng)
        noise = [random_operator(2, 2, m.target_rank, rng) for m in fam.members]
        values = []
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            pert = OperatorFamily([m + eps * e for m, e in zip(fam.members, noise)])
            values.append(perturbation_constant(fam, pert))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_zero_families_give_zero(self, rng):
        # D = 0, so M = 0 validates the hypothesis although both frame
        # operators vanish
        fam = random_family(2, 2, 3, rng)
        zeros = OperatorFamily([ModuleOperator.zero(2, 2, m.target_rank) for m in fam.members])
        assert perturbation_constant(zeros, zeros) == 0.0

    def test_mismatched_families_rejected(self, rng):
        fam = random_family(2, 2, 3, rng)
        with pytest.raises(ShapeMismatchError):
            perturbation_constant(fam, OperatorFamily(fam.members[:2]))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_cholesky_oracle(self, seed):
        rng = make_rng(500 + seed)
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        fam = random_family(d, n, 3, rng)
        pert = _perturbed(fam, rng, scale=10.0 ** rng.uniform(-6, 0))
        d_hat = _difference_gram(fam, pert)
        expected = max(
            cholesky_pencil_max(d_hat, frame_operator(F).flat) for F in (fam, pert)
        )
        assert perturbation_constant(fam, pert) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_witness_attains_constant(self, seed):
        rng = make_rng(600 + seed)
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        fam = random_family(d, n, 3, rng)
        pert = _perturbed(fam, rng, scale=0.1)
        m, x = _exact_constant(fam, pert)
        diff = [a - b for a, b in zip(fam.members, pert.members)]
        den = min(quadratic_norm(fam.members, x), quadratic_norm(pert.members, x))
        assert np.linalg.matrix_rank(x.flat) == 1
        assert quadratic_norm(diff, x) / den == pytest.approx(m, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampled_scan_never_exceeds(self, seed):
        rng = make_rng(700 + seed)
        d, n = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        fam = random_family(d, n, 3, rng)
        pert = _perturbed(fam, rng, scale=0.3)
        m = perturbation_constant(fam, pert)
        scan = sampled_perturbation_scan(fam, pert, sample_vectors(d, n, 200, seed))
        assert 0.0 < scan <= m * (1 + 1e-9)

    def test_kernel_reach_is_infinite(self, rng):
        # G kills a direction that L does not: D reaches ker S_G
        d, n = 2, 2
        fam = random_family(d, n, 3, rng)
        vec = rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)
        vec /= np.linalg.norm(vec)
        proj = np.eye(n * d) - np.outer(vec, np.conj(vec))
        dead = OperatorFamily(
            [ModuleOperator(d, n, m.target_rank, proj @ m.flat) for m in fam.members]
        )
        m, x = _exact_constant(fam, dead)
        assert m == np.inf
        assert quadratic_norm(dead.members, x) <= 1e-12
        diff = [a - b for a, b in zip(fam.members, dead.members)]
        assert quadratic_norm(diff, x) > 1e-3
        k = ModuleOperator.identity(d, n)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
        with pytest.raises(HypothesisFailedError, match="infinite") as err:
            perturbation_check(fam, dead, k, k, bounds)
        assert err.value.witness is not None


class TestPerturbedFrameBounds:
    @pytest.mark.parametrize(
        "norm_a,norm_b,m,expected",
        [
            (1.0, 1.0, 0.0, (1.0, 1.0)),
            (1.0, 1.0, 1.0, (0.25, 4.0)),
            (2.0, 3.0, 4.0, (4.0 / 9.0, 81.0)),
        ],
    )
    def test_exact_substitutions(self, norm_a, norm_b, m, expected):
        assert perturbed_frame_bounds(norm_a, norm_b, m) == expected

    def test_monotone_in_m(self):
        grid = np.linspace(0.0, 10.0, 25)
        lowers = [perturbed_frame_bounds(1.5, 2.5, m)[0] for m in grid]
        uppers = [perturbed_frame_bounds(1.5, 2.5, m)[1] for m in grid]
        assert all(a >= b for a, b in zip(lowers, lowers[1:]))
        assert all(a <= b for a, b in zip(uppers, uppers[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            perturbed_frame_bounds(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            perturbed_frame_bounds(1.0, 1.0, -0.1)


class TestConverseConstant:
    @pytest.mark.parametrize(
        "args,expected",
        [
            ((1.0, 1.0, 1.0, 1.0, 1.0), 2.0),
            ((1.0, 1.0, 2.0, 1.0, 1.0), 1.0),
            ((2.0, 1.0, 1.0, 4.0, 0.0), 1.0),
        ],
    )
    def test_exact_substitutions(self, args, expected):
        assert converse_constant(*args) == expected

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            converse_constant(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            converse_constant(1.0, 1.0, 1.0, 1.0, -1.0)


class TestPerturbationCheck:
    def _certified_setup(self, rng, d=2, n=2):
        fam = random_family(d, n, 3, rng)
        k = random_operator(d, n, n, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
        return fam, k, bounds

    def test_unperturbed_family(self, rng):
        fam, k, bounds = self._certified_setup(rng)
        rep = perturbation_check(fam, fam, k, k, bounds)
        assert rep.M_estimate == 0.0
        assert rep.derived.verdict == "certified"
        assert rep.derived.min_gap_lower >= -1e-10
        assert rep.derived.min_gap_upper >= -1e-10
        assert rep.converse_M is None or rep.converse_M > 0

    def test_small_perturbation_wide_margins(self, rng):
        fam, k, bounds = self._certified_setup(rng)
        pert = _perturbed(fam, rng, scale=1e-6)
        rep = perturbation_check(fam, pert, k, k, bounds)
        assert 0.0 < rep.M_estimate < 1e-6
        assert rep.M_kind == "exact"
        assert rep.derived.verdict == "certified"
        assert rep.derived.min_gap_lower >= -1e-10
        assert rep.analysis_rank == 4  # full rank: conclusion machinery applies

    def test_huge_perturbation_weak_lower_bound(self, rng):
        fam, k, bounds = self._certified_setup(rng)
        ortho = OperatorFamily(
            [random_operator(2, 2, m.target_rank, rng, scale=30.0) for m in fam.members]
        )
        rep = perturbation_check(fam, ortho, k, k, bounds)
        assert rep.M_estimate > 10.0
        assert rep.derived_lower < 0.1 * bounds.alpha**2

    def test_hypothesis_certify_failure(self, rng):
        fam, k, bounds = self._certified_setup(rng)
        bad = FrameBounds.scalar(bounds.alpha * (1 + 0.5), bounds.beta, 2)
        with pytest.raises(HypothesisFailedError):
            perturbation_check(fam, fam, k, k, bad)

    def test_hypothesis_inclusion_failure(self, rng):
        d, n = 2, 2
        fam = random_family(d, n, 3, rng)
        k_flat = np.zeros((n * d, n * d), dtype=complex)
        k_flat[0, 0] = 1.0
        k = ModuleOperator(d, n, n, k_flat)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
        lop = ModuleOperator.identity(d, n)  # range(I) not inside range(K)
        with pytest.raises(HypothesisFailedError):
            perturbation_check(fam, fam, k, lop, bounds)

    def test_converse_constant_under_coisometric_target(self, rng):
        d, n = 2, 2
        fam = random_family(d, n, 3, rng)
        k = ModuleOperator.identity(d, n)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
        rep = perturbation_check(fam, fam, k, k, bounds)
        assert rep.converse_M is not None and rep.converse_M > 0

    def test_end_to_end_derived_bounds_hold(self):
        rng = make_rng(3)
        for _ in range(50):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            fam = random_family(d, n, 3, rng)
            k = random_operator(d, n, n, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
            pert = _perturbed(fam, rng, scale=1e-4)
            rep = perturbation_check(fam, pert, k, k, bounds)
            assert rep.derived.verdict == "certified"
            assert rep.derived.mode == "exact"
            assert rep.derived.min_gap_lower >= -1e-10
            assert rep.derived.min_gap_upper >= -1e-10
