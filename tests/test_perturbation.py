"""Perturbation constants, transferred bounds, and the full pipeline."""

import numpy as np
import pytest

from modframes import (
    AllSamplesDegenerateError,
    CertConfig,
    FrameBounds,
    HypothesisFailedError,
    ModuleOperator,
    ModuleVector,
    OperatorFamily,
    converse_constant,
    optimal_scalar_bounds,
    perturbation_check,
    perturbation_constant,
    perturbed_frame_bounds,
    random_operator,
    sample_vectors,
)
from conftest import make_rng, random_family

FAST = CertConfig(samples=100)


class TestPerturbationConstant:
    def test_identical_families_give_zero(self, rng):
        fam = random_family(2, 3, 3, rng)
        samples = sample_vectors(2, 3, 50, 0)
        assert perturbation_constant(fam, fam, samples) == 0.0

    def test_scalar_scaling_closed_form(self):
        # G = c L gives ratio (1-c)^2 / min(1, c^2) at every sample
        rng = make_rng(0)
        fam = random_family(1, 3, 3, rng)
        samples = sample_vectors(1, 3, 30, 1)
        for c in (0.5, 0.9, 1.1, 1.5, 2.0):
            scaled = OperatorFamily([c * m for m in fam.members])
            expected = (1 - c) ** 2 / min(1.0, c**2)
            got = perturbation_constant(fam, scaled, samples)
            assert got == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_perturbation_size(self, rng):
        fam = random_family(2, 2, 3, rng)
        noise = [random_operator(2, 2, m.target_rank, rng) for m in fam.members]
        samples = sample_vectors(2, 2, 40, 2)
        values = []
        for eps in (1e-4, 1e-3, 1e-2, 1e-1):
            pert = OperatorFamily([m + eps * e for m, e in zip(fam.members, noise)])
            values.append(perturbation_constant(fam, pert, samples))
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_all_samples_degenerate(self, rng):
        fam = random_family(2, 2, 3, rng)
        zeros = OperatorFamily([ModuleOperator.zero(2, 2, m.target_rank) for m in fam.members])
        z = [ModuleVector.zero(2, 2)]
        with pytest.raises(AllSamplesDegenerateError):
            perturbation_constant(zeros, zeros, z)

    def test_empty_samples_rejected(self, rng):
        fam = random_family(2, 2, 3, rng)
        with pytest.raises(ValueError):
            perturbation_constant(fam, fam, [])


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
        rep = perturbation_check(fam, fam, k, k, bounds, FAST)
        assert rep.M_estimate == 0.0
        assert rep.norm_margins.worst_lower_margin >= -1e-10
        assert rep.norm_margins.worst_upper_margin >= -1e-10
        assert rep.converse_M is None or rep.converse_M > 0

    def test_small_perturbation_wide_margins(self, rng):
        fam, k, bounds = self._certified_setup(rng)
        pert = OperatorFamily(
            [m + random_operator(2, 2, m.target_rank, rng, scale=1e-6) for m in fam.members]
        )
        rep = perturbation_check(fam, pert, k, k, bounds, FAST)
        assert rep.M_estimate < 1e-6
        assert rep.norm_margins.worst_lower_margin >= -1e-10
        assert rep.samples_used > 0
        assert rep.analysis_rank == 4  # full rank: conclusion machinery applies

    def test_huge_perturbation_weak_lower_bound(self, rng):
        fam, k, bounds = self._certified_setup(rng)
        ortho = OperatorFamily(
            [random_operator(2, 2, m.target_rank, rng, scale=30.0) for m in fam.members]
        )
        rep = perturbation_check(fam, ortho, k, k, bounds, FAST)
        assert rep.M_estimate > 10.0
        assert rep.derived_lower < 0.1 * bounds.alpha**2

    def test_hypothesis_certify_failure(self, rng):
        fam, k, bounds = self._certified_setup(rng)
        bad = FrameBounds.scalar(bounds.alpha * (1 + 0.5), bounds.beta, 2)
        with pytest.raises(HypothesisFailedError):
            perturbation_check(fam, fam, k, k, bad, FAST)

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
            perturbation_check(fam, fam, k, lop, bounds, FAST)

    def test_converse_constant_under_coisometric_target(self, rng):
        d, n = 2, 2
        fam = random_family(d, n, 3, rng)
        k = ModuleOperator.identity(d, n)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
        rep = perturbation_check(fam, fam, k, k, bounds, FAST)
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
            pert = OperatorFamily(
                [m + random_operator(d, n, m.target_rank, rng, scale=1e-4) for m in fam.members]
            )
            rep = perturbation_check(fam, pert, k, k, bounds, FAST)
            assert rep.norm_margins.worst_lower_margin >= -1e-10
            assert rep.norm_margins.worst_upper_margin >= -1e-10
