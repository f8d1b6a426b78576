"""Perturbation constants, transferred bounds, and the full pipeline."""

from dataclasses import replace

import numpy as np
import pytest

from modframes import (
    FrameBounds,
    HypothesisFailedError,
    ModuleOperator,
    OperatorFamily,
    ShapeMismatchError,
    compose,
    converse_constant,
    frame_operator,
    optimal_scalar_bounds,
    perturbation_check,
    perturbation_constant,
    perturbed_frame_bounds,
    random_operator,
    sample_vectors,
)
from modframes.cli import run_command
from modframes.io import FrameSpecFile, load_spec, save_spec
from modframes.perturbation import _exact_constant
from conftest import (
    cholesky_pencil_max,
    make_rng,
    quadratic_norm,
    random_family,
    random_unitary,
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

    def test_small_perturbation_wide_margins(self, rng, tmp_path, capsys):
        fam, k, bounds = self._certified_setup(rng)
        pert = _perturbed(fam, rng, scale=1e-6)
        rep = perturbation_check(fam, pert, k, k, bounds)
        assert 0.0 < rep.M_estimate < 1e-6
        assert rep.derived.verdict == "certified"
        assert rep.derived.min_gap_lower >= -1e-10
        assert rep.analysis_rank == 4  # full rank: conclusion machinery applies
        # the CLI reports the same M, labelled exact
        path = tmp_path / "pair.json"
        save_spec(FrameSpecFile(2, 2, fam.members, second_operators=pert.members,
                                target_operator=k, bounds=bounds), path)
        code, report = run_command(["perturb", str(path)])
        capsys.readouterr()
        assert code == 0 and report.residuals["M_kind"] == "exact"
        assert report.residuals["M_estimate"] == rep.M_estimate

    def test_families_on_different_source_modules_rejected(self, rng):
        """L on A^2 and G on A^3 with the same target ranks: a shape error
        naming the mismatch, before any hypothesis is checked."""
        fam, k, bounds = self._certified_setup(rng)
        other = OperatorFamily([random_operator(2, 3, m.target_rank, rng) for m in fam.members])
        with pytest.raises(ShapeMismatchError, match="families must share the source module"):
            perturbation_check(fam, other, k, k, bounds)
        with pytest.raises(ShapeMismatchError, match="families must share the source module"):
            perturbation_constant(fam, other)

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
        with pytest.raises(HypothesisFailedError, match="not contained") as err:
            perturbation_check(fam, fam, k, lop, bounds)
        # the witness X = e_1 x*: K*X = 0 while Lop*X = X is not
        x = np.conj(err.value.witness.flat[0])
        assert np.linalg.norm(k.flat @ x) <= 1e-12
        assert np.linalg.norm(lop.flat @ x) == pytest.approx(1.0)

    def test_derived_upper_bound_beyond_the_float_range_exits_4(self, tmp_path, capfd):
        """``gen`` perturbed-pair seed 1 with its ``operators`` scaled by 1e-150
        and bounds (1e-152, 1e50): M is about 1e300, so (1 + sqrt(M))^2 ||B||^2
        overflows.  perturb names that (exit 4, the M witness attached), with
        no warning and no traceback."""
        path = tmp_path / "gen.json"
        run_command(["gen", "--kind", "perturbed-pair", "--dim", "2", "--rank", "2",
                     "--count", "3", "--seed", "1", "--spec-out", str(path)])
        spec = load_spec(path)
        save_spec(replace(spec, operators=[1e-150 * m for m in spec.operators],
                          bounds=FrameBounds.scalar(1e-152, 1e50, 2)), path)
        code, report = run_command(["perturb", str(path)])
        assert code == 4, report.error
        assert report.error.startswith(
            "HypothesisFailedError: derived upper bound (1 + sqrt(M))^2 ||B||^2 overflows: M = ")
        assert report.error.endswith(", ||B|| = 1e+50")
        assert "hypothesis_vector" in report.witnesses
        assert capfd.readouterr().err == ""

    def test_target_with_tiny_singular_values_contains_its_own_range(self):
        """K = U diag(1, 6.3e-7 x 7) V^H (d = 2, n = 4): range(K) lies in itself.
        ``douglas_check(K, K)`` marks the seven small directions (sigma^2 =
        4e-13) as kernel, and k*k reaches none of them: the rule decides reach
        per direction, so no special case for Lop = K is needed."""
        rng = make_rng(31)
        u, v = random_unitary(8, rng), random_unitary(8, rng)
        k = ModuleOperator(2, 4, 4, (u * np.r_[1.0, [6.3e-7] * 7]) @ np.conj(v.T))
        fam = random_family(2, 4, 5, rng)
        alpha, beta = optimal_scalar_bounds(fam, k)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), 2)
        pert = _perturbed(fam, rng, scale=1e-3)
        for lop in (k, ModuleOperator(2, 4, 4, k.flat.copy())):
            rep = perturbation_check(fam, pert, k, lop, bounds)
            assert rep.derived.verdict == "certified" and 0.0 < rep.M_estimate < 1e-3

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


class TestKernelRule:
    """analysis_rank and M follow the one kernel rule of operators.pencil_max."""

    def test_near_kernel_direction_is_dropped_everywhere(self):
        from modframes.operators import pencil_max, range_mask

        rng = make_rng(41)
        d, n = 2, 2
        nd = d * n
        v = rng.standard_normal(nd) + 1j * rng.standard_normal(nd)
        v /= np.linalg.norm(v)
        # Shrinking v by 1e-8 leaves the frame operator an eigenvalue about
        # 1e-16 of its largest along v: below KERNEL_RTOL, though the analysis
        # operator's singular value there (about 1e-8 relative) is far above
        # the roundoff rank cut of an SVD.
        shrink = ModuleOperator(d, n, n, np.eye(nd) - (1 - 1e-8) * np.outer(v, v.conj()))
        off_v = ModuleOperator(d, n, n, np.eye(nd) - np.outer(v, v.conj()))
        near = OperatorFamily([compose(shrink, m) for m in random_family(d, n, 3, rng).members])
        w, vecs = near.spectrum
        assert w[0] < 1e-12 * w[-1]
        keep = range_mask(w)
        assert int(np.sum(keep)) == nd - 1
        # pencil_max treats exactly the dropped direction as kernel
        dropped = vecs[:, ~keep][:, 0]
        assert pencil_max(np.outer(dropped, dropped.conj()), near.spectrum)[0] == np.inf
        for kept in vecs[:, keep].T:
            assert np.isfinite(pencil_max(np.outer(kept, kept.conj()), near.spectrum)[0])

        # A perturbation orthogonal to v keeps M finite, and the perturbed
        # family's analysis_rank is the number of directions kept as range.
        primary = OperatorFamily(
            [m + compose(off_v, random_operator(d, n, m.target_rank, rng, scale=1e-3))
             for m in near.members]
        )
        alpha, beta = optimal_scalar_bounds(primary, off_v)
        bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
        rep = perturbation_check(primary, near, off_v, off_v, bounds)
        assert np.isfinite(rep.M_estimate)
        assert rep.analysis_rank == int(np.sum(keep)) == nd - 1

        # A perturbation that reaches v makes M infinite.
        reach = _perturbed(near, rng, scale=1e-3)
        assert perturbation_constant(near, reach) == np.inf
        with pytest.raises(HypothesisFailedError, match="infinite"):
            perturbation_check(primary, reach, off_v, off_v, bounds)
