"""Kronecker structure and tensor-product duality."""

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import modframes.tensor as tensor_mod

from modframes import (
    HypothesisFailedError,
    ModuleOperator,
    ModuleVector,
    OperatorFamily,
    TensorSpace,
    apply,
    canonical_dual,
    inner_product,
    kron_family,
    kron_operator,
    kron_vector,
    nfold_tensor_dual,
    op_adjoint,
    operator_norm,
    random_operator,
    random_vector,
    tensor_dual_check,
    verify_dual,
)
from modframes.cli import run_command
from modframes.duals import reconstruction_operator
from modframes.io import generate_instance, save_spec
from conftest import make_rng, random_family


def test_tensor_space_products():
    ts = TensorSpace(factor_dims=(2, 3), factor_ranks=(2, 4))
    assert ts.dim == 6 and ts.rank == 8


class TestKronVector:
    def test_dim_one_reduces_to_numpy_kron(self, rng):
        x = random_vector(1, 2, rng)
        y = random_vector(1, 3, rng)
        z = kron_vector(x, y)
        assert np.allclose(z.flat, np.kron(x.flat, y.flat))

    def test_zero_annihilates(self, rng):
        y = random_vector(2, 3, rng)
        z = kron_vector(ModuleVector.zero(2, 2), y)
        assert not np.any(z.flat)

    def test_blockwise_definition(self, rng):
        x = random_vector(2, 2, rng)
        y = random_vector(3, 2, rng)
        z = kron_vector(x, y)
        assert z.dim == 6 and z.rank == 4
        for i in range(2):
            for j in range(2):
                assert np.allclose(z.block(i * 2 + j), np.kron(x.block(i), y.block(j)))

    def test_inner_product_factorizes(self):
        rng = make_rng(0)
        for _ in range(100):
            d1, n1 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            d2, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            x, xp = random_vector(d1, n1, rng), random_vector(d1, n1, rng)
            y, yp = random_vector(d2, n2, rng), random_vector(d2, n2, rng)
            lhs = inner_product(kron_vector(x, y), kron_vector(xp, yp))
            rhs = np.kron(inner_product(x, xp), inner_product(y, yp))
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-12


class TestKronOperator:
    def test_identity_tensor_identity(self):
        t = kron_operator(ModuleOperator.identity(2, 2), ModuleOperator.identity(3, 2))
        assert np.allclose(t.flat, np.eye(24))

    def test_adjoint_distributes(self, rng):
        t = random_operator(2, 2, 3, rng)
        s = random_operator(2, 3, 2, rng)
        lhs = op_adjoint(kron_operator(t, s)).flat
        rhs = kron_operator(op_adjoint(t), op_adjoint(s)).flat
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * (1 + np.linalg.norm(rhs, 2))

    def test_action_factorizes_on_elementary_tensors(self):
        rng = make_rng(1)
        for _ in range(30):
            d1, d2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            m1, m2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            t = random_operator(d1, n1, m1, rng)
            s = random_operator(d2, n2, m2, rng)
            x = random_vector(d1, n1, rng)
            y = random_vector(d2, n2, rng)
            lhs = apply(kron_operator(t, s), kron_vector(x, y))
            rhs = kron_vector(apply(t, x), apply(s, y))
            assert np.linalg.norm(lhs.flat - rhs.flat) <= 1e-12 * (1 + np.linalg.norm(rhs.flat))

    def test_blockwise_definition_oracle(self, rng):
        # independent of the permutation trick: assemble block by block
        t = random_operator(2, 2, 2, rng)
        s = random_operator(2, 2, 2, rng)
        z = kron_operator(t, s)
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    for l in range(2):
                        got = z.block(i * 2 + k, j * 2 + l)
                        want = np.kron(t.block(i, j), s.block(k, l))
                        assert np.allclose(got, want)

    def test_flatten_is_permuted_kron(self, rng):
        t = random_operator(2, 2, 3, rng)
        s = random_operator(3, 2, 2, rng)
        z = kron_operator(t, s).flat
        raw = np.kron(t.flat, s.flat)
        # regroup rows (i, r1, k, r2) -> (i, k, r1, r2) and columns likewise
        rows = raw.reshape(2, 2, 2, 3, -1).transpose(0, 2, 1, 3, 4).reshape(raw.shape)
        both = rows.reshape(-1, 3, 2, 2, 3).transpose(0, 1, 3, 2, 4).reshape(raw.shape)
        assert np.allclose(z, both)

    def test_composite_target_acts_like_factors(self, rng):
        k = random_operator(2, 2, 2, rng)
        l = random_operator(2, 2, 2, rng)
        x, y = random_vector(2, 2, rng), random_vector(2, 2, rng)
        lhs = apply(kron_operator(k, l), kron_vector(x, y))
        rhs = kron_vector(apply(k, x), apply(l, y))
        assert np.linalg.norm(lhs.flat - rhs.flat) <= 1e-12


class TestTensorDuality:
    def _verified_pair(self, rng, d=2, n=2, count=3, identity_target=False):
        fam = random_family(d, n, count, rng)
        if identity_target:
            k = ModuleOperator.identity(d, n)
        else:
            k = random_operator(d, n, n, rng)
        return verify_dual(fam, canonical_dual(fam, k), k)

    def test_identity_targets(self, rng):
        p1 = self._verified_pair(rng, identity_target=True)
        p2 = self._verified_pair(rng, identity_target=True)
        out = tensor_dual_check(p1, p2)
        assert out.verified
        assert out.reconstruction_residual <= 1e-10

    def test_zero_factor_target(self, rng):
        fam = random_family(2, 2, 3, rng)
        zeros = OperatorFamily([ModuleOperator.zero(2, 2, m.target_rank) for m in fam.members])
        zero_pair = verify_dual(fam, zeros, ModuleOperator.zero(2, 2, 2))
        other = self._verified_pair(rng)
        out = tensor_dual_check(zero_pair, other)
        assert out.verified
        assert out.reconstruction_residual <= 1e-12

    def test_random_dim_one_pairs(self):
        rng = make_rng(2)
        for _ in range(10):
            fam1 = OperatorFamily([random_operator(1, 2, 2, rng) for _ in range(2)])
            fam2 = OperatorFamily([random_operator(1, 2, 2, rng) for _ in range(2)])
            k1 = random_operator(1, 2, 2, rng)
            k2 = random_operator(1, 2, 2, rng)
            p1 = verify_dual(fam1, canonical_dual(fam1, k1), k1)
            p2 = verify_dual(fam2, canonical_dual(fam2, k2), k2)
            out = tensor_dual_check(p1, p2)
            assert out.reconstruction_residual <= 1e-10

    def test_row_major_index_order(self, rng):
        p1 = self._verified_pair(rng)
        p2 = self._verified_pair(rng)
        fams = kron_family(p1.primary_family, p2.primary_family)
        count2 = len(p2.primary_family)
        for i, a in enumerate(p1.primary_family.members):
            for j, b in enumerate(p2.primary_family.members):
                assert np.allclose(
                    fams.members[i * count2 + j].flat, kron_operator(a, b).flat
                )

    def test_rejects_unverified_pair(self, rng):
        good = self._verified_pair(rng)
        fam = random_family(2, 2, 3, rng)
        bad_dual = OperatorFamily(
            [m + random_operator(2, 2, m.target_rank, rng) for m in fam.members]
        )
        bad = verify_dual(fam, bad_dual, ModuleOperator.identity(2, 2))
        assert not bad.verified
        with pytest.raises(HypothesisFailedError):
            tensor_dual_check(good, bad)

    def test_nfold_single_pair_is_identity(self, rng):
        p = self._verified_pair(rng)
        assert nfold_tensor_dual([p]) is p

    def test_nfold_three_identity_targets(self, rng):
        pairs = [self._verified_pair(rng, d=1, n=2, identity_target=True) for _ in range(3)]
        out = nfold_tensor_dual(pairs)
        assert out.verified
        assert out.reconstruction_residual <= 1e-10

    def test_associativity_of_residuals(self, rng):
        p1 = self._verified_pair(rng, d=1, n=2)
        p2 = self._verified_pair(rng, d=1, n=2)
        p3 = self._verified_pair(rng, d=1, n=2)
        left = tensor_dual_check(tensor_dual_check(p1, p2), p3)
        right = tensor_dual_check(p1, tensor_dual_check(p2, p3))
        assert left.reconstruction_residual == pytest.approx(
            right.reconstruction_residual, abs=1e-10
        )


def _canonical_pair(d, n, count, rng):
    fam = random_family(d, n, count, rng)
    k = random_operator(d, n, n, rng)
    return verify_dual(fam, canonical_dual(fam, k), k)


def _perturbed_pair(d, n, count, rng, scale=1e-3):
    """A canonical pair whose dual is off by a generic ``scale`` perturbation,
    so the residual is far above roundoff; verified at tolerance 1."""
    p = _canonical_pair(d, n, count, rng)
    dual = OperatorFamily([
        g + random_operator(d, n, g.target_rank, rng, scale=scale)
        for g in p.dual_family.members
    ])
    return verify_dual(p.primary_family, dual, p.target, 1.0)


def _kron_residual(pairs):
    """The oracle: ||(x)R_i - (x)K_i||_2 by np.kron, R_i rebuilt from the families."""
    recs = [reconstruction_operator(p.primary_family, p.dual_family).flat for p in pairs]
    tgts = [p.target.flat for p in pairs]
    return float(np.linalg.norm(reduce(np.kron, recs) - reduce(np.kron, tgts), 2))


def _traced(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _materialized(pairs, tol=1e-10):
    """The oracle: the left fold of tensor_dual_check over the built families."""
    return reduce(lambda acc, p: tensor_dual_check(acc, p, tol), pairs[1:], pairs[0])


class TestFactoredNfold:
    """nfold_tensor_dual decides the product from its factors alone; the
    materialized fold of tensor_dual_check is the oracle."""

    # (d, n, count) per factor: mixed algebra dims, ranks and member counts;
    # random_family draws mixed target ranks.
    SHAPES = {
        2: [(2, 2, 3), (1, 3, 4)],
        3: [(1, 2, 2), (2, 1, 3), (3, 1, 2)],
        4: [(1, 2, 2), (2, 1, 3), (1, 3, 2), (2, 2, 2)],
        5: [(1, 2, 2), (2, 1, 3), (1, 3, 2), (2, 2, 2), (1, 2, 3)],
    }

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_materialized_fold(self, m):
        # Duals off by a generic 1e-3 perturbation, so the residual is far
        # above roundoff; tol = 0.1 keeps every factor and partial verified.
        rng = make_rng(300 + m)
        pairs = []
        for d, n, c in self.SHAPES[m]:
            p = _canonical_pair(d, n, c, rng)
            dual = OperatorFamily([
                g + random_operator(d, n, g.target_rank, rng, scale=1e-3)
                for g in p.dual_family.members
            ])
            pairs.append(verify_dual(p.primary_family, dual, p.target, 0.1))
        got = nfold_tensor_dual(pairs, 0.1)
        want = _materialized(pairs, 0.1)
        scale = np.prod([
            max(operator_norm(reconstruction_operator(p.primary_family, p.dual_family)),
                operator_norm(p.target))
            for p in pairs
        ])
        assert got.verified and want.verified
        assert abs(got.reconstruction_residual - want.reconstruction_residual) <= 1e-12 * scale
        duals = reduce(kron_family, [p.dual_family for p in pairs])
        bessel = np.sqrt(duals.spectrum[0][-1])
        assert got.dual_bessel_bound == pytest.approx(bessel, rel=1e-12)
        assert got.factors == tuple(pairs)

    def test_verified_is_relative_to_product_target_norm(self):
        rng = make_rng(302)
        pairs = [_canonical_pair(2, 2, 3, rng), _canonical_pair(1, 3, 4, rng)]
        residual = nfold_tensor_dual(pairs).reconstruction_residual
        k_norm = operator_norm(kron_operator(pairs[0].target, pairs[1].target))
        assert k_norm > 1.0
        edge = residual / k_norm
        assert nfold_tensor_dual(pairs, edge * (1 + 1e-6)).verified
        assert not nfold_tensor_dual(pairs, edge * (1 - 1e-6)).verified

    def test_unverified_factor_raises(self, rng):
        good = _canonical_pair(2, 2, 3, rng)
        fam = random_family(2, 2, 3, rng)
        k = random_operator(2, 2, 2, rng)
        bad = verify_dual(fam, OperatorFamily([m * 2.0 for m in canonical_dual(fam, k).members]), k)
        assert not bad.verified
        for pairs in ([good, bad], [bad, good], [good, good, bad]):
            with pytest.raises(HypothesisFailedError, match="is not a verified dual pair"):
                _materialized(pairs)
            with pytest.raises(HypothesisFailedError, match=f"pair {pairs.index(bad)} is not"):
                nfold_tensor_dual(pairs)

    def _inside_tolerance(self, m, tol):
        """m verified pairs whose duals are scaled by 1 + 0.9 tol, so each
        factor residual is 0.9 of its tolerance tol ||K||: the product of two
        is off by about 1.8 tol ||K1|| ||K2||, past its own tolerance."""
        rng = make_rng(400)
        pairs = []
        for _ in range(m):
            p = _canonical_pair(2, 2, 3, rng)
            assert operator_norm(p.target) >= 1.0  # tolerances scale with ||K||
            dual = OperatorFamily([g * (1.0 + 0.9 * tol) for g in p.dual_family.members])
            pairs.append(verify_dual(p.primary_family, dual, p.target, tol))
        assert all(p.verified for p in pairs)
        return pairs

    def test_unverified_final_product_is_reported(self):
        pairs = self._inside_tolerance(2, 1e-9)
        assert not _materialized(pairs, 1e-9).verified
        assert not nfold_tensor_dual(pairs, 1e-9).verified

    def test_unverified_partial_product_raises(self):
        pairs = self._inside_tolerance(3, 1e-9)
        with pytest.raises(HypothesisFailedError):
            _materialized(pairs, 1e-9)
        with pytest.raises(HypothesisFailedError, match="product of pairs 0..1"):
            nfold_tensor_dual(pairs, 1e-9)

    @pytest.mark.parametrize("m, code", [(2, 1), (3, 4)])
    def test_cli_exit_codes_inside_tolerance(self, tmp_path, m, code):
        paths = []
        for i, p in enumerate(self._inside_tolerance(m, 1e-9)):
            spec = generate_instance("dual-pair", 2, 2, 3, seed=0)
            spec.operators = p.primary_family.members
            spec.second_operators = p.dual_family.members
            spec.target_operator = p.target
            paths.append(tmp_path / f"pair{i}.json")
            save_spec(spec, paths[-1])
        got, report = run_command(["tensor", *map(str, paths), "--tol", "1e-9"])
        assert got == code
        if code == 1:  # every factor verified; the product is not
            assert report.verdicts == {"verified": False, "factors": 2}
        else:
            assert report.error.startswith("HypothesisFailedError:")

    def test_builds_no_product_member(self, monkeypatch):
        calls = []

        def counted(name):
            original = getattr(tensor_mod, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapper

        for name in ("kron_operator", "kron_family", "tensor_dual_check"):
            monkeypatch.setattr(tensor_mod, name, counted(name))
        rng = make_rng(500)
        out = nfold_tensor_dual([_canonical_pair(2, 2, 3, rng) for _ in range(4)])
        assert out.verified and calls == []

    def test_four_factor_peak_memory(self):
        rng = make_rng(501)
        pairs = [_canonical_pair(2, 2, 3, rng) for _ in range(4)]
        out, peak = _traced(nfold_tensor_dual, pairs)
        assert out.verified
        # one 256-square buffer is 1 MiB; kron-then-subtract held three
        # (3.0 MiB), the materialized families about 199 MB
        assert peak < 1.5 * 2**20

    def test_five_factor_peak_memory(self):
        rng = make_rng(502)
        pairs = [_canonical_pair(2, 2, 3, rng) for _ in range(5)]
        out, peak = _traced(nfold_tensor_dual, pairs)
        assert out.verified and out.reconstruction_residual is not None
        assert peak < 24 * 2**20  # one 1024-square buffer is 16 MiB; three were 48

    def test_five_factor_cli(self, tmp_path):
        paths = []
        for seed in range(5):
            paths.append(str(tmp_path / f"dp{seed}.json"))
            save_spec(generate_instance("dual-pair", 1, 2, 3, seed), paths[-1])
        code, report = run_command(["tensor", *paths])
        assert code == 0
        assert report.verdicts == {"verified": True, "factors": 5}
        assert report.residuals["tensor_residual"] <= 1e-10

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_dense_residual_is_kron_then_subtract_bitwise(self, m):
        """The one-buffer residual is bit for bit the 2-norm of
        np.kron(...) - np.kron(...), so reports up to 1024 rows keep their bytes."""
        rng = make_rng(310 + m)
        pairs = [_perturbed_pair(d, n, c, rng) for d, n, c in self.SHAPES[m]]
        got = nfold_tensor_dual(pairs, 1.0)
        assert got.residual_bounds is None
        assert got.reconstruction_residual == _kron_residual(pairs)

    def test_verified_at_tau_not_one_ulp_below(self):
        # Two 1x1 factors R_i = 1 + 2^-10 of K_i = 1: the product is off by 2^-9 + 2^-20.
        one = OperatorFamily([ModuleOperator(1, 1, 1, np.ones((1, 1)))])
        dual = OperatorFamily([ModuleOperator(1, 1, 1, np.full((1, 1), 1 + 2.0**-10))])
        pair = verify_dual(one, dual, ModuleOperator.identity(1, 1), 2.0**-10)
        tau = 2.0**-9 + 2.0**-20
        out = nfold_tensor_dual([pair, pair], tau)
        assert out.reconstruction_residual == tau and out.verified
        assert not nfold_tensor_dual([pair, pair], math.nextafter(tau, 0)).verified

    def test_library_defaults_judge_as_the_cli_does(self, tmp_path):
        """A factor residual in (1e-10, 1e-9] max(1, ||K||) passes ``tensor`` at
        its default --tol, so the library's pairs and fold built without ``tol``
        verify it too."""
        specs = [generate_instance("dual-pair", 2, 2, 3, seed) for seed in (0, 1)]
        k_norm = operator_norm(specs[0].target_operator)
        scale = 1 + 5e-10 * max(1.0, k_norm) / k_norm
        specs[0].second_operators = [scale * g for g in specs[0].second_operators]
        paths = [str(tmp_path / f"dp{i}.json") for i in range(2)]
        for spec, path in zip(specs, paths):
            save_spec(spec, path)
        code, report = run_command(["tensor", *paths])
        assert code == 0, report.error
        pairs = [verify_dual(OperatorFamily(s.operators), OperatorFamily(s.second_operators),
                             s.target_operator) for s in specs]
        assert 1e-10 < pairs[0].reconstruction_residual / max(1.0, k_norm) <= 1e-9
        out = nfold_tensor_dual(pairs)
        assert out.verified
        assert out.reconstruction_residual == report.residuals["tensor_residual"]


def _bounds_only(monkeypatch):
    """Send every product to the bounds path, as if it had over DENSE_LIMIT rows."""
    monkeypatch.setattr(tensor_mod, "DENSE_LIMIT", 0)


def _outcome(pairs, tol):
    """How the fold ends: its verdict, the undecided product, or the raised product."""
    try:
        out = nfold_tensor_dual(pairs, tol)
    except HypothesisFailedError as exc:
        return ("raised", str(exc))
    if out.undecided:
        return ("undecided", out.undecided)
    return ("verified", out.verified)


class TestResidualBounds:
    """Above DENSE_LIMIT rows the product is decided by the telescoped upper
    bound u and a power-step lower bound; the dense residual is the oracle."""

    SHAPES = TestFactoredNfold.SHAPES

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bounds_bracket_dense_residual(self, monkeypatch, m):
        rng = make_rng(320 + m)
        pairs = [_perturbed_pair(d, n, c, rng) for d, n, c in self.SHAPES[m]]
        dense = _kron_residual(pairs)
        _bounds_only(monkeypatch)
        # tol 1 verifies every partial product by u; tol 0 runs the power steps
        upper = nfold_tensor_dual(pairs, 1.0).residual_bounds[1]
        lower = tensor_mod._residual_lower(
            [p.reconstruction.flat for p in pairs], [p.target.flat for p in pairs]
        )
        assert dense > 1e-4
        assert lower <= dense * (1 + 1e-12)
        assert dense <= upper * (1 + 1e-12)
        assert lower >= 0.99 * dense  # the power steps converge on these cases

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_bounds_verdict_equals_dense_verdict(self, monkeypatch, m):
        rng = make_rng(330 + m)
        pairs = [_perturbed_pair(d, n, c, rng) for d, n, c in self.SHAPES[m]]
        tols = np.geomspace(1e-6, 1.0, 25)
        dense = [_outcome(pairs, tol) for tol in tols]
        _bounds_only(monkeypatch)
        bounds = [_outcome(pairs, tol) for tol in tols]
        decided = [(b, d) for b, d in zip(bounds, dense) if b[0] != "undecided"]
        assert all(b == d for b, d in decided)
        # the grid reaches every outcome of the bounds path
        assert {b[0] for b in bounds} >= {"verified", "undecided"}
        assert ("verified", False) in bounds or any(b[0] == "raised" for b in bounds)

    @staticmethod
    def _ratio(pairs):
        """u / max(1, prod ||K_i||): the tol at which u stops verifying the product."""
        with pytest.MonkeyPatch.context() as mp:
            _bounds_only(mp)
            upper = nfold_tensor_dual(pairs, 1.0).residual_bounds[1]
        return upper / max(1.0, math.prod(operator_norm(p.target) for p in pairs))

    @pytest.mark.parametrize("m, limit_mib", [(6, 200), (8, 50)])
    def test_power_path_memory(self, m, limit_mib):
        """6 and 8 factors of d = 2, n = 2 (4096 and 65536 rows) with the tol
        between the ratios of m - 1 and m factors: every partial product is
        verified by u, and the full product runs the power steps."""
        rng = make_rng(340 + m)
        pairs = [_perturbed_pair(2, 2, 3, rng) for _ in range(m)]
        tol = (self._ratio(pairs[:-1]) + self._ratio(pairs)) / 2
        out, peak = _traced(nfold_tensor_dual, pairs, tol)
        lower, upper = out.residual_bounds
        tau = tol * max(1.0, np.prod([operator_norm(p.target) for p in pairs]))
        assert out.reconstruction_residual is None and lower <= tau < upper
        assert out.undecided == m and not out.verified
        assert peak < limit_mib * 2**20

    def test_six_factor_cli_verified_by_upper_bound(self, tmp_path):
        paths = []
        for seed in range(1, 7):
            paths.append(str(tmp_path / f"dp{seed}.json"))
            save_spec(generate_instance("dual-pair", 2, 2, 3, seed), paths[-1])
        code, report = run_command(["tensor", *paths])
        assert code == 0 and report.verdicts == {"verified": True, "factors": 6}
        res = report.residuals
        assert "tensor_residual" not in res and res["tensor_residual_kind"] == "bounds"
        assert res["tensor_residual_lower"] == 0.0  # u decided; no power step ran
        k_norm = np.prod([
            operator_norm(generate_instance("dual-pair", 2, 2, 3, seed).target_operator)
            for seed in range(1, 7)
        ])
        assert res["tensor_residual_upper"] <= 1e-9 * max(1.0, k_norm)

    def _write(self, tmp_path, pairs):
        paths = []
        for i, p in enumerate(pairs):
            spec = generate_instance("dual-pair", 2, 2, 3, seed=0)
            spec.operators = p.primary_family.members
            spec.second_operators = p.dual_family.members
            spec.target_operator = p.target
            paths.append(str(tmp_path / f"pair{i}.json"))
            save_spec(spec, paths[-1])
        return paths

    def test_cli_undecided_exits_2(self, tmp_path):
        """7 factors (16384 rows): a tol between the ratios of 6 and 7 factors
        leaves the full product undecided, and one between those of 5 and 6
        factors the 6-factor partial product; both exit 2."""
        rng = make_rng(350)
        pairs = [_perturbed_pair(2, 2, 3, rng, 1e-4) for _ in range(7)]
        paths = self._write(tmp_path, pairs)
        ratios = [self._ratio(pairs[:k]) for k in (5, 6, 7)]
        for tol, undecided in (((ratios[1] + ratios[2]) / 2, 7), ((ratios[0] + ratios[1]) / 2, 6)):
            code, report = run_command(["tensor", *paths, "--tol", repr(tol)])
            assert code == 2, report.error
            assert report.verdicts == {"verified": False, "factors": 7, "undecided_factors": undecided}
            res = report.residuals
            assert "tensor_residual" not in res and res["tensor_residual_kind"] == "bounds"
            tau = tol * math.prod(operator_norm(p.target) for p in pairs[:undecided])
            assert 0.0 < res["tensor_residual_lower"] <= tau < res["tensor_residual_upper"]

    def test_cli_falsified_by_lower_bound(self, tmp_path):
        """Two factors of d = 1, n = 33 (1089 rows) whose duals are scaled by
        1 + 0.9 tol: each factor is verified, and D is about 1.8 tol K_1 (x) K_2,
        so the power steps find a residual above tau and the product exits 1."""
        tol = 1e-6
        rng = make_rng(360)
        pairs, paths = [], []
        for i in range(2):
            fam = OperatorFamily([random_operator(1, 33, 33, rng) for _ in range(2)])
            k = random_operator(1, 33, 33, rng)
            dual = OperatorFamily([g * (1 + 0.9 * tol) for g in canonical_dual(fam, k).members])
            pairs.append(verify_dual(fam, dual, k, tol))
            spec = generate_instance("dual-pair", 1, 33, 2, seed=0)
            spec.operators, spec.second_operators, spec.target_operator = fam.members, dual.members, k
            paths.append(str(tmp_path / f"pair{i}.json"))
            save_spec(spec, paths[-1])
        assert all(p.verified for p in pairs)
        code, report = run_command(["tensor", *paths, "--tol", repr(tol)])
        assert code == 1, report.error
        assert report.verdicts == {"verified": False, "factors": 2}
        tau = tol * math.prod(operator_norm(p.target) for p in pairs)
        lower, upper = (report.residuals[f"tensor_residual_{s}"] for s in ("lower", "upper"))
        assert tau < lower <= upper
        assert lower == pytest.approx(1.8 * tau, rel=1e-2)
