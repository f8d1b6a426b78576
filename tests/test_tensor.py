"""Kronecker structure and tensor-product duality."""

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
        tracemalloc.start()
        try:
            out = nfold_tensor_dual(pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.verified
        assert peak < 10 * 2**20  # materialized: about 199 MB

    def test_five_factor_cli(self, tmp_path):
        paths = []
        for seed in range(5):
            paths.append(str(tmp_path / f"dp{seed}.json"))
            save_spec(generate_instance("dual-pair", 1, 2, 3, seed), paths[-1])
        code, report = run_command(["tensor", *paths])
        assert code == 0
        assert report.verdicts == {"verified": True, "factors": 5}
        assert report.residuals["tensor_residual"] <= 1e-10
