"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are pinned here; desk scale means d <= 3, n <= 4,
at most 6 family members unless stated otherwise.
"""

import contextlib
import json
import math
import time

import numpy as np
import scipy.linalg

from modframes import (
    CertConfig,
    FrameBounds,
    ModuleOperator,
    ModuleVector,
    algebra,
    apply,
    canonical_dual,
    certify,
    compose,
    converse_constant,
    douglas_check,
    flatten,
    frame_operator,
    inner_product,
    kron_vector,
    module_action,
    nfold_tensor_dual,
    op_adjoint,
    optimal_scalar_bounds,
    perturbation_constant,
    perturbed_frame_bounds,
    preframe_consistency,
    random_operator,
    random_vector,
    tensor_dual_check,
    transform_coisometry,
    transform_precompose,
    verify_dual,
)
from modframes.cli import run_command
from conftest import (
    descent_oracle,
    direct_gap_eigs,
    make_rng,
    near_scalar_spec,
    random_family,
    random_unitary,
)


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] C{number:02d} FAIL - {description}")
        raise
    print(f"[acceptance] C{number:02d} PASS - {description}")


def test_c01_module_axioms():
    with criterion(1, "module axioms hold on 500 random instances in < 5 s"):
        rng = make_rng(101)
        started = time.perf_counter()
        for i in range(500):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            x, y, z = (random_vector(d, n, rng) for _ in range(3))
            gram = inner_product(x, x)
            assert algebra.is_positive(gram, tol=1e-12).is_positive
            lhs = inner_product(module_action(a, x) + y, z)
            rhs = a @ inner_product(x, z) + inner_product(y, z)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-12
            sym = inner_product(x, y) - algebra.adjoint(inner_product(y, x))
            assert np.linalg.norm(sym, 2) <= 1e-12
            if i % 50 == 0:
                tiny = ModuleVector(d, n, x.flat * 1e-11)
                if np.linalg.norm(inner_product(tiny, tiny), 2) <= 1e-20:
                    assert np.abs(tiny.flat).max() <= 1e-10
        z0 = ModuleVector.zero(2, 3)
        assert np.linalg.norm(inner_product(z0, z0), 2) == 0.0
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"axiom sweep took {elapsed:.2f}s"


def test_c02_adjoint_identity_and_flatten_homomorphism():
    with criterion(2, "adjoint identity and flatten homomorphism on 200 instances"):
        rng = make_rng(102)
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
            s = random_operator(d, m, int(rng.integers(1, 5)), rng)
            hom = flatten(compose(t, s)) - flatten(t) @ flatten(s)
            assert np.linalg.norm(hom, 2) <= 1e-12 * (
                1 + np.linalg.norm(t.flat, 2) * np.linalg.norm(s.flat, 2)
            )


def test_c03_douglas_equivalences():
    with criterion(3, "range/majorization/factorization verdicts agree on 100 instances"):
        rng = make_rng(103)
        for i in range(50):
            d = int(rng.integers(1, 4))
            e, f, g = (int(rng.integers(1, 4)) for _ in range(3))
            l = random_operator(d, e, f, rng)
            k = compose(random_operator(d, g, e, rng), l)
            rep = douglas_check(k, l)  # agreement enforced inside, raises otherwise
            assert rep.range_included
            assert rep.residual <= 1e-10
        for i in range(50):
            d = int(rng.integers(1, 4))
            f = int(rng.integers(2, 4))
            l = random_operator(d, 1, f, rng)
            k = random_operator(d, f, f, rng)
            rep = douglas_check(k, l)
            assert not rep.range_included


def _c04_bounds(case, d, alpha, beta, rng):
    """(lower, upper, expected verdict) for one C04 case."""
    eye = np.eye(d, dtype=np.complex128)
    up = beta * (1 + 1e-8) * eye
    skew = eye + 0.05 * (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    if case == 7:  # K = 0 (alpha is infinite): the lower side holds for any A
        return skew, up, "certified"
    lo = alpha * (1 - 1e-8) * eye
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return [
        (lo, up, "certified"),
        (lo, 0.8 * up, "falsified"),
        (1.2 * lo, up, "falsified"),
        (phase * lo, np.conj(phase) * up, "certified"),
        (1.2 * phase * lo, up, "falsified"),
        (0.5 * alpha * skew, up, "falsified"),  # lower not a multiple of I
        (lo, 1.5 * beta * skew, "falsified"),  # upper not a multiple of I
    ][case]


def test_c04_certification_soundness():
    with criterion(4, "decisions agree with a descent oracle on 48 instances; witnesses re-validate"):
        rng = make_rng(104)
        tol = CertConfig().tol
        for i in range(48):
            case = i % 8
            d = int(rng.integers(2 if case >= 5 else 1, 4))
            n = int(rng.integers(1, 5))
            fam = random_family(d, n, int(rng.integers(2, 5)), rng)
            k = random_operator(d, n, n, rng) if case < 7 else ModuleOperator.zero(d, n, n)
            alpha, beta = optimal_scalar_bounds(fam, k)
            lower, upper, expect = _c04_bounds(case, d, alpha, beta, rng)
            cert = certify(fam, k, FrameBounds(lower=lower, upper=upper))
            assert cert.verdict == expect
            assert cert.mode == ("exact" if case < 5 else "structural")
            oracle = descent_oracle(fam, k, lower, upper, rng)
            if min(oracle) < -tol:
                assert cert.verdict == "falsified"
            margins = (cert.min_gap_lower, cert.min_gap_upper)
            for found, margin, kind in zip(oracle, margins, cert.gap_kinds):
                if kind == "exact":
                    # rank-one X already reach 0 when d > 1, hence min(margin, 0)
                    assert found >= min(margin, 0.0) - tol
            if cert.witness is not None:
                recheck = min(direct_gap_eigs(fam, k, lower, upper, cert.witness))
                assert recheck < -tol
                assert recheck <= min(margins) + 1e-12 * (1.0 + abs(min(margins)))


def test_c05_optimal_bounds_dim_one_oracle():
    with criterion(5, "optimal scalar bounds match the generalized-eigenvalue oracle"):
        rng = make_rng(105)
        done = 0
        while done < 50:
            n = int(rng.integers(2, 5))
            fam = random_family(1, n, int(rng.integers(2, 5)), rng)
            k = random_operator(1, n, n, rng)
            sig = np.linalg.svd(k.flat, compute_uv=False)
            if sig[-1] < 1e-3 * sig[0]:
                continue  # keep the oracle pencil well posed
            alpha, beta = optimal_scalar_bounds(fam, k)
            s = frame_operator(fam).flat
            m = np.conj(k.flat.T) @ k.flat
            gen = scipy.linalg.eigh(
                0.5 * (s + np.conj(s.T)), 0.5 * (m + np.conj(m.T)), eigvals_only=True
            )
            assert abs(alpha - math.sqrt(max(gen[0], 0.0))) <= 1e-8
            assert abs(beta - math.sqrt(scipy.linalg.svdvals(s)[0])) <= 1e-8
            done += 1


def test_c06_transform_properties():
    with criterion(6, "co-isometry preserves bounds; precompose upper bound holds"):
        rng = make_rng(106)
        for _ in range(10):
            d, n = 2, 2
            fam = random_family(d, n, 3, rng)
            v = random_unitary(n * d, rng)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=n * d))
            diag_k = rng.standard_normal(n * d) + 1j * rng.standard_normal(n * d)
            u = ModuleOperator(d, n, n, (v * phases[None, :]) @ np.conj(v.T))
            k = ModuleOperator(d, n, n, (v * diag_k[None, :]) @ np.conj(v.T))
            moved = transform_coisometry(fam, k, u)
            a0, b0 = optimal_scalar_bounds(fam, k)
            a1, b1 = optimal_scalar_bounds(moved, k)
            assert abs(a1 - a0) <= 1e-8 * (1 + a0)
            assert abs(b1 - b0) <= 1e-8 * (1 + b0)
        for i in range(20):
            d = int(rng.integers(1, 3))
            n = int(rng.integers(1, 4))
            fam = random_family(d, n, 3, rng)
            k = random_operator(d, n, n, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            bounds = FrameBounds.scalar(alpha * (1 - 1e-8), beta * (1 + 1e-8), d)
            l = random_operator(d, n, n, rng)
            out = transform_precompose(fam, k, l, bounds, power=1 + i % 2)
            cert = certify(out.family, out.target, out.bounds)
            assert cert.mode == "exact"
            assert cert.min_gap_upper >= -1e-9
            assert cert.verdict == "certified"


def test_c07_canonical_dual_and_preframe_identities():
    with criterion(7, "canonical dual residual and pre-frame identities <= 1e-10"):
        rng = make_rng(107)
        for _ in range(50):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            fam = random_family(d, n, int(rng.integers(2, 7)), rng)
            k = random_operator(d, n, n, rng)
            pair = verify_dual(fam, canonical_dual(fam, k), k)
            assert pair.reconstruction_residual <= 1e-10
            rep = preframe_consistency(pair)
            assert rep.target_deviation <= 1e-10
            assert max(rep.member_deviations) <= 1e-10


def test_c08_perturbation_formulas():
    with criterion(8, "perturbation constants and transferred bounds reproduce exactly"):
        rng = make_rng(108)
        fam = random_family(2, 3, 3, rng)
        assert perturbation_constant(fam, fam) == 0.0
        assert perturbed_frame_bounds(1.0, 1.0, 0.0) == (1.0, 1.0)
        assert perturbed_frame_bounds(1.0, 1.0, 1.0) == (0.25, 4.0)
        assert perturbed_frame_bounds(2.0, 3.0, 4.0) == (4.0 / 9.0, 81.0)
        grid = [
            ((1.0, 1.0, 1.0, 1.0, 1.0), 2.0),
            ((1.0, 1.0, 2.0, 1.0, 1.0), 1.0),
            ((2.0, 1.0, 1.0, 4.0, 0.0), 1.0),
        ]
        for args, expected in grid:
            assert converse_constant(*args) == expected


def test_c09_tensor_duality():
    with criterion(9, "tensor duals verify to 1e-10; inner products factorize to 1e-12"):
        rng = make_rng(109)
        for i in range(20):
            d1, d2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            n1, n2 = int(rng.integers(1, 3)), int(rng.integers(1, 3))
            fam1 = random_family(d1, n1, 2, rng)
            fam2 = random_family(d2, n2, 2, rng)
            k1 = random_operator(d1, n1, n1, rng)
            k2 = random_operator(d2, n2, n2, rng)
            p1 = verify_dual(fam1, canonical_dual(fam1, k1), k1)
            p2 = verify_dual(fam2, canonical_dual(fam2, k2), k2)
            assert max(p1.reconstruction_residual, p2.reconstruction_residual) <= 1e-12
            out = tensor_dual_check(p1, p2)
            assert out.reconstruction_residual <= 1e-10
            x, xp = random_vector(d1, n1, rng), random_vector(d1, n1, rng)
            y, yp = random_vector(d2, n2, rng), random_vector(d2, n2, rng)
            fact = inner_product(kron_vector(x, y), kron_vector(xp, yp)) - np.kron(
                inner_product(x, xp), inner_product(y, yp)
            )
            assert np.linalg.norm(fact, 2) <= 1e-12
        pairs = []
        for _ in range(3):
            fam = random_family(1, 2, 2, rng)
            k = random_operator(1, 2, 2, rng)
            pairs.append(verify_dual(fam, canonical_dual(fam, k), k))
        assert nfold_tensor_dual(pairs).reconstruction_residual <= 1e-10


def test_c10_classical_reduction():
    with criterion(10, "d=1 verdicts match an independent dense-eigenvalue oracle"):
        rng = make_rng(110)
        for i in range(30):
            n = int(rng.integers(2, 5))
            fam = random_family(1, n, int(rng.integers(2, 5)), rng)
            k = random_operator(1, n, n, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            fa = 0.9 if rng.random() < 0.5 else 1.1
            fb = 0.9 if rng.random() < 0.5 else 1.1
            bounds = FrameBounds.scalar(alpha * fa, beta * fb, 1)
            verdict = certify(fam, k, bounds).verdict
            # oracle: plain numpy eigenvalue checks on the n x n matrices
            s = sum(m.flat @ np.conj(m.flat.T) for m in fam.members)
            mk = np.conj(k.flat.T) @ k.flat
            lower_ok = (
                np.linalg.eigvalsh(0.5 * ((s - bounds.alpha**2 * mk) + np.conj((s - bounds.alpha**2 * mk).T)))[0]
                >= -1e-9
            )
            upper_ok = (
                np.linalg.eigvalsh(bounds.beta**2 * np.eye(n) - 0.5 * (s + np.conj(s.T)))[0]
                >= -1e-9
            )
            oracle = "certified" if (lower_ok and upper_ok) else "falsified"
            assert verdict == oracle


def test_c11_cli_contract(tmp_path, capsys):
    with criterion(11, "CLI determinism and the full exit-code contract"):
        gen = lambda kind, seed, out: run_command(
            [
                "gen", "--kind", kind, "--dim", "2", "--rank", "2", "--count", "3",
                "--seed", str(seed), "--spec-out", str(out),
            ]
        )
        tight = tmp_path / "tight.json"
        bessel = tmp_path / "bessel.json"
        known = tmp_path / "known.json"
        assert gen("tight", 1, tight)[0] == 0
        assert gen("bessel-only", 2, bessel)[0] == 0
        assert gen("known-bounds", 3, known)[0] == 0

        assert run_command(["verify", str(tight)])[0] == 0
        assert run_command(["verify", str(bessel)])[0] == 1
        near = tmp_path / "near-scalar.json"
        near_scalar_spec(near, eps=1e-8)
        assert run_command(["verify", str(near)])[0] == 2
        assert run_command(["verify", str(tmp_path / "nope.json")])[0] == 3
        rng = make_rng(0)
        deficient = tmp_path / "singular.json"
        from modframes.io import FrameSpecFile, save_spec

        save_spec(
            FrameSpecFile(
                algebra_dim=2,
                module_rank=2,
                operators=[random_operator(2, 2, 1, rng)],
                target_operator=ModuleOperator.identity(2, 2),
            ),
            deficient,
        )
        assert run_command(["dual", str(deficient)])[0] == 4

        capsys.readouterr()
        argv = ["verify", str(near), "--samples", "150"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second and first
        assert json.loads(first)["timing_s"] is None


def test_c12_structural_rule(tmp_path):
    with criterion(12, "bounds that are not multiples of I follow the structural rule"):
        rng = make_rng(112)
        tol = CertConfig().tol
        for _ in range(10):
            d = int(rng.integers(2, 4))
            n = int(rng.integers(1, 4))
            fam = random_family(d, n, 3, rng)
            k = random_operator(d, n, n, rng)
            alpha, beta = optimal_scalar_bounds(fam, k)
            eye = np.eye(d, dtype=np.complex128)
            skew = eye.copy()
            skew[0, 1] = 0.2
            lo, up = 0.1 * alpha * eye, 10.0 * beta * eye

            # a lower element off the scalars fails where 0.1 alpha I holds, since K != 0
            bounds = FrameBounds(lower=0.1 * alpha * skew, upper=up)
            cert = certify(fam, k, bounds)
            assert cert.verdict == "falsified" and cert.mode == "structural"
            assert cert.gap_kinds == ("upper_bound", "exact")
            assert direct_gap_eigs(fam, k, bounds.lower, up, cert.witness)[0] < -tol

            # ... and holds for every A once K = 0, with the exact margin 0
            zero = ModuleOperator.zero(d, n, n)
            cert = certify(fam, zero, FrameBounds(lower=5.0 * skew, upper=up))
            assert cert.verdict == "certified" and cert.mode == "structural"
            assert cert.min_gap_lower == 0.0 and cert.gap_kinds == ("exact", "exact")

            # an upper element off the scalars fails where 10 beta I holds
            bounds = FrameBounds(lower=lo, upper=10.0 * beta * skew)
            cert = certify(fam, k, bounds)
            assert cert.verdict == "falsified"
            assert cert.gap_kinds == ("exact", "upper_bound")
            assert direct_gap_eigs(fam, k, lo, bounds.upper, cert.witness)[1] < -tol

            # a phase e^{i theta} c I decides exactly as |c| I
            for factor in (1 - 1e-8, 1.01):
                scalar = FrameBounds.scalar(factor * alpha, beta * (1 + 1e-8), d)
                theta, phi = rng.uniform(0, 2 * np.pi, size=2)
                phased = FrameBounds(
                    lower=np.exp(1j * theta) * scalar.lower, upper=np.exp(1j * phi) * scalar.upper
                )
                want, got = certify(fam, k, scalar), certify(fam, k, phased)
                assert want.verdict == ("certified" if factor < 1 else "falsified")
                assert got.mode == "exact" and got.verdict == want.verdict
                assert abs(got.min_gap_lower - want.min_gap_lower) <= 1e-12 * (1 + beta**2)

        # the near-scalar window: a failure too shallow to clear tol exits 2
        for eps, code in ((1e-8, 2), (1e-6, 1)):
            path = tmp_path / f"near-{eps}.json"
            near_scalar_spec(path, eps)
            got, report = run_command(["verify", str(path)])
            assert got == code
            assert report.verdicts["mode"] == "structural"
            assert report.residuals["min_gap_lower_kind"] == "upper_bound"
            assert ("falsifying_vector" in report.witnesses) == (code == 1)
