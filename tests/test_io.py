"""Spec file round-trips, instance generators, and the CLI contract."""

import contextlib
import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modframes import (
    FrameBounds,
    ModuleOperator,
    OperatorFamily,
    SpecFormatError,
    certify,
    frame_operator,
    gap_matrices,
    generate_instance,
    load_spec,
    save_spec,
)
from modframes.cli import run_command
from modframes.io import GENERATOR_KINDS, FrameSpecFile, decode_vector, encode_vector
from conftest import make_rng, near_scalar_spec


class TestRoundTrip:
    def test_minimal_spec(self, tmp_path):
        spec = FrameSpecFile(
            algebra_dim=1,
            module_rank=1,
            operators=[ModuleOperator.identity(1, 1)],
        )
        path = tmp_path / "minimal.json"
        save_spec(spec, path)
        back = load_spec(path)
        assert back.algebra_dim == 1 and back.module_rank == 1
        assert back.target_operator is None and back.bounds is None
        assert back.to_json() == spec.to_json()

    def test_full_spec_round_trip(self, tmp_path, rng):
        spec = generate_instance("dual-pair", 2, 2, 3, seed=5)
        path = tmp_path / "full.json"
        save_spec(spec, path)
        back = load_spec(path)
        assert back.to_json() == spec.to_json()
        # byte stability of save -> load -> save
        path2 = tmp_path / "again.json"
        save_spec(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_generated_specs_load_byte_identically(self, tmp_path, kind):
        spec = generate_instance(kind, 2, 3, 4, seed=6)
        path = tmp_path / f"{kind}.json"
        save_spec(spec, path)
        assert load_spec(path).to_json() == path.read_text()

    def test_vector_round_trip(self, rng):
        from modframes import random_vector

        x = random_vector(2, 3, rng)
        back = decode_vector(encode_vector(x))
        assert np.allclose(back.flat, x.flat)

    @pytest.mark.parametrize(
        "change",
        [{"dim": "2"}, {"dim": 2.7}, {"dim": 2.0}, {"dim": True}, {"dim": 0}, {"blocks": 5},
         {"blocks": []}, {"blocks": None}],
        ids=["dim-string", "dim-fraction", "dim-float", "dim-bool", "dim-zero", "blocks-int",
             "blocks-empty", "blocks-null"],
    )
    def test_decode_vector_rejects_malformed(self, rng, change):
        from modframes import random_vector

        data = {**encode_vector(random_vector(2, 3, rng)), **change}
        with pytest.raises(SpecFormatError, match="^vector"):
            decode_vector(data)

    def test_corrupted_entry_arity_names_field(self, tmp_path):
        spec = generate_instance("tight", 2, 2, 2, seed=1)
        data = json.loads(spec.to_json())
        data["operators"][0]["blocks"][1][0][0][1] = [1.0, 2.0, 3.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecFormatError) as err:
            load_spec(path)
        assert "operators[0].blocks[1][0]" in str(err.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "keys, field",
        [
            (("operators", 0, "blocks", 1, 0, 0, 1), "operators[0].blocks[1][0][0][1]"),
            (("bounds", "lower", 0, 1), "bounds.lower[0][1]"),
        ],
        ids=["operator", "bound"],
    )
    def test_non_finite_entry_names_field(self, tmp_path, bad, keys, field):
        spec = generate_instance("known-bounds", 2, 2, 2, seed=1)
        spec.bounds = FrameBounds(lower=spec.bounds.lower, upper=spec.bounds.upper, mode="algebra")
        data = json.loads(spec.to_json())
        entry = data
        for key in keys:
            entry = entry[key]
        entry[0] = bad  # the real part of one [re, im] pair
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecFormatError, match="finite") as err:
            load_spec(path)
        assert field in str(err.value)
        code, report = run_command(["verify", str(path)])
        assert code == 3 and "SpecFormatError" in report.error

    @pytest.mark.parametrize(
        "keys, field",
        [
            (("operators", 0, "blocks", 1, 0, 0, 1), "operators[0].blocks[1][0][0][1]"),
            (("bounds", "lower", 0, 1), "bounds.lower[0][1]"),
        ],
        ids=["operator", "bound"],
    )
    @pytest.mark.parametrize("big", [1e200, 10**400], ids=["float", "int"])
    def test_oversized_entry_names_field(self, tmp_path, big, keys, field, capfd):
        spec = generate_instance("known-bounds", 2, 2, 2, seed=1)
        spec.bounds = FrameBounds(lower=spec.bounds.lower, upper=spec.bounds.upper, mode="algebra")
        data = json.loads(spec.to_json())
        entry = data
        for key in keys:
            entry = entry[key]
        entry[0] = big
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecFormatError, match="magnitude") as err:
            load_spec(path)
        assert field in str(err.value)
        code, report = run_command(["verify", str(path)])
        assert code == 3 and field in report.error
        assert capfd.readouterr().err == ""

    def test_oversized_scalar_bound_names_field(self, tmp_path):
        data = json.loads(generate_instance("known-bounds", 2, 2, 2, seed=1).to_json())
        data["bounds"]["upper"] = 1e200
        path = tmp_path / "huge-scalar.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecFormatError, match=r"bounds\.upper"):
            load_spec(path)

    def test_missing_required_field(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        with pytest.raises(SpecFormatError) as err:
            load_spec(path)
        assert "algebra_dim" in str(err.value)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"algebra_dim": 2')
        with pytest.raises(SpecFormatError) as err:
            load_spec(path)
        assert "invalid JSON" in str(err.value)


def _write_with_literal(tmp_path, data, keys, literal):
    """Write ``data`` as JSON with the value at ``keys`` spelled as ``literal``."""
    entry = data
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = "@PLACEHOLDER@"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data).replace('"@PLACEHOLDER@"', literal))
    return path


def _with_legacy_tolerances(spec: FrameSpecFile) -> dict:
    """The spec's data as gen wrote it until the kernel rule was fixed."""
    return {**spec.to_dict(), "tolerances": {"cond_cap": 1e12, "rank_tol": 1e-12}}


_KNOWN_BOUNDS = generate_instance("known-bounds", 2, 2, 2, seed=1)
_KB = _KNOWN_BOUNDS.to_dict()
# Each literal spells the field's own value, or one that int() or float()
# would turn into a number, in a JSON type the schema does not allow.
_NOT_JSON_NUMBERS = [
    pytest.param(keys, field, literal, id=f"{field}-{kind}")
    for keys, field, value in (
        (("algebra_dim",), "algebra_dim", _KB["algebra_dim"]),
        (("module_rank",), "module_rank", _KB["module_rank"]),
        (
            ("operators", 0, "target_rank"),
            "operators[0].target_rank",
            _KB["operators"][0]["target_rank"],
        ),
        (("seed",), "seed", _KB["seed"]),
    )
    for literal, kind in (
        (f"{value}.0", "integral-float"),
        (f"{value}.5", "fraction"),
        ("true", "bool"),
        (f'"{value}"', "string"),
    )
] + [
    pytest.param(("bounds", side), f"bounds.{side}", literal, id=f"bounds.{side}-{kind}")
    for side in ("lower", "upper")
    for literal, kind in (
        ("true", "bool"),
        (f'"{_KB["bounds"][side]!r}"', "string"),
        ("null", "null"),
    )
]


class TestInputBoundary:
    """Bad field values exit 3 (input error) naming the field, never 4 or 5."""

    @pytest.mark.parametrize(
        "keys, field",
        [
            (("algebra_dim",), "algebra_dim"),
            (("module_rank",), "module_rank"),
            (("operators", 0, "target_rank"), "operators[0].target_rank"),
            (("seed",), "seed"),
        ],
        ids=["algebra_dim", "module_rank", "target_rank", "seed"],
    )
    def test_overflowing_integer_field(self, tmp_path, keys, field, capfd):
        data = json.loads(generate_instance("known-bounds", 2, 2, 2, seed=1).to_json())
        path = _write_with_literal(tmp_path, data, keys, "1e400")
        with pytest.raises(SpecFormatError, match="integer") as err:
            load_spec(path)
        assert str(err.value).startswith(field)
        code, report = run_command(["verify", str(path)])
        assert code == 3 and report.error.startswith(f"SpecFormatError: {field}:")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("entry", [0.0, 1e-9, 1e30])
    def test_algebra_bound_not_safely_invertible(self, tmp_path, side, entry, capfd):
        """An algebra bound a in whose a a* the kernel rule finds a kernel
        (cond(a) >= 1e6: one diagonal entry 0, 1e-9 or 1e30 beside 1) is an
        input error naming the bound, like any other bad field; certify's own
        check names it, so a direct call does too."""
        spec = generate_instance("perturbed-pair", 2, 2, 2, seed=1)
        bad = np.diag([entry, 1.0]).astype(complex)
        spec.bounds = FrameBounds(lower=bad if side == "lower" else spec.bounds.lower,
                                  upper=bad if side == "upper" else spec.bounds.upper,
                                  mode="algebra")
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        for sub in ("verify", "perturb"):
            code, report = run_command([sub, str(path)])
            assert code == 3 and report.error.startswith(f"SpecFormatError: bounds.{side}: ")
        with pytest.raises(SpecFormatError, match=f"^bounds.{side}: not strictly nonzero"):
            certify(OperatorFamily(spec.operators), ModuleOperator.identity(2, 2), spec.bounds)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_algebra_zero_multiple_of_identity_exits_3(self, tmp_path, side, capfd):
        """0*I in algebra mode is classified as c*I, with no SVD, and c = 0 is
        still not strictly nonzero."""
        spec = generate_instance("perturbed-pair", 2, 2, 2, seed=1)
        zero = np.zeros((2, 2), dtype=complex)
        spec.bounds = FrameBounds(lower=zero if side == "lower" else spec.bounds.lower,
                                  upper=zero if side == "upper" else spec.bounds.upper,
                                  mode="algebra")
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        for sub in ("verify", "perturb"):
            code, report = run_command([sub, str(path)])
            assert code == 3
            assert report.error == (
                f"SpecFormatError: bounds.{side}: not strictly nonzero (not safely invertible)"
            )
        assert capfd.readouterr().err == ""

    # ``tolerances`` is legacy: a spec may carry exactly what gen once wrote,
    # and any other content exits 3 naming its first key at fault.
    @pytest.mark.parametrize(
        "key, literal",
        [
            ("rank_tol", "[1]"),
            ("cond_cap", '"nan"'),
            ("cond_cap", "-1"),
            ("cond_cap", "true"),
            ("tol", "0"),
            ("cond_cap", "1e400"),
            ("cond_cap", "1" + "0" * 400),
        ],
        ids=["list", "nan-string", "negative", "bool", "zero", "float-overflow", "int-overflow"],
    )
    def test_tolerance_must_be_finite_positive_number(self, tmp_path, key, literal, capfd):
        """Every value other than the legacy one is rejected, the non-numbers too."""
        data = _with_legacy_tolerances(generate_instance("dual-pair", 2, 2, 3, seed=2))
        path = _write_with_literal(tmp_path, data, ("tolerances", key), literal)
        with pytest.raises(SpecFormatError, match="kernel rule is fixed") as err:
            load_spec(path)
        assert str(err.value).startswith(f"tolerances.{key}: ")
        for method in ("canonical", "minimal"):
            code, report = run_command(["dual", str(path), "--method", method])
            assert code == 3 and report.error.startswith(f"SpecFormatError: tolerances.{key}:")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "key, literal", [("tol", "1e-09"), ("cond", "1000000000000.0"), ("seed", "3")]
    )
    def test_tolerances_hold_only_cond_cap_and_rank_tol(self, tmp_path, key, literal, capfd):
        data = _with_legacy_tolerances(generate_instance("dual-pair", 2, 2, 3, seed=2))
        path = _write_with_literal(tmp_path, data, ("tolerances", key), literal)
        with pytest.raises(SpecFormatError, match="the certification tolerance is --tol") as err:
            load_spec(path)
        assert str(err.value).startswith(f"tolerances.{key}: ")
        for sub, *extra in (["dual", "--method", "canonical"], ["dual", "--method", "minimal"],
                            ["verify"]):
            code, report = run_command([sub, str(path), *extra])
            assert code == 3 and report.error.startswith(f"SpecFormatError: tolerances.{key}:")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "tolerances, key",
        [({"cond_cap": 1e6}, "cond_cap"), ({"cond_cap": 1e12, "rank_tol": 1e-8}, "rank_tol"),
         ({"rank_tol": 1e-12}, "cond_cap"), ({}, "cond_cap")],
        ids=["cond_cap-1e6", "rank_tol-1e-8", "cond_cap-missing", "empty"],
    )
    def test_other_tolerances_exit_3(self, tmp_path, tolerances, key, capfd):
        data = {**generate_instance("dual-pair", 2, 2, 3, seed=2).to_dict(),
                "tolerances": tolerances}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for method in ("canonical", "minimal"):
            code, report = run_command(["dual", str(path), "--method", method])
            assert code == 3 and report.error.startswith(f"SpecFormatError: tolerances.{key}: ")
            assert "kernel rule is fixed at 1e-12" in report.error
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "kind, key, subs",
        [
            ("known-bounds", "target_operator", ("bounds", "verify", "dual")),
            ("perturbed-pair", "aux_operator", ("perturb",)),
        ],
    )
    def test_target_and_aux_must_be_endomorphisms(self, tmp_path, kind, key, subs, capfd):
        from modframes import random_operator

        spec = generate_instance(kind, 2, 2, 3, seed=3)
        spec.bounds = None  # no file bounds: verify computes the optimal ones
        setattr(spec, key, random_operator(2, 2, 3, make_rng(3)))
        path = tmp_path / "wide.json"
        save_spec(spec, path)
        with pytest.raises(SpecFormatError, match=f"^{key}.target_rank: must equal module_rank"):
            load_spec(path)
        for sub in subs:
            code, report = run_command([sub, str(path)])
            assert code == 3 and report.error.startswith(f"SpecFormatError: {key}.target_rank:")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("literal", ["false", "0", "[]", '""', "[1]"])
    def test_tolerances_must_be_an_object(self, tmp_path, literal, capfd):
        data = json.loads(generate_instance("dual-pair", 2, 2, 3, seed=2).to_json())
        path = _write_with_literal(tmp_path, data, ("tolerances",), literal)
        code, report = run_command(["dual", str(path)])
        assert code == 3 and report.error.startswith("SpecFormatError: tolerances: ")
        assert "kernel rule is fixed" in report.error
        assert capfd.readouterr().err == ""

    def test_integer_tolerance_accepted(self, tmp_path):
        """The legacy values spelled as integers equal them, so they load too."""
        data = _with_legacy_tolerances(generate_instance("dual-pair", 2, 2, 3, seed=2))
        path = _write_with_literal(tmp_path, data, ("tolerances", "cond_cap"), "1000000000000")
        spec = load_spec(path)
        assert spec.to_json() == generate_instance("dual-pair", 2, 2, 3, seed=2).to_json()
        assert run_command(["dual", str(path)])[0] == 0

    @pytest.mark.parametrize("keys, field, literal", _NOT_JSON_NUMBERS)
    def test_number_field_rejects_other_json_types(self, tmp_path, keys, field, literal, capfd):
        data = json.loads(_KNOWN_BOUNDS.to_json())
        path = _write_with_literal(tmp_path, data, keys, literal)
        with pytest.raises(SpecFormatError) as err:
            load_spec(path)
        assert str(err.value).startswith(f"{field}:")
        code, report = run_command(["verify", str(path)])
        assert code == 3 and report.error.startswith(f"SpecFormatError: {field}:")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("sub", ["verify", "perturb", "tensor"])
    def test_second_operators_must_be_a_list(self, tmp_path, sub, capfd):
        data = json.loads(generate_instance("dual-pair", 2, 2, 3, seed=2).to_json())
        path = _write_with_literal(tmp_path, data, ("second_operators",), "5")
        with pytest.raises(SpecFormatError, match="^second_operators: expected a list"):
            load_spec(path)
        code, report = run_command([sub, str(path)])
        assert code == 3 and report.error.startswith("SpecFormatError: second_operators:")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "field, literal",
        [("algebra_dim", "0"), ("algebra_dim", "-1"), ("module_rank", "0"),
         ("module_rank", "-1"), ("seed", "-1")],
    )
    def test_integer_field_below_its_least_names_field(self, tmp_path, field, literal, capfd):
        data = json.loads(_KNOWN_BOUNDS.to_json())
        path = _write_with_literal(tmp_path, data, (field,), literal)
        code, report = run_command(["verify", str(path)])
        assert code == 3 and report.error.startswith(f"SpecFormatError: {field}: must be an "
                                                     "integer at least")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "keys, field",
        [((), "extra"), (("operators", 1), "operators[1].extra"),
         (("target_operator",), "target_operator.extra"), (("bounds",), "bounds.extra")],
        ids=["top-level", "operator", "target-operator", "bounds"],
    )
    def test_unknown_key_names_its_path(self, tmp_path, keys, field, capfd):
        data = json.loads(_KNOWN_BOUNDS.to_json())
        entry = data
        for key in keys:
            entry = entry[key]
        entry["extra"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SpecFormatError, match="unknown key"):
            load_spec(path)
        code, report = run_command(["verify", str(path)])
        assert code == 3 and report.error.startswith(f"SpecFormatError: {field}: unknown key")
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize(
        "kind, sub", [("perturbed-pair", "perturb"), ("dual-pair", "tensor"),
                      ("dual-pair", "verify")]
    )
    @pytest.mark.parametrize("fault", ["short", "target-rank"])
    def test_second_operators_indexed_like_operators(self, tmp_path, kind, sub, fault, capfd):
        spec = generate_instance(kind, 2, 3, 3, seed=4)
        ranks = [m.target_rank for m in spec.operators]
        if fault == "short":
            spec.second_operators = spec.second_operators[:-1]
            field, words = "second_operators", "expected 3 members"
        else:
            i = ranks.index(min(ranks))
            second = ModuleOperator.zero(2, 3, ranks[i] + 1)
            spec.second_operators[i] = second
            field, words = f"second_operators[{i}].target_rank", f"operators[{i}].target_rank"
        path = tmp_path / "mis-indexed.json"
        save_spec(spec, path)
        code, report = run_command([sub, str(path)] + ([str(path)] if sub == "tensor" else []))
        assert code == 3 and report.error.startswith(f"SpecFormatError: {field}:")
        assert words in report.error
        assert capfd.readouterr().err == ""


class TestGenerators:
    def test_tight_has_identity_frame_operator(self):
        spec = generate_instance("tight", 2, 2, 3, seed=7)
        s = frame_operator(OperatorFamily(spec.operators))
        assert np.linalg.norm(s.flat - np.eye(4), 2) <= 1e-9

    def test_known_bounds_certifies_exactly(self):
        spec = generate_instance("known-bounds", 2, 2, 3, seed=8)
        cert = certify(OperatorFamily(spec.operators), spec.target_operator, spec.bounds)
        assert cert.verdict == "certified" and cert.mode == "exact"

    def test_bessel_only_falsifies_lower(self):
        spec = generate_instance("bessel-only", 2, 2, 3, seed=9)
        cert = certify(OperatorFamily(spec.operators), spec.target_operator, spec.bounds)
        assert cert.verdict == "falsified"
        assert cert.min_gap_lower < -1e-6
        assert cert.min_gap_upper >= -1e-9  # upper (Bessel) side still holds

    def test_perturbed_pair_has_second_family(self):
        spec = generate_instance("perturbed-pair", 2, 2, 3, seed=10)
        assert spec.second_operators is not None
        diff = max(
            np.linalg.norm(a.flat - b.flat, 2)
            for a, b in zip(spec.operators, spec.second_operators)
        )
        assert 0 < diff < 0.1

    def test_dual_pair_verifies(self):
        from modframes import verify_dual

        spec = generate_instance("dual-pair", 2, 2, 3, seed=11)
        pair = verify_dual(
            OperatorFamily(spec.operators),
            OperatorFamily(spec.second_operators),
            spec.target_operator,
        )
        assert pair.verified

    def test_same_seed_identical_files(self):
        a = generate_instance("known-bounds", 2, 3, 4, seed=123)
        b = generate_instance("known-bounds", 2, 3, 4, seed=123)
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_generated_tolerances_are_the_read_ones(self, tmp_path, kind):
        """gen writes no tolerances; the ones it once wrote still load, to the same spec."""
        spec = generate_instance(kind, 2, 2, 3, seed=12)
        assert "tolerances" not in spec.to_dict()
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(_with_legacy_tolerances(spec)), encoding="utf-8")
        assert load_spec(path).to_json() == spec.to_json()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_instance("nonsense", 2, 2, 2, seed=0)


class TestCliContract:
    def _gen(self, tmp_path, kind, seed, **kw):
        path = tmp_path / f"{kind}-{seed}.json"
        code, _ = run_command(
            [
                "gen",
                "--kind",
                kind,
                "--dim",
                str(kw.get("dim", 2)),
                "--rank",
                str(kw.get("rank", 2)),
                "--count",
                str(kw.get("count", 3)),
                "--seed",
                str(seed),
                "--spec-out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_exit_zero_verified(self, tmp_path):
        path = self._gen(tmp_path, "tight", 21)
        code, report = run_command(["verify", str(path)])
        assert code == 0
        assert report.verdicts["certificate"] == "certified"
        assert report.verdicts["mode"] == "exact"

    def test_exit_one_falsified_with_witness(self, tmp_path):
        path = self._gen(tmp_path, "bessel-only", 22)
        code, report = run_command(["verify", str(path)])
        assert code == 1
        assert "falsifying_vector" in report.witnesses
        # witness must reproduce a negative gap eigenvalue standalone
        spec = load_spec(path)
        wit = decode_vector(report.witnesses["falsifying_vector"])
        g_lo, _ = gap_matrices(
            OperatorFamily(spec.operators), spec.target_operator, spec.bounds, wit
        )
        assert np.linalg.eigvalsh(0.5 * (g_lo + np.conj(g_lo.T)))[0] < -0.5e-9

    def test_exit_two_near_scalar_inconclusive(self, tmp_path):
        path = tmp_path / "near.json"
        near_scalar_spec(path, eps=1e-8, seed=23)
        code, report = run_command(["verify", str(path)])
        assert code == 2
        assert report.verdicts["certificate"] == "inconclusive"
        assert report.verdicts["mode"] == "structural"
        assert -1e-9 <= report.residuals["min_gap_lower"] < 0
        assert report.witnesses == {}

    def test_restarts_accepted_and_ignored_mode_rejected(self, tmp_path):
        path = tmp_path / "near.json"
        near_scalar_spec(path, eps=1e-6)
        plain = run_command(["verify", str(path)])
        legacy = run_command(["verify", str(path), "--restarts", "4"])
        assert plain[0] == legacy[0] == 1
        assert plain[1].residuals == legacy[1].residuals
        assert run_command(["verify", str(path), "--mode", "sampled"])[0] == 3

    def test_exit_three_input_error(self, tmp_path):
        code, report = run_command(["verify", str(tmp_path / "missing.json")])
        assert code == 3
        assert report.error is not None
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run_command(["verify", str(bad)])
        assert code == 3

    def test_exit_four_hypothesis_failure(self, tmp_path):
        rng = make_rng(0)
        from modframes import random_operator

        member = random_operator(2, 2, 1, rng)
        spec = FrameSpecFile(
            algebra_dim=2,
            module_rank=2,
            operators=[member],
            target_operator=ModuleOperator.identity(2, 2),
        )
        path = tmp_path / "singular.json"
        save_spec(spec, path)
        code, report = run_command(["dual", str(path)])
        assert code == 4
        assert "SingularFrameOperator" in report.error
        assert report.witnesses == {}

    def test_exit_four_reports_the_hypothesis_vector(self, tmp_path):
        """A perturbed family that kills a direction v of C^{nd} has an infinite
        M; the exit-4 report carries the kernel direction x as
        ``hypothesis_vector``, with x* S_G x ~ 0 while x* D x is not."""
        spec = generate_instance("perturbed-pair", 2, 2, 3, seed=6)
        v = np.linalg.qr(make_rng(6).standard_normal((4, 1)))[0][:, 0]
        proj = np.eye(4) - np.outer(v, v)
        spec.second_operators = [ModuleOperator(2, 2, g.target_rank, proj @ g.flat)
                                 for g in spec.second_operators]
        path = tmp_path / "dead.json"
        save_spec(spec, path)
        code, report = run_command(["perturb", str(path)])
        assert code == 4 and "infinite" in report.error
        x = np.conj(decode_vector(report.witnesses["hypothesis_vector"]).flat[0])
        s_g = frame_operator(OperatorFamily(spec.second_operators)).flat
        d_hat = sum((a - b).flat @ np.conj((a - b).flat.T)
                    for a, b in zip(spec.operators, spec.second_operators))
        assert abs(np.vdot(x, s_g @ x)) <= 1e-12 * np.linalg.norm(s_g, 2)
        assert np.vdot(x, d_hat @ x).real >= 1e-6 * np.linalg.norm(d_hat, 2)

    def test_dual_command_verifies(self, tmp_path):
        path = self._gen(tmp_path, "dual-pair", 24)
        for method in ("canonical", "minimal"):
            code, report = run_command(["dual", str(path), "--method", method])
            assert code == 0
            assert report.residuals["reconstruction"] <= 1e-10
            assert set(report.residuals) == {"reconstruction", "dual_bessel_bound"}

    def test_perturb_command(self, tmp_path):
        path = self._gen(tmp_path, "perturbed-pair", 25)
        code, report = run_command(["perturb", str(path)])
        assert code == 0
        assert report.verdicts["derived_bounds_hold"] is True
        assert report.residuals["M_estimate"] > 0.0
        assert report.residuals["M_kind"] == "exact"
        assert "samples_used" not in report.residuals
        res = report.residuals
        assert min(res["worst_lower_margin"], res["worst_upper_margin"]) >= -1e-9
        assert decode_vector(report.witnesses["M_witness"]).dim == 2

    @pytest.mark.parametrize("kind, sub", [("known-bounds", "verify")])
    def test_samples_accepted_and_ignored(self, tmp_path, capsys, kind, sub):
        path = self._gen(tmp_path, kind, 28)
        capsys.readouterr()
        outputs = []
        for extra in ([], ["--samples", "120"], ["--samples", "120"]):
            assert run_command([sub, str(path), *extra])[0] == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[1] == outputs[2]
        plain, flagged = (json.loads(out) for out in outputs[:2])
        assert flagged.pop("command") == [sub, str(path), "--samples", "120"]
        plain.pop("command")
        assert plain == flagged

    def test_exit_five_internal_error(self, tmp_path, monkeypatch, capsys):
        import modframes.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        path = self._gen(tmp_path, "known-bounds", 30)
        monkeypatch.setattr(cli, "certify", broken)
        code, report = run_command(["verify", str(path)])
        assert code == cli.EXIT_INTERNAL == 5
        assert report.error == "InternalError: RuntimeError: boom"
        assert "Traceback" in capsys.readouterr().err

    def test_lapack_failure_is_internal_not_input(self, tmp_path, monkeypatch, capsys):
        path = self._gen(tmp_path, "known-bounds", 30)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        capsys.readouterr()
        code, report = run_command(["verify", str(path)])
        assert code == 5
        assert report.error == "InternalError: LinAlgError: Eigenvalues did not converge"
        assert "Traceback" in capsys.readouterr().err

    def test_tensor_command(self, tmp_path):
        p1 = self._gen(tmp_path, "dual-pair", 26)
        p2 = self._gen(tmp_path, "dual-pair", 27)
        code, report = run_command(["tensor", str(p1), str(p2)])
        assert code == 0
        assert report.residuals["tensor_residual"] <= 1e-10

    def test_tensor_unverified_factor_is_falsified(self, tmp_path):
        path = self._gen(tmp_path, "dual-pair", 29)
        spec = load_spec(path)
        spec.second_operators[0] = spec.second_operators[0] * 2.0  # break the dual
        broken = tmp_path / "broken-pair.json"
        save_spec(spec, broken)
        code, report = run_command(["tensor", str(broken), str(path)])
        assert code == 1
        assert report.verdicts["failing_factor"] == 0

    def test_douglas_command(self, tmp_path):
        rng = make_rng(1)
        from modframes import compose, random_operator

        l = random_operator(2, 2, 2, rng)
        k = compose(random_operator(2, 2, 2, rng), l)
        spec = FrameSpecFile(algebra_dim=2, module_rank=2, operators=[k, l])
        path = tmp_path / "douglas.json"
        save_spec(spec, path)
        code, report = run_command(["douglas", str(path)])
        assert code == 0
        assert report.verdicts["range_included"]

    def test_bounds_command(self, tmp_path):
        path = self._gen(tmp_path, "tight", 28)
        code, report = run_command(["bounds", str(path)])
        assert code == 0
        assert report.bounds["lower"] == pytest.approx(1.0, abs=1e-8)
        assert report.bounds["upper"] == pytest.approx(1.0, abs=1e-8)

    def test_bounds_bessel_only_lower_is_exactly_zero(self, tmp_path):
        path = self._gen(tmp_path, "bessel-only", 22)
        code, report = run_command(["bounds", str(path)])
        assert code == 0
        assert report.bounds["lower"] == 0.0 and report.bounds["upper"] > 0


class TestDeterminism:
    def test_reports_byte_identical(self, tmp_path, capsys):
        spec_path = tmp_path / "kb.json"
        run_command(
            [
                "gen", "--kind", "known-bounds", "--dim", "2", "--rank", "2",
                "--count", "3", "--seed", "31", "--spec-out", str(spec_path),
            ]
        )
        capsys.readouterr()  # drain the gen report
        near_scalar_spec(spec_path, eps=1e-6, seed=31)  # decided structurally
        argv = ["verify", str(spec_path), "--samples", "120"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["timing_s"] is None

    def test_out_files_byte_identical(self, tmp_path):
        spec_path = tmp_path / "t.json"
        run_command(
            [
                "gen", "--kind", "tight", "--dim", "2", "--rank", "2",
                "--count", "3", "--seed", "32", "--spec-out", str(spec_path),
            ]
        )
        out = tmp_path / "report.json"
        argv = ["verify", str(spec_path), "--out", str(out)]
        run_command(argv)
        blob1 = out.read_bytes()
        run_command(argv)
        assert out.read_bytes() == blob1

    def test_timing_flag_breaks_determinism_as_documented(self, tmp_path, capsys):
        spec_path = tmp_path / "t2.json"
        run_command(
            [
                "gen", "--kind", "tight", "--dim", "2", "--rank", "2",
                "--count", "2", "--seed", "33", "--spec-out", str(spec_path),
            ]
        )
        capsys.readouterr()
        run_command(["verify", str(spec_path), "--timing"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["timing_s"] > 0

    def test_seed_is_gen_only(self, tmp_path, capsys, monkeypatch):
        """Only gen reads a seed: its flag, default 0.  The environment changes
        nothing, --seed on another subcommand is an input error, and other
        reports carry seed null."""
        spec_path = tmp_path / "dp.json"
        gen = ["gen", "--kind", "dual-pair", "--dim", "2", "--rank", "2", "--count", "3",
               "--spec-out", str(spec_path)]
        outputs = []
        for env in (None, "777"):
            if env is None:
                monkeypatch.delenv("MODFRAMES_SEED", raising=False)
            else:
                monkeypatch.setenv("MODFRAMES_SEED", env)
            code, report = run_command([*gen, "--seed", "35"])
            assert code == 0 and report.seed == 35
            outputs.append((capsys.readouterr().out, spec_path.read_bytes()))
        assert outputs[0] == outputs[1]
        code, report = run_command(gen)
        capsys.readouterr()
        assert code == 0 and report.seed == 0 and load_spec(spec_path).seed == 0

        spec = str(spec_path)
        for argv in (["verify", spec], ["bounds", spec], ["dual", spec], ["perturb", spec],
                     ["tensor", spec, spec], ["douglas", spec]):
            code, report = run_command([*argv, "--seed", "5"])
            assert code == 3 and report.subcommand == "parse-error"
            capsys.readouterr()
            code, _ = run_command(argv)
            assert code != 3 and json.loads(capsys.readouterr().out)["seed"] is None

    def test_text_format_stable(self, tmp_path, capsys):
        spec_path = tmp_path / "t3.json"
        run_command(
            [
                "gen", "--kind", "tight", "--dim", "1", "--rank", "2",
                "--count", "2", "--seed", "34", "--spec-out", str(spec_path),
            ]
        )
        capsys.readouterr()
        argv = ["verify", str(spec_path), "--format", "text"]
        run_command(argv)
        first = capsys.readouterr().out
        run_command(argv)
        assert capsys.readouterr().out == first
        assert first.startswith("modframes verify")


def _count_calls(monkeypatch, argv, code=0) -> dict:
    """Run the CLI and count frame-operator builds and ``numpy.linalg`` calls.

    ``frame_operator`` is counted in every modframes module that binds it, so
    a build through an imported name counts as well.  ``solves`` counts the
    eigen-solves, ``eigh`` and ``eigvalsh`` together.
    """
    import sys

    import modframes.frames

    counts = {"gram": 0, "solves": 0, "eigh": 0, "eigvalsh": 0, "svd": 0, "pinv": 0}

    def counted(fn, *keys):
        def wrapper(*args, **kwargs):
            for key in keys:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    original = modframes.frames.frame_operator
    build = counted(original, "gram")
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "modframes" and getattr(mod, "frame_operator", None) is original:
            monkeypatch.setattr(mod, "frame_operator", build)
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), "solves", name))
    for name in ("svd", "pinv"):
        monkeypatch.setattr(np.linalg, name, counted(getattr(np.linalg, name), name))
    assert run_command([*argv, "--out", argv[1] + ".report"])[0] == code
    return counts


class TestOneSpectrumPerFamily:
    """Each family's frame operator is built once and eigen-decomposed once
    per CLI call, however many bounds, constants and checks read it."""

    @pytest.mark.parametrize(
        "sub, kind, file_bounds, grams, max_solves",
        [
            ("perturb", "perturbed-pair", True, 2, 7),
            ("perturb", "perturbed-pair", False, 2, 8),
            ("bounds", "known-bounds", True, 1, 2),
            ("verify", "known-bounds", False, 1, 3),
            ("dual", "known-bounds", True, 2, 2),
            ("dual --method minimal", "known-bounds", True, 2, 2),
        ],
        ids=["perturb", "perturb-no-file-bounds", "bounds", "verify-no-file-bounds",
             "dual-canonical", "dual-minimal"],
    )
    def test_counts(self, tmp_path, monkeypatch, sub, kind, file_bounds, grams, max_solves):
        spec = generate_instance(kind, 2, 2, 3, seed=4)
        if not file_bounds:
            spec.bounds = None
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        sub, *flags = sub.split()
        counts = _count_calls(monkeypatch, [sub, str(path), *flags])
        assert counts["gram"] == grams
        assert counts["solves"] <= max_solves

    @pytest.mark.parametrize("included", [True, False])
    def test_douglas_is_one_svd(self, tmp_path, monkeypatch, included):
        """douglas decides from one SVD of L, with no pseudoinverse and no
        eigvalsh; only a non-inclusion runs one eigh, for its witness."""
        rng = make_rng(8)
        l = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 4))
        k = rng.standard_normal((4, 4)) @ (l if included else np.eye(4))
        ops = [ModuleOperator(2, 2, 2, f) for f in (k, l)]
        path = tmp_path / "kl.json"
        save_spec(FrameSpecFile(algebra_dim=2, module_rank=2, operators=ops), path)
        outside = 0 if included else 1  # the witness's eigh, and exit 1
        counts = _count_calls(monkeypatch, ["douglas", str(path)], code=outside)
        assert counts == {"gram": 0, "solves": outside, "eigh": outside,
                          "eigvalsh": 0, "svd": 1, "pinv": 0}

    @pytest.mark.parametrize("factors", [2, 3, 4])
    def test_tensor_builds_no_gram(self, tmp_path, monkeypatch, factors):
        """tensor decides from the factors' reconstruction operators; the dual
        Bessel bounds it does not report are never computed."""
        paths = []
        for seed in range(factors):
            path = tmp_path / f"dp{seed}.json"
            save_spec(generate_instance("dual-pair", 2, 2, 3, seed=seed), path)
            paths.append(str(path))
        counts = _count_calls(monkeypatch, ["tensor", *paths])
        assert counts["gram"] == counts["solves"] == 0


# -- the exit-3 contract, by mutation -------------------------------------------

# Valid specs and the subcommands that read them: every field of each is read
# by at least one of its subcommands.
_algebra_kb = generate_instance("known-bounds", 2, 2, 2, seed=5)
_algebra_kb.bounds = FrameBounds(lower=_algebra_kb.bounds.lower, upper=_algebra_kb.bounds.upper,
                                 mode="algebra")
_CONTRACT_BASES = [
    (generate_instance("perturbed-pair", 2, 2, 2, seed=5).to_dict(), ("perturb", "verify")),
    (generate_instance("dual-pair", 2, 2, 2, seed=5).to_dict(), ("dual", "tensor")),
    (_algebra_kb.to_dict(), ("verify", "bounds", "douglas")),
]
# A literal spelled into the file as it stands, as "@1e400@" becomes 1e400
# (which json reads as inf).
_LITERAL = re.compile(r'"@([^"@]*)@"')


def _replacements(value) -> list[tuple[object, bool]]:
    """(replacement, whether no spec field at all can hold it)."""
    return [(True, True), (False, True), (float("nan"), True), ("@1e400@", True),
            ("@-1e400@", True), ("2", True), ([value], True), ({"x": value}, True),
            (None, False), (0, False), (-1, False), (0.5, False), (10**30, False)] + (
        [(-value, False), (float(value), False), (str(value), True)]
        if type(value) in (int, float) else [])


def _resolves(data, path: str) -> bool:
    """Whether ``path`` names a value of ``data``, or a key missing from an object in it."""
    tokens = re.findall(r"\[(\d+)\]|\.?([a-z_]+)", path)
    for n, (index, key) in enumerate(tokens):
        last = n == len(tokens) - 1
        if key and isinstance(data, dict) and (key in data or last):
            data = data.get(key)
        elif index and isinstance(data, list) and int(index) < len(data):
            data = data[int(index)]
        else:
            return False
    return True


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_any_mutation_is_a_verdict_or_names_its_field(tmp_path_factory, data):
    """Delete a key, swap a type, insert a bool, NaN or 1e400, nest a value, make
    it negative or zero, or add an unknown key: the CLI gives a verdict (exit 0,
    1, 2), a hypothesis failure (exit 4) or an input error naming a field of
    the mutated spec (exit 3), never an internal error (exit 5).  A value no
    spec field can hold is always an input error."""
    base, subs = data.draw(st.sampled_from(_CONTRACT_BASES))
    spec = json.loads(json.dumps(base))
    parent, key, depth = None, None, data.draw(st.integers(1, 8))
    node = spec
    while depth and isinstance(node, (dict, list)) and node:
        parent = node
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        node, depth = node[key], depth - 1
    action = data.draw(st.sampled_from(["delete", "replace", "unknown-key"]))
    if action == "delete":
        del parent[key]
        rejected = False
    elif action == "replace" or not isinstance(node, dict):
        parent[key], rejected = data.draw(st.sampled_from(_replacements(node)))
    else:
        node["extra"], rejected = 1, True
    path = tmp_path_factory.mktemp("mutated") / "spec.json"
    path.write_text(_LITERAL.sub(r"\1", json.dumps(spec)))
    sub = data.draw(st.sampled_from(subs))
    with contextlib.redirect_stdout(io.StringIO()):
        code, report = run_command([sub, str(path)] + ([str(path)] if sub == "tensor" else []))
    assert code in (0, 1, 2, 3, 4), report.error
    assert code == 3 or not rejected, report.error
    if code == 3:
        match = re.match(r"SpecFormatError: ([a-z_]+(?:\[\d+\]|\.[a-z_]+)*): ", report.error)
        assert match and _resolves(json.loads(path.read_text()), match[1]), report.error
    elif code == 4:
        assert report.error and not report.error.startswith("SpecFormatError")
    else:
        assert report.error is None and report.verdicts
