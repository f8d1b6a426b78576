"""Spec file round-trips, instance generators, and the CLI contract."""

import contextlib
import io
import json
import os
import re
from dataclasses import FrozenInstanceError, replace

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
    generate_instance,
    load_spec,
    save_spec,
)
from modframes import cli
from modframes import io as spec_io
from modframes.cli import run_command
from modframes.io import GENERATOR_KINDS, FrameSpecFile, decode_vector, encode_vector
from conftest import direct_gap_eigs, make_rng, near_scalar_spec, nested_dict


def _algebra_bounds(spec: FrameSpecFile) -> FrameSpecFile:
    """``spec`` with its scalar bounds restated in algebra mode."""
    bounds = FrameBounds(lower=spec.bounds.lower, upper=spec.bounds.upper, mode="algebra")
    return replace(spec, bounds=bounds)


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
         {"blocks": []}, {"blocks": None}, {"dim": 1, "blocks": [[[[True, 0.5]]]]}],
        ids=["dim-string", "dim-fraction", "dim-float", "dim-bool", "dim-zero", "blocks-int",
             "blocks-empty", "blocks-null", "blocks-bool-pair"],
    )
    def test_decode_vector_rejects_malformed(self, rng, change):
        from modframes import random_vector

        data = {**encode_vector(random_vector(2, 3, rng)), **change}
        with pytest.raises(SpecFormatError, match="^vector"):
            decode_vector(data)

    def test_every_nest_reader_names_a_bool_pair(self):
        """A boolean in an [re, im] pair is no number to any reader of a nest:
        a vector's, an operator's and an algebra-valued bound's."""
        pair = [[[True, 0.5]]]
        reads = {
            "vector.blocks[0][0][0]": lambda: decode_vector({"dim": 1, "blocks": [pair]}),
            "op.blocks[0][0][0][0]": lambda: spec_io._decode_operator(
                {"target_rank": 1, "blocks": [[pair]]}, 1, 1, "op"),
            "bounds.lower[0][0]": lambda: spec_io._decode_bounds(
                {"mode": "algebra", "lower": pair, "upper": [[[1.0, 0.0]]]}, 1, "bounds"),
        }
        for field, read in reads.items():
            with pytest.raises(SpecFormatError) as err:
                read()
            message = f"{field}: complex entry must be a [re, im] pair, got [True, 0.5]"
            assert str(err.value) == message

    def test_corrupted_entry_arity_names_field(self, tmp_path):
        data = nested_dict(generate_instance("tight", 2, 2, 2, seed=1))
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
        spec = _algebra_bounds(generate_instance("known-bounds", 2, 2, 2, seed=1))
        data = nested_dict(spec)
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
        spec = _algebra_bounds(generate_instance("known-bounds", 2, 2, 2, seed=1))
        data = nested_dict(spec)
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

    def test_deep_nesting_is_an_input_error(self, tmp_path, capfd):
        """json's nesting limit is the file's fault: exit 3 naming the path, no traceback."""
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, report = run_command(["verify", str(path)])
        assert code == 3
        assert report.error.startswith(f"SpecFormatError: {path}: invalid JSON: maximum recursion")
        assert capfd.readouterr().err == ""

    def test_integer_beyond_the_digit_limit_is_an_input_error(self, tmp_path, capfd):
        """json's limit on integer digits (4300) is the file's fault as well."""
        path = tmp_path / "digits.json"
        text = generate_instance("known-bounds", 2, 2, 3, seed=1).to_json()
        path.write_text(text.replace('"seed": 1', '"seed": ' + "7" * 5000), encoding="utf-8")
        code, report = run_command(["verify", str(path)])
        assert code == 3
        assert report.error.startswith(f"SpecFormatError: {path}: invalid JSON: Exceeds the limit")
        assert capfd.readouterr().err == ""

    def test_non_utf8_names_the_file_and_byte(self, tmp_path, capfd):
        good = tmp_path / "dp.json"
        save_spec(generate_instance("dual-pair", 2, 2, 3, seed=1), good)
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + good.read_bytes())
        with pytest.raises(SpecFormatError) as err:
            load_spec(bad)
        assert str(err.value) == f"{bad}: not UTF-8 at byte 0: invalid start byte"
        bad.write_bytes(good.read_bytes()[:40] + b"\xc3(" + good.read_bytes()[40:])
        code, report = run_command(["tensor", str(good), str(bad), str(good)])
        assert code == 3
        want = f"SpecFormatError: {bad}: not UTF-8 at byte 40: invalid continuation byte"
        assert report.error == want
        assert "Traceback" not in capfd.readouterr().err


def _write_with_literal(tmp_path, data, keys, literal):
    """Write ``data`` as JSON with the value at ``keys`` spelled as ``literal``."""
    entry = data
    for key in keys[:-1]:
        entry = entry[key]
    entry[keys[-1]] = "@PLACEHOLDER@"
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data).replace('"@PLACEHOLDER@"', literal))
    return path


def _old_tolerances(**spelled) -> str:
    """The ``tolerances`` object gen wrote until the kernel rule was fixed, as
    JSON text, with each keyword's value spelled as given."""
    fields = {"cond_cap": "1000000000000.0", "rank_tol": "1e-12", **spelled}
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()) + "}"


# Each ``tolerances`` literal once read differently (gen's own loaded; the rest
# named a key at fault); every one is now an unknown key.
_ANY_TOLERANCES = [
    *(pytest.param(kind, _old_tolerances(), id=f"legacy-{kind}") for kind in GENERATOR_KINDS),
    pytest.param("dual-pair", _old_tolerances(cond_cap="1000000000000"), id="legacy-integer"),
    *(
        pytest.param("dual-pair", _old_tolerances(**{key: literal}), id=name)
        for name, key, literal in (
            ("list", "rank_tol", "[1]"),
            ("nan-string", "cond_cap", '"nan"'),
            ("negative", "cond_cap", "-1"),
            ("bool", "cond_cap", "true"),
            ("zero", "tol", "0"),
            ("float-overflow", "cond_cap", "1e400"),
            ("int-overflow", "cond_cap", "1" + "0" * 400),
            ("tol-1e-09", "tol", "1e-09"),
            ("cond-1e12", "cond", "1000000000000.0"),
            ("seed-3", "seed", "3"),
        )
    ),
    *(
        pytest.param("dual-pair", literal, id=name)
        for name, literal in (
            ("cond_cap-1e6", '{"cond_cap": 1000000.0}'),
            ("rank_tol-1e-8", _old_tolerances(rank_tol="1e-08")),
            ("cond_cap-missing", '{"rank_tol": 1e-12}'),
            ("empty", "{}"),
            ("false", "false"),
            ("0", "0"),
            ("[]", "[]"),
            ('""', '""'),
            ("[1]", "[1]"),
        )
    ),
]


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
        spec = replace(spec, bounds=FrameBounds(
            lower=bad if side == "lower" else spec.bounds.lower,
            upper=bad if side == "upper" else spec.bounds.upper, mode="algebra"))
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
        spec = replace(spec, bounds=FrameBounds(
            lower=zero if side == "lower" else spec.bounds.lower,
            upper=zero if side == "upper" else spec.bounds.upper, mode="algebra"))
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        for sub in ("verify", "perturb"):
            code, report = run_command([sub, str(path)])
            assert code == 3
            assert report.error == (
                f"SpecFormatError: bounds.{side}: not strictly nonzero (not safely invertible)"
            )
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("kind, literal", _ANY_TOLERANCES)
    def test_tolerances_is_an_unknown_key(self, tmp_path, kind, literal, capfd):
        """A spec sets no tolerance: a ``tolerances`` key of any content, gen's
        old one included, exits 3 as an unknown key, from a file and a dict alike."""
        data = {**generate_instance(kind, 2, 2, 3, seed=2).to_dict(), "tolerances": None}
        path = _write_with_literal(tmp_path, data, ("tolerances",), literal)
        with pytest.raises(SpecFormatError, match="^tolerances: unknown key, not one of ") as err:
            load_spec(path)
        with pytest.raises(SpecFormatError) as from_dict:
            FrameSpecFile.from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert str(from_dict.value) == str(err.value)
        for sub, *extra in (["dual", "--method", "canonical"], ["dual", "--method", "minimal"],
                            ["verify"]):
            code, report = run_command([sub, str(path), *extra])
            assert code == 3 and report.error == f"SpecFormatError: {err.value}"
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
        # no file bounds: verify computes the optimal ones
        spec = replace(spec, bounds=None, **{key: random_operator(2, 2, 3, make_rng(3))})
        path = tmp_path / "wide.json"
        save_spec(spec, path)
        with pytest.raises(SpecFormatError, match=f"^{key}.target_rank: must equal module_rank"):
            load_spec(path)
        for sub in subs:
            code, report = run_command([sub, str(path)])
            assert code == 3 and report.error.startswith(f"SpecFormatError: {key}.target_rank:")
        assert capfd.readouterr().err == ""

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
        second = list(spec.second_operators)
        if fault == "short":
            second.pop()
            field, words = "second_operators", "expected 3 members"
        else:
            i = ranks.index(min(ranks))
            second[i] = ModuleOperator.zero(2, 3, ranks[i] + 1)
            field, words = f"second_operators[{i}].target_rank", f"operators[{i}].target_rank"
        spec = replace(spec, second_operators=second)
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
        lo, _ = direct_gap_eigs(
            OperatorFamily(spec.operators), spec.target_operator, spec.bounds.lower,
            spec.bounds.upper, wit
        )
        assert lo < -0.5e-9

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
        spec = replace(spec, second_operators=[ModuleOperator(2, 2, g.target_rank, proj @ g.flat)
                                               for g in spec.second_operators])
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

    @pytest.mark.parametrize("lower, scale", [(1e-200, None), (5e-324, 10.0)],
                             ids=["tiny-lower", "tiny-lower-large-M"])
    def test_perturb_gives_a_verdict_where_the_derived_lower_bound_underflows(
            self, tmp_path, capfd, lower, scale):
        """||A||^2 / (1 + sqrt(M))^2 underflows to 0 for a lower bound the reader
        takes; perturb still decides, reporting derived_lower 0.  With second
        operators 10 times the first (M = 81), ||A|| / (1 + sqrt(M)) is 0 too."""
        spec = generate_instance("perturbed-pair", 2, 2, 3, seed=1)
        if scale is not None:
            spec = replace(spec, second_operators=[op * scale for op in spec.operators])
        data = spec.to_dict()
        data["bounds"]["lower"] = lower
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert run_command(["verify", str(path)])[0] == 0
        code, report = run_command(["perturb", str(path)])
        assert code == 0, report.error
        assert report.verdicts["derived_bounds_hold"] is True
        assert report.bounds["derived_lower"] == 0.0
        assert capfd.readouterr().err == ""

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
        spec = replace(spec, second_operators=[  # break the dual
            spec.second_operators[0] * 2.0, *spec.second_operators[1:]])
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


def _count_calls(monkeypatch, *argvs, code=0) -> dict:
    """Run the CLI on each argv and count frame-operator builds and ``numpy.linalg`` calls.

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
    for argv in argvs:
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
            spec = replace(spec, bounds=None)
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

    def test_subcommands_on_one_spec_share_its_family(self, tmp_path, monkeypatch):
        """verify, bounds and both duals in one process read the one family
        that a spec text decodes to: one Gram matrix and one spectrum for it,
        plus one Gram per dual family built.  A second text has its own."""
        paths = []
        for seed in (4, 5):
            paths.append(str(tmp_path / f"kb{seed}.json"))
            save_spec(generate_instance("known-bounds", 2, 2, 3, seed=seed), paths[-1])
        subs = (["verify"], ["bounds"], ["dual"], ["dual", "--method", "minimal"])
        counts = _count_calls(monkeypatch, *([sub, paths[0], *flags] for sub, *flags in subs))
        # eigh: S's once, certify's lower side, the bounds pencil and each dual's own
        assert (counts["gram"], counts["eigh"]) == (3, 5)
        counts = _count_calls(monkeypatch, ["bounds", paths[1]], ["bounds", paths[0]])
        assert (counts["gram"], counts["eigh"]) == (1, 3)  # the second text's S, two pencils


def _arrays(spec: FrameSpecFile) -> dict:
    """Every array of a loaded spec, by field."""
    out = {f"operators[{i}]": op.flat for i, op in enumerate(spec.operators)}
    out.update({f"second_operators[{i}]": op.flat
                for i, op in enumerate(spec.second_operators or [])})
    out.update({k: getattr(spec, k).flat for k in ("target_operator", "aux_operator")
                if getattr(spec, k) is not None})
    if spec.bounds is not None:
        out.update({"bounds.lower": spec.bounds.lower, "bounds.upper": spec.bounds.upper})
    return out


class TestDecodeCache:
    """``load_spec`` decodes a text once while it is among the last
    ``CACHED_TEXTS`` read, and every load of it is that frozen spec over
    read-only arrays."""

    @staticmethod
    def _one_entry(value: complex) -> FrameSpecFile:
        return FrameSpecFile(1, 1, [ModuleOperator(1, 1, 1, np.array([[value]]))])

    def test_rewrite_of_the_same_size_is_read_anew(self, tmp_path):
        path = tmp_path / "spec.json"
        save_spec(self._one_entry(0.25 + 0.5j), path)
        stat = path.stat()
        assert load_spec(path).operators[0].flat[0, 0] == 0.25 + 0.5j
        save_spec(self._one_entry(0.75 + 0.5j), path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # size and mtime as before
        assert path.stat().st_size == stat.st_size and path.stat().st_mtime_ns == stat.st_mtime_ns
        assert load_spec(path).operators[0].flat[0, 0] == 0.75 + 0.5j

    def test_a_bad_text_raises_every_time_and_is_never_kept(self, tmp_path):
        path = tmp_path / "spec.json"
        good = json.dumps(nested_dict(self._one_entry(0.25 + 0.5j))) + "\n"
        bools = good.replace("[0.25, 0.5]", "[true, 0.5]")
        assert bools != good
        for text, error in ((good[:-5], f"{path}: invalid JSON at line 1"),
                            (bools, "operators[0].blocks[0][0][0][0]: complex entry")):
            path.write_text(text)
            messages = []
            for _ in range(3):
                with pytest.raises(SpecFormatError) as err:
                    load_spec(path)
                messages.append(str(err.value))
            assert messages[0].startswith(error), messages[0]
            assert messages == messages[:1] * 3
            assert spec_io._decode.cache_info().currsize == 0
        path.write_text(good)
        assert load_spec(path).operators[0].flat[0, 0] == 0.25 + 0.5j

    def test_each_load_is_independent_over_read_only_arrays(self, tmp_path):
        """No load can change what another returns: a cached text loads as one
        spec, whose fields cannot be assigned and whose arrays cannot be written."""
        path = tmp_path / "dp.json"
        save_spec(generate_instance("dual-pair", 2, 2, 3, seed=5), path)
        first, second = load_spec(path), load_spec(path)
        assert spec_io._decode.cache_info().hits == 1
        assert first is second
        text = second.to_json()
        for obj, name in ((first, "operators"), (first, "module_rank"),
                          (first.operators[0], "flat"), (first.second_operators[0], "target_rank"),
                          (first.bounds, "upper")):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, None)
        for name, arr in _arrays(second).items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0
            with pytest.raises(ValueError):
                arr *= 2.0
        assert load_spec(path).to_json() == text

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_a_hit_is_bitwise_a_cold_decode(self, tmp_path, kind):
        path = tmp_path / f"{kind}.json"
        save_spec(generate_instance(kind, 2, 3, 4, seed=8), path)
        load_spec(path)
        hit = load_spec(path)
        assert spec_io._decode.cache_info().hits == 1
        spec_io._decode.cache_clear()
        cold = _arrays(load_spec(path))
        warm = _arrays(hit)
        assert warm.keys() == cold.keys()
        for name, arr in warm.items():
            assert arr.dtype == cold[name].dtype and arr.shape == cold[name].shape, name
            assert arr.tobytes() == cold[name].tobytes(), name

    def test_holds_the_last_two_distinct_texts(self, tmp_path):
        paths = []
        for i, value in enumerate((0.25, 0.5, 0.75)):
            paths.append(tmp_path / f"s{i}.json")
            save_spec(self._one_entry(value), paths[-1])
        for i in (0, 1, 0, 1, 2, 1, 0):
            load_spec(paths[i])
        info = spec_io._decode.cache_info()
        assert (info.hits, info.misses, info.currsize, info.maxsize) == (3, 4, 2, 2)
        assert spec_io.CACHED_TEXTS == 2

    def test_tensor_power_of_one_file_decodes_it_once(self, tmp_path, monkeypatch):
        path = tmp_path / "dp.json"
        save_spec(generate_instance("dual-pair", 2, 2, 3, seed=9), path)
        copies = []
        for i in range(3):
            copies.append(tmp_path / f"copy{i}.json")
            copies[-1].write_bytes(path.read_bytes())
        reads = []
        read = FrameSpecFile.from_dict.__func__

        def counted(cls, data):
            reads.append(data["seed"])
            return read(cls, data)

        monkeypatch.setattr(FrameSpecFile, "from_dict", classmethod(counted))
        power = run_command(["tensor", str(path), str(path), str(path)])
        assert reads == [9]
        spec_io._decode.cache_clear()
        apart = run_command(["tensor", *map(str, copies)])
        assert power[0] == apart[0] == 0
        assert power[1].verdicts == apart[1].verdicts == {"verified": True, "factors": 3}
        assert power[1].residuals == apart[1].residuals
        want = {**apart[1].to_dict(), "command": power[1].command}
        assert power[1].to_dict() == want

    def test_tensor_verifies_each_spec_once(self, tmp_path, monkeypatch):
        spec = generate_instance("dual-pair", 2, 2, 3, seed=8)
        path, broken = tmp_path / "dp.json", tmp_path / "broken.json"
        save_spec(spec, path)
        save_spec(replace(spec, second_operators=[
            spec.second_operators[0] * 2.0, *spec.second_operators[1:]]), broken)
        copies = [tmp_path / f"copy{i}.json" for i in range(4)]
        for copy in copies:
            copy.write_bytes(path.read_bytes())
        calls = []
        verify = cli.verify_dual

        def counted(*args, **kwargs):
            calls.append(args)
            return verify(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_dual", counted)
        power = run_command(["tensor", *[str(path)] * 4])
        assert len(calls) == 1
        spec_io._decode.cache_clear()
        apart = run_command(["tensor", *map(str, copies)])
        assert power[0] == apart[0] == 0
        assert power[1].to_dict() == {**apart[1].to_dict(), "command": power[1].command}
        calls.clear()
        code, report = run_command(["tensor", str(path), str(broken), str(path), str(broken)])
        assert (code, len(calls), report.verdicts["failing_factor"]) == (1, 2, 1)
        good, bad = report.residuals["factor_residuals"][:2]
        assert report.residuals["factor_residuals"] == [good, bad, good, bad] and good < bad

    def test_warm_reports_equal_cold_ones(self, tmp_path):
        path = tmp_path / "kb.json"
        save_spec(generate_instance("known-bounds", 2, 3, 4, seed=10), path)
        argvs = [["verify", str(path)], ["bounds", str(path)], ["dual", str(path)],
                 ["dual", str(path), "--method", "minimal"]]
        warm = [run_command(argv) for argv in argvs]
        assert spec_io._decode.cache_info().hits == len(argvs) - 1
        cold = []
        for argv in argvs:
            spec_io._decode.cache_clear()
            cold.append(run_command(argv))
        assert [code for code, _ in warm] == [code for code, _ in cold] == [0, 0, 0, 0]
        for (_, w), (_, c) in zip(warm, cold):
            assert w.render("json") == c.render("json")


def _twin(spec: FrameSpecFile, tmp_path, name: str) -> str:
    """``spec``'s operators with a tighter upper bound, written to ``name``: a
    text that differs from ``spec``'s only in ``bounds``."""
    beta = 0.9 * spec.bounds.beta
    path = str(tmp_path / name)
    save_spec(replace(spec, bounds=FrameBounds.scalar(spec.bounds.alpha, beta, spec.algebra_dim)),
              path)
    return path


def _operator_fields(spec: FrameSpecFile) -> list:
    return [*spec.operators, *(spec.second_operators or ()), spec.target_operator,
            spec.aux_operator]


class TestDecodeWindow:
    """A text read while a kept text holds bitwise-equal packed operator blocks
    takes those operators, and the family of an operator tuple it shares."""

    @pytest.mark.parametrize("kind", ["known-bounds", "perturbed-pair", "dual-pair"])
    def test_a_twin_text_takes_the_kept_operators_and_families(self, tmp_path, kind):
        spec = generate_instance(kind, 2, 2, 3, seed=6)
        path = str(tmp_path / "spec.json")
        save_spec(spec, path)
        twin_path = _twin(spec, tmp_path, "twin.json")
        first, twin = load_spec(path), load_spec(twin_path)
        assert twin is not first and twin.bounds.beta < first.bounds.beta
        kept = {id(op) for op in _operator_fields(first)}
        for a, b in zip(_operator_fields(first), _operator_fields(twin), strict=True):
            assert a is None and b is None or id(b) in kept and b.flat.tobytes() == a.flat.tobytes()
        assert all(b is a for a, b in zip(first.operators, twin.operators, strict=True))
        assert twin.family is first.family
        assert twin.second_family is first.second_family
        assert id(twin.target) in kept
        spec_io._decode.cache_clear()
        cold = _arrays(load_spec(twin_path))
        assert {k: a.tobytes() for k, a in _arrays(twin).items()} == {
            k: a.tobytes() for k, a in cold.items()}

    def test_k_and_aux_decode_separately_within_one_text(self, tmp_path):
        spec = generate_instance("perturbed-pair", 2, 2, 3, seed=6)  # K = aux = I
        path = str(tmp_path / "pp.json")
        save_spec(spec, path)
        first = load_spec(path)
        assert first.target_operator is not first.aux_operator
        assert first.target_operator.flat.tobytes() == first.aux_operator.flat.tobytes()
        # Across texts the key is the packed text, so a twin's K and aux both
        # take the one kept operator those equal blocks index.
        twin = load_spec(_twin(spec, tmp_path, "twin.json"))
        assert twin.target_operator is twin.aux_operator
        assert any(twin.aux_operator is op for op in (first.target_operator, first.aux_operator))

    def test_the_window_is_exactly_the_kept_texts(self, tmp_path):
        """A text evicted from the decode cache, or cleared from it, lends nothing."""
        spec = generate_instance("known-bounds", 2, 2, 3, seed=6)
        path = str(tmp_path / "kb.json")
        save_spec(spec, path)
        twin_path = _twin(spec, tmp_path, "twin.json")
        others = []
        for seed in (7, 8):
            others.append(str(tmp_path / f"other{seed}.json"))
            save_spec(generate_instance("known-bounds", 2, 2, 3, seed=seed), others[-1])
        first = load_spec(path)
        for other in others:  # the first text leaves the cache
            load_spec(other)
        twin = load_spec(twin_path)
        assert all(a is not b for a, b in zip(first.operators, twin.operators))
        assert twin.family is not first.family
        first = load_spec(path)  # the twin is kept, so the text takes the twin's
        assert first.operators[0] is twin.operators[0] and first.family is twin.family
        spec_io._decode.cache_clear()
        again = load_spec(twin_path)
        assert again is not twin and again.operators[0] is not twin.operators[0]

    def test_from_dict_keeps_no_window(self, tmp_path):
        spec = generate_instance("known-bounds", 2, 2, 3, seed=6)
        path = str(tmp_path / "kb.json")
        save_spec(spec, path)
        kept = load_spec(path)
        fresh = FrameSpecFile.from_dict(json.loads(spec.to_json()))
        assert all(a is not b for a, b in zip(kept.operators, fresh.operators))
        assert fresh.operators[0].flat.flags.writeable
        assert spec_io._decode.window == {} and spec_io._decode.read is None

    def test_a_nested_text_decodes_alone_and_bitwise(self, tmp_path):
        spec = generate_instance("dual-pair", 2, 2, 3, seed=6)
        packed, nested = str(tmp_path / "packed.json"), tmp_path / "nested.json"
        save_spec(spec, packed)
        nested.write_text(json.dumps(nested_dict(spec)))
        first, second = load_spec(packed), load_spec(nested)
        assert all(a is not b for a, b in zip(first.operators, second.operators))
        assert first.to_json() == second.to_json()

    def test_a_twin_verify_builds_no_second_gram(self, tmp_path, monkeypatch):
        spec = generate_instance("known-bounds", 2, 2, 3, seed=6)
        path = str(tmp_path / "kb.json")
        save_spec(spec, path)
        twin_path = _twin(spec, tmp_path, "twin.json")
        counts = _count_calls(monkeypatch, ["verify", path])
        assert (counts["gram"], counts["eigh"]) == (1, 2)  # S; its spectrum and the lower side
        counts = _count_calls(monkeypatch, ["verify", twin_path], code=1)
        assert (counts["gram"], counts["eigh"]) == (0, 1)  # the lower side's eigh alone

    def test_spectrum_and_default_target_are_read_only(self, tmp_path):
        """No caller can change what a later load returns, through the cached
        spectrum or through the identity a spec without a target builds."""
        spec = replace(generate_instance("known-bounds", 2, 2, 3, seed=6), target_operator=None)
        path = str(tmp_path / "kb.json")
        save_spec(spec, path)
        loaded = load_spec(path)
        w, v = loaded.family.spectrum
        before = (w.tobytes(), v.tobytes(), loaded.target.flat.tobytes())
        for arr, index in ((w, 0), (v, (0, 0)), (loaded.target.flat, (0, 0))):
            with pytest.raises(ValueError):
                arr[index] = 5.0
        again = load_spec(path)
        assert again is loaded
        after = (again.family.spectrum[0].tobytes(), again.family.spectrum[1].tobytes(),
                 again.target.flat.tobytes())
        assert after == before
        assert np.array_equal(again.target.flat, np.eye(4))


class TestFrozenSpec:
    """A spec, its operators and its bounds are frozen values, so the decode
    cache hands out the spec itself, and the spec owns its families."""

    def test_a_cached_load_is_the_same_spec(self, tmp_path):
        paths = []
        for seed in (1, 2, 3):
            paths.append(tmp_path / f"kb{seed}.json")
            save_spec(generate_instance("known-bounds", 2, 2, 3, seed=seed), paths[-1])
        spec = load_spec(paths[0])
        assert load_spec(paths[0]) is spec and spec.family is load_spec(paths[0]).family
        for path in paths[1:]:  # paths[0] leaves the cache
            load_spec(path)
        again = load_spec(paths[0])
        assert again is not spec and again.to_json() == spec.to_json()

    @pytest.mark.parametrize("owner, name", [
        ("spec", "bounds"), ("spec", "operators"), ("spec", "seed"),
        ("operator", "flat"), ("operator", "dim"), ("bounds", "lower"), ("bounds", "mode"),
        ("family", "members"),
    ])
    def test_fields_cannot_be_assigned(self, owner, name):
        spec = generate_instance("perturbed-pair", 2, 2, 3, seed=1)
        obj = {"spec": spec, "operator": spec.operators[0], "bounds": spec.bounds,
               "family": spec.family}[owner]
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))

    def test_operator_lists_are_stored_as_tuples(self):
        k, l = (ModuleOperator.identity(2, 2) * c for c in (1.0, 2.0))
        spec = FrameSpecFile(2, 2, operators=[k, l], second_operators=[l, k])
        assert spec.operators == (k, l) and spec.second_operators == (l, k)
        assert FrameSpecFile(2, 2, [k]).second_operators is None

    def test_replace_builds_a_new_spec_with_its_own_family(self):
        spec = generate_instance("perturbed-pair", 2, 2, 3, seed=1)
        family, second = spec.family, spec.second_family
        assert family.members == spec.operators and second.members == spec.second_operators
        tight = replace(spec, bounds=FrameBounds.scalar(1.0, 1.0, 2))
        assert tight.bounds.alpha == 1.0 and spec.bounds.alpha != 1.0
        assert tight.family is not family and tight.second_family is not second
        assert np.array_equal(tight.family.gram, family.gram)
        assert replace(spec, second_operators=None).second_family is None


# -- the exit-3 contract, by mutation -------------------------------------------

# Valid specs and the subcommands that read them: every field of each is read
# by at least one of its subcommands.
_algebra_kb = _algebra_bounds(generate_instance("known-bounds", 2, 2, 2, seed=5))
# Operators are nested, so a mutation can reach any [re, im] entry, and packed
# in one more base, so it can reach a payload.
_CONTRACT_BASES = [
    (nested_dict(generate_instance("perturbed-pair", 2, 2, 2, seed=5)), ("perturb", "verify")),
    (nested_dict(generate_instance("dual-pair", 2, 2, 2, seed=5)), ("dual", "tensor")),
    (nested_dict(_algebra_kb), ("verify", "bounds", "douglas")),
    (generate_instance("dual-pair", 2, 2, 2, seed=5).to_dict(), ("dual", "perturb")),
]
# A literal spelled into the file as it stands, as "@1e400@" becomes 1e400
# (which json reads as inf).
_LITERAL = re.compile(r'"@([^"@]*)@"')


def _replacements(value) -> list[tuple[object, bool]]:
    """(replacement, whether no spec field at all can hold it)."""
    return [(True, True), (False, True), (float("nan"), True), ("@1e400@", True),
            ("@-1e400@", True), ("2", True), ([value], True), ({"x": value}, True),
            (None, False), (0, False), (-1, False), (0.5, False), (10**30, False),
            (1e-200, False)] + (
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
