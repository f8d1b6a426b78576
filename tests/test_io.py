"""Spec file round-trips, instance generators, and the CLI contract."""

import json

import numpy as np
import pytest

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
        data = json.loads(generate_instance("dual-pair", 2, 2, 3, seed=2).to_json())
        path = _write_with_literal(tmp_path, data, ("tolerances", key), literal)
        with pytest.raises(SpecFormatError, match="finite positive number"):
            load_spec(path)
        for method in ("canonical", "minimal"):
            code, report = run_command(["dual", str(path), "--method", method])
            assert code == 3 and report.error.startswith(f"SpecFormatError: tolerances.{key}:")
        assert capfd.readouterr().err == ""

    def test_integer_tolerance_accepted(self, tmp_path):
        data = json.loads(generate_instance("dual-pair", 2, 2, 3, seed=2).to_json())
        path = _write_with_literal(tmp_path, data, ("tolerances", "cond_cap"), "1000000000000")
        spec = load_spec(path)
        assert spec.tolerances["cond_cap"] == 1e12 and type(spec.tolerances["cond_cap"]) is float
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

    def test_dual_command_verifies(self, tmp_path):
        path = self._gen(tmp_path, "dual-pair", 24)
        for method in ("canonical", "minimal"):
            code, report = run_command(["dual", str(path), "--method", method])
            assert code == 0
            assert report.residuals["reconstruction"] <= 1e-10

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

    @pytest.mark.parametrize(
        "kind, sub", [("known-bounds", "verify"), ("perturbed-pair", "perturb")]
    )
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

        def broken(args, report):
            raise RuntimeError("boom")

        monkeypatch.setitem(cli._COMMANDS, "verify", broken)
        code, report = run_command(["verify", str(tmp_path / "unused.json")])
        assert code == cli.EXIT_INTERNAL == 5
        assert report.error == "InternalError: RuntimeError: boom"
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

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        spec = FrameSpecFile(
            algebra_dim=1, module_rank=2, operators=[ModuleOperator.identity(1, 2)]
        )
        path = tmp_path / "noseed.json"
        save_spec(spec, path)
        monkeypatch.setenv("MODFRAMES_SEED", "777")
        _, report = run_command(["bounds", str(path)])
        assert report.seed == 777
        monkeypatch.delenv("MODFRAMES_SEED")
        _, report = run_command(["bounds", str(path)])
        assert report.seed == 0
        # an explicit flag wins over the environment
        monkeypatch.setenv("MODFRAMES_SEED", "777")
        _, report = run_command(["bounds", str(path), "--seed", "5"])
        assert report.seed == 5

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


def _count_calls(monkeypatch, argv) -> dict:
    """Run the CLI and count frame-operator builds and eigen-solves.

    ``frame_operator`` is counted in every modframes module that binds it, so
    a build through an imported name counts as well.
    """
    import sys

    import modframes.frames

    counts = {"gram": 0, "solves": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    original = modframes.frames.frame_operator
    build = counted(original, "gram")
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "modframes" and getattr(mod, "frame_operator", None) is original:
            monkeypatch.setattr(mod, "frame_operator", build)
    monkeypatch.setattr(np.linalg, "eigh", counted(np.linalg.eigh, "solves"))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted(np.linalg.eigvalsh, "solves"))
    code, _ = run_command([*argv, "--out", argv[1] + ".report"])
    assert code == 0
    return counts


class TestOneSpectrumPerFamily:
    """Each family's frame operator is built once and eigen-decomposed once
    per CLI call, however many bounds, constants and checks read it."""

    @pytest.mark.parametrize(
        "sub, kind, file_bounds, grams, max_solves",
        [
            ("perturb", "perturbed-pair", True, 2, 9),
            ("perturb", "perturbed-pair", False, 2, 10),
            ("bounds", "known-bounds", True, 1, 2),
            ("verify", "known-bounds", False, 1, 3),
        ],
        ids=["perturb", "perturb-no-file-bounds", "bounds", "verify-no-file-bounds"],
    )
    def test_counts(self, tmp_path, monkeypatch, sub, kind, file_bounds, grams, max_solves):
        spec = generate_instance(kind, 2, 2, 3, seed=4)
        if not file_bounds:
            spec.bounds = None
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        counts = _count_calls(monkeypatch, [sub, str(path)])
        assert counts["gram"] == grams
        assert counts["solves"] <= max_solves
