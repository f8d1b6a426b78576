"""The CLI shell around the decisions: one parser per process, one array per
operator, and the one writer of every spec and JSON report,
``json.dumps(obj, sort_keys=True)`` and a newline."""

import argparse
import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modframes import FrameBounds, ModuleOperator, cli, generate_instance, load_spec, save_spec
from modframes import io as spec_io
from modframes.cli import RunReport, run_command
from modframes.io import GENERATOR_KINDS, FrameSpecFile
from conftest import parseval_family, random_unitary, tiny_singular_target

SRC = Path(__file__).resolve().parent.parent / "src"


def _compact(text: str) -> str:
    """The text json.dumps(sort_keys=True) writes for what ``text`` holds, and a newline."""
    return json.dumps(json.loads(text), sort_keys=True) + "\n"


def _round_trip(value) -> str:
    """A JSON report holding ``value``, checked compact, then ``value`` as read
    back and spelled by json: float repr round-trips, so equal text is equal bits."""
    text = RunReport(["x"], "x", residuals={"v": value}).render("json")
    assert text == _compact(text)
    return json.dumps(json.loads(text)["residuals"]["v"], sort_keys=True)


# -- json.dumps writes every report ------------------------------------------

_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1.5e300, float("inf"),
     float("-inf"), float("nan")]
)
_STRINGS = st.text(max_size=6) | st.sampled_from(
    ['', '"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "☃", "𝄞", "a b", "</script>"]
)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | _FLOATS
    | _STRINGS
    | st.lists(_FLOATS, max_size=3)
    | st.lists(st.lists(_FLOATS, max_size=3), max_size=3)
)
_JSON = st.recursive(
    _LEAVES,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_STRINGS, children, max_size=4),
    max_leaves=10,
)


@settings(max_examples=150, deadline=None)
@given(_JSON)
def test_dumps_matches_compact_json(value):
    assert _round_trip(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [
        (1.0, [2.0, (3.0,)]),  # tuples are lists to json
        [[1.0, 2.0], [], [3.0]],
        [[1.0, 2.0], {}],
        [[1.0, 2.0], ""],
        [[1.0, 2.0], "ab"],
        [[1.0, 2.0], 0.0],
        [[1.0, 2.0], {2.5: 1.0}],
        [[1.0, 2.0], [3.0, 4]],
        [[1.0, float("nan")], [2.0, 3.0]],
        {"k": [[-0.0, float("-inf")]]},
        [[-0.0, 0.0], [-5e-324, 2.2250738585072014e-308]],
        [[5e-324, 1e-310]],
        [2**64, -(2**63) - 1, 10**40],
    ],
    ids=["tuples", "empty-row", "empty-dict-row", "empty-string-row", "string-row", "float-row",
         "float-key-row", "int-in-row", "nan-in-row", "neg-inf-in-row", "signed-zeros",
         "subnormals", "ints-beyond-int64"],
)
def test_dumps_float_row_edge_cases(value):
    """Each value comes back from a report as json spells it: nan and inf as
    NaN and Infinity, -0.0 and subnormals bit for bit, integers exact."""
    assert _round_trip(value) == json.dumps(value, sort_keys=True)


def test_report_edge_values_come_back_bit_for_bit():
    values = [-0.0, 5e-324, -2.2250738585072014e-308, float("inf"), float("-inf")]
    text = RunReport(["x"], "x", residuals={"v": values, "n": 2**70}).render("json")
    back = json.loads(text)["residuals"]
    assert np.array(back["v"]).tobytes() == np.array(values).tobytes()
    assert back["n"] == 2**70 and type(back["n"]) is int
    assert '"v": [-0.0, 5e-324, -2.2250738585072014e-308, Infinity, -Infinity]' in text
    nan = json.loads(RunReport(["x"], "x", residuals={"v": [[1.0, float("nan")]]}).render("json"))
    assert np.isnan(nan["residuals"]["v"][0][1])


@pytest.mark.parametrize(
    "value", [{1: 2.0, 3: [4.0]}, {2.5: "x", True: None}], ids=["int-keys", "other-keys"]
)
def test_dumps_hands_non_str_keys_to_json(value):
    """A key that is not a str is spelled as json spells it, a string (sorted
    before it is spelled, so such a report need not be in sorted order)."""
    back = json.loads(RunReport(["x"], "x", residuals={"v": value}).render("json"))
    assert back["residuals"]["v"] == json.loads(json.dumps(value))
    assert all(type(k) is str for k in back["residuals"]["v"])


def test_dumps_raises_as_json_does():
    """A report is encoded without json's cycle check, since it is built from
    fresh dicts, lists and numbers; a cycle no report can hold then recurses."""
    circular = []
    circular.append(circular)
    for bad, exc in (({"a": 1, 2: 3}, TypeError), ({"a": object()}, TypeError),
                     (circular, RecursionError)):
        with pytest.raises(exc) as ours:
            RunReport(["x"], "x", residuals={"v": bad}).render("json")
        with pytest.raises(exc) as theirs:
            json.dumps(bad, sort_keys=True, check_circular=False)
        assert str(ours.value) == str(theirs.value)


# -- every spec and JSON report is compact ----------------------------------

@pytest.mark.parametrize("argv", [["dual", "@pp"], ["perturb", "@pp"], ["verify", "@pp"],
                                  ["bounds", "@pp"], ["douglas", "@kl"], ["tensor", "@dp"],
                                  ["gen", "--kind", "tight", "--spec-out", "@new"]])
def test_report_files_are_compact_json(tmp_path, argv):
    pp = generate_instance("perturbed-pair", 2, 2, 3, seed=2)
    pp.bounds = None  # verify then decides optimal bounds
    specs = {"@pp": pp, "@dp": generate_instance("dual-pair", 2, 2, 3, seed=2),
             "@kl": FrameSpecFile(2, 2, [pp.second_operators[0], pp.operators[0]])}  # one target
    for name, spec in specs.items():
        save_spec(spec, tmp_path / name)
    out = tmp_path / "report.json"
    argv = [str(tmp_path / a) if a.startswith("@") else a for a in argv]
    code, _ = run_command([*argv, "--out", str(out)])
    assert code in (0, 1)
    text = out.read_text(encoding="utf-8")
    assert text == _compact(text)
    assert json.loads(text)["verdicts"]


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_gen_specs_are_compact_json(tmp_path, kind):
    path = tmp_path / "spec.json"
    code, _ = run_command(["gen", "--kind", kind, "--dim", "3", "--seed", "4",
                           "--spec-out", str(path), "--out", str(tmp_path / "report.json")])
    assert code == 0
    text = path.read_text(encoding="utf-8")
    assert text == _compact(text) == generate_instance(kind, 3, 2, 3, seed=4).to_json()


def _arrays(spec: FrameSpecFile) -> list:
    ops = [*spec.operators, *(spec.second_operators or ()), spec.target_operator,
           spec.aux_operator]
    arrays = [op.flat.tobytes() for op in ops if op is not None]
    if spec.bounds is not None:
        arrays += [spec.bounds.lower.tobytes(), spec.bounds.upper.tobytes()]
    return arrays


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_spec_in_any_layout_loads_bitwise(tmp_path, kind):
    """Specs are written compact and read in any layout: the indent=2 text an
    older writer laid out loads to the same arrays, bit for bit."""
    spec = generate_instance(kind, 2, 3, 4, seed=6)
    compact, laid_out = tmp_path / "compact.json", tmp_path / "indented.json"
    save_spec(spec, compact)
    text = compact.read_text(encoding="utf-8")
    laid_out.write_text(json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
    assert len(laid_out.read_text(encoding="utf-8")) > 2 * len(text)
    old, new = load_spec(laid_out), load_spec(compact)
    assert _arrays(old) == _arrays(new) == _arrays(spec)
    assert old.seed == new.seed and old.to_json() == new.to_json() == text


@pytest.mark.parametrize("kind", ["known-bounds", "dual-pair", "bessel-only"])
def test_old_gen_layout_with_tolerances_gives_the_same_dual(tmp_path, capsys, kind):
    """A spec as gen wrote it before the kernel rule was fixed (indent=2, with
    ``tolerances``) loads to the same arrays and gives the same dual reports."""
    spec = generate_instance(kind, 2, 3, 4, seed=6)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    save_spec(spec, new)
    legacy = {**spec.to_dict(), "tolerances": {"cond_cap": 1e12, "rank_tol": 1e-12}}
    old.write_text(json.dumps(legacy, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    assert _arrays(load_spec(old)) == _arrays(load_spec(new)) == _arrays(spec)
    for method in ("canonical", "minimal"):
        reports = []
        for path in (old, new):
            code, _ = run_command(["dual", str(path), "--method", method])
            out = json.loads(capsys.readouterr().out)
            reports.append((code, {k: v for k, v in out.items() if k != "command"}))
        assert reports[0] == reports[1]
        assert reports[0][0] == (4 if kind == "bessel-only" else 0)


# -- one array per operator --------------------------------------------------

def _per_entry_flat(op_data: dict, dim: int, rank: int) -> np.ndarray:
    """Independent per-entry decode: complex(re, im) per entry, np.block per operator."""
    blocks = [
        [np.array([[complex(re, im) for re, im in row] for row in block], dtype=np.complex128)
         for block in brow]
        for brow in op_data["blocks"]
    ]
    flat = np.block(blocks)
    assert flat.shape == (rank * dim, op_data["target_rank"] * dim)
    return flat


def _all_operators(data: dict):
    for key in ("operators", "second_operators"):
        for i, op in enumerate(data.get(key) or []):
            yield f"{key}[{i}]", op
    for key in ("target_operator", "aux_operator"):
        if data.get(key) is not None:
            yield key, data[key]


def _decoded(spec: FrameSpecFile) -> dict:
    out = {f"operators[{i}]": op for i, op in enumerate(spec.operators)}
    out.update({f"second_operators[{i}]": op for i, op in enumerate(spec.second_operators or [])})
    out.update({k: getattr(spec, k) for k in ("target_operator", "aux_operator")
                if getattr(spec, k) is not None})
    return out


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("d, n, count", [(1, 2, 3), (2, 3, 4), (4, 2, 3)])
def test_one_array_decode_is_bitwise_per_entry(tmp_path, kind, d, n, count):
    """Both reads, load_spec's unwalked one array and from_dict's walked one."""
    data = generate_instance(kind, d, n, count, seed=7).to_dict()
    # signed zeros and JSON integers must come through as complex(re, im) reads them
    first = data["operators"][0]["blocks"][0][0]
    first[0][0] = [-0.0, -0.0]
    if d > 1:
        first[0][1] = [3, -2]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    ops = dict(_all_operators(data))
    for spec in (load_spec(path), FrameSpecFile.from_dict(copy.deepcopy(data))):
        read = _decoded(spec)
        assert read.keys() == ops.keys()
        for name, op in read.items():
            assert op.flat.tobytes() == _per_entry_flat(ops[name], d, n).tobytes(), name
        corner = read["operators[0]"].flat[0, 0]
        assert np.signbit(corner.real) and np.signbit(corner.imag)


def _set(path_keys, value):
    def mutate(data):
        entry = data
        for key in path_keys[:-1]:
            entry = entry[key]
        entry[path_keys[-1]] = value
    return mutate


def _pop(path_keys):
    def mutate(data):
        entry = data
        for key in path_keys:
            entry = entry[key]
        entry.pop()
    return mutate


def _both(*mutations):
    def mutate(data):
        for m in mutations:
            m(data)
    return mutate


# Each malformed operator exits 3 naming the field at fault.  "bool" replaces a
# whole [re, im] entry and "bool-in-pair" one number of it: the one array would
# read that boolean as 1.0, so load_spec names the pair that holds it.
_OP1 = ("operators", 1, "blocks")
_MALFORMED = [
    ("bool", _set((*_OP1, 0, 0, 1, 0), True), "operators[1].blocks[0][0][1][0]", "pair"),
    ("bool-in-pair", _set((*_OP1, 0, 0, 1, 0, 0), True), "operators[1].blocks[0][0][1][0]",
     "pair"),
    ("string", _set((*_OP1, 0, 0, 1, 0, 1), "0.5"), "operators[1].blocks[0][0][1][0]", "pair"),
    ("nan", _set((*_OP1, 0, 0, 1, 0, 1), float("nan")), "operators[1].blocks[0][0][1][0]",
     "finite"),
    ("1e51", _set((*_OP1, 0, 0, 1, 0, 1), 1e51), "operators[1].blocks[0][0][1][0]",
     "magnitude"),
    ("int-beyond-int64", _set((*_OP1, 0, 0, 1, 0, 0), 10**60), "operators[1].blocks[0][0][1][0]",
     "magnitude"),
    ("ragged-row", _pop((*_OP1, 0, 0, 1)), "operators[1].blocks[0][0][1]", "expected 2 entries"),
    ("block-rows", _pop(_OP1), "operators[1].blocks", "expected 2 block rows"),
    ("blocks-in-row", _pop((*_OP1, 0)), "operators[1].blocks[0]", "expected 2 blocks"),
    ("wrong-d", _set((*_OP1, 0, 0), [[[0.0, 0.0]] * 3] * 3), "operators[1].blocks[0][0]",
     "expected 2 rows"),
    ("target-rank-zero", _both(_set(("operators", 1, "target_rank"), 0), _set(_OP1, [[], []])),
     "operators[1].target_rank", "at least 1"),
    ("target-rank-negative", _set(("operators", 1, "target_rank"), -1),
     "operators[1].target_rank", "at least 1"),
]


@pytest.mark.parametrize("mutate, field, words", [m[1:] for m in _MALFORMED],
                         ids=[m[0] for m in _MALFORMED])
def test_malformed_operator_names_field(tmp_path, capfd, mutate, field, words):
    data = generate_instance("known-bounds", 2, 2, 3, seed=1).to_dict()
    block = [[[1.0, 0.0], [0.5, -0.5]], [[0.0, 1.0], [2.0, 0.0]]]
    data["operators"][1] = json.loads(json.dumps({"target_rank": 2, "blocks": [[block] * 2] * 2}))
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, report = run_command(["verify", str(path)])
    assert code == 3
    assert report.error.startswith(f"SpecFormatError: {field}:") and words in report.error
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("mutate, field", [m[1:3] for m in _MALFORMED[:2]],
                         ids=[m[0] for m in _MALFORMED[:2]])
def test_from_dict_names_a_bool_pair_as_load_spec_does(tmp_path, mutate, field):
    data = generate_instance("known-bounds", 2, 2, 3, seed=1).to_dict()
    mutate(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    errors = []
    for read in (lambda: FrameSpecFile.from_dict(data), lambda: load_spec(path)):
        with pytest.raises(spec_io.SpecFormatError) as exc:
            read()
        errors.append(str(exc.value))
    assert errors[0] == errors[1] and errors[0].startswith(f"{field}: complex entry")


def test_load_spec_walks_for_bools_only_when_the_text_spells_one(tmp_path, monkeypatch):
    """A clean text takes the unwalked read; one that spells true or false is
    walked, which names the boolean pair the unwalked read would take as 1 or 0."""
    walks = []
    walk = spec_io._nest_fault

    def counted(data, shape, path):
        walks.append(path)
        return walk(data, shape, path)

    monkeypatch.setattr(spec_io, "_nest_fault", counted)
    data = generate_instance("perturbed-pair", 2, 2, 3, seed=1).to_dict()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    load_spec(path)
    assert walks == []
    FrameSpecFile.from_dict(data)
    assert "operators[0].blocks" in walks and "bounds.lower" not in walks  # scalar bounds
    for spelled in (True, False):
        walks.clear()
        _set(("operators", 1, "blocks", 0, 0, 1, 0, 0), spelled)(data)
        path.write_text(json.dumps(data))
        with pytest.raises(spec_io.SpecFormatError) as exc:
            load_spec(path)
        assert str(exc.value).startswith("operators[1].blocks[0][0][1][0]: complex entry")
        assert walks[0] == "operators[0].blocks"


def test_a_dict_and_a_file_name_the_first_fault_in_read_order(tmp_path):
    """A boolean pair in operators[1] comes before a NaN in bounds.lower: both
    readers walk each nest as they reach it, so both name the pair."""
    spec = generate_instance("known-bounds", 2, 2, 3, seed=1)
    spec.bounds = FrameBounds(lower=spec.bounds.lower, upper=spec.bounds.upper, mode="algebra")
    data = spec.to_dict()
    _set(("operators", 1, "blocks", 0, 0, 1, 0, 0), True)(data)
    _set(("bounds", "lower", 0, 1, 0), float("nan"))(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for read in (lambda: FrameSpecFile.from_dict(data), lambda: load_spec(path)):
        with pytest.raises(spec_io.SpecFormatError) as exc:
            read()
        assert str(exc.value).startswith("operators[1].blocks[0][0][1][0]: complex entry")


def test_integer_beyond_int64_inside_the_cap_is_read(tmp_path):
    data = generate_instance("known-bounds", 2, 2, 3, seed=1).to_dict()
    data["operators"][0]["blocks"][0][0][1][0] = [2**70, -(2**64)]
    spec = FrameSpecFile.from_dict(data)
    assert spec.operators[0].flat[1, 0] == complex(float(2**70), -float(2**64))


# -- one parser per process --------------------------------------------------

def _spec(tmp_path, kind="dual-pair") -> str:
    path = tmp_path / f"{kind}.json"
    save_spec(generate_instance(kind, 2, 2, 3, seed=3), path)
    return str(path)


def _call(argv, capsys, fresh: bool, monkeypatch) -> tuple:
    if fresh:
        monkeypatch.setattr(cli, "_parser", None)
    code, report = run_command(argv)
    captured = capsys.readouterr()
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    text = Path(out).read_text(encoding="utf-8") if out else None
    return code, report.error, captured.out, captured.err, text


@pytest.mark.parametrize(
    "sequence",
    [
        [["dual", "@", "--method", "minimal"], ["dual", "@"]],
        [["verify", "@", "--format", "text"], ["verify", "@"]],
        [["bounds", "@", "--out", "@out"], ["bounds", "@"]],
        [["bounds", "@", "--seed", "5"], ["bounds", "@"]],
        [["verify", "@", "--format", "xml"], ["verify", "@", "--tol", "1e-3"], ["verify", "@"]],
    ],
    ids=["method", "format", "out", "parse-error", "bad-choice"],
)
def test_reused_parser_leaks_nothing(tmp_path, capsys, monkeypatch, sequence):
    spec = _spec(tmp_path)
    sequence = [[spec if a == "@" else str(tmp_path / "r.json") if a == "@out" else a
                 for a in argv] for argv in sequence]
    fresh = [_call(argv, capsys, True, monkeypatch) for argv in sequence]
    calls = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda b=cli.build_parser: calls.append(1) or b())
    reused = [_call(argv, capsys, False, monkeypatch) for argv in sequence]
    assert reused == fresh
    assert len(calls) == 1


def test_reused_parser_matches_fresh_process(tmp_path, capsys):
    spec = _spec(tmp_path)
    argv = ["dual", spec, "--method", "minimal"]
    run_command(["bounds", spec, "--seed", "5"])
    run_command(["dual", spec, "--format", "text"])
    capsys.readouterr()
    code, _ = run_command(argv)
    in_process = capsys.readouterr().out
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "modframes.cli", *argv], capture_output=True,
                          text=True, env=env, check=False)
    assert (proc.returncode, proc.stdout) == (code, in_process)


def test_cold_runs_leave_numpy_random_unimported(tmp_path):
    """Only ``gen`` and the tensor bounds path draw from numpy.random, at call
    time, so a process that runs every other subcommand never imports it."""
    pp = generate_instance("perturbed-pair", 2, 2, 3, seed=2)
    specs = {"kb": generate_instance("known-bounds", 2, 2, 3, seed=1), "pp": pp,
             "dp": generate_instance("dual-pair", 2, 2, 3, seed=2),
             "kl": FrameSpecFile(2, 2, [pp.second_operators[0], pp.operators[0]])}
    for name, spec in specs.items():
        save_spec(spec, tmp_path / name)
    runs = [["verify", "kb"], ["bounds", "kb"], ["dual", "dp"], ["douglas", "kl"],
            ["perturb", "pp"], ["tensor", "dp", "dp"]]
    runs = [[sub, *(str(tmp_path / name) for name in names), "--out", str(tmp_path / "r")]
            for sub, *names in runs]
    script = ("import sys; from modframes.cli import run_command; "
              f"codes = [run_command(argv)[0] for argv in {runs!r}]; "
              "print(codes, 'numpy.random' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] False\n"  # exit codes; numpy.random imported


@pytest.mark.parametrize(
    "sub, extra, message",
    [
        ("bounds", ["--seed", "5"], "unrecognized arguments: --seed 5"),
        ("verify", ["--mode", "sampled"], "unrecognized arguments: --mode sampled"),
        ("verify", ["--format", "xml"],
         "argument --format: invalid choice: 'xml' (choose from 'json', 'text')"),
        ("bounds", ["--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
        ("douglas", ["--tol", "1e-3"], "unrecognized arguments: --tol 1e-3"),
        ("perturb", ["--samples", "5"], "unrecognized arguments: --samples 5"),
    ],
    ids=["seed", "mode", "format", "bounds-tol", "douglas-tol", "perturb-samples"],
)
def test_parse_error_names_the_argument(tmp_path, capsys, sub, extra, message):
    spec = _spec(tmp_path)
    code, report = run_command([sub, spec, *extra])
    assert code == 3 and report.subcommand == "parse-error"
    assert report.error == f"argument parsing failed: {message}"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: modframes")
    assert captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "flag, value, least",
    [("--seed", "-1", 0), ("--dim", "0", 1), ("--rank", "0", 1), ("--count", "-2", 1)],
)
def test_gen_integer_flag_names_itself(tmp_path, capsys, flag, value, least):
    path = tmp_path / "spec.json"
    code, report = run_command(["gen", "--kind", "tight", flag, value, "--spec-out", str(path)])
    message = f"argument {flag}: must be an integer at least {least}, got {value}"
    assert code == 3 and report.subcommand == "parse-error"
    assert report.error == f"argument parsing failed: {message}"
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not path.exists()


def test_gen_integer_flags_take_their_least_value(tmp_path):
    path = tmp_path / "spec.json"
    argv = ["gen", "--kind", "tight", "--seed", "0", "--dim", "1", "--rank", "1", "--count", "1"]
    code, report = run_command([*argv, "--spec-out", str(path), "--out", str(tmp_path / "r")])
    assert code == 0 and report.seed == 0
    assert path.read_text(encoding="utf-8") == generate_instance("tight", 1, 1, 1, 0).to_json()


def _falsified_spec(tmp_path) -> str:
    """A known-bounds spec with its upper bound cut to 0.9 beta: verify falsifies it."""
    spec = generate_instance("known-bounds", 2, 2, 3, seed=7)
    spec.bounds = FrameBounds.scalar(spec.bounds.alpha, 0.9 * spec.bounds.beta, 2)
    path = tmp_path / "cut.json"
    save_spec(spec, path)
    return str(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
def test_tol_must_be_finite_and_at_least_zero(tmp_path, capsys, value):
    """NaN and inf would make every margin pass (min(gap) < -tol is false), so
    a falsified spec would read certified; the parser rejects them, naming --tol."""
    spec = _falsified_spec(tmp_path)
    assert run_command(["verify", spec])[0] == 1
    capsys.readouterr()
    for sub in ("verify", "dual", "perturb"):
        code, report = run_command([sub, spec, f"--tol={value}"])
        message = f"argument --tol: must be a finite number at least 0, got {float(value)}"
        assert code == 3 and report.subcommand == "parse-error"
        assert report.error == f"argument parsing failed: {message}"
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
    code, report = run_command(["douglas", spec, f"--tol={value}"])
    assert code == 3 and report.error.endswith(f"unrecognized arguments: --tol={value}")
    code, report = run_command(["tensor", spec, spec, "--tol", value])
    assert code == 3 and report.error.startswith("argument parsing failed: argument --tol:")


def test_tol_zero_accepted(tmp_path, capsys):
    spec = _falsified_spec(tmp_path)
    code, report = run_command(["verify", spec, "--tol", "0"])
    assert code == 1 and report.verdicts["certificate"] == "falsified"
    assert run_command(["bounds", spec, "--tol", "0.0"])[0] == 3  # bounds reads no --tol
    code, report = run_command(["verify", spec, "--tol", "x"])
    assert code == 3 and report.error.endswith("argument --tol: invalid float value: 'x'")


def test_help_still_exits_zero(capsys):
    code, report = run_command(["verify", "--help"])
    assert code == 0 and report.subcommand == "parse-error"
    assert capsys.readouterr().out.startswith("usage: modframes verify")


# -- each subcommand takes only the flags it reads ---------------------------

REPORT_FLAGS = {"--out", "--format", "--timing"}


def test_each_subcommand_takes_only_the_flags_it_reads():
    """34 flags in all: a flag added to every subcommand fails this."""
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
             for name, p in subparsers.choices.items()}
    assert flags == {
        "gen": {"--kind", "--dim", "--rank", "--count", "--spec-out", "--seed", *REPORT_FLAGS},
        "verify": {"--tol", "--samples", "--restarts", *REPORT_FLAGS},
        "bounds": REPORT_FLAGS,
        "dual": {"--tol", "--method", *REPORT_FLAGS},
        "perturb": {"--tol", *REPORT_FLAGS},
        "tensor": {"--tol", *REPORT_FLAGS},
        "douglas": REPORT_FLAGS,
    }
    assert sum(map(len, flags.values())) == 34


def test_verify_ignores_the_benchmark_pair(tmp_path, capsys):
    """``--samples 200 --restarts 4``, as the algebra-bounds workload passes them,
    leave verify's report byte for byte the plain one, apart from ``command``."""
    spec = _falsified_spec(tmp_path)
    texts = []
    for extra in ([], ["--samples", "200", "--restarts", "4"]):
        assert run_command(["verify", spec, *extra])[0] == 1
        texts.append(capsys.readouterr().out)
    plain, paired = (json.loads(text) for text in texts)
    assert paired["command"] == ["verify", spec, "--samples", "200", "--restarts", "4"]
    plain["command"] = paired["command"]
    assert texts[1] == _compact(json.dumps(plain))


# -- a path that cannot be read or written is an input error -----------------

def test_unwritable_out_exits_3_with_the_report_on_stdout(tmp_path, capsys):
    spec = _falsified_spec(tmp_path)
    for out in (tmp_path / "missing" / "r.json", tmp_path):
        code, report = run_command(["verify", spec, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and report.verdicts["certificate"] == "falsified"
        assert report.error.startswith("--out: ") and "Error: " in report.error
        assert captured.out == report.render("json") and captured.err == ""
    assert not (tmp_path / "missing").exists()


def test_out_failure_keeps_the_earlier_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    code, report = run_command(["bounds", missing, "--out", str(tmp_path / "no" / "r.json")])
    assert code == 3 and report.error.startswith("FileNotFoundError: ")
    assert "; --out: FileNotFoundError: " in report.error
    assert capsys.readouterr().out == report.render("json")


def test_directory_paths_are_input_errors(tmp_path, capsys):
    for argv in (["verify", str(tmp_path)],
                 ["gen", "--kind", "tight", "--spec-out", str(tmp_path)]):
        code, report = run_command(argv)
        assert code == 3, report.error
        assert report.error.startswith("IsADirectoryError: ")
        assert capsys.readouterr().err == ""


# -- douglas -----------------------------------------------------------------

def test_douglas_names_the_mismatched_target_rank(tmp_path, capfd):
    spec = generate_instance("known-bounds", 2, 3, 3, seed=0)
    k, l = spec.operators[0], spec.operators[1]
    assert k.target_rank != l.target_rank
    path = tmp_path / "mismatch.json"
    save_spec(FrameSpecFile(algebra_dim=2, module_rank=3, operators=[k, l]), path)
    code, report = run_command(["douglas", str(path)])
    assert code == 3
    assert report.error.startswith("SpecFormatError: operators[1].target_rank:")
    assert f"rank {l.target_rank}" in report.error and f"rank {k.target_rank}" in report.error
    assert capfd.readouterr().err == ""


def _douglas(tmp_path, k: np.ndarray, l: np.ndarray) -> tuple[int, dict]:
    """Run ``douglas`` on flat (K, L) of d = 2 and return (exit code, JSON report).

    A verdict is required (exit 0 or 1).  On exit 1 the reported
    ``falsifying_vector`` X = e_1 x* is re-checked: ||l x|| <= 1e-6 ||l|| and
    ||k x||^2 >= 1e-12 ||k||_F^2 / (md), so L*X ~ 0 while K*X is not.
    """
    n = len(k) // 2
    path = tmp_path / "kl.json"
    ops = [ModuleOperator(2, n, n, f) for f in (k, l)]
    save_spec(FrameSpecFile(algebra_dim=2, module_rank=n, operators=ops), path)
    out = tmp_path / "kl.report"
    code, _ = run_command(["douglas", str(path), "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    assert code in (0, 1), report["error"]
    assert report["verdicts"]["range_included"] is (code == 0)
    assert ("factor" in report["witnesses"]) is (code == 0)
    if code == 1:
        x = np.conj(spec_io.decode_vector(report["witnesses"]["falsifying_vector"]).flat[0])
        assert np.linalg.norm(l @ x) <= 1e-6 * np.linalg.norm(l, 2)
        assert np.linalg.norm(k @ x) ** 2 >= 1e-12 * np.linalg.norm(k) ** 2 / len(x)
    return code, report


def _cgauss(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("included", [True, False])
@pytest.mark.parametrize("c", [1e-12, 1e-9, 1.0, 1e9])
def test_douglas_exit_code_is_scale_invariant(tmp_path, c, included):
    """L of rank 2 of 4: K = D L exits 0 and a generic K exits 1 with a
    witness, at every scale c of (cK, cL); no scale is a conflict (exit 4)."""
    rng = np.random.default_rng(11)
    l = _cgauss(rng, 4, 2) @ _cgauss(rng, 2, 4)
    k = _cgauss(rng, 4, 4) @ (l if included else np.eye(4))
    assert _douglas(tmp_path, c * k, c * l)[0] == (0 if included else 1)


@pytest.mark.parametrize("ratio", [1e-7, 9e-7, 1.1e-6])
def test_douglas_graded_invertible_l_gets_a_verdict(tmp_path, ratio):
    """An invertible L with sigma_min / sigma_max = ``ratio`` is decided, not
    a conflict: the kernel rule keeps sigma^2 > 1e-12 sigma_max^2, so a
    generic K is inside range(L) exactly when ratio > 1e-6."""
    rng = np.random.default_rng(12)
    u, v = random_unitary(4, rng), random_unitary(4, rng)
    l = (u * np.geomspace(1.0, ratio, 4)) @ np.conj(v.T)
    assert _douglas(tmp_path, _cgauss(rng, 4, 4), l)[0] == (0 if ratio > 1e-6 else 1)


@pytest.mark.parametrize("included", [True, False])
def test_douglas_rejects_tol(tmp_path, capsys, included):
    """douglas decides by the kernel rule alone and takes no --tol: an L with
    sigma_min / sigma_max = 1e-4 gets its verdict without it, and adding
    --tol 1e-3 is a parse error (exit 3) with no verdict."""
    rng = np.random.default_rng(13)
    u = random_unitary(4, rng)
    l = (u * np.array([1.0, 0.3, 1e-4, 0.0])) @ np.conj(u.T)
    k = _cgauss(rng, 4, 4) @ (l if included else np.eye(4))
    assert _douglas(tmp_path, k, l)[0] == (0 if included else 1)
    capsys.readouterr()
    code, report = run_command(["douglas", str(tmp_path / "kl.json"), "--tol", "1e-3"])
    assert code == 3 and report.subcommand == "parse-error"
    assert report.error == "argument parsing failed: unrecognized arguments: --tol 1e-3"
    assert capsys.readouterr().out == ""


# -- every range lies in itself ----------------------------------------------

def test_douglas_of_a_target_on_itself_exits_0(tmp_path):
    """[K, K] with seven sigma^2 = 4e-13 directions: included, lambda 1."""
    k = tiny_singular_target()
    code, report = _douglas(tmp_path, k.flat, k.flat)
    assert code == 0
    assert report["residuals"]["lambda_min"] == pytest.approx(1.0, rel=1e-9)


def test_parseval_frame_of_a_tiny_singular_target(tmp_path):
    """``bounds`` reports the optimum lower 1; the minimal dual is built
    (exit 1, not 4), its reconstruction off by K's dropped 6.3e-7."""
    k = tiny_singular_target()
    path = tmp_path / "parseval.json"
    save_spec(FrameSpecFile(2, 4, parseval_family(k).members, target_operator=k), path)
    code, report = run_command(["bounds", str(path)])
    assert code == 0 and report.bounds["lower"] == pytest.approx(1.0, abs=1e-9)
    code, report = run_command(["dual", str(path), "--method", "minimal"])
    assert code == 1 and report.verdicts["verified"] is False
    assert report.residuals["reconstruction"] == pytest.approx(6.3e-7, rel=1e-6)
