"""A warm run matches a cold run, line by line.

One process runs a fixed list of command lines in order, so the decode cache,
the decode window and the families they share carry from line to line.  The
same lines then run with the cache cleared before each.  Exit codes and stdout
must agree byte for byte.  The inputs come from ``io.generate_instance`` alone.
"""

import contextlib
import io
import json
from dataclasses import replace

import numpy as np
import pytest

import modframes.frames
from modframes import FrameBounds, SpecFormatError, generate_instance, load_spec, save_spec
from modframes import io as spec_io
from modframes.cli import run_command
from modframes.io import GENERATOR_KINDS


def _specs(tmp_path, kind: str, seed: int) -> tuple[str, str, str]:
    """The instance, its beta-tightened twin and an algebra-bounds twin, written."""
    spec = generate_instance(kind, 2, 2, 3, seed=seed)
    alpha, beta, d = spec.bounds.alpha, spec.bounds.beta, spec.algebra_dim
    skew = np.eye(d) + 0.05 * np.eye(d, k=1)
    twins = (spec, replace(spec, bounds=FrameBounds.scalar(alpha, 0.9 * beta, d)),
             replace(spec, bounds=FrameBounds(0.5 * alpha * skew, beta * np.eye(d))))
    paths = []
    for name, twin in zip(("file", "tight", "algebra"), twins):
        paths.append(str(tmp_path / f"{kind}-{name}.json"))
        save_spec(twin, paths[-1])
    return tuple(paths)


def _lines(tmp_path) -> list[list[str]]:
    lines = []
    for seed, kind in enumerate(GENERATOR_KINDS):
        path, tight, algebra = _specs(tmp_path, kind, seed)
        lines += [["verify", path], ["verify", tight], ["verify", algebra], ["bounds", path],
                  ["dual", path], ["dual", path, "--method", "minimal"], ["perturb", path],
                  ["douglas", path], ["tensor", path, path]]
    return lines


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code, _ = run_command(argv)
    return code, out.getvalue()


def test_a_warm_run_matches_a_cold_run_line_by_line(tmp_path, monkeypatch):
    lines = _lines(tmp_path)
    grams = []
    build = modframes.frames.frame_operator
    monkeypatch.setattr(modframes.frames, "frame_operator",
                        lambda family: grams.append(family) or build(family))
    warm = [_run(argv) for argv in lines]
    warm_grams = len(grams)
    cold = []
    for argv in lines:
        spec_io._decode.cache_clear()
        cold.append(_run(argv))
    assert len(grams) - warm_grams > warm_grams  # the warm run shared families
    assert {code for code, _ in warm} >= {0, 1, 3}
    for argv, (warm_code, warm_out), (cold_code, cold_out) in zip(lines, warm, cold):
        assert (warm_code, warm_out) == (cold_code, cold_out), argv


def _malformed(text: str, fault: str) -> tuple[str, str]:
    """The spec ``text`` with one fault, and the message that names it."""
    data = json.loads(text)
    if fault == "strict":
        blocks = data["operators"][1]["blocks"]
        data["operators"][1]["blocks"] = blocks[:-3] + ("B" if blocks[-3] != "B" else "C") + "=="
        return json.dumps(data), "operators[1].blocks: packed blocks must be strict base64"
    if fault == "finite":
        data["operators"][2]["blocks"] = spec_io.pack_blocks(np.full(
            (2, data["operators"][2]["target_rank"], 2, 2), np.nan))
        return json.dumps(data), "operators[2].blocks: every |re|, |im| must be finite"
    if fault == "float-rank":
        rank = data["operators"][0]["target_rank"]
        data["operators"][0]["target_rank"] = float(rank)
        message = f"operators[0].target_rank: must be an integer at least 1, got {rank:.1f}"
        return json.dumps(data), message
    data["target_operator"]["extra"] = 1  # unknown-key
    return json.dumps(data), "target_operator.extra: unknown key"


@pytest.mark.parametrize("fault", ["strict", "finite", "float-rank", "unknown-key"])
def test_a_malformed_text_between_twins_names_its_field_and_leaves_the_window(tmp_path, fault):
    """The fault sits in a text whose other operators the kept text holds; it
    is named as a cold read names it, and the next twin still takes the kept
    text's operators and family."""
    path, tight, _ = _specs(tmp_path, "known-bounds", 3)
    bad = tmp_path / "bad.json"
    text, message = _malformed((tmp_path / "known-bounds-file.json").read_text(), fault)
    bad.write_text(text)
    first = load_spec(path)
    kept = spec_io._decode.cache_info()
    with pytest.raises(SpecFormatError) as warm:
        load_spec(bad)
    assert str(warm.value).startswith(message), str(warm.value)
    assert spec_io._decode.cache_info().currsize == kept.currsize
    assert list(spec_io._decode.kept) == [(tmp_path / "known-bounds-file.json").read_bytes()]
    twin = load_spec(tight)
    assert all(b is a for a, b in zip(first.operators, twin.operators, strict=True))
    assert twin.family is first.family
    spec_io._decode.cache_clear()
    with pytest.raises(SpecFormatError) as cold:
        load_spec(bad)
    assert str(cold.value) == str(warm.value)
