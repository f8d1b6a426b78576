"""Self-test of the benchmark harness.

Usage (from the root of a checkout):  python3 perfbench/selftest.py

1. A tiny run of each workload, untraced and traced, emits every metric
   named in BENCHMARK.json with its unit, end-to-end metrics are positive,
   and no op fails.  The traced runs also show the layer separation the
   workloads were chosen for.
2. Ops given a deliberately wrong expected outcome (a wrong exit code, and a
   wrong optimal bound) are counted as failures.
3. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   with a non-zero status and prints no result.

Prints one line per check and exits with status 1 if any failed.
"""

import dataclasses
import functools
import json
import math
import shutil
import subprocess
import sys

import run

FAILED = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILED.append(what)


def tiny_runs(spec: dict) -> None:
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in ("exact-pipeline", "algebra-bounds", "cold-cli"):
        for trace in (0, 1):
            r = run.run(workload, seed=1, seconds=0.5, trace=bool(trace), tiny=True)
            got = {k: m["unit"] for k, m in r["metrics"].items()}
            values = [m["value"] for m in r["metrics"].values()]
            tag = f"{workload} trace {trace}"
            expect(got == wanted[trace], f"{tag}: every named metric with its unit")
            expect(all(math.isfinite(v) for v in values), f"{tag}: finite values")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{tag}: end-to-end metrics are positive")
            else:
                m = {k: v["value"] for k, v in r["metrics"].items()}
                expect(m["fail_ratio"] == 0, f"{tag}: fail_ratio == 0")
                kernels = m["kernels.minimize_gap.calls"]
                expect((kernels > 0) == (workload == "algebra-bounds"),
                       f"{tag}: minimize_gap runs only on algebra-bounds")
                perturb = m["perturbation.perturbation_check.calls"]
                expect((perturb > 0) == (workload == "exact-pipeline"),
                       f"{tag}: perturbation_check runs only on exact-pipeline")
            expect(r["correct"] and r["failed"] == 0, f"{tag}: no op failed {r['failures']}")


def wrong_expectations() -> None:
    import workloads

    workdir = run.OUT / "work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = workloads.build("exact-pipeline", 1, workdir, tiny=True)
    verify = next(i for i, op in enumerate(ops) if op.sub == "verify" and op.codes == (0,))
    bounds = next(i for i, op in enumerate(ops) if op.sub == "bounds")
    ops[verify] = dataclasses.replace(ops[verify], codes=(1,))
    wrong_alpha = dict(ops[bounds].check.keywords, alpha=1.01 * ops[bounds].check.keywords["alpha"])
    ops[bounds] = dataclasses.replace(ops[bounds], check=functools.partial(
        ops[bounds].check.func, **wrong_alpha))
    phase = run.measure(ops, workloads.run_in_process, 0, 1)
    reasons, _ = run.check(ops, phase.samples, phase.texts)
    failed = {s.op for s, r in zip(phase.samples, reasons) if r is not None}
    expect(failed == {verify, bounds}, f"wrong expected outcomes counted as failures: {sorted(failed)}")
    shutil.rmtree(workdir, ignore_errors=True)


def bare_directory() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cold-cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=180, check=False)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without src/: exit {proc.returncode} and no result")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    if not (run.SRC / "modframes").is_dir():
        print("run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    tiny_runs(spec)
    wrong_expectations()
    bare_directory()
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
