"""End-to-end and per-layer benchmark of modframes.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``exact-pipeline``, ``algebra-bounds`` and ``cold-cli`` (see
``workloads.py`` for why each was chosen).  Inputs are generated from
``--seed``.  A run sets up its inputs several times and reports the median
set-up time, then runs whole cycles of its ops, closed loop with one op in
flight, for about ``--seconds``; every output is checked independently
afterwards.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends half of
``--seconds`` untraced and half traced (see ``spans.py``), times cold imports
in subprocesses, and prints the per-layer metrics, each given per op.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record with
the environment facts goes to ``.bench_out/results/``, and the spans of a
traced run to ``.bench_out/spans/``; ``compare.py`` compares two sets of
results.  The run needs the checkout's ``src/`` and exits with status 2
without a result when it is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
IMPORT_PROBE_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "verify_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "decided_ratio": "ratio",
}
SUBCOMMAND_MEDIANS = ("gen", "bounds", "dual", "perturb", "douglas", "tensor")
_IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import modframes; t2 = time.perf_counter(); import modframes.cli; "
    "t3 = time.perf_counter(); print(t1 - t0, t2 - t1, t3 - t2)"
)


def per_layer_units() -> dict[str, str]:
    """Names and units of the per-layer metrics, in report order."""
    import spans

    units = {}
    for name in spans.WRAPPED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    units["kernels.gap_eigs.samples"] = "count"
    units["kernels.minimize_gap.useful_ratio"] = "ratio"
    units["io.spec_bytes"] = "bytes"
    units["tensor.peak_traced_mb"] = "MB"
    for fn in ("eigh", "eigvalsh", "svd", "norm2", "pinv"):
        units[f"linalg.{fn}.calls"] = "count"
    units["linalg.eig_n3"] = "n3_computed"
    for part in ("interpreter", "numpy", "modframes", "cli"):
        units[f"import.{part}_ms"] = "ms"
    units["bench.witness_recheck_ms"] = "ms"
    units["bench.trace_overhead_ratio"] = "ratio"
    units["fail_ratio"] = "ratio"
    units["inconclusive_ratio"] = "ratio"
    for sub in SUBCOMMAND_MEDIANS:
        units[f"{sub}_p50_ms"] = "ms"
    for stage in spans.STAGES:
        units[f"stage.{stage}_ms"] = "ms"
    return units


@dataclass
class Sample:
    op: int
    latency: float
    code: int
    digest: str


@dataclass
class Phase:
    samples: list[Sample]
    texts: dict[int, str]  # first report of each op
    elapsed: float
    cycles: int

    @property
    def ops_per_s(self) -> float:
        return len(self.samples) / self.elapsed


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def measure(ops, execute, seconds: float, min_cycles: int) -> Phase:
    """Run whole cycles of ``ops`` while the next cycle is expected to end
    within ``seconds``, and at least ``min_cycles`` of them."""
    samples, texts = [], {}
    gc.collect()
    start = time.perf_counter()
    cycles = 0
    while True:
        for i, op in enumerate(ops):
            t0 = time.perf_counter()
            code, text = execute(op)
            latency = time.perf_counter() - t0
            if text is None:
                text = Path(op.out).read_text(encoding="utf-8")
            texts.setdefault(i, text)
            samples.append(Sample(i, latency, code, _digest(text)))
        cycles += 1
        elapsed = time.perf_counter() - start
        if cycles >= min_cycles and elapsed * (cycles + 1) / cycles > seconds:
            return Phase(samples, texts, elapsed, cycles)


def check(ops, samples: list[Sample], texts: dict[int, str]) -> tuple[list[str], float]:
    """Failure reason per sample (None when it passed) and the seconds spent
    re-checking the first report of each op.

    A sample fails on a wrong exit code, a report its independent check
    rejects, or a report that differs from an earlier run of the same op."""
    problems, spent = {}, 0.0
    for i, text in texts.items():
        t0 = time.perf_counter()
        try:
            problems[i] = ops[i].check(json.loads(text))
        except Exception as exc:  # a check that cannot read the report fails the op
            problems[i] = f"check raised {type(exc).__name__}: {exc}"
        spent += time.perf_counter() - t0
    digests = {i: _digest(t) for i, t in texts.items()}
    reasons = []
    for s in samples:
        op = ops[s.op]
        if s.code not in op.codes:
            reasons.append(f"{' '.join(op.argv)}: exit {s.code}, expected {op.codes}")
        elif problems[s.op]:
            reasons.append(f"{' '.join(op.argv)}: {problems[s.op]}")
        elif s.digest != digests[s.op]:
            reasons.append(f"{' '.join(op.argv)}: report differs between runs")
        else:
            reasons.append(None)
    return reasons, spent


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def subcommand_stats(ops, samples: list[Sample]) -> dict:
    out = {}
    for sub in dict.fromkeys(op.sub for op in ops):
        lat = [s.latency * 1e3 for s in samples if ops[s.op].sub == sub]
        out[sub] = {"n": len(lat), "p50_ms": statistics.median(lat), "p90_ms": _p90(lat)}
    return out


# -- environment -------------------------------------------------------------

def _blas_threads() -> int | None:
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    from modframes import _kernels

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    src = hashlib.sha256()
    for path in sorted((SRC / "modframes").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "kernel_backend": _kernels.backend(),
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
    }


def import_probe(env: dict) -> dict[str, float]:
    """Median cold-start costs over fresh interpreters, in ms."""
    start, parts = [], []
    for _ in range(IMPORT_PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        start.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, check=True,
                              capture_output=True, text=True)
        parts.append([float(v) for v in proc.stdout.split()])
    out = {"import.interpreter_ms": statistics.median(start) * 1e3}
    for i, part in enumerate(("numpy", "modframes", "cli")):
        out[f"import.{part}_ms"] = statistics.median(p[i] for p in parts) * 1e3
    return out


# -- a run -------------------------------------------------------------------

def setup(workload: str, seed: int, tiny: bool):
    """Build the inputs and warm up: the first op of each subcommand runs once."""
    import workloads

    workdir = OUT / "work" / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ops = workloads.build(workload, seed, workdir, tiny)
    cold = workload == "cold-cli"
    execute = workloads.ColdRunner(SRC) if cold else workloads.run_in_process
    warm = ops[:1] if cold else list({op.sub: op for op in reversed(ops)}.values())
    for op in warm:
        execute(op)
    return ops, execute, workdir


def traced_phase(workload: str, ops, seconds: float, workdir: Path):
    """The traced half of a trace run: (phase, recorder, tensor peaks in bytes)."""
    import spans
    import workloads

    rec, peaks = spans.Recorder(), []
    if workload == "cold-cli":
        spans_dir = workdir / "child-spans"
        spans_dir.mkdir()
        phase = measure(ops, workloads.ColdRunner(SRC, spans_dir), seconds, 1)
        for i in range(len(phase.samples)):
            child = json.loads((spans_dir / f"op-{i}.json").read_text(encoding="utf-8"))
            rec.op_id = i
            rec.merge(child["spans"], child["counters"])
            if child["tensor_peak_bytes"]:
                peaks.append(child["tensor_peak_bytes"])
        return phase, rec, peaks

    def execute(op):
        rec.op_id = next(op_ids)
        if op.sub != "tensor":
            return workloads.run_in_process(op)
        tracemalloc.start()
        try:
            return workloads.run_in_process(op)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    op_ids = itertools.count()
    rec.install()
    try:
        phase = measure(ops, execute, seconds, 1)
    finally:
        rec.uninstall()
    return phase, rec, peaks


def per_layer(ops, untraced: Phase, traced: Phase, rec, peaks, recheck_s,
              reasons, env) -> dict[str, float]:
    import spans

    n = len(traced.samples)
    calls, self_s = spans.self_times(rec.spans)
    m = {}
    for name in spans.WRAPPED:
        m[f"{name}.calls"] = calls[name] / n
        m[f"{name}.self_ms"] = self_s[name] * 1e3 / n
    c = rec.counters
    m["kernels.gap_eigs.samples"] = c["kernels.gap_eigs.samples"] / n
    descents = calls["kernels.minimize_gap"]
    m["kernels.minimize_gap.useful_ratio"] = c["kernels.minimize_gap.useful"] / descents if descents else 0.0
    m["io.spec_bytes"] = c["io.spec_bytes"] / n
    m["tensor.peak_traced_mb"] = max(peaks, default=0) / 2**20
    for fn in ("eigh", "eigvalsh", "svd", "norm2", "pinv"):
        m[f"linalg.{fn}.calls"] = c[f"linalg.{fn}.calls"] / n
    m["linalg.eig_n3"] = c["linalg.eig_n3"] / n
    m.update(import_probe(env))
    m["bench.witness_recheck_ms"] = recheck_s * 1e3 / len(untraced.texts)
    m["bench.trace_overhead_ratio"] = traced.ops_per_s / untraced.ops_per_s
    samples = untraced.samples + traced.samples
    m["fail_ratio"] = sum(r is not None for r in reasons) / len(samples)
    m["inconclusive_ratio"] = _inconclusive(ops, samples)
    stats = subcommand_stats(ops, untraced.samples)
    for sub in SUBCOMMAND_MEDIANS:
        m[f"{sub}_p50_ms"] = stats[sub]["p50_ms"] if sub in stats else 0.0
    stage_ms = dict.fromkeys(spans.STAGES, 0.0)
    for name, seconds in self_s.items():
        if name in spans.STAGE_OF:
            stage_ms[spans.STAGE_OF[name]] += seconds * 1e3 / n
    stage_ms["import"] = sum(v for k, v in m.items() if k.startswith("import."))
    stage_ms["witness_recheck"] = m["bench.witness_recheck_ms"]
    for stage, value in stage_ms.items():
        m[f"stage.{stage}_ms"] = value
    return m


def _inconclusive(ops, samples) -> float:
    verify = [s for s in samples if ops[s.op].sub == "verify"]
    return sum(s.code == 2 for s in verify) / len(verify)


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the full result record."""
    import workloads

    started = time.time()
    env = environment(workload, seed)
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops, execute, workdir = setup(workload, seed, tiny)
        setup_s.append(time.perf_counter() - t0)

    if not trace:
        phase = measure(ops, execute, seconds, 2)
        reasons, _ = check(ops, phase.samples, phase.texts)
        samples = phase.samples
        lat = [s.latency * 1e3 for s in samples]
        verify_lat = [s.latency * 1e3 for s in samples if ops[s.op].sub == "verify"]
        usage = resource.RUSAGE_CHILDREN if workload == "cold-cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": phase.ops_per_s,
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": _p90(lat),
            "verify_p50_ms": statistics.median(verify_lat),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
            "decided_ratio": 1.0 - _inconclusive(ops, samples),
        }
        units = END_TO_END
        phases = [phase]
    else:
        untraced = measure(ops, execute, seconds / 2, 1)
        traced, rec, peaks = traced_phase(workload, ops, seconds / 2, workdir)
        samples = untraced.samples + traced.samples
        reasons, recheck_s = check(ops, samples, untraced.texts)
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        rec.dump(spans_dir / f"{workload}-seed{seed}.jsonl")
        metrics = per_layer(ops, untraced, traced, rec, peaks, recheck_s, reasons,
                            workloads.child_env(SRC))
        units = per_layer_units()
        phases = [untraced, traced]
    shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in reasons if r is not None]
    lat_all = [s.latency for s in phases[0].samples]
    p90 = _p90(lat_all)
    return {
        "environment": env,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "started_unix": started,
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "setup_runs_s": setup_s,
        "cycles": [p.cycles for p in phases],
        "beyond_p90": sum(v > p90 for v in lat_all),
        "subcommands": subcommand_stats(ops, phases[0].samples),
        "failures": sorted(set(failures))[:20],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-pipeline", "algebra-bounds", "cold-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "modframes" / "__init__.py").is_file():
        print(f"error: {SRC / 'modframes'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")

    for key, m in result["metrics"].items():
        print(f"{args.workload:15s} {key:42s} {m['value']:14.6g} {m['unit']}", file=sys.stderr)
    for reason in result["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"environment": result["environment"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
