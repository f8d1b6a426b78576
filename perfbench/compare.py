"""Compare a parent's and a change's benchmark results under the regression rule.

Usage:
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR [--trace 0|1] [--holdout-seeds N ...]

For example, with the parent checked out in ``parent/`` and the change in
``change/``, ten interleaved pairs of one workload:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      sides="parent change"; [ $((seed % 2)) = 0 ] && sides="change parent"
      for side in $sides; do
        (cd $side && python3 perfbench/run.py --workload cold-cli --seed $seed --seconds 36)
      done
    done
    python3 change/perfbench/compare.py parent/.bench_out/results change/.bench_out/results

Each directory holds result files written by ``run.py`` (the
``.bench_out/results`` directory of the checkout that ran them).  Runs are
paired by workload and seed, and paired runs must have used the same
``--seconds``.  The host's speed drifts over minutes, so the two runs of a
pair must run back to back, alternating which side goes first; a workload
whose runs were not interleaved that way is reported as such, and its gains
as unconfirmed.  Each workload is reported in its own rows.  For every metric
the table gives each side's median with its quartiles and the pair win rate
(pairs the change won, ties counting for neither, over all pairs), then a
flag:

``unresolved``   an end-to-end metric whose quartile spread on either side,
                 as a share of that side's median, is wider than its bound,
                 unless every change run beats every parent run.
``regression``   an end-to-end metric whose change median is worse than the
                 parent median by more than its bound.
``gain``         the change won at least nine tenths of the pairs, the medians
                 differ by more than the parent's quartile distance, and the
                 change won every pair on the ``--holdout-seeds`` (seeds not
                 used while the change was written).
``gain-unconfirmed``  as ``gain``, but no holdout seed was given, the
                 change lost or tied a holdout pair, or the runs were not
                 interleaved.
``same``         none of these.

Bounds and directions come from ``BENCHMARK.json``.  Per-layer metrics
(``--trace 1``) have no bound and no better direction: their column gives
the share of pairs in which the change reads higher, and the flag is
``higher`` or ``lower`` when at least nine tenths of the pairs moved that way
and the medians differ by more than the parent's quartile distance.  The
exit status is 1 when any metric is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path, trace: int) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob(f"*-trace{trace}.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        runs[(result["workload"], result["seed"])] = result
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def interleaved(runs_p: list[dict], runs_c: list[dict]) -> bool:
    """Whether each pair ran back to back: in start order, runs 2k and 2k+1
    are the two sides of one seed."""
    order = sorted([(r.get("started_unix", 0.0), "p", r["seed"]) for r in runs_p]
                   + [(r.get("started_unix", 0.0), "c", r["seed"]) for r in runs_c])
    return all(a[1] != b[1] and a[2] == b[2] for a, b in zip(order[::2], order[1::2]))


def judge(parent: list[float], change: list[float], holdout: list[bool], lower_better: bool,
          bound: float, paired: bool) -> tuple[float, str]:
    """(win rate, flag) for the paired values of one end-to-end metric."""
    def better(a, b):
        return a < b if lower_better else a > b

    wins = [better(c, p) for p, c in zip(parent, change)]
    win_rate = sum(wins) / len(wins)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all(better(c, p) for c in change for p in parent):
        return win_rate, "unresolved"
    if pm and better(pm, cm) and abs(cm - pm) / abs(pm) > bound:
        return win_rate, "regression"
    if win_rate >= 0.9 and better(cm, pm) and abs(cm - pm) > p3 - p1:
        held = [w for w, h in zip(wins, holdout) if h]
        return win_rate, "gain" if paired and held and all(held) else "gain-unconfirmed"
    return win_rate, "same"


def direction(parent: list[float], change: list[float]) -> tuple[float, str]:
    """(share of pairs where the change is higher, flag) for a per-layer metric."""
    up = sum(c > p for p, c in zip(parent, change)) / len(parent)
    down = sum(c < p for p, c in zip(parent, change)) / len(parent)
    p1, pm, p3 = quartiles(parent)
    moved = abs(statistics.median(change) - pm) > p3 - p1
    return up, ("higher" if up >= 0.9 else "lower" if down >= 0.9 else "same") if moved else "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout-seeds", type=int, nargs="*", default=[])
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(args.parent, args.trace), load(args.change, args.trace)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        print("no runs with the same workload and seed on both sides", file=sys.stderr)
        return 2
    for key in pairs:
        if parent[key]["seconds"] != change[key]["seconds"]:
            print(f"{key}: runs used different --seconds", file=sys.stderr)
            return 2

    regressions = 0
    print(f"{'workload':15s} {'metric':40s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'win':>5s}  flag")
    for workload in dict.fromkeys(w for w, _ in pairs):
        seeds = [s for w, s in pairs if w == workload]
        runs_p = [parent[(workload, s)] for s in seeds]
        runs_c = [change[(workload, s)] for s in seeds]
        holdout = [s in args.holdout_seeds for s in seeds]
        paired = interleaved(runs_p, runs_c)
        for name in runs_p[0]["metrics"]:
            if any(name not in r["metrics"] for r in runs_c):
                continue
            p = [r["metrics"][name]["value"] for r in runs_p]
            c = [r["metrics"][name]["value"] for r in runs_c]
            meta = end_to_end.get(name)
            if meta:
                win_rate, flag = judge(p, c, holdout, meta["better"] == "lower", meta["bound"], paired)
            else:
                win_rate, flag = direction(p, c)
            regressions += flag == "regression"
            p1, pm, p3 = quartiles(p)
            c1, cm, c3 = quartiles(c)
            print(f"{workload:15s} {name:40s} {pm:12.5g} [{p1:9.4g}, {p3:9.4g}] "
                  f"{cm:12.5g} [{c1:9.4g}, {c3:9.4g}] {win_rate:5.2f}  {flag}")
        print(f"{workload:15s} pairs: {len(seeds)}, holdout pairs: {sum(holdout)}, "
              f"interleaved: {'yes' if paired else 'no'}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
