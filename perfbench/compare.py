"""Compare benchmark result files of a parent and a change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are result files or directories of them (as written
to .perfbench_results/ by perfbench/run.py).  Runs are paired in the
order they were made, so make them alternately (parent, change,
change, parent, ...).  For each (workload, end-to-end metric):

  improved   the change wins >= 9 of 10 pairs (ties count for neither)
             and the medians differ by more than the parent's IQR;
  worse      the change's median is worse than the parent's by more
             than the metric's bound in BENCHMARK.json;
  unresolved the parent's own spread (IQR/median) exceeds the bound and
             not every change run beats every parent run;
  no worse   otherwise.

It flags any rise in the failed/attempted ratio or any incorrect run,
warns when the machine records differ or the host ran at another speed
(the speed probe of the result files), and prints the per-layer
self-time diff of the traced (--trace 1) runs.  Exit code 1 when a
metric is worse or failures rose.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "cpu_model", "l2_cache", "l3_cache", "python", "numpy",
                "sympy", "thread_env")
PROBE_GAP = 0.05  # host-speed difference worth a warning


def load(arg):
    p = Path(arg)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = [json.loads(f.read_text(encoding="utf-8")) for f in files]
    return sorted(runs, key=lambda r: r["started"])


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def verdict(parent, change, better, bound):
    """Classify one (workload, metric) from per-run values of each side."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    all_better = all(sign * (c - p) < 0 for p in parent for c in change)
    worse_share = sign * (cm - pm) / abs(pm) if pm else 0.0
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (cm - pm) < 0 and abs(cm - pm) > q3 - q1):
        word = "improved"
    elif pm and (q3 - q1) / abs(pm) > bound and not all_better:
        word = "unresolved"
    elif worse_share > bound:
        word = "worse"
    else:
        word = "no worse"
    return word, pm, cm, wins, len(pairs), (q3 - q1) / abs(pm) if pm else 0.0


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parent, change = load(argv[0]), load(argv[1])
    status = 0

    machines = {}
    for side, runs in (("parent", parent), ("change", change)):
        for r in runs:
            machines.setdefault(json.dumps({k: r["machine"].get(k) for k in MACHINE_KEYS},
                                           sort_keys=True), []).append(side)
    if len(machines) > 1:
        print("WARNING: runs come from different machine records:")
        for rec, sides in machines.items():
            print(f"  {sorted(set(sides))} x{len(sides)}: {rec}")

    probes = [statistics.median(r["probe_s"]["median"] for r in runs)
              for runs in (parent, change)]
    gap = probes[1] / probes[0] - 1
    print(f"speed probe (median s): parent {probes[0]:.4f}, change {probes[1]:.4f} "
          f"({gap:+.1%})")
    if abs(gap) > PROBE_GAP:
        print("WARNING: the host ran at another speed for one side; "
              "alternate the runs or repeat them")

    workloads = sorted({r["workload"] for r in parent + change})
    print(f"{'workload':14s} {'metric':12s} {'verdict':10s} {'parent':>10s} "
          f"{'change':>10s} {'wins':>6s} {'IQR/med':>8s} bound")
    for w in workloads:
        for trace in (0, 1):
            pr = [r for r in parent if r["workload"] == w and r["trace"] == trace]
            cr = [r for r in change if r["workload"] == w and r["trace"] == trace]
            if not pr or not cr:
                continue
            pf = sum(r["failed"] for r in pr) / max(1, sum(r["attempted"] for r in pr))
            cf = sum(r["failed"] for r in cr) / max(1, sum(r["attempted"] for r in cr))
            if cf > pf or not all(r["result"]["correct"] for r in cr):
                print(f"{w:14s} FAILURES ROSE: failed/attempted {pf:.3g} -> {cf:.3g}; "
                      f"incorrect change runs: "
                      f"{sum(not r['result']['correct'] for r in cr)}")
                status = 1
            if trace == 0:
                for m in spec["end_to_end"]:
                    pv = [r["metrics"][m["name"]]["value"] for r in pr]
                    cv = [r["metrics"][m["name"]]["value"] for r in cr]
                    word, pm, cm, wins, n, spread = verdict(pv, cv, m["better"], m["bound"])
                    status |= word == "worse"
                    print(f"{w:14s} {m['name']:12s} {word:10s} {pm:10.4g} {cm:10.4g} "
                          f"{wins:>3d}/{n:<2d} {spread:8.3f} {m['bound']}")
            else:
                for side, runs in (("parent", parent), ("change", change)):
                    walls = [r["metrics"]["wall_s"]["value"] for r in runs
                             if r["workload"] == w and r["trace"] == 0]
                    traced = [r["metrics"]["trace.wall_s"]["value"] for r in runs
                              if r["workload"] == w and r["trace"] == 1]
                    if walls and traced:
                        print(f"{w:14s} {side} tracing overhead end to end: "
                              f"{statistics.median(traced) - statistics.median(walls):+.3f} s "
                              f"(traced {statistics.median(traced):.3f} s)")
                rows = []
                for m in spec["per_layer"]:
                    if not m["name"].endswith("self_s"):
                        continue
                    pm = statistics.median(r["metrics"][m["name"]]["value"] for r in pr)
                    cm = statistics.median(r["metrics"][m["name"]]["value"] for r in cr)
                    rows.append((abs(cm - pm), m["name"], pm, cm))
                print(f"{w:14s} per-layer self time, parent -> change (s):")
                for _, name, pm, cm in sorted(rows, reverse=True):
                    if pm or cm:
                        print(f"    {name:36s} {pm:10.4f} -> {cm:10.4f}  ({cm - pm:+.4f})")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
