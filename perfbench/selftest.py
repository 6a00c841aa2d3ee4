"""Self-test of the benchmark harness at tiny sizes (about 30 s).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, that every metric it names
is emitted, that a deliberately failing command (an unknown family,
exit 2) is counted as failed, that the traced run's self times add up
to its busy time, that the tracer's busy and self times are right on
spans of known length and consistent on the traced run, and
that the output check and the compare verdicts behave as documented.
"""

from __future__ import annotations

import json
import re
import shutil
import sys
import tempfile
import time
from pathlib import Path

import compare
import make_references
import run
import tracer

FAILS = []


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILS.append(what)


def check_spec(spec):
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the expected keys")
    names = [w["name"] for w in spec["workloads"]]
    expect(names == list(run.WORKLOADS), "workloads match the harness")
    all_names = names + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(name_re.match(n) for n in all_names), "names are well formed")
    expect(len(set(all_names)) == len(all_names), "names are unique")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    expect(all(0 < b <= 0.25 for b in bounds.values()), "bounds within (0, 0.25]")
    expect(bounds.get("setup_s") == max(bounds.values()), "setup_s has the largest bound")
    expect(1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")


def check_values():
    ref = {"a.D1": 1.2613806005561239, "a.n": 6900, "a.ok": True, "a.s": "F1",
           "3.residual": 4e-12}
    expect(not run.compare_values(ref, dict(ref, **{"a.D1": 1.2613806005561239 + 1e-14})),
           "a rounding-size float change passes")
    expect(run.compare_values(ref, dict(ref, **{"a.D1": 1.2613806 + 1e-6})) != [],
           "a float change beyond tolerance fails")
    expect(run.compare_values(ref, dict(ref, **{"a.n": 6901})) != [], "an integer change fails")
    expect(run.compare_values(ref, dict(ref, **{"a.ok": 1})) != [], "a bool -> int change fails")
    expect(not run.compare_values(ref, dict(ref, **{"3.residual": 3e-12})),
           "kernel residuals compare with their absolute tolerance")


def check_compare():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [x * 0.8 for x in parent]
    slower = [x * 1.3 for x in parent]
    expect(compare.verdict(parent, faster, "lower", 0.1)[0] == "improved", "compare: improved")
    expect(compare.verdict(parent, slower, "lower", 0.1)[0] == "worse", "compare: worse")
    expect(compare.verdict(parent, parent, "lower", 0.1)[0] == "no worse", "compare: no worse")
    noisy = [10.0, 14.0] * 5
    expect(compare.verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved", "compare: unresolved")


def check_tracer(work):
    """Busy and self times of nested spans whose lengths are known."""
    tr = tracer.Tracer("selftest")
    inner = tr.wrap("testfn.inner", lambda: time.sleep(0.05))

    def outer_fn():
        time.sleep(0.03)
        inner()
        inner()
    outer = tr.wrap("testfn.outer", outer_fn)
    outer()
    path = work / "tracer.spans.json"
    tr.dump(path)
    f = tracer.summarize([path])["functions"]
    o, i = f["testfn.outer"], f["testfn.inner"]
    expect(o["calls"] == 1 and i["calls"] == 2, "tracer: call counts")
    expect(0.13 <= o["busy_s"] < 0.2 and 0.1 <= i["busy_s"] < 0.15,
           f"tracer: busy times ({o['busy_s']:.3f}, {i['busy_s']:.3f} s)")
    expect(0.03 <= o["self_s"] < 0.06 and abs(i["self_s"] - i["busy_s"]) < 1e-9,
           f"tracer: self time excludes child spans ({o['self_s']:.3f} s)")


def tiny_workload(work, env):
    good = [["report", "--family", "F1", "--N", "300", "--testfn", "fejer:0.3"],
            ["density", "--family", run.TATE_FAMILY, "--N", "200",
             "--testfn", "fejer:0.1", "--testfn2", "fejer:0.1"],
            ["moments", "--family", "rank6", "--pmax", "60"],
            ["predict", "--testfn", "smoothbump:0.3", "--testfn2", "smoothbump:0.2"]]
    refs = [make_references.reference(argv, work, env) for argv in good]
    bad = ["report", "--family", "no-such-family", "--N", "100"]
    return run.Workload("tiny", 0, good + [bad], "c.get_family('F1')", 1,
                        refs + [None], "ap")


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    check_values()
    check_compare()
    env = run.bench_env()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        check_tracer(work)
        w = tiny_workload(work, env)
        line, _ = run.measure(w, 0, 0, spec, work, env)
        expect(set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]},
               "trace 0 emits every end-to-end metric")
        expect(line["attempted"] == 5 and line["failed"] == 1 and not line["correct"],
               "the unknown-family command counts as failed")
        expect(line["metrics"]["ok_ratio"]["value"] == 0.8, "ok_ratio = 4/5")
        line, rec = run.measure(w, 0, 1, spec, work, env)
        expect(set(line["metrics"]) == {m["name"] for m in spec["per_layer"]},
               "trace 1 emits every per-layer metric")
        expect(line["attempted"] == 5 and line["failed"] == 1,
               "the unknown-family command counts as failed when traced")
        ex = rec["extra"]
        gap = abs(ex["trace.self_sum_s"] - ex["trace.root_busy_s"])
        expect(gap <= 1e-9 * max(1.0, ex["trace.root_busy_s"]),
               f"self times add up to busy time ({ex['trace.self_sum_s']:.6f} "
               f"vs {ex['trace.root_busy_s']:.6f} s)")
        expect(ex["trace.min_self_s"] >= -1e-9, "no span has negative self time")
        expect(ex["trace.max_self_excess_s"] <= 1e-9,
               "no function's self time exceeds its busy time")
        v = {k: m["value"] for k, m in line["metrics"].items()}
        expect(0 < v["cli.main.busy_s"] < v["trace.wall_s"],
               f"in-process time lies within the commands' wall time "
               f"({v['cli.main.busy_s']:.3f} < {v['trace.wall_s']:.3f} s)")
        expect(v["modarith.ap_table.calls"] > 0 and v["tate.conductor.calls"] > 0
               and v["testfn.quad_panels.calls"] > 0 and v["modarith.moment_sum.calls"] > 0,
               "spans recorded in modarith, tate and testfn")
        expect(v["cli.main.self_s"] > 0 and v["polyint.import_s"] > 0, "cli and import metrics set")
        expect(0 < v["trace.overhead_s"] < v["trace.wall_s"], "tracing overhead measured")
        expect(rec["oracle"]["checked"] > 0 and not rec["oracle"]["failures"],
               "oracle spot-checks ran and passed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILS)} failed")
    return 1 if FAILS else 0


if __name__ == "__main__":
    sys.exit(main())
