"""Benchmark of the lowlying CLI: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout (numpy and sympy installed; the
package is imported from ./src).  Each workload is a fixed list of CLI
commands, run one after another, each in its own subprocess (closed
loop, one client).  The run repeats the workload until the next repeat
would overrun --seconds (default: run_seconds of BENCHMARK.json), at
least MIN_REPEATS times, and reports medians.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: wall time
of one workload repeat, set-up time (a subprocess that only imports
lowlying.cli and builds the workload's family), peak RSS and the share
of commands that succeeded.  --trace 1 runs each command in-process
under perfbench/tracer.py (still one subprocess per command) and
reports the per-layer metrics of BENCHMARK.json from the recorded
spans, the traced wall time (trace.wall_s) and the tracer's own cost
(trace.overhead_s).  trace.wall_s minus the wall_s of --trace 0 runs is
the overhead seen end to end; perfbench/compare.py prints it.

Every command's payload is checked against perfbench/references.json,
and untimed oracle spot-checks run after the timed region.  The full
record (samples, percentiles, checks, machine) is written to
.perfbench_results/; the last stdout line is the JSON summary.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"

# Seeds shift N and X by seed % N_OFFSETS; references exist for each offset.
N_OFFSETS = 4
# Repeats per run at least: kernels (~15 s a repeat) and moments (~8 s)
# would otherwise get one repeat in a 20 s run, and no median.
MIN_REPEATS = {"report-F1": 1, "density2-tate": 1, "kernels": 2, "moments": 2}
MIN_SETUPS = 7
PROBES = 3
IMPORTTIME_RUNS = 3
CMD_TIMEOUT_S = 150.0

# Float tolerances for the output checks.  Payload floats are sums of
# at most ~10^4 terms of size <= ~10 (per-curve prime sums, averages over
# the good set, quadrature panels); any change of summation order (for
# example pairwise_sum -> math.fsum) moves them by < 1e-12 relative,
# while dropping a single prime or fiber moves D1/D2 by > 1e-7.  CSV
# reals are printed to 12 significant digits (rounding <= 5e-13
# relative).  rtol = 1e-9 leaves > 100x headroom over rounding.
RTOL = 1e-9
ATOL = 1e-12
# verify-kernels residuals are quadrature errors (~1e-12 .. 1e-6), not
# results: they may move with any reordering, so they are held to an
# absolute 1e-8, 100x below the program's own 1-level threshold (1e-6);
# the `ok` column carries the program's pass/fail verdict exactly.
ATOL_BY_FIELD = {"residual": 1e-8}


# -- workloads ---------------------------------------------------------------

# Why each exists, and which layers it loads or bypasses: BENCHMARK.json
# and perfbench/NOTES.md.
WORKLOADS = ("report-F1", "density2-tate", "kernels", "moments")
TATE_FAMILY = "perfbench/F1-tate.json"


def commands(name, offset):
    """CLI argv lists of a workload at N/X offset `offset`."""
    n = 10000 + offset
    if name == "report-F1":
        return [["report", "--family", "F1", "--N", str(n), "--testfn", "fejer:0.3"]]
    if name == "density2-tate":
        return [["density", "--family", TATE_FAMILY, "--N", str(n),
                 "--testfn", "fejer:0.1", "--testfn2", "fejer:0.1"]]
    if name == "kernels":  # no size parameter: every seed runs the same inputs
        return [["verify-kernels", "--testfn", "fejer:0.9", "--testfn2", "fejer:0.45"],
                ["verify-kernels", "--testfn", "smoothbump:0.9", "--testfn2", "smoothbump:0.45"]]
    if name == "moments":
        return [["moments", "--family", "rank6", "--pmax", "1000"],
                ["rank", "--family", "washington", "--X", str(20000 + offset)]]
    raise KeyError(name)


SETUP = {
    "report-F1": "c.get_family('F1')",
    "density2-tate": f"c.load_family({TATE_FAMILY!r})",
    "kernels": "[c.make_testfn(s) for s in ('fejer:0.9', 'fejer:0.45', "
               "'smoothbump:0.9', 'smoothbump:0.45')]",
    "moments": "c.get_family('rank6'); c.get_family('washington')",
}


@dataclass
class Workload:
    name: str
    offset: int
    commands: list
    setup: str            # Python run after `import lowlying.cli as c`
    min_repeats: int
    refs: list            # one reference payload per command
    oracle: str | None    # which untimed spot-check to run afterwards


def get_workload(name, seed):
    offset = seed % N_OFFSETS
    refs = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))
    cmds = commands(name, offset)
    oracle = {"report-F1": "ap", "density2-tate": "ap", "moments": "moments"}.get(name)
    return Workload(name, offset, cmds, SETUP[name], MIN_REPEATS[name],
                    refs[name][str(offset)], oracle)


# -- processes -------------------------------------------------------------

def bench_env():
    env = dict(os.environ)
    threads = str(min(2, nproc()))
    env.update(LOWLYING_THREADS=threads, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def nproc():
    return len(os.sched_getaffinity(0))


@dataclass
class Proc:
    code: int
    wall_s: float
    maxrss_mb: float


def run_proc(argv, stdout_path, stderr_path, env):
    """Run argv in ROOT; wall time and max RSS of that one child."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


# -- output checks ---------------------------------------------------------

def strip_payload(text):
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# timestamp:"))


def _typed(cell):
    if cell in ("true", "false"):
        return cell == "true"
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def flatten_payload(text):
    """Payload (timestamp dropped) as {path: value}: JSON or CSV."""
    body = strip_payload(text)
    out = {}
    if body.lstrip().startswith("{"):
        def walk(obj, path):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(v, f"{path}{k}.")
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    walk(v, f"{path}{i}.")
            else:
                out[path[:-1]] = obj
        walk(json.loads(body), "")
        return out
    rows = list(csv.reader(io.StringIO(body)))
    header = rows[0]
    for i, row in enumerate(rows[1:]):
        for col, cell in zip(header, row):
            out[f"{i}.{col}"] = _typed(cell)
    return out


def digest(text):
    return hashlib.sha256(strip_payload(text).encode("utf-8")).hexdigest()


def compare_values(ref, got):
    """Mismatches between reference and payload values (empty = match)."""
    problems = [f"missing {k}" for k in ref if k not in got]
    problems += [f"unexpected {k}" for k in got if k not in ref]
    for k, want in ref.items():
        if k not in got:
            continue
        have = got[k]
        if isinstance(want, float):
            ok = (isinstance(have, (int, float)) and not isinstance(have, bool)
                  and abs(have - want) <= ATOL_BY_FIELD.get(k.rsplit(".", 1)[-1], ATOL)
                  + RTOL * abs(want))
        else:
            ok = type(have) is type(want) and have == want
        if not ok:
            problems.append(f"{k}: {have!r} != {want!r}")
    return problems


def check_payload(ref, argv, code, payload_path):
    """(ok, detail) for one command's exit code and payload."""
    if code != 0:
        return False, {"error": f"exit code {code}"}
    if ref["argv"] != argv:
        return False, {"error": "reference is for another command"}
    text = payload_path.read_text(encoding="utf-8")
    try:
        problems = compare_values(ref["values"], flatten_payload(text))
    except (ValueError, IndexError) as exc:
        problems = [f"unparsable payload: {exc}"]
    return not problems, {"problems": problems[:5],
                          "bit_identical": digest(text) == ref["digest"]}


# -- one workload repeat ---------------------------------------------------

@dataclass
class Repeat:
    wall_s: float = 0.0
    maxrss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    span_files: list = field(default_factory=list)


def run_repeat(w, work, tag, env, traced):
    rep = Repeat()
    for j, argv in enumerate(w.commands):
        payload = work / f"{tag}-{j}.out"
        err = work / f"{tag}-{j}.err"
        if traced:
            spans = work / f"{tag}-{j}.spans.json"
            cmd = [sys.executable, str(BENCH / "tracer.py"), f"{w.name}/{tag}/{j}",
                   str(spans), str(payload), "--", *argv]
            p = run_proc(cmd, work / f"{tag}-{j}.stdout", err, env)
            if spans.exists():
                rep.span_files.append(spans)
        else:
            p = run_proc([sys.executable, "-m", "lowlying.cli", *argv], payload, err, env)
        rep.wall_s += p.wall_s
        rep.maxrss_mb = max(rep.maxrss_mb, p.maxrss_mb)
        ok, detail = check_payload(w.refs[j], argv, p.code, payload)
        rep.attempted += 1
        rep.failed += not ok
        rep.checks.append({"argv": argv, "ok": ok, **detail})
    return rep


def run_setup(w, work, env):
    code = f"import lowlying.cli as c; {w.setup}"
    p = run_proc([sys.executable, "-c", code], work / "setup.out", work / "setup.err", env)
    if p.code != 0:
        raise RuntimeError(f"set-up failed: {(work / 'setup.err').read_text()[-500:]}")
    return p.wall_s


def run_importtime(work, env):
    """Import times (s) of lowlying modules from `python -X importtime`."""
    err = work / "importtime.err"
    p = run_proc([sys.executable, "-X", "importtime", "-c", "import lowlying.cli"],
                 work / "importtime.out", err, env)
    if p.code != 0:
        raise RuntimeError("import of lowlying.cli failed")
    self_us, cum_us = {}, {}
    for line in err.read_text().splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        s, c, name = (x.strip() for x in line[len("import time:"):].split("|"))
        if s.isdigit():
            self_us[name], cum_us[name] = int(s), int(c)
    # polyint's cumulative time includes sympy; family's self time is the
    # preset construction; cli's cumulative time is the whole import.
    return {"polyint": cum_us["lowlying.polyint"] / 1e6,
            "family": self_us["lowlying.family"] / 1e6,
            "cli": cum_us["lowlying.cli"] / 1e6}


def speed_probe():
    """Seconds of a fixed pure-Python loop: the host's speed at the time.

    Not a metric.  It is recorded next to the timings so that compare.py
    can tell a slower host from a slower program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(500_000):
        acc += i * i % 7
    return time.perf_counter() - start


# -- statistics --------------------------------------------------------------

def timing_stats(samples):
    """Median, the highest percentile with >= 10 samples beyond it, count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n, "samples": samples}
    if n > 10:
        out["tail_percentile"] = math.floor(100 * (n - 10) / n)
        out["tail_value"] = xs[n - 11]
    else:
        out["tail_percentile"] = out["tail_value"] = None
    return out


# -- per-layer metrics -------------------------------------------------------

BASE_STATS = ("calls", "busy_s", "self_s", "failed")


def layer_values(names, summary):
    """Values of the per-layer metric names from one traced repeat.

    A name that resolves to no wrapped function or no statistic of it
    raises, so a typo in BENCHMARK.json cannot read as 0.
    """
    out = {}
    for name in names:
        prefix, stat = name.rsplit(".", 1)
        if stat == "import_s" or prefix == "trace":
            continue  # filled from importtime and the repeat walls
        if prefix in tracer.MODULES and stat in ("busy_s", "self_s", "failed"):
            out[name] = summary["modules"].get(prefix, {}).get(stat, 0)
            continue
        stats = BASE_STATS + tracer.DERIVED.get(prefix, ())
        if prefix not in summary["wrapped"] or stat not in stats:
            raise KeyError(f"per-layer metric {name!r} names no traced quantity")
        out[name] = summary["functions"].get(prefix, {}).get(stat, 0)
    return out


# -- oracles -----------------------------------------------------------------

def run_oracle(kind, offset):
    """Untimed spot-checks of fast paths against the slow reference routes."""
    sys.path.insert(0, str(ROOT / "src"))
    from lowlying import family, modarith

    failures, checked = [], 0
    if kind == "ap":
        fams = [family.get_family("F1"), family.load_family(ROOT / TATE_FAMILY)]
        for f in fams:
            ts = [t for t in range(10000 + offset, 10000 + offset + 12)
                  if f.delta_at(t) != 0]
            for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
                tab = modarith.ap_table(f, p)
                for t in ts:
                    checked += 1
                    want = modarith.a_p_enumerate(f.specialize(t), p)
                    if int(tab[t % p]) != want:
                        failures.append(f"ap_table({f.label}, {p})[{t}] != {want}")
    elif kind == "moments":
        for label in ("rank6", "washington"):
            f = family.get_family(label)
            for p in (5, 7, 11, 13, 29, 31, 53, 97):
                for r in (1, 2):
                    checked += 1
                    fast = modarith.moment_sum(f, p, r)
                    slow = modarith.moment_sum(f, p, r, method="bruteforce")
                    if fast != slow:
                        failures.append(f"moment_sum({label}, {p}, {r}) {fast} != {slow}")
    return {"kind": kind, "checked": checked, "failures": failures}


# -- machine record ----------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    sha = _read(ROOT / ".git" / ref).strip()
    if sha:
        return sha
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _cache_size(level):
    for idx in range(8):
        base = Path(f"/sys/devices/system/cpu/cpu0/cache/index{idx}")
        if _read(base / "level").strip() == str(level) and \
                _read(base / "type").strip() in ("Unified", "Data"):
            return _read(base / "size").strip() or None
    return None


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine_record(seed, env):
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "nproc": nproc(), "cpu_model": model,
        "l2_cache": _cache_size(2), "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": _version("numpy"), "sympy": _version("sympy"),
        "git_commit": _git_commit(), "seed": seed,
        "thread_env": {k: env[k] for k in ("LOWLYING_THREADS", "OMP_NUM_THREADS",
                                           "OPENBLAS_NUM_THREADS", "PYTHONHASHSEED")},
    }


# -- the run -----------------------------------------------------------------

def measure(w, seconds, trace, spec, work, env):
    """Timed region plus checks; returns (summary line dict, full record)."""
    run_setup(w, work, env)  # untimed warm-up: byte-compile, fill OS caches
    probes = [speed_probe() for _ in range(PROBES)]
    start = time.perf_counter()
    repeats, setups = [], []
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        if not trace:
            setups.append(run_setup(w, work, env))
        repeats.append(run_repeat(w, work, f"r{len(repeats)}", env, bool(trace)))
        longest = max(longest, time.perf_counter() - t0)
        if (len(repeats) >= w.min_repeats
                and time.perf_counter() - start + longest > seconds):
            break
    if trace:
        imports = [run_importtime(work, env) for _ in range(IMPORTTIME_RUNS)]
    else:
        while len(setups) < MIN_SETUPS:
            setups.append(run_setup(w, work, env))

    probes += [speed_probe() for _ in range(PROBES)]
    oracle = run_oracle(w.oracle, w.offset) if w.oracle else None
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    correct = failed == 0 and not (oracle and oracle["failures"])

    wall = timing_stats([r.wall_s for r in repeats])
    record = {"wall_s": wall, "probe_s": timing_stats(probes),
              "attempted": attempted, "failed": failed,
              "checks": [r.checks for r in repeats], "oracle": oracle}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not trace:
        setup = timing_stats(setups)
        rss = timing_stats([r.maxrss_mb for r in repeats])
        values = {"wall_s": wall["median"], "setup_s": setup["median"],
                  "peak_rss_mb": rss["median"],
                  "ok_ratio": (attempted - failed) / attempted}
        record.update(setup_s=setup, peak_rss_mb=rss)
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        names = [m["name"] for m in spec["per_layer"]]
        per_repeat = []
        for r in repeats:
            summary = tracer.summarize(r.span_files)
            vals = layer_values(names, summary)
            vals["trace.overhead_s"] = summary["overhead_s"]
            vals["trace.self_sum_s"] = sum(m["self_s"] for m in summary["modules"].values())
            vals["trace.root_busy_s"] = summary["root_busy_s"]
            vals["trace.min_self_s"] = summary["min_self_s"]
            vals["trace.max_self_excess_s"] = max(
                (f["self_s"] - f["busy_s"] for f in summary["functions"].values()),
                default=0.0)
            per_repeat.append(vals)
        values = {k: statistics.median(v[k] for v in per_repeat) for k in per_repeat[0]}
        for mod in ("polyint", "family", "cli"):
            values[f"{mod}.import_s"] = statistics.median(i[mod] for i in imports)
        values["trace.wall_s"] = wall["median"]
        record.update(layers=per_repeat, imports=imports)
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    record["metrics"] = metrics
    record["extra"] = {k: v for k, v in values.items() if k not in metrics}
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, record


def run_workload(name, args, spec, env):
    """Measure one workload, write its result file, print its metrics."""
    started = datetime.now(timezone.utc)
    w = get_workload(name, args.seed)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        line, record = measure(w, args.seconds, args.trace, spec, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, commands=w.commands,
                  started=started.isoformat(timespec="microseconds"),
                  machine=machine_record(args.seed, env), result=line)
    RESULTS.mkdir(exist_ok=True)
    stamp = started.strftime("%Y%m%dT%H%M%S")
    out = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    for metric, m in line["metrics"].items():
        st = record.get(metric)
        extra = (f"  (median of {st['n']}; p{st['tail_percentile']}={st['tail_value']:.4g})"
                 if isinstance(st, dict) and st.get("tail_value") is not None else
                 f"  (median of {st['n']})" if isinstance(st, dict) else "")
        print(f"{name:14s} {metric:34s} {m['value']:.6g} {m['unit']}{extra}")
    print(f"{name:14s} correct={line['correct']} attempted={line['attempted']} "
          f"failed={line['failed']}  result file: {out.relative_to(ROOT)}", flush=True)
    return line


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all four in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lowlying" / "cli.py").is_file():
        print(f"error: no lowlying sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    env = bench_env()
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args, spec, env)))
        return 0
    lines = {name: run_workload(name, args, spec, env) for name in WORKLOADS}
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {f"{name}.{k}": v for name, line in lines.items()
                    for k, v in line["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
