"""Span tracing of the lowlying package from outside it.

`install(tracer)` wraps the public functions of every `lowlying.*`
module (and the public methods of the classes they define), and rebinds
every name another module imported with `from ... import ...`, so a call
is recorded whichever module makes it.  In `lowlying.cli` only `main` is
wrapped: its self time is then the CLI glue (parsing, dispatch,
formatting and emission).

Run as a script, it executes one CLI command in-process under tracing:

    python perfbench/tracer.py RUN_ID SPANS.json PAYLOAD.txt -- <cli args>

The payload goes to PAYLOAD.txt, the spans (kept in memory until the
command ends) to SPANS.json, and the exit code is the CLI's.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("polyint", "family", "modarith", "tate", "sqsieve", "testfn",
           "density", "predict", "cli")
CLI_WRAPPED = ("main",)


def _ap_table_info(args, kwargs, result):
    return [args[0].label, args[1]]


def _conductor_info(args, kwargs, result):
    return 0 if result[1] else 1  # 1 = incomplete factorization


def _panels_info(args, kwargs, result):
    bp = args[1] if len(args) > 1 else kwargs["breakpoints"]
    return max(len(set(float(b) for b in bp)) - 1, 0)


def _fibers_info(args, kwargs, result):
    good_t = args[1] if len(args) > 1 else kwargs["good_t"]
    return len(good_t) if hasattr(good_t, "__len__") else None


# Per-call details a few layers need for their counters; computed after
# the span's end time is taken, so they cost the span nothing.
INFO = {
    "modarith.ap_table": _ap_table_info,
    "tate.conductor": _conductor_info,
    "tate.factorize": lambda args, kwargs, result: args[0],
    "testfn.quad_panels": _panels_info,
    "family.n_minus": _fibers_info,
}
# The statistics summarize() derives from those details.
DERIVED = {
    "modarith.ap_table": ("residues", "unique_ratio"),
    "tate.conductor": ("incomplete",),
    "tate.factorize": ("unique_ratio",),
    "testfn.quad_panels": ("panels",),
    "family.n_minus": ("fibers",),
}


class Tracer:
    """In-memory span recorder.

    A span is (name index, start, end, parent span index or -1, ok, info);
    every span of one traced command shares the tracer's run id.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.names = []
        self.spans = []
        self._stack = []
        self._t0 = time.perf_counter()

    def wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        info_fn = INFO.get(name)
        spans, stack, clock, t0 = self.spans, self._stack, time.perf_counter, self._t0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            ok = False
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                info = info_fn(args, kwargs, result) if ok and info_fn else None
                spans[i] = (idx, start - t0, end - t0, parent, ok, info)

        return traced

    def dump(self, path, install_s=0.0):
        """Write the spans, then a header with the tracing overhead.

        The overhead is the wrapper installation, the per-span wrapper
        cost (timed on a no-op) times the span count, and this dump.
        """
        start = time.perf_counter()
        per_span = per_span_cost()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(self.spans, separators=(",", ":")))
            overhead = install_s + len(self.spans) * per_span + time.perf_counter() - start
            fh.write("\n")
            json.dump({"run_id": self.run_id, "names": self.names,
                       "per_span_s": per_span, "overhead_s": overhead}, fh,
                      separators=(",", ":"))


def _noop():
    return None


def per_span_cost(n=20000):
    """Seconds the wrapper adds to one call, timed on a no-op function."""
    wrapped = Tracer("calibration").wrap("noop", _noop)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(n):
        _noop()
    t1 = clock()
    for _ in range(n):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / n)


def load(path):
    """(header, spans) of a span file written by Tracer.dump."""
    with open(path, encoding="utf-8") as fh:
        spans = json.loads(fh.readline())
        head = json.loads(fh.readline())
    return head, spans


def _targets(mod):
    """(qualified name, owner, attribute, raw attribute) to wrap in mod."""
    short = mod.__name__.rsplit(".", 1)[1]
    out = []
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if short == "cli" and attr not in CLI_WRAPPED:
            continue
        if inspect.isfunction(obj):
            out.append((f"{short}.{attr}", mod, attr, obj))
        elif inspect.isclass(obj):
            for mattr, raw in vars(obj).items():
                if mattr.startswith("_"):
                    continue
                if inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod)):
                    out.append((f"{short}.{attr}.{mattr}", obj, mattr, raw))
    return out


def install(tracer):
    """Wrap every target and rebind its imported aliases."""
    mods = [importlib.import_module(f"lowlying.{m}") for m in MODULES]
    replaced = {}
    for mod in mods:
        for name, owner, attr, raw in _targets(mod):
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(tracer.wrap(name, raw.__func__))
            else:
                new = tracer.wrap(name, raw)
                replaced[id(raw)] = new
            setattr(owner, attr, new)
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])


def summarize(span_files):
    """Per-function and per-module totals over the given span files.

    busy_s counts a function's outermost spans only (no double count on
    recursion); self_s is a span's duration minus its child spans.
    Module busy_s counts spans whose parent lies in another module.
    """
    funcs, mods, wrapped = {}, {}, set()
    root_busy = overhead = 0.0
    min_self = 0.0
    for path in span_files:
        head, spans = load(path)
        names = head["names"]
        wrapped.update(names)
        overhead += head["overhead_s"]
        name_idx, start, end, parent, ok, info = zip(*spans) if spans else ((),) * 6
        dur = [e - s for s, e in zip(start, end)]
        child = [0.0] * len(dur)
        for i, par in enumerate(parent):
            if par >= 0:
                child[par] += dur[i]
        for i, idx in enumerate(name_idx):
            name = names[idx]
            mod = name.split(".", 1)[0]
            self_t = dur[i] - child[i]
            min_self = min(min_self, self_t)
            st = funcs.get(name)
            if st is None:
                st = funcs[name] = {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                    "failed": 0, "info": []}
            st["calls"] += 1
            st["self_s"] += self_t
            if not ok[i]:
                st["failed"] += 1
            if info[i] is not None:
                st["info"].append(info[i])
            a = parent[i]
            while a >= 0 and name_idx[a] != idx:
                a = parent[a]
            if a < 0:
                st["busy_s"] += dur[i]
            m = mods.get(mod)
            if m is None:
                m = mods[mod] = {"busy_s": 0.0, "self_s": 0.0, "failed": 0}
            m["self_s"] += self_t
            if not ok[i]:
                m["failed"] += 1
            par = parent[i]
            if par < 0 or not names[name_idx[par]].startswith(mod + "."):
                m["busy_s"] += dur[i]
            if par < 0:
                root_busy += dur[i]
    for name, st in funcs.items():
        info = st.pop("info")
        if name == "modarith.ap_table":
            st["residues"] = sum(p for _, p in info)
            st["unique_ratio"] = len({tuple(k) for k in info}) / st["calls"]
        elif name == "tate.factorize":
            st["unique_ratio"] = len(set(info)) / st["calls"]
        elif name == "tate.conductor":
            st["incomplete"] = sum(info)
        elif name == "testfn.quad_panels":
            st["panels"] = sum(info)
        elif name == "family.n_minus":
            st["fibers"] = sum(info)
    return {"functions": funcs, "modules": mods, "wrapped": wrapped,
            "root_busy_s": root_busy, "min_self_s": min_self, "overhead_s": overhead}


def main(argv):
    sep = argv.index("--")
    run_id, spans_path, payload_path = argv[:sep]
    from lowlying import cli  # the import is the program's cost, not the tracer's

    start = time.perf_counter()
    tracer = Tracer(run_id)
    install(tracer)
    install_s = time.perf_counter() - start

    try:
        with open(payload_path, "w", encoding="utf-8") as out, \
                contextlib.redirect_stdout(out):
            status = cli.main(argv[sep + 1:])
    finally:
        tracer.dump(spans_path, install_s)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
