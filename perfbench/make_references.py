"""Regenerate perfbench/references.json from the current sources.

    python3 perfbench/make_references.py [WORKLOAD ...]

Runs every workload command at every seed offset once (untimed) and
stores its flattened payload and digest.  Only for a change whose
output is meant to differ; the diff of references.json is then the
record of what changed.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def reference(argv, work, env):
    payload = work / "payload.out"
    p = run.run_proc([sys.executable, "-m", "lowlying.cli", *argv], payload,
                     work / "payload.err", env)
    if p.code != 0:
        raise SystemExit(f"{argv} exited {p.code}")
    text = payload.read_text(encoding="utf-8")
    return {"argv": argv, "values": run.flatten_payload(text), "digest": run.digest(text)}


def main(names):
    path = run.BENCH / "references.json"
    refs = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    env = run.bench_env()
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for name in names or run.WORKLOADS:
            refs[name] = {str(k): [reference(argv, Path(tmp), env)
                                   for argv in run.commands(name, k)]
                          for k in range(run.N_OFFSETS)}
            print(name, "done", flush=True)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
