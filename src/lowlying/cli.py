"""Command-line interface: reproducible runs over the library modules.

Artifacts are deterministic: identical configurations produce
byte-identical output apart from the timestamp, which is isolated on
the first header line.  CSV is RFC-4180 with a header row, '.' decimal
separator, 12 significant digits for reals; JSON is UTF-8 with sorted
keys.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import density as density_mod
from . import predict as predict_mod
from .family import PRESETS, get_family, load_family
from .modarith import (MomentTable, closed_form_moments, nagao_estimate,
                       primes_upto)
from .sqsieve import enumerate_good
from .tate import conductors
from .testfn import make_testfn


def fmt(x):
    """12 significant digits for reals, exact decimal for integers."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _stamp(out):
    out.write("# timestamp: "
              + datetime.now(timezone.utc).isoformat(timespec="seconds")
              + "\n")


def _emit_csv(out, header, rows):
    _stamp(out)
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([fmt(v) for v in row])


def _emit_json(out, obj):
    _stamp(out)
    json.dump(obj, out, sort_keys=True, indent=2, default=fmt)
    out.write("\n")


def _family(args):
    name = args.family
    if os.path.exists(name):
        return load_family(name)
    return get_family(name)


CONDITIONALITY_NOTE = (
    "Interpretation assumes GRH for the explicit-formula framing and BSD "
    "for reading rank off the central point; ABC enters only when the "
    "abc_flag is set.")


# -- subcommands -----------------------------------------------------------

def cmd_moments(args, out):
    if args.pmax < 5:  # the table starts at p = 5
        raise ValueError(f"pmax must be at least 5, the first prime above "
                         f"3, got {args.pmax}")
    f = _family(args)
    # a preset's closed forms hold for a family with its short model
    # y^2 = x^3 + A x + B, which alone fixes a_t(p) at p > 3
    ref = PRESETS.get(f.label)
    closed = ref is not None and all(f.inv[k] == ref.inv[k] for k in "AB")
    rows = []
    tab = MomentTable.build(f, args.pmax)
    for p, (a1, a2) in sorted(tab.entries.items()):
        cf1, cf2 = closed_form_moments(f.label, p) if closed else (None, None)
        match = (cf1 is not None and a1 == cf1
                 and (cf2 is None or a2 == cf2))
        rows.append([p, a1, a2,
                     "" if cf1 is None else cf1,
                     "" if cf2 is None else cf2, match])
    _emit_csv(out, ["p", "A1", "A2", "A1_closed", "A2_closed", "match"], rows)
    return 0


def cmd_rank(args, out):
    f = _family(args)
    X = args.X
    est = nagao_estimate(f, X)
    theta = sum(math.log(p) for p in primes_upto(X))
    _emit_json(out, {
        "family": f.label, "X": X, "nagao_estimate": est,
        "claimed_rank": f.rank, "theta_over_X": theta / X,
        "rank_scaled_target": f.rank * theta / X,
        "note": CONDITIONALITY_NOTE,
    })
    return 0


def cmd_conductor(args, out):
    f = _family(args)
    lo, hi = args.t_range
    ts = [t for t in range(lo, hi + 1) if f.delta_at(t) != 0]
    rows = []
    for t, (C, complete) in zip(ts, conductors(f, ts)):
        exp = (f.expected_conductor.eval(t)
               if f.expected_conductor is not None else "")
        rows.append([t, C, exp, exp != "" and C == exp, complete])
    _emit_csv(out, ["t", "C", "expected", "match", "complete"], rows)
    return 0


def cmd_sieve(args, out):
    f = _family(args)
    rep = enumerate_good(f, args.N, d_max=args.d_max, exact=args.exact)
    rows = [[d, v] for d, v in sorted(rep.nu_table.items())]
    _emit_csv(out, ["d", "nu"], rows)
    _emit_json(out, {
        "N": rep.N, "d_max": rep.d_max, "good_count": int(rep.good_t.size),
        "c_F_estimate": rep.c_F_estimate, "t_set_excess": rep.t_set_excess,
        "abc_flag": f.abc_flag,
    })
    return 0


def _report_dict(rep):
    return {**dataclasses.asdict(rep), "note": CONDITIONALITY_NOTE}


def cmd_density(args, out):
    f = _family(args)
    g1 = make_testfn(args.testfn)
    g2 = make_testfn(args.testfn2) if args.testfn2 else None
    mode = {"percurve": "PerCurve", "avglog": "AverageLogConductor"}[args.mode]
    _, rep1, rep2 = density_mod.densities(f, args.N, g1, g2, mode=mode)
    _emit_json(out, _report_dict(rep2 or rep1))
    return 0


def cmd_predict(args, out):
    g1 = make_testfn(args.testfn)
    obj = {"testfn": [g1.kind, g1.sigma], "rank": args.rank}
    if args.testfn2:
        g2 = make_testfn(args.testfn2)
        obj["testfn2"] = [g2.kind, g2.sigma]
        obj["d2"] = predict_mod.predict_d2(g1, g2, args.rank)
    else:
        obj["d1"] = predict_mod.predict_d1(g1, args.rank)
    _emit_json(out, obj)
    if args.plot_csv:
        import numpy as np

        with open(args.plot_csv, "w", encoding="utf-8", newline="") as fh:
            xs = np.linspace(-5.0, 5.0, 501)
            rows = [[x] + [float(w) for w in predict_mod.w1_ac(x).values()]
                    for x in xs]
            _emit_csv(fh, ["x"] + [f"W1_{g}" for g in predict_mod.GROUPS],
                      rows)
    return 0


def cmd_verify_kernels(args, out):
    g1 = make_testfn(args.testfn)
    g2a = make_testfn(args.testfn2 or
                      f"{g1.kind}:{min(0.45, g1.sigma / 2)}")
    rows = []
    for level, res, tol in (
            ("1-level", predict_mod.kernel_crosscheck(g1), 1e-6),
            ("2-level", predict_mod.kernel_crosscheck(g2a, g2a), 1e-4)):
        rows += [[grp, level, res[grp], res[grp] <= tol]
                 for grp in predict_mod.GROUPS]
    _emit_csv(out, ["group", "level", "residual", "ok"], rows)
    return 0 if all(row[3] for row in rows) else 1


def cmd_report(args, out):
    f = _family(args)
    g1 = make_testfn(args.testfn)
    g2 = make_testfn(args.testfn2) if args.testfn2 else None
    sieve, rep, rep2 = density_mod.densities(f, args.N, g1, g2)
    best = min(rep.residuals, key=lambda k: (rep.residuals[k], k))
    obj = {
        "config": {
            "family": args.family, "N": args.N, "testfn": args.testfn,
            "p_min": density_mod.P_MIN,
        },
        "sieve": {"good_count": rep.n_curves,
                  "c_F_estimate": sieve.c_F_estimate},
        "density": _report_dict(rep),
        "closest_group": best,
        "conditionality": {
            "note": CONDITIONALITY_NOTE,
            "abc_flag": f.abc_flag,
        },
    }
    if rep2:
        obj["density2"] = _report_dict(rep2)
    _emit_json(out, obj)
    return 0


# -- parser ----------------------------------------------------------------

def _t_range(s):
    lo, _, hi = s.partition(":")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI with integers LO <= HI, got {s!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(
            f"empty range {s!r}: LO = {lo} is greater than HI = {hi}")
    return lo, hi


def build_parser():
    p = argparse.ArgumentParser(prog="lowlying")
    p.add_argument("--out", default="-", help="output path ('-' = stdout)")
    sub = p.add_subparsers(dest="cmd", required=True)

    def fam(sp):
        sp.add_argument("--family", required=True,
                        help="preset name or JSON config path")

    sp = sub.add_parser("moments")
    fam(sp)
    sp.add_argument("--pmax", type=int, default=199)
    sp.set_defaults(fn=cmd_moments)

    sp = sub.add_parser("rank")
    fam(sp)
    sp.add_argument("--X", type=int, default=10000)
    sp.set_defaults(fn=cmd_rank)

    sp = sub.add_parser("conductor")
    fam(sp)
    sp.add_argument("--t-range", type=_t_range, required=True,
                    metavar="LO:HI",
                    help="inclusive range of t, LO <= HI; write "
                         "--t-range=-2:2 when LO is negative")
    sp.set_defaults(fn=cmd_conductor)

    sp = sub.add_parser("sieve")
    fam(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--d-max", type=int, default=None)
    sp.add_argument("--exact", action="store_true")
    sp.set_defaults(fn=cmd_sieve)

    sp = sub.add_parser("density")
    fam(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--testfn", default="fejer:0.3")
    sp.add_argument("--testfn2", default=None)
    sp.add_argument("--mode", choices=["percurve", "avglog"],
                    default="percurve")
    sp.set_defaults(fn=cmd_density)

    sp = sub.add_parser("predict")
    sp.add_argument("--testfn", default="fejer:0.45")
    sp.add_argument("--testfn2", default=None)
    sp.add_argument("--rank", type=int, default=0)
    sp.add_argument("--plot-csv", default=None)
    sp.set_defaults(fn=cmd_predict)

    sp = sub.add_parser("verify-kernels")
    sp.add_argument("--testfn", default="fejer:0.9")
    sp.add_argument("--testfn2", default=None)
    sp.set_defaults(fn=cmd_verify_kernels)

    sp = sub.add_parser("report")
    fam(sp)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--testfn", default="fejer:0.3")
    sp.add_argument("--testfn2", default=None)
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # the payload is written only once the command has returned, so a
        # command that fails part way prints nothing on stdout
        buf = io.StringIO()
        status = args.fn(args, buf)
        if args.out == "-":
            sys.stdout.write(buf.getvalue())
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(buf.getvalue())
        return status
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, in quotes
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
