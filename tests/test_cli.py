import json
import os
import subprocess
import sys

import pytest

from conftest import src_env
from lowlying import density
from lowlying.cli import main
from lowlying.family import get_family


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def strip_stamp(text):
    lines = text.splitlines()
    assert lines and lines[0].startswith("# timestamp:")
    return "\n".join(lines[1:])


def test_moments_washington(capsys):
    status, out = run(capsys, "moments", "--family", "washington",
                      "--pmax", "60")
    assert status == 0
    body = strip_stamp(out).splitlines()
    assert body[0] == "p,A1,A2,A1_closed,A2_closed,match"
    assert all(row.endswith("true") for row in body[1:])


def test_conductor_csv(capsys):
    status, out = run(capsys, "conductor", "--family", "F1",
                      "--t-range", "1:5")
    assert status == 0
    rows = strip_stamp(out).splitlines()[1:]
    by_t = {r.split(",")[0]: r.split(",") for r in rows}
    assert by_t["1"][1] == "2700" and by_t["1"][3] == "true"


def test_conductor_range_rows_and_errors(capsys):
    from lowlying.tate import conductor

    status, out = run(capsys, "conductor", "--family", "washington",
                      "--t-range=-3:4")
    assert status == 0
    f = get_family("washington")
    rows = [r.split(",") for r in strip_stamp(out).splitlines()[1:]]
    assert [r[0] for r in rows] == [str(t) for t in range(-3, 5)]
    for r in rows:
        C, complete = conductor(f, int(r[0]))
        assert r[1] == str(C) and r[4] == str(complete).lower()
    for bad, why in (("5:1", "LO = 5 is greater than HI = 1"),
                     ("5", "expected LO:HI"), ("a:b", "expected LO:HI")):
        with pytest.raises(SystemExit) as exc:
            main(["conductor", "--family", "F1", "--t-range", bad])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--t-range" in err and why in err, err
    with pytest.raises(SystemExit):
        main(["conductor", "--help"])
    assert "--t-range=-2:2" in " ".join(capsys.readouterr().out.split())


def test_sieve_json(capsys):
    status, out = run(capsys, "sieve", "--family", "F1", "--N", "100")
    assert status == 0
    payload = strip_stamp(out)
    json_part = payload[payload.index("{"):]
    obj = json.loads(json_part)
    assert obj["N"] == 100 and obj["good_count"] > 50


def test_predict_json(capsys):
    status, out = run(capsys, "predict", "--testfn", "fejer:0.45",
                      "--testfn2", "fejer:0.45")
    assert status == 0
    obj = json.loads(strip_stamp(out))
    assert abs(obj["d2"]["SOeven"] - 0.765625) < 1e-9


@pytest.mark.parametrize("extra", [(), ("--testfn2", "fejer:0.2")])
def test_predict_negative_rank_fails(capsys, extra):
    status = main(["predict", "--testfn", "fejer:0.2", *extra,
                   "--rank", "-1"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert "error: rank must be non-negative" in captured.err


def test_unknown_family_fails(capsys):
    status = main(["moments", "--family", "nope", "--pmax", "20"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err == (
        "error: unknown family 'nope'; presets: ['F1', 'F2minus', "
        "'F2plus', 'rank1', 'rank6', 'washington']\n")


@pytest.mark.parametrize("pmax", ["4", "-1"])
def test_moments_small_pmax_fails(capsys, pmax):
    status = main(["moments", "--family", "washington", "--pmax", pmax])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert "error: pmax must be at least 5" in captured.err
    assert f"got {pmax}" in captured.err


@pytest.mark.parametrize("argv", [
    ("predict", "--testfn", "fejer:nan"),
    ("density", "--family", "F1", "--N", "300", "--testfn", "fejer:inf"),
    ("density", "--family", "F1", "--N", "300", "--testfn", "fejer:0.2",
     "--testfn2", "smoothbump:nan"),
])
def test_nonfinite_sigma_fails(capsys, argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert "error: sigma must be finite and positive" in captured.err


@pytest.mark.parametrize("spec", ["fejer", "fejer:", "fejer:abc",
                                  "fejer:0.3:1"])
def test_testfn_without_sigma_fails(capsys, spec):
    status = main(["density", "--family", "F1", "--N", "50", "--testfn",
                   spec])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert f"error: test function {spec!r} has " in captured.err
    assert ("has no sigma" in captured.err) == (spec.partition(":")[2] == "")
    assert "kind:sigma, e.g. 'fejer:0.3'" in captured.err


@pytest.mark.parametrize("X", ["0", "-7"])
def test_rank_small_X_fails(X):
    p = subprocess.run(
        [sys.executable, "-m", "lowlying.cli", "rank", "--family",
         "washington", "--X", X],
        capture_output=True, text=True, env=src_env(), timeout=30)
    assert p.returncode == 2 and p.stdout == ""
    assert "error: X must be at least 2" in p.stderr
    assert "Traceback" not in p.stderr


def test_rank_X_beyond_sieve_limit_fails(capsys, monkeypatch):
    # refused before the 2 GB sieve: the spy fails the test rather than
    # allocate it
    import numpy as np
    real_ones = np.ones

    def guarded(shape, *args, **kwargs):
        assert np.prod(shape) < 10 ** 8, shape
        return real_ones(shape, *args, **kwargs)

    monkeypatch.setattr(np, "ones", guarded)
    status = main(["rank", "--family", "washington", "--X", "2000000000"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert "error:" in captured.err and "10^9" in captured.err


def test_density_inadmissible_pair_fails_fast():
    # sigma1 + sigma2 = 1: rejected before the sieve and the prime walk
    p = subprocess.run(
        [sys.executable, "-m", "lowlying.cli", "density", "--family", "F1",
         "--N", "300", "--testfn", "fejer:0.5", "--testfn2", "fejer:0.5"],
        capture_output=True, text=True, env=src_env(), timeout=30)
    assert p.returncode == 2 and p.stdout == ""
    assert "error:" in p.stderr and "sigma1 + sigma2 < 1" in p.stderr


def test_density_prime_cutoff_beyond_bound_fails(capsys):
    # C_max^sigma overflows a float here; the bound is checked in log space
    status = main(["density", "--family", "F1", "--N", "300",
                   "--testfn", "fejer:1000"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert "error:" in captured.err and "sigma" in captured.err


@pytest.mark.parametrize("extra", [(), ("--testfn2", "fejer:0.15")])
def test_report_sieves_once(capsys, monkeypatch, extra):
    # one density run serves both levels: one sieve, one log C pass and
    # one a_t(p) table per prime, with or without a 2-level pair
    calls = {"sieve": 0, "logC": 0}
    primes = []
    real_sieve, real_logc = density.enumerate_good, density.log_conductors
    real_ap = density.ap_table

    def sieve(*args, **kwargs):
        calls["sieve"] += 1
        return real_sieve(*args, **kwargs)

    def logc(*args, **kwargs):
        calls["logC"] += 1
        return real_logc(*args, **kwargs)

    def ap_table(f, p):
        primes.append(p)
        return real_ap(f, p)

    monkeypatch.setattr(density, "enumerate_good", sieve)
    monkeypatch.setattr(density, "log_conductors", logc)
    monkeypatch.setattr(density, "ap_table", ap_table)
    status, out = run(capsys, "report", "--family", "F1", "--N", "200",
                      "--testfn", "fejer:0.2", *extra)
    assert status == 0
    obj = json.loads(strip_stamp(out))
    assert calls == {"sieve": 1, "logC": 1}
    assert primes and len(primes) == len(set(primes))
    rep = real_sieve(get_family("F1"), 200)
    assert obj["sieve"] == {"good_count": int(rep.good_t.size),
                            "c_F_estimate": rep.c_F_estimate}


def test_report_density_block_same_with_testfn2(capsys):
    argv = ["report", "--family", "F1", "--N", "300", "--testfn", "fejer:0.2"]
    _, plain = run(capsys, *argv)
    _, both = run(capsys, *argv, "--testfn2", "fejer:0.1")
    plain, both = json.loads(strip_stamp(plain)), json.loads(strip_stamp(both))
    assert both["density"] == plain["density"]
    assert both["density2"]["D1_emp"] == both["density"]["D1_emp"]


def test_density_report(capsys):
    status, out = run(capsys, "density", "--family", "F1", "--N", "300",
                      "--testfn", "fejer:0.25")
    assert status == 0
    obj = json.loads(strip_stamp(out))
    assert obj["n_curves"] > 150
    assert set(obj["predictions"]) == {"SOeven", "O", "SOodd", "Sp", "U"}


def test_density_avglog_mode(capsys):
    status, out = run(capsys, "density", "--family", "F1", "--N", "300",
                      "--testfn", "fejer:0.25", "--mode", "avglog")
    assert status == 0
    assert json.loads(strip_stamp(out))["normalization"] == \
        "AverageLogConductor"


def test_report_determinism_across_threads():
    """Same report bytes with library thread pools at 1 and at every CPU."""
    outs = []
    for n in (1, os.cpu_count() or 8):
        env = src_env(OMP_NUM_THREADS=str(n), OPENBLAS_NUM_THREADS=str(n))
        p = subprocess.run(
            [sys.executable, "-m", "lowlying.cli", "report", "--family", "F1",
             "--N", "200", "--testfn", "fejer:0.25"],
            capture_output=True, text=True, env=env, check=True)
        outs.append(strip_stamp(p.stdout))
    assert outs[0] == outs[1]


def test_verify_kernels_determinism_across_threads():
    """Same verify-kernels bytes with thread pools at 1 and at every CPU."""
    outs = []
    for n in (1, os.cpu_count() or 8):
        env = src_env(OMP_NUM_THREADS=str(n), OPENBLAS_NUM_THREADS=str(n))
        p = subprocess.run(
            [sys.executable, "-m", "lowlying.cli", "verify-kernels",
             "--testfn", "fejer:0.9", "--testfn2", "fejer:0.45"],
            capture_output=True, text=True, env=env, check=True)
        outs.append(strip_stamp(p.stdout))
    assert outs[0] == outs[1]


def test_verify_kernels_small(capsys):
    status, out = run(capsys, "verify-kernels", "--testfn", "fejer:0.9",
                      "--testfn2", "fejer:0.45")
    assert status == 0
    rows = strip_stamp(out).splitlines()[1:]
    assert len(rows) == 10 and all(r.endswith("true") for r in rows)
