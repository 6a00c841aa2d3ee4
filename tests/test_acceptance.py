"""Acceptance gate: one test per criterion, printed as one line each.

Runs the full measurement for every criterion at the stated tolerances.
Expensive density runs are cached at module scope so sub-checks share them.
"""

import functools
import math
import os
import subprocess
import sys

import pytest

from conftest import src_env
from lowlying.density import d1_empirical, d2_empirical
from lowlying.family import get_family
from lowlying.modarith import (MomentTable, closed_form_moments,
                               nagao_estimate, primes_upto)
from lowlying.polyint import poly
from lowlying.predict import kernel_crosscheck, primesum_check
from lowlying.sqsieve import cardinality_constant, enumerate_good, nu
from lowlying.tate import conductor
from lowlying.testfn import make_fejer


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1: exact moment closed forms, 3 < p <= 199 ----------------------------

def test_criterion_1_moments_exact():
    bad = []
    for label in ("F1", "F2plus", "F2minus", "washington", "rank1"):
        tab = MomentTable.build(get_family(label), 199)
        for p, (a1, a2) in sorted(tab.entries.items()):
            c1, c2 = closed_form_moments(label, p)
            if a1 != c1 or (c2 is not None and a2 != c2):
                bad.append((label, p, a1, c1, a2, c2))
    report(1, not bad,
           f"exact first/second moments vs closed forms, 5 families, "
           f"3 < p <= 199; mismatches: {bad[:3]}")


# -- 2: rank-6 family first-moment trend -----------------------------------

def test_criterion_2_rank6_trend():
    tab = MomentTable.build(get_family("rank6"), 1500, second=False)
    vals = [-a1 / p for p, (a1, _) in tab.entries.items() if p > 100]
    mean = sum(vals) / len(vals)
    report(2, 5.7 <= mean <= 6.3,
           f"mean of -A1(p)/p over 100 < p <= 1500 is {mean:.4f}, "
           f"required within [5.7, 6.3]")


# -- 3: Nagao rank sums at X = 10^4 ----------------------------------------

def test_criterion_3_nagao():
    X = 10 ** 4
    theta = sum(math.log(p) for p in primes_upto(X))
    rows, ok = [], True
    for label, r in (("F1", 0), ("washington", 1), ("rank1", 1)):
        est = nagao_estimate(get_family(label), X)
        d_theta = abs(est - r * theta / X)
        d_int = abs(est - r)
        ok &= d_theta <= 0.02 and d_int <= 0.05
        rows.append(f"{label}: est {est:.4f} (|.-r*theta/X| {d_theta:.4f}, "
                    f"|.-r| {d_int:.4f})")
    report(3, ok, "; ".join(rows) + "; tolerances 0.02 / 0.05")


# -- 4: conductor polynomials on >= 100 good fibers ------------------------

@pytest.mark.parametrize("label", ["F1", "F2plus", "washington", "rank1"])
def test_criterion_4_conductors(label):
    f = get_family(label)
    good = [int(t) for t in
            enumerate_good(f, 1000, exact=True).good_t[:120]]
    assert len(good) >= 100
    n_match, example = 0, None
    for t in good:
        c, complete = conductor(f, t)
        want = f.expected_conductor.eval(t)
        if complete and c == want:
            n_match += 1
        elif example is None:
            example = (t, c, want)
    verdict = ""
    if label == "washington":
        verdict = (". The functional-equation oracle (tests/test_tate.py) "
                   "holds for the computed conductors and rejects the "
                   "target, which lacks the square of 144t^2 + 60t + 13; "
                   "the target is kept because it is the density "
                   "normalization of the washington runs")
    report(4, n_match == len(good),
           f"{label}: {n_match}/{len(good)} fibers match the target "
           f"conductor polynomial; first mismatch (t, computed, target) = "
           f"{example}{verdict}")


# -- 5: square-free sieve --------------------------------------------------

def test_criterion_5_sieve():
    D = poly(1, 9)
    ok = nu(D, 2) == 1 and nu(D, 3) == 0
    sf = [d for d in range(2, 51)
          if all(e == 1 for p, e in _factor(d).items())]
    for d1 in sf:
        for d2 in sf:
            if d1 * d2 > 50 or math.gcd(d1, d2) != 1:
                continue
            brute = sum(1 for t in range(d1 * d1 * d2 * d2)
                        if D.eval(t) % (d1 * d1 * d2 * d2) == 0)
            ok &= nu(D, d1 * d2) == nu(D, d1) * nu(D, d2) == brute
    diffs = []
    for label in ("F1", "washington"):
        fam = get_family(label)
        dens = enumerate_good(fam, 10 ** 5).good_t.size / 10 ** 5
        c = cardinality_constant(fam, 1000)
        diffs.append(abs(dens - c))
        ok &= abs(dens - c) <= 0.02
    report(5, ok,
           f"nu(2)=1, nu(3)=0 for 9t+1; multiplicativity vs brute force "
           f"d <= 50; density-vs-Euler gaps at N=1e5: "
           f"{[round(d, 4) for d in diffs]} (tol 0.02)")


def _factor(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


# -- 6: kernel identities --------------------------------------------------

def test_criterion_6_kernels():
    g1 = make_fejer(0.9)
    res1 = kernel_crosscheck(g1)
    g2 = make_fejer(0.45)
    res2 = {grp: r for grp, r in kernel_crosscheck(g2, g2).items()
            if grp in ("O", "U")}
    ok = all(r <= 1e-6 for r in res1.values()) \
        and all(r <= 1e-4 for r in res2.values())
    report(6, ok,
           f"1-level residuals {max(res1.values()):.2e} (tol 1e-6), "
           f"2-level O/U residuals {max(res2.values()):.2e} (tol 1e-4)")


# -- 7: prime-sum gaps -----------------------------------------------------

def test_criterion_7_primesums():
    g = make_fejer(1.0)
    ok, rows = True, []
    for a, m, b in ((1, 1, 0), (2, 1, 0), (1, 3, 1)):
        gaps = []
        for C_N in (10 ** 4, 10 ** 5, 10 ** 6):
            _, _, gap = primesum_check(C_N, g, a=a, m=m, b=b)
            ok &= gap <= 5 / math.log(C_N)
            gaps.append(gap)
        ok &= gaps[0] > gaps[1] > gaps[2]
        rows.append(f"(a={a},m={m}): {[round(x, 4) for x in gaps]}")
    report(7, ok, "gaps vs 5/log C_N, decreasing over C_N in "
           "{1e4,1e5,1e6}; " + "; ".join(rows))


# -- 8: empirical densities (cached runs shared by the sub-checks) ---------

@functools.lru_cache(maxsize=None)
def _d1_run(label, sigma, N):
    return d1_empirical(get_family(label), N, make_fejer(sigma))


@functools.lru_cache(maxsize=None)
def _d2_run(label, sigma, N):
    g = make_fejer(sigma)
    return d2_empirical(get_family(label), N, g, g)


def test_criterion_8a_f1_one_level_tolerance():
    rep = _d1_run("F1", 0.30, 10 ** 4)
    resid = abs(rep.D1_emp - 1.15)
    report("8a", resid <= 0.10,
           f"F1 Fejer(0.30) N=1e4: D1 {rep.D1_emp:.4f}, |D1 - 1.15| = "
           f"{resid:.4f} (tol 0.10). The gap is the estimator's "
           f"finite-conductor bias: it counts the constant part of the "
           f"p^{{-2}} term at its limit g(0), while S2 is summed only below "
           f"C^(sigma/2), where a_p vanishes for p = 2 mod 3 and a handful "
           f"of split primes carry the sum. Both prime sums tend to their "
           f"limits by the prime number theorem in progressions, so the gap "
           f"decays like 1/log C, too slowly to close at desk scale (8b "
           f"tracks the decay)")


def test_criterion_8b_f1_residual_trend():
    resids = [abs(_d1_run("F1", 0.30, N).D1_emp - 1.15)
              for N in (10 ** 3, 4 * 10 ** 3, 16 * 10 ** 3)]
    mono = all(a >= b - 1e-12 for a, b in zip(resids, resids[1:]))
    report("8b", mono,
           f"F1 residual non-increasing across N in {{1e3,4e3,1.6e4}}: "
           f"{[round(r, 4) for r in resids]}")


def test_criterion_8c_washington_one_level():
    rep = _d1_run("washington", 0.30, 10 ** 4)
    resid = abs(rep.D1_emp - 1.45)
    report("8c", resid <= 0.15,
           f"washington Fejer(0.30) N=1e4: D1 {rep.D1_emp:.4f}, "
           f"|D1 - 1.45| = {resid:.4f} (tol 0.15)")


def test_criterion_8d_f1_two_level_tolerance():
    rep = _d2_run("F1", 0.15, 10 ** 4)
    r_even = rep.residuals["SOeven"]
    report("8d", r_even <= 0.2,
           f"F1 2-level Fejer(0.15)^2 N=1e4: D2 {rep.D2_emp:.4f}, "
           f"residual vs SO(even) {r_even:.4f} (tol 0.2)")


def test_criterion_8e_f1_two_level_directional():
    rep = _d2_run("F1", 0.15, 10 ** 4)
    r_even, r_odd = rep.residuals["SOeven"], rep.residuals["SOodd"]
    report("8e", r_even < r_odd,
           f"F1 2-level: residual vs SO(even) {r_even:.4f} must be < "
           f"residual vs SO(odd) {r_odd:.4f}. At N=1e4 the empirical D2 "
           f"{rep.D2_emp:.4f} sits above both predictions "
           f"({rep.predictions['SOeven']:.4f}, "
           f"{rep.predictions['SOodd']:.4f}): the squared-bracket average "
           f"carries a positive truncation bias (~0.07 per factor, only "
           f"one split prime enters the p^{{-2}} sum below C^0.075) that "
           f"exceeds the half-g(0)^2 gap of 0.0225 between the two groups")


# -- 9: determinism of criterion-8 runs across thread counts ---------------

def test_criterion_9_determinism(tmp_path):
    outs = []
    for n in (1, os.cpu_count() or 8):
        env = src_env(OMP_NUM_THREADS=str(n), OPENBLAS_NUM_THREADS=str(n))
        p = subprocess.run(
            [sys.executable, "-m", "lowlying.cli", "report",
             "--family", "F1", "--N", "10000", "--testfn", "fejer:0.3"],
            capture_output=True, text=True, env=env, check=True)
        lines = p.stdout.splitlines()
        assert lines[0].startswith("# timestamp:")
        outs.append("\n".join(lines[1:]))
    report(9, outs[0] == outs[1],
           "report --family F1 --N 10000 --testfn fejer:0.3 byte-identical "
           "at 1 and max threads (timestamp header line excluded)")
