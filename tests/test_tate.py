import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowlying.family import (DegenerateFamilyError, FamilyDef, SignRule,
                             SingularFiberError, _bc_invariants, get_family,
                             load_family, sign)
from lowlying.modarith import a_p_enumerate, chi_table, is_prime, primes_upto
from lowlying.polyint import IntPoly, gcd, poly, radical
from lowlying.sqsieve import enumerate_good
from lowlying import tate
from lowlying.tate import (_iroot, _transform, _vp, conductor, conductors,
                           factorize, tate_local)

# Curves with well-known conductors, including wild 2- and 3-adic types.
KNOWN = [
    ((0, -1, 1, -10, -20), {11: 1}),          # 11a1
    ((1, 1, 1, -10, -10), {3: 1, 5: 1}),      # 15a1
    ((1, -1, 1, -1, -14), {17: 1}),           # 17a1
    ((0, 1, 0, 4, 4), {2: 2, 5: 1}),          # 20a1
    ((0, -1, 0, -4, 4), {2: 3, 3: 1}),        # 24a1
    ((0, 0, 1, 0, -7), {3: 3}),               # 27a1
    ((0, 0, 0, 0, -432), {2: 0, 3: 3}),       # 27a1: r = t = 0 at 3
    ((0, 0, 0, 4, 0), {2: 5}),                # 32a1
    ((0, 0, 0, 0, 1), {2: 2, 3: 2}),          # 36a1
    ((0, 0, 1, -1, 0), {37: 1}),              # 37a1
    ((1, -1, 0, -2, -1), {7: 2}),             # 49a1
    ((0, 0, 0, -4, 0), {2: 6}),               # 64a
]


def test_known_conductor_exponents():
    for ai, exps in KNOWN:
        for p, f_exp in exps.items():
            ld = tate_local(ai, p)
            assert ld.f_p == f_exp, (ai, p, ld)


def test_good_reduction():
    ld = tate_local((0, 0, 0, -1, 1), 5)  # delta = -368, coprime to 5
    assert ld.f_p == 0 and ld.reduction_type == "Good"


def _blow_up(ai, u):
    """The isomorphic model with a_i scaled by u^i: discriminant u^12 delta."""
    return tuple(a * u ** i for a, i in zip(ai, (1, 2, 3, 4, 6)))


def _random_curve(rng, p):
    """Random small curves, many of them additive at p: each coefficient
    carries a random power of p up to its weight."""
    while True:
        if rng.random() < 0.5:
            ai = tuple(rng.randint(-20, 20) for _ in range(5))
        else:
            ai = tuple(rng.randint(-5, 5) * p ** rng.randint(0, k)
                       for k in (1, 2, 3, 4, 6))
        if _bc_invariants(*ai)[6] != 0:
            return ai


# Tame reduction at p > 3: Kodaira symbol by v(delta) on a minimal model;
# v(delta) = 6 + m with v(c4) = 2 is I_m*, otherwise 8, 9, 10 are the stars.
TAME_KODAIRA = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*",
                10: "II*"}


def _valuation_oracle(ai, p):
    """(f_p, Kodaira symbol) at p > 3 from (v(delta), v(c4), v(c6)) alone,
    after removing (12, 4, 6) while all three valuations allow it."""
    _, _, _, _, c4, c6, delta = _bc_invariants(*ai)
    vd = _vp(delta, p)
    vc4 = _vp(c4, p) if c4 else math.inf
    vc6 = _vp(c6, p) if c6 else math.inf
    while vd >= 12 and vc4 >= 4 and vc6 >= 6:
        vd, vc4, vc6 = vd - 12, vc4 - 4, vc6 - 6
    if vd == 0:
        return 0, "I0"
    if vc4 == 0:
        return 1, f"I{vd}"
    if vd > 6 and vc4 == 2:
        return 2, f"I{vd - 6}*"
    return 2, TAME_KODAIRA[vd]


def test_tate_local_matches_valuation_table():
    rng = random.Random(7)
    seen = set()
    for p in (5, 7, 11, 13):
        for _ in range(600):
            ai = _random_curve(rng, p)
            if rng.random() < 0.3:
                ai = _blow_up(ai, rng.choice((5, 7, 25)))
            ld = tate_local(ai, p)
            assert (ld.f_p, ld.kodaira) == _valuation_oracle(ai, p), (ai, p)
            seen.add(ld.kodaira)
    assert {"II", "III", "IV", "I0*", "I1*", "I2*", "IV*", "III*",
            "II*"} <= seen, seen


def test_tate_local_invariant_under_coordinate_change():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        for _ in range(250):
            ai = _random_curve(rng, p)
            r, s, t = (rng.randint(-50, 50) for _ in range(3))
            moved = _transform(ai, r, s, t)
            assert _bc_invariants(*moved)[4:] == _bc_invariants(*ai)[4:]
            want = tate_local(ai, p)
            for model in (moved, _blow_up(moved, rng.choice((2, 3, 6)))):
                ld = tate_local(model, p)
                assert (ld.f_p, ld.kodaira) == (want.f_p, want.kodaira), \
                    (ai, model, p)


def test_nonminimal_restart():
    # u = 6 blow-up of 11a1 must still give f_11 = 1 and f_2 = f_3 = 0
    blown = _blow_up((0, -1, 1, -10, -20), 6)
    assert tate_local(blown, 11).f_p == 1
    assert tate_local(blown, 2).f_p == 0
    assert tate_local(blown, 3).f_p == 0


@given(st.integers(2, 10 ** 9))
@settings(max_examples=120, deadline=None)
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = fac.cofactor
    for p, e in fac.prime_powers.items():
        assert is_prime(p)
        prod *= p ** e
    assert prod == n


def test_factorize_complete_moderate(monkeypatch):
    fac = factorize(2 ** 10 * 3 ** 4 * 1009 * 99991)
    assert fac.cofactor == 1
    assert fac.prime_powers == {2: 10, 3: 4, 1009: 1, 99991: 1}
    # q^2 r with primes q, r in (10^4, 10^6): no trial prime divides it,
    # so rho splits it; with no rho seeds it stays whole as the cofactor
    q, r = 10007, 999983
    fac = factorize(q * q * r)
    assert fac.cofactor == 1 and fac.prime_powers == {q: 2, r: 1}
    monkeypatch.setattr(tate, "_RHO_SEEDS", 0)
    assert factorize(q * q * r).cofactor == q * q * r


@pytest.mark.parametrize("seeds", [64, 0])
@pytest.mark.parametrize("n", [1, 10007, 10007 ** 2, 10007 * 10009,
                               10 ** 9 + 7, (10 ** 9 + 7) ** 2])
def test_factorize_prime_powers_and_cofactors(monkeypatch, n, seeds):
    # parts above the trial bound: a part below 10^8 is prime, a larger
    # one (10007 * 10009 = 100,160,063) goes to the prime test
    from sympy import factorint, isprime

    monkeypatch.setattr(tate, "_RHO_SEEDS", seeds)
    fac = factorize(n)
    want = factorint(n)
    assert all(want[p] == e for p, e in fac.prime_powers.items())
    left = {p: e for p, e in want.items() if p not in fac.prime_powers}
    assert fac.cofactor == math.prod(p ** e for p, e in left.items())
    if seeds or n != 10007 * 10009:
        assert fac.cofactor == 1
    else:
        assert not isprime(fac.cofactor)


def test_factorize_small_parts_skip_prime_test(monkeypatch):
    # rho splits 10007 * (10^9 + 7); the part 10007 < 10^8 is prime
    # without a Miller-Rabin run
    args = []
    real = tate.is_prime

    def spy(n):
        args.append(n)
        return real(n)

    monkeypatch.setattr(tate, "is_prime", spy)
    fac = factorize(10007 * (10 ** 9 + 7))
    assert fac.prime_powers == {10007: 1, 10 ** 9 + 7: 1}
    assert args and min(args) >= 10 ** 8


def test_factorize_hard_semiprime_stays_whole():
    # two 30-digit primes: rho's capped steps cannot split them, so the
    # product comes back promptly as the cofactor instead of hanging
    from sympy import nextprime

    n = nextprime(10 ** 29 + 7) * nextprime(3 * 10 ** 29 + 11)
    start = time.perf_counter()
    fac = factorize(n)
    assert time.perf_counter() - start < 10.0
    assert fac.cofactor == n and fac.prime_powers == {}


def test_conductor_incomplete_with_default_budget():
    # 9t + 1 = q1 q2 with 20-digit primes q1, q2 = 1 mod 9: the default
    # _RHO_SEEDS give up on them and conductor reports incomplete data
    q1, q2 = (next(q for q in range(start, start + 10 ** 4, 18) if is_prime(q))
              for start in (10 ** 19 + 9, 3 * 10 ** 19 + 7))
    assert q1 % 9 == q2 % 9 == 1
    f1 = get_family("F1")
    t = (q1 * q2 - 1) // 9
    C, complete = conductor(f1, t)
    assert not complete and C % (q1 * q2) == 0


@given(st.integers(1, 10 ** 120), st.integers(2, 19))
@settings(max_examples=300, deadline=None)
def test_iroot_is_floor_root(n, k):
    r = _iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


def test_factorize_high_prime_powers():
    # exponents beyond 5 on primes above the trial bound: the perfect-power
    # step takes every k up to log(m) / log(10^4), with exact integer roots
    q, r = 500009, 100003
    for n, want in ((q ** 13, {q: 13}), (q ** 11 * r, {q: 11, r: 1}),
                    (10007 ** 17 * r ** 2, {10007: 17, r: 2})):
        fac = factorize(n)
        assert fac.cofactor == 1 and fac.prime_powers == want


def test_conductor_f1_examples():
    f1 = get_family("F1")
    # fiber t=1, p=5 appears with exponent 2 in 27*(9t+1)^2
    ld = tate_local(f1.specialize(1), 5)
    assert ld.f_p == 2
    C, complete = conductor(f1, 1)
    assert complete and C == 2700


def test_conductor_matches_f1_f2():
    for name in ("F1", "F2plus", "F2minus"):
        fam = get_family(name)
        for t in (1, 2, 5, 9, 14):
            if fam.inv["D"].eval(t) % 4 == 0:
                continue
            C, complete = conductor(fam, t)
            assert complete
            exp = fam.expected_conductor.eval(t)
            # only good (square-free D) fibers must match
            from sympy import factorint
            if all(e == 1 for e in factorint(fam.inv["D"].eval(t)).values()):
                assert C == exp, (name, t, C, exp)


# The slow route: every prime of the full discriminant delta(t).  rank6 is
# left out because its delta(t) has 124 digits, which factorize cannot
# split within the time budget of the unit tests.
ORACLE_FAMILIES = ["F1", "F2plus", "F2minus", "washington", "rank1",
                   Path(__file__).resolve().parents[1] / "perfbench" / "F1-tate.json"]


@pytest.mark.parametrize("name", ORACLE_FAMILIES,
                         ids=lambda n: getattr(n, "name", n))
def test_conductor_matches_delta_route(name):
    f = load_family(name) if isinstance(name, Path) else get_family(name)
    content = f.inv["delta"].content()
    # the partial sieve keeps fibers with square factors beyond d_max
    ts = list(range(-50, 51)) + [int(t) for t in enumerate_good(f, 1000).good_t[:150]]
    checked = 0
    for t in ts:
        delta = f.delta_at(t)
        if delta == 0:
            continue
        full = factorize(abs(delta))
        short = factorize(abs(content * f.inv["D"].eval(t)))
        assert full.cofactor == short.cofactor == 1, t
        assert set(full.prime_powers) == set(short.prime_powers), t
        ai = f.specialize(t)
        want = math.prod(p ** tate_local(ai, p).f_p for p in full.prime_powers)
        assert conductor(f, t) == (want, True), t
        checked += 1
    assert checked >= 240


def test_conductor_incomplete_multiplies_cofactor_once(monkeypatch):
    # 9t + 1 = q1 q2 with primes q1, q2 > 10^6 that no rho seed splits.
    # F1's delta(t) = 2^12 3^9 (9t+1)^4, so the cofactor is left once, as the
    # documented rule says, and not as (q1 q2)^4.  (On F1 the rule's
    # multiplicative assumption is false: c4 = 0 and the true exponent is 2.)
    q1, q2 = (next(q for q in range(start, start + 10 ** 4, 18) if is_prime(q))
              for start in (10 ** 6 + 9, 2 * 10 ** 6 + 17))
    assert q1 % 9 == q2 % 9 == 1 and q1 < q2
    n = q1 * q2
    f1 = get_family("F1")
    t = (n - 1) // 9
    assert f1.inv["D"].eval(t) == n
    monkeypatch.setattr(tate, "_RHO_SEEDS", 0)
    C, complete = conductor(f1, t)
    assert not complete
    assert C % n == 0 and math.gcd(C // n, n) == 1
    assert C == n * math.prod(p ** tate_local(f1.specialize(t), p).f_p
                              for p in (2, 3))


def test_rescales_nonminimal_model_with_a2():
    # washington at t = 1062 is (0, 12745, 0, -12748, 1): not minimal at 7,
    # and a2 != 0, so u = 7 cannot rescale it without a translation.
    f = get_family("washington")
    ai = f.specialize(1062)
    assert conductor(f, 1062)[1]
    ld = tate_local(ai, 7)
    assert ld.f_p == 0
    assert all(isinstance(a, int) for a in ld.minimal_model)
    _, _, _, _, c4, _, delta = _bc_invariants(*ai)
    _, _, _, _, c4_min, _, delta_min = _bc_invariants(*ld.minimal_model)
    assert Fraction(c4_min ** 3, delta_min) == Fraction(c4 ** 3, delta)
    assert _vp(delta_min, 7) == _vp(delta, 7) - 12


# -- functional-equation oracle for conductors and root numbers ------------
#
# Lambda(s) = (sqrt(N)/2pi)^s Gamma(s) L(E, s) = eps Lambda(2 - s) holds
# exactly when theta(x) = sum_n a_n exp(-2 pi n x / sqrt(N)) satisfies
# theta(1/x) = eps x^2 theta(x) for x > 0 (Dokchitser, math/0207280).  A
# wrong N or eps leaves a defect of order 0.1-10 at x near 1.

FE_X = (1.1, 1.2)
FE_TOL = 1e-8

# y^2 = x^3 + 4(2t+1)x: D(t) = 2t+1 is odd, so the quartic rule's w_2 flips
# where D(t) = 1, 3, 11 or 13 mod 16; on the presets D(t) = 2 mod 4, so it
# never flips
QUARTIC_ODD = FamilyDef("quartic-odd", *[poly()] * 3, poly(4, 8), poly(),
                        sign_rule=SignRule("BirchStephensQuartic", poly(1, 2)))

# washington and rank1 fibers, whose stated conductor polynomials disagree
# with Tate's algorithm, good F1 and F2plus fibers as controls, and
# quartic-odd at D(t) = 1, 3, 13 and 11 mod 16.
FE_FIBERS = [("washington", -1), ("washington", 0), ("washington", 1),
             ("rank1", -1), ("rank1", 0), ("rank1", 1),
             ("F1", 1), ("F1", 2), ("F2plus", 0), ("F2plus", 1),
             ("quartic-odd", 0), ("quartic-odd", 1), ("quartic-odd", -2),
             ("quartic-odd", -3)]


def _a_p(ai, p):
    """p + 1 minus the points of the reduction of ai mod p, its singular
    point included, so that on a model minimal at p it is a_p at bad p too."""
    if p == 2:
        return a_p_enumerate(ai, 2)
    b2, b4, b6 = (b % p for b in _bc_invariants(*ai)[:3])
    x = np.arange(p, dtype=np.int64)
    g = (((4 * x + b2) % p * x + 2 * b4) % p * x + b6) % p
    return -int(chi_table(p)[g].astype(np.int64).sum())


def _dirichlet_coeffs(f, t, nmax):
    """a_0..a_nmax of L(E_t, s) (a_0 = 0).  At p dividing the discriminant,
    a_p comes from the model Tate's algorithm returns as minimal at p."""
    ai = f.specialize(t)
    fac = factorize(abs(f.delta_at(t)))
    assert fac.cofactor == 1
    an = np.ones(nmax + 1)
    an[0] = 0.0
    for p in primes_upto(nmax):
        ld = tate_local(ai, p) if p in fac.prime_powers else None
        good = ld is None or ld.f_p == 0
        ap = _a_p(ai if ld is None else ld.minimal_model, p)
        prev, cur, q = 1, ap, p
        while q <= nmax:
            n = np.arange(q, nmax + 1, q)
            an[n[n % (q * p) != 0]] *= cur
            prev, cur = cur, ap * cur - (p * prev if good else 0)
            q *= p
    return an


def _fe_defects(f, t, N):
    """max over FE_X of |theta(1/x) - eps x^2 theta(x)|, for eps = +1, -1."""
    # exp(-2 pi n / (1.2 sqrt N)) < e^-41 beyond n = 8 sqrt N
    an = _dirichlet_coeffs(f, t, int(8 * math.sqrt(N)) + 20)
    n = np.arange(an.size)

    def theta(x):
        return float(an @ np.exp(-2 * math.pi * n * x / math.sqrt(N)))

    return {eps: max(abs(theta(1 / x) - eps * x * x * theta(x)) for x in FE_X)
            for eps in (1, -1)}


@pytest.mark.parametrize("label,t", FE_FIBERS)
def test_functional_equation(label, t):
    f = QUARTIC_ODD if label == QUARTIC_ODD.label else get_family(label)
    N, complete = conductor(f, t)
    assert complete
    defects = _fe_defects(f, t, N)
    if f.sign_rule.kind == "Equidistributed":
        # exactly one sign holds
        holds = [d <= FE_TOL for d in defects.values()]
        assert sorted(holds) == [False, True], (N, defects)
    else:
        assert defects[sign(f, t)] <= FE_TOL, (N, sign(f, t), defects)


@pytest.mark.parametrize("label,divisor", [("washington", 1), ("rank1", 2)])
def test_functional_equation_rejects_target_polynomials(label, divisor):
    # washington's preset polynomial lacks the square of 144t^2 + 60t + 13;
    # rank1's former target 4 (4(6t+1)^3 + 27) had f_2 = 2 where Ogg gives 3.
    f = get_family(label)
    for t in (-1, 0, 1):
        N = abs(f.expected_conductor.eval(t)) // divisor
        assert N != conductor(f, t)[0]
        assert min(_fe_defects(f, t, N).values()) > 0.05, (label, t, N)


# -- conductors of a whole set: one sieve, the local exponent rule ---------

F1_TATE = ORACLE_FAMILIES[-1]
PRESET_NAMES = ["F1", "F2plus", "F2minus", "washington", "rank1", "rank6",
                F1_TATE]


def _family(name):
    return load_family(name) if isinstance(name, Path) else get_family(name)


def _hard_f1_fiber():
    """t with 9t + 1 = q1 q2, 20-digit primes the default _RHO_SEEDS
    cannot split, and t beyond int64."""
    q1, q2 = (next(q for q in range(start, start + 10 ** 4, 18) if is_prime(q))
              for start in (10 ** 19 + 9, 3 * 10 ** 19 + 7))
    return (q1 * q2 - 1) // 9


def _sieve_oracle(P, ts):
    return [factorize(abs(P.eval(t))) if P.eval(t) else None for t in ts]


@pytest.mark.parametrize("name", PRESET_NAMES,
                         ids=lambda n: getattr(n, "name", n))
def test_factor_values_match_factorize(name):
    f = _family(name)
    D = f.inv["D"]
    if name == "rank6":  # 100-digit values: a few fibers, two incomplete
        ts = [-4, -2, 2, 3, 0]
    else:
        ts = (list(range(-40, 41))
              + enumerate_good(f, 2000).good_t[:400].tolist())
    got = list(tate._factor_values(D, ts))
    assert got == _sieve_oracle(D, ts)
    for fac in got:  # prime powers, cofactor and n, not just equality
        assert fac is None or fac.n == math.prod(
            p ** e for p, e in fac.prime_powers.items()) * fac.cofactor
    if name == "rank6":
        assert sum(fac.cofactor != 1 for fac in got) == 2


def test_factor_values_incomplete_and_small_values(monkeypatch):
    # the hard semiprime of test_conductor_incomplete_with_default_budget,
    # with t beyond int64 next to small and negative t; values below 10^4
    # whose sieve bound stops short of 10^4, zeros, and a polynomial with
    # content 6 (every t hits p = 2, 3); with no rho seeds every composite
    # remainder stays whole
    f1 = get_family("F1")
    t = _hard_f1_fiber()
    small = list(range(-60, 200))
    cases = [(f1.inv["D"], [-3, t, 1, -t, 2])] + [
        (P, small) for P in (poly(0, 1), poly(5, 0, 1), poly(6, 12),
                             poly(-36, 0, 1))]
    for seeds in (64, 0):
        monkeypatch.setattr(tate, "_RHO_SEEDS", seeds)
        for P, ts in cases:
            got = list(tate._factor_values(P, ts))
            assert got == _sieve_oracle(P, ts), (P, seeds)
            if P == f1.inv["D"]:
                assert got[1].cofactor == 9 * t + 1
                assert (got[3].cofactor == 1) == (seeds > 0)


def _model_key(ai, p):
    """The key under which `conductors` stores f_p of the model ai at p."""
    _, _, _, _, c4, c6, delta = _bc_invariants(*ai)
    return (p, tate._local_class(c4, p), tate._local_class(c6, p),
            _vp(delta, p))


def _tate_keys(f, ts):
    """The distinct keys of the fibers and primes that `conductors` leaves
    to Tate: bad p with p | c4(t), and p <= 3 or p^4 | c4(t), p^6 | c6(t)."""
    content = f.inv["delta"].content()
    keys = set()
    for t in ts:
        ai = f.specialize(t)
        _, _, _, _, c4, c6, _ = _bc_invariants(*ai)
        for p in factorize(abs(content * f.inv["D"].eval(t))).prime_powers:
            if c4 % p == 0 and (p <= 3 or c4 % p ** 4 == c6 % p ** 6 == 0):
                keys.add(_model_key(ai, p))
    return keys


def _count_tate_local(monkeypatch):
    calls = []
    real = tate.tate_local

    def spy(ai, p):
        calls.append(p)
        return real(ai, p)

    monkeypatch.setattr(tate, "tate_local", spy)
    return calls


@pytest.mark.parametrize("name", PRESET_NAMES,
                         ids=lambda n: getattr(n, "name", n))
def test_conductors_match_conductor(name, monkeypatch):
    f = _family(name)
    rep = enumerate_good(f, 2000)
    # rank6: the first two fibers (one complete, one incomplete) of the set
    ts = rep.good_t[:2].tolist() if name == "rank6" else rep.good_t.tolist()
    want = [conductor(f, t) for t in ts]
    calls = _count_tate_local(monkeypatch)
    assert list(conductors(f, ts)) == want
    if name == "rank6":
        assert [c for _, c in want] == [True, False]
        return
    # the partial sieve keeps fibers with p^2 | D(t) for a p > d_max
    D = f.inv["D"]
    squares = [t for t in ts if any(
        e >= 2 and p > rep.d_max
        for p, e in factorize(abs(D.eval(t))).prime_powers.items())]
    assert squares
    if name == F1_TATE:
        # c4 = 0 and Tate runs at 2 and 3, and at a p > 3 only where
        # p^3 | D(t), so v_p(c6(t)) >= 6 and the model may not be minimal;
        # once per local key, not once per fiber
        keys = _tate_keys(f, ts)
        assert {k[0] for k in keys} == {2, 3, 31}  # D(3310) = 31^3
        assert len(calls) == len(keys) == 98


def _random_family(rng, k):
    """A family with every a_i of t-degree <= 2 and small coefficients."""
    while True:
        a = [IntPoly([rng.choice((0, 0, rng.randint(-4, 4)))
                      for _ in range(rng.randint(0, 3))])
             for _ in range(5)]
        a[4] = a[4] + IntPoly([0, rng.randint(1, 3)])  # a6 depends on t
        try:
            return FamilyDef(f"random{k}", *a)
        except DegenerateFamilyError:
            continue


def test_conductors_random_families():
    rng = random.Random(20261019)
    fams = [_random_family(rng, k) for k in range(30)]
    # c4 != 0 with an additive factor t and a multiplicative one 4t + 27
    fams.append(FamilyDef("shared", poly(), poly(), poly(), poly(0, 1),
                          poly(0, 1)))
    # y^2 = x^3 + 10007 (t + 1): content(delta) = 432 10007^2 has a prime
    # above 10^4 that D = t + 1 need not share
    fams.append(FamilyDef("content10007", poly(), poly(), poly(), poly(),
                          poly(10007, 10007)))
    kinds = set()
    for f in fams:
        D, c4 = f.inv["D"], f.inv["c4"]
        if not c4.is_zero():
            # (D shares a factor with c4, D has a factor c4 lacks)
            shared = gcd(D, radical(c4)).degree
            kinds.add((shared >= 1, shared < D.degree))
        ts = [t for t in range(-25, 60) if f.delta_at(t) != 0]
        assert list(conductors(f, ts)) == [conductor(f, t) for t in ts], f
    assert {(False, True), (True, True)} <= kinds, kinds


def test_conductors_minimal_additive_above_3_skips_tate(monkeypatch):
    # 5 divides disc(D) but not 6 content(delta): at v_5(D(t)) = 1 the
    # model is minimal at 5, so f_5 comes from c4(t) and c6(t) alone
    f = FamilyDef("five", poly(2), poly(-2), poly(-3), poly(-5, -2),
                  poly(6, 2))
    ts = list(range(-40, 200))
    assert list(conductors(f, ts)) == [conductor(f, t) for t in ts]
    D = f.inv["D"]
    once = [t for t in ts if D.eval(t) % 5 == 0 and D.eval(t) % 25]
    assert len(once) == 38
    calls = _count_tate_local(monkeypatch)
    assert list(conductors(f, once)) == [conductor(f, t) for t in once]
    # conductor runs Tate at 5 on every fiber; conductors never does
    assert calls.count(5) == len(once)


def test_conductors_multiplicative_everywhere_skips_tate(monkeypatch):
    # a1 = 1, a6 = t: c4 = 1, so every bad prime, 2 and 3 included, is
    # multiplicative and f_p = 1 with no Tate run
    f = FamilyDef("c4one", poly(1), poly(), poly(), poly(), poly(0, 1))
    assert f.inv["c4"] == poly(1)
    ts = [t for t in range(-200, 400) if f.delta_at(t) != 0]
    assert len(ts) == 599
    want = [conductor(f, t) for t in ts]
    calls = _count_tate_local(monkeypatch)
    assert list(conductors(f, ts)) == want
    assert calls == []


def test_conductors_nonminimal_family_falls_back_to_tate(monkeypatch):
    # delta = -1728 (t + 1)^12: the fibers are not minimal at the primes of
    # t + 1, where v_p(c4) >= 4 and v_p(c6) >= 6 send p to Tate; f_p = 2
    # would be wrong there (the reduction is good)
    f = FamilyDef("twelve", poly(), poly(), poly(), poly(),
                  poly(1, 1) ** 6 * 2)
    ts = [t for t in range(-30, 200) if f.delta_at(t) != 0]
    calls = _count_tate_local(monkeypatch)
    want = [conductor(f, t) for t in ts]
    content = f.inv["delta"].content()
    n_bad = sum(len(factorize(abs(content * (t + 1))).prime_powers)
                for t in ts)
    assert len(calls) == n_bad  # conductor: one Tate run per bad prime
    calls.clear()
    got = list(conductors(f, ts))
    assert got == want
    assert all(C % 5 for C, _ in got)  # t = 4, 9, ...: 5 | t + 1, good at 5
    # conductors: one Tate run per local key
    assert len(calls) == len(_tate_keys(f, ts)) < n_bad


def _spy_exact_f(monkeypatch):
    """Record (t, p) of every call of `tate._exact_f`, the local rule on
    c4(t) and c6(t) as integers."""
    calls = []
    real = tate._exact_f

    def spy(f, t, p, *args):
        calls.append((t, p))
        return real(f, t, p, *args)

    monkeypatch.setattr(tate, "_exact_f", spy)
    return calls


def test_conductors_exact_path_at_2_and_3(monkeypatch):
    # fibers whose residues mod 2^30 and 3^19 cannot give the local key
    # take the local rule on c4(t) and c6(t) as integers; keys they share
    # with residue-read fibers still get one Tate run.  F1-tate at
    # 2^5 | 9t + 1: v_2(delta) >= 32, and at 2^8 | 9t + 1 also
    # v_2(c6) > 24.  y^2 = x^3 + 3x + t: c4 = -144, c6 = -864t and
    # delta = -432(t^2 + 4), so v_2(c6) = 5 + v_2(t) and
    # v_3(c6) = 3 + v_3(t) pass K - 6 (24 and 13), where a residue keeps
    # fewer than six digits of the unit part, while v_p(delta) stays
    # small.  y^2 = x^3 + tx + 1: c4(0) = 0 on a nonsingular fiber.
    f1 = load_family(F1_TATE)
    windows = FamilyDef("windows", poly(), poly(), poly(), poly(3),
                        poly(0, 1))
    c4root = FamilyDef("c4root", poly(), poly(), poly(), poly(0, 1),
                       poly(1))
    cases = [
        (f1, list(range(-60, 60)) + [199 + 256 * k for k in range(-20, 20)],
         {2: lambda t: (9 * t + 1) % 2 ** 5 == 0}),
        (windows, list(range(1, 30))
         + [s * 2 ** e for e in range(20, 25) for s in range(1, 14)]
         + [s * 3 ** e for e in range(11, 16) for s in range(1, 14)],
         {2: lambda t: _vp(t, 2) >= 20, 3: lambda t: _vp(t, 3) >= 11}),
        (c4root, [t for t in range(-30, 30) if c4root.delta_at(t) != 0],
         {2: lambda t: t == 0, 3: lambda t: t == 0}),
    ]
    # residue chunks of 37 fibers: keys are shared across chunks too
    monkeypatch.setattr(tate, "_RESIDUE_CHUNK", 37)
    calls = _count_tate_local(monkeypatch)
    exact_calls = _spy_exact_f(monkeypatch)
    for f, ts, must in cases:
        want = [conductor(f, t) for t in ts]
        calls.clear()
        exact_calls.clear()
        assert list(conductors(f, ts)) == want, f
        assert len(calls) == len(_tate_keys(f, ts)), f
        # each fiber the residues cannot decide, once per occurrence in ts
        for p in (2, 3):
            flagged = sorted(t for t, q in exact_calls if q == p)
            exact = sorted(t for t in ts if p in must and must[p](t))
            assert flagged == exact, (f, p)
            assert (exact != []) == (p in must), (f, p)


def test_conductors_t_beyond_int64(monkeypatch):
    f1 = get_family("F1")
    t = _hard_f1_fiber()
    ts = [-3, t, 1, -t, 2]
    want = [conductor(f1, x) for x in ts]
    exact_calls = _spy_exact_f(monkeypatch)
    assert list(conductors(f1, ts)) == want
    # the residues decide f_2 and f_3 of the fibers beyond int64 too
    assert not [(x, p) for x, p in exact_calls if p <= 3 and abs(x) == t]


@pytest.mark.parametrize("name", ["F1", "washington", F1_TATE],
                         ids=lambda n: getattr(n, "name", n))
@pytest.mark.parametrize("t0", [2 ** 63, -2 ** 63], ids=["+2^63", "-2^63"])
def test_conductors_around_int64_bounds(name, t0, monkeypatch):
    # numpy reads list(range(2^63 - 8, 2^63 + 8)) as float64, so a
    # conversion that infers the dtype would give wrong residues here.
    # One rho seed: both sides leave the same hard cofactors (washington's
    # 38-digit D(t)), and f_2, f_3 do not depend on them
    monkeypatch.setattr(tate, "_RHO_SEEDS", 1)
    f = _family(name)
    ts = [t for t in range(t0 - 8, t0 + 8) if f.delta_at(t) != 0]
    assert len(ts) == 16
    assert list(conductors(f, ts)) == [conductor(f, t) for t in ts]


# -- the local key of `conductors`' Tate branch -------------------------------
#
# conductors stores f_p under (p, lam(c4), lam(c6), v_p(delta)), with
# lam(x) = (v_p(x), x / p^v_p(x) mod p^6) and lam(0) = None.  At p > 3 the
# valuations alone fix f_p: y^2 = x^3 - 27 c4 x - 54 c6 is an integral model
# with the same valuations of c4, c6 and delta (6 is a unit), so a model is
# minimal exactly when v(c4) < 4 or v(c6) < 6, and rescaling by p lowers the
# valuations by (4, 6, 12).  On the minimal model f_p is 0 if v(delta) = 0,
# 1 if v(c4) = 0, and 2 otherwise (additive reduction is tame at p >= 5).
# That is `_valuation_oracle`, which test_tate_local_matches_valuation_table
# checks against tate_local.  At p = 2 and 3, f_p also depends on
# congruences of the unit parts of c4 and c6 (Papadopoulos, J. Number
# Theory 44, 1993); the test below checks that p^6 is enough precision.


@pytest.mark.parametrize("p", (2, 3))
def test_local_key_determines_f_p(p):
    rng = random.Random(1993 + p)
    f_by_key, models_by_key = {}, {}
    for _ in range(5000):
        ai = _random_curve(rng, p)
        if rng.random() < 0.3:
            ai = _blow_up(ai, rng.choice((p, p * p, 6)))
        key = _model_key(ai, p)
        models = [ai]
        for _ in range(3):  # a_i + p^K r_i, kept where the key stays
            K = rng.randint(1, 12)
            moved = tuple(a + p ** K * rng.randint(-3, 3) for a in ai)
            if (_bc_invariants(*moved)[6] != 0
                    and _model_key(moved, p) == key):
                models.append(moved)
        for model in models:
            f_p = tate_local(model, p).f_p
            assert f_by_key.setdefault(key, f_p) == f_p, (key, model)
            models_by_key.setdefault(key, set()).add(model)
    # many keys hold distinct models, with every exponent 0..8 (2) or
    # 0..5 (3) that a curve can have at p
    shared = sum(len(models) > 1 for models in models_by_key.values())
    assert shared > 1000
    assert set(f_by_key.values()) == set(range(9 if p == 2 else 6))


def test_conductors_singular_fiber_raises():
    f = FamilyDef("cusp", poly(), poly(), poly(), poly(), poly(0, 1))
    with pytest.raises(SingularFiberError):
        conductor(f, 0)
    with pytest.raises(SingularFiberError):
        list(conductors(f, [1, 2, 0, 3]))
    assert list(conductors(f, [1, 2])) == [conductor(f, 1), conductor(f, 2)]
