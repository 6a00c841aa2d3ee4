import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowlying import modarith
from lowlying.family import FamilyDef, get_family, load_family
from lowlying.modarith import (MomentTable, a_p, a_p_enumerate, ap_table,
                               chi_table, closed_form_moments, is_prime,
                               moment_sum, nagao_estimate, primes_upto)
from lowlying.polyint import IntPoly

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23]
F1_TATE = Path(__file__).resolve().parent.parent / "perfbench" / "F1-tate.json"


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []


def test_primes_upto_limit_raises_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sieve allocated")

    monkeypatch.setattr(modarith.np, "ones", refuse)
    with pytest.raises(ValueError, match="10\\^9"):
        primes_upto(modarith.PRIME_LIMIT + 1)


@given(st.integers(2, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_is_prime_matches_sieve_structure(n):
    if is_prime(n):
        assert all(n % d for d in range(2, min(n, 1000)) if d * d <= n)
    else:
        assert any(n % d == 0 for d in range(2, n) if d * d <= n) or n < 2


def test_legendre():
    # the scalar Legendre symbol that a_p uses, by Euler's criterion
    assert modarith._chi(4, 7) == 1
    assert modarith._chi(3, 7) == -1
    assert modarith._chi(14, 7) == 0
    p = 23
    assert sum(modarith._chi(a, p) for a in range(p)) == 0
    for p in SMALL_PRIMES:
        assert [modarith._chi(a, p) for a in range(p)] == \
            [int(x) for x in chi_table(p)]


def test_chi_table():
    # Euler's criterion: a^((p-1)/2) mod p is 1, p - 1 or 0
    for p in SMALL_PRIMES + [23]:
        tab = chi_table(p)
        euler = [pow(a, (p - 1) // 2, p) for a in range(p)]
        assert [int(tab[a]) for a in range(p)] == \
            [-1 if e == p - 1 else e for e in euler]
        assert int(tab.sum()) == 0
    tab = chi_table(7)
    assert (tab[4], tab[3], tab[0]) == (1, -1, 0)  # (14|7) = (0|7)


def test_ap_vs_enumeration_all_presets():
    for name in ("F1", "F2plus", "F2minus", "washington", "rank1"):
        f = get_family(name)
        for p in (5, 7, 11, 13):
            for t in range(p):
                if f.delta_at(t) % p == 0:
                    continue  # bad reduction: enumeration of smooth model only
                assert a_p(f, t, p) == a_p_enumerate(f.specialize(t), p), \
                    (name, p, t)


def test_ap_needs_p_above_3():
    f = get_family("F1")
    for p in (2, 3):
        with pytest.raises(ValueError, match="p > 3"):
            ap_table(f, p)
        with pytest.raises(ValueError, match="p > 3"):
            a_p(f, 1, p)


@pytest.mark.parametrize("p", [9, 15, 25, 561, 1105])
def test_ap_table_refuses_composite(p):
    # 561 and 1105 are Carmichael numbers, so a^(p-1) = 1 for every unit
    # a; the coefficient rule would give F1 (A = 0) a zero table at
    # p = 0 mod 3 and F2plus (B = 0) one at p = 3 mod 4, so the refusal
    # must come first
    for name in ("F1", "F2plus", "rank1"):
        with pytest.raises(ValueError, match=f"composite {p}$"):
            ap_table(get_family(name), p)


def test_power_table():
    # pw is the orbit of g: a permutation of 1..p-1 with pw[k+1] = g pw[k];
    # ind inverts it, so g^(-ind x) is the inverse of x
    for p in [q for q in primes_upto(2000) if q >= 5] + [2097169]:
        g = modarith._primitive_root(p)
        pw, ind = modarith._power_table(g, p)
        assert pw.dtype == ind.dtype == np.int64
        assert np.array_equal(np.sort(pw), np.arange(1, p)), p
        assert np.array_equal(pw[1:], pw[:-1] * g % p), p
        x = np.arange(1, p, dtype=np.int64)
        assert np.array_equal(pw[ind[x]], x), p
        assert np.all(x * pw[-ind[x] % (p - 1)] % p == 1), p
        if p < 2000:  # g is the least primitive root
            qs = [q for q in primes_upto(p) if (p - 1) % q == 0]
            assert all(any(pow(a, (p - 1) // q, p) == 1 for q in qs)
                       for a in range(2, g)), p


def test_ap_table_matches_pointwise():
    # F1 has A = 0 at every t, F2plus/F2minus B = 0 (and A = B = 0 at one
    # t), washington/rank1/rank6 mostly AB != 0: every twist class is hit.
    # y^2 = x^3 + t and y^2 = x^3 + t x put every residue t != 0 in the
    # A = 0 (B = 0) class, so each coset of the cubes (squares) is hit.
    # The primes below 400 cover every p mod 24, so each class is hit at
    # primes where it has representatives and at primes where it is 0.
    fams = [get_family(name) for name in
            ("F1", "F2plus", "F2minus", "washington", "rank1", "rank6")]
    # A = 1296 * 455 t and B = 46656 * 1309 (t + 2) vanish mod some
    # primes coefficient-wise: A mod 5, 7, 13 and B mod 7, 11, 17.  The
    # coefficient rule zeroes the table at 5 (A, 5 = 2 mod 3), 7 and 11
    # (B, = 3 mod 4); at 13 (= 1 mod 3) and 17 (= 1 mod 4) it must not
    fams += [load_family(F1_TATE),
             FamilyDef("x^3+t", IntPoly(), IntPoly(), IntPoly(), IntPoly(),
                       IntPoly([0, 1])),
             FamilyDef("x^3+tx", IntPoly(), IntPoly(), IntPoly(),
                       IntPoly([0, 1]), IntPoly()),
             FamilyDef("x^3+455tx+1309(t+2)", IntPoly(), IntPoly(), IntPoly(),
                       IntPoly([0, 455]), IntPoly([2618, 1309]))]
    primes = [p for p in primes_upto(400) if p >= 5] + [1009]
    for f in fams:
        for p in primes:
            tab = ap_table(f, p)
            assert tab.dtype == np.int64
            chi = chi_table(p)
            for t in range(p):
                assert int(tab[t]) == a_p(f, t, p, chi=chi), (f.label, p, t)
        p = 100003
        tab = ap_table(f, p)
        for t in range(0, p, p // 20):
            assert int(tab[t]) == a_p(f, t, p), (f.label, p, t)


def test_ap_table_twists_above_2_21():
    # p = 2097169 > 2^21 and p = 1 mod 12: both CM classes have
    # representatives, and u^3 for u near p overflows int64 unless each
    # product is reduced mod p
    p = 2097169
    assert is_prime(p) and p % 12 == 1 and p > 2 ** 21
    chi = chi_table(p)
    ts = np.arange(p, dtype=np.int64)
    for f, k in ((FamilyDef("x^3+t", IntPoly(), IntPoly(), IntPoly(),
                            IntPoly(), IntPoly([0, 1])), 3),
                 (FamilyDef("x^3+tx", IntPoly(), IntPoly(), IntPoly(),
                            IntPoly([0, 1]), IntPoly()), 2)):
        tab = ap_table(f, p)
        for u in (2, 3, 5):
            assert np.array_equal(tab[u ** k * ts % p], int(chi[u]) * tab), \
                (f.label, u)
        for t in random.Random(p).sample(range(p), 20):
            assert int(tab[t]) == a_p(f, t, p, chi=chi), (f.label, t)


def test_ap_table_zero_cm_class_builds_no_chi(monkeypatch):
    # F1 has c4 = 0 (all A = 0) and F2plus c6 = 0 (all B = 0): at
    # p = 2 mod 3 (p = 3 mod 4) that class is 0, and the coefficient rule
    # returns the zero table before any residue is evaluated or any power
    # table (or the chi it gives) is built
    calls = []
    real_powers, real_vals = modarith._power_table, modarith.vals_mod

    def powers(g, p):
        calls.append(("powers", p))
        return real_powers(g, p)

    def vals(P, m, xs):
        calls.append(("vals", m))
        return real_vals(P, m, xs)

    monkeypatch.setattr(modarith, "_power_table", powers)
    monkeypatch.setattr(modarith, "vals_mod", vals)
    cases = (("F1", 3, 2), ("F2plus", 4, 3))
    for name, m, zero in cases:
        f = get_family(name)
        for p in [q for q in primes_upto(2000) if q > 3 and q % m == zero]:
            assert not ap_table(f, p).any(), (name, p)
    assert calls == []
    for name, m, zero in cases:
        p = next(q for q in primes_upto(100) if q > 3 and q % m != zero)
        assert ap_table(get_family(name), p).any(), (name, p)
        assert ("powers", p) in calls  # built where the class is not 0
        calls.clear()


def test_hasse_bound():
    f = get_family("rank1")
    for p in (11, 31, 101):
        tab = ap_table(f, p)
        assert np.all(np.abs(tab) <= 2 * math.isqrt(4 * p) // 2 + 2)


def test_moment_methods_agree():
    fams = [get_family(name) for name in
            ("F1", "F2plus", "F2minus", "washington", "rank1", "rank6")]
    fams.append(load_family(F1_TATE))
    primes = [p for p in primes_upto(59) if p >= 5]
    for f in fams:
        for p in primes:
            for r in (1, 2):
                assert moment_sum(f, p, r, method="auto") == \
                    moment_sum(f, p, r, method="bruteforce"), (f.label, p, r)
        for second in (False, True):
            tab = MomentTable.build(f, 60, second)
            assert sorted(tab.entries) == primes
            for p, (a1, a2) in tab.entries.items():
                assert a1 == moment_sum(f, p, 1), (f.label, p)
                assert a2 == (moment_sum(f, p, 2) if second else None), \
                    (f.label, p)


def test_moment_methods_unknown_raises():
    f = get_family("F1")
    with pytest.raises(ValueError, match="unknown moment method"):
        moment_sum(f, 7, 1, method="brutefroce")


def test_closed_form_moments_small():
    for name in ("F1", "F2plus", "F2minus", "washington", "rank1"):
        f = get_family(name)
        for p in primes_upto(60):
            if p <= 3:
                continue
            cf1, cf2 = closed_form_moments(name, p)
            assert moment_sum(f, p, 1) == cf1, (name, p)
            if cf2 is not None:
                assert moment_sum(f, p, 2) == cf2, (name, p)


def test_moment_table_and_nagao():
    f = get_family("rank1")
    tab = MomentTable.build(f, 50)
    assert set(tab.entries) == {5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for p, (a1, _) in tab.entries.items():
        assert a1 == -p
    est = nagao_estimate(f, 2000)
    theta = sum(math.log(p) for p in primes_upto(2000) if p > 3)
    assert abs(est - theta / 2000) < 1e-9  # A1 = -p exactly, p = 2, 3 skipped


def test_moment_table_one_ap_table_per_prime(monkeypatch):
    from lowlying import modarith

    calls = []
    real = modarith.ap_table

    def counting(f, p):
        calls.append(p)
        return real(f, p)

    monkeypatch.setattr(modarith, "ap_table", counting)
    f = get_family("rank6")  # t-degree > 2: A1 also needs the table
    tab = MomentTable.build(f, 40)
    assert calls == sorted(tab.entries)
    for p, (a1, a2) in tab.entries.items():
        assert a1 == moment_sum(f, p, 1, method="bruteforce"), p
        assert a2 == moment_sum(f, p, 2, method="bruteforce"), p


def _random_linear_family(rng, scale):
    # every a_i linear in t, a1 and a3 nonzero; scale = 5 or 7 makes the
    # t-part of each a_i divisible by that prime
    def lin():
        return IntPoly([rng.randint(-9, 9), scale * rng.randint(-3, 3)])

    a1, a2, a3, a4, a6 = (lin() for _ in range(5))
    a1 = a1 if not a1.is_zero() else IntPoly([1, scale])
    a3 = a3 if not a3.is_zero() else IntPoly([2, scale])
    return FamilyDef("random", a1, a2, a3, a4, a6)


def test_a1_random_families_match_oracles():
    rng = random.Random(20031)
    small = [p for p in primes_upto(40) if p > 3]
    content_hits = 0
    for i in range(60):
        f = _random_linear_family(rng, (1, 5, 7)[i % 3])
        if f.inv["delta"].is_zero():
            continue
        content = modarith._a1_polys(f)[4]
        for p in small + [101, 1009]:
            content_hits += content % p == 0
            fast = moment_sum(f, p, 1)
            if p < 40:
                assert fast == moment_sum(f, p, 1, method="bruteforce"), \
                    (f, p)
            else:
                assert fast == int(ap_table(f, p).sum()), (f, p)
    assert content_hits > 0  # the p | content(Delta) branch ran


def test_nagao_estimate_needs_no_tables(monkeypatch):
    def forbidden(*args):
        raise AssertionError("table built on the first-moment path")

    polys_calls = []
    real = modarith._a1_polys

    def counting(f):
        polys_calls.append(f.label)
        return real(f)

    monkeypatch.setattr(modarith, "chi_table", forbidden)
    monkeypatch.setattr(modarith, "ap_table", forbidden)
    monkeypatch.setattr(modarith, "_a1_polys", counting)
    f = get_family("washington")
    est = nagao_estimate(f, 2000)
    assert polys_calls == ["washington"]
    want = -sum(closed_form_moments("washington", p)[0] / p * math.log(p)
                for p in primes_upto(2000) if p > 3) / 2000
    assert abs(est - want) < 1e-12


# rad Delta = 7x - 2: its root 2/7 has no residue mod 7
ROOT_2_7 = FamilyDef("root-2/7", IntPoly(), IntPoly(), IntPoly(),
                     IntPoly([0, 7]), IntPoly([1, -2]))
# rad Delta = (5x + 4)(4x^2 - x - 4), alpha = 4x + 4: a root
# with 5 | b and a quadratic cofactor with no rational root
MIXED = FamilyDef("mixed", IntPoly(), IntPoly([3, 2]), IntPoly(),
                  IntPoly([-2, -1, 1]), IntPoly([-3, -2, 1]))


@pytest.mark.parametrize("f, alpha, roots, G", [
    (ROOT_2_7, IntPoly(), [(2, 7)], IntPoly([1])),
    (MIXED, IntPoly([4, 4]), [(-4, 5)], IntPoly([-4, -1, 4])),
])
def test_a1_rational_roots_and_scanned_cofactor(f, alpha, roots, G):
    got_alpha, _, got_roots, got_G, _ = modarith._a1_polys(f)
    assert (got_alpha, got_roots, got_G) == (alpha, roots, G)
    # every prime up to 40, so p | b (7 for ROOT_2_7, 5 for MIXED) and
    # the primes where G has roots mod p are among them
    for p in primes_upto(40):
        if p > 3:
            assert moment_sum(f, p, 1) == \
                moment_sum(f, p, 1, method="bruteforce"), (f.label, p)


def test_nagao_estimate_presets_never_scan(monkeypatch):
    # rad Delta splits over Q for every preset on the first-moment path,
    # so no prime scans x mod p
    def forbidden(*args):
        raise AssertionError("residues scanned on the first-moment path")

    monkeypatch.setattr(modarith, "roots_mod", forbidden)
    for name in ("F1", "F2plus", "F2minus", "washington", "rank1"):
        f = get_family(name)
        est = nagao_estimate(f, 2000)
        want = -sum(closed_form_moments(name, p)[0] / p * math.log(p)
                    for p in primes_upto(2000) if p > 3) / 2000
        assert abs(est - want) < 1e-12, name


@pytest.mark.parametrize("X", [1, 0, -7])
def test_nagao_estimate_rejects_small_X(X):
    with pytest.raises(ValueError, match="X must be at least 2"):
        nagao_estimate(get_family("washington"), X)
