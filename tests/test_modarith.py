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
                               chi_table, closed_form_moments,
                               cube_residue_indicator, is_prime, legendre,
                               moment_sum, nagao_estimate, primes_upto,
                               product_moment)
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
    assert legendre(4, 7) == 1
    assert legendre(3, 7) == -1
    assert legendre(14, 7) == 0
    p = 23
    assert sum(legendre(a, p) for a in range(p)) == 0


def test_chi_table():
    for p in SMALL_PRIMES:
        tab = chi_table(p)
        assert [int(tab[a]) for a in range(p)] == \
            [legendre(a, p) for a in range(p)]


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


def test_ap_table_matches_pointwise():
    # F1 has A = 0 at every t, F2plus/F2minus B = 0 (and A = B = 0 at one
    # t), washington/rank1/rank6 mostly AB != 0: every twist class is hit
    for name in ("F1", "F2plus", "F2minus", "washington", "rank1", "rank6"):
        f = get_family(name)
        for p in (5, 7, 13, 29, 1009):
            tab = ap_table(f, p)
            assert tab.dtype == np.int64
            chi = chi_table(p)
            for t in range(p):
                assert int(tab[t]) == a_p(f, t, p, chi=chi), (name, p, t)
        p = 100003
        tab = ap_table(f, p)
        for t in range(0, p, p // 20):
            assert int(tab[t]) == a_p(f, t, p), (name, p, t)


def test_hasse_bound():
    f = get_family("rank1")
    for p in (11, 31, 101):
        tab = ap_table(f, p)
        assert np.all(np.abs(tab) <= 2 * math.isqrt(4 * p) // 2 + 2)


def test_moment_methods_agree():
    fams = [get_family(name) for name in
            ("F1", "F2plus", "F2minus", "washington", "rank1")]
    fams.append(load_family(F1_TATE))
    for f in fams:
        for p in (7, 13, 19):
            for r in (1, 2):
                assert moment_sum(f, p, r, method="auto") == \
                    moment_sum(f, p, r, method="bruteforce")


def test_moment_methods_unknown_raises():
    f = get_family("F1")
    with pytest.raises(ValueError, match="unknown moment method"):
        moment_sum(f, 7, 1, method="brutefroce")
    with pytest.raises(ValueError, match="unknown moment method"):
        product_moment(f, [5, 7], [1, 1], method="brute")


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


def test_product_moment_multiplicative():
    f = get_family("F1")
    direct = product_moment(f, [5, 7], [1, 2], method="bruteforce")
    fast = product_moment(f, [5, 7], [1, 2])
    assert direct == fast
    assert fast == moment_sum(f, 5, 1) * moment_sum(f, 7, 2)


def test_cube_residue_indicator():
    assert cube_residue_indicator(2, 31) == (1 if pow(2, 10, 31) == 1 else 0)
    assert cube_residue_indicator(8, 7) == 1


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

    monkeypatch.setattr(modarith, "_poly_mod_vals", forbidden)
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
