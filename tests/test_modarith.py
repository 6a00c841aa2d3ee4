import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowlying.family import get_family
from lowlying.modarith import (MomentTable, a_p, a_p_enumerate, ap_table,
                               chi_table, closed_form_moments,
                               cube_residue_indicator, is_prime, legendre,
                               moment_sum, nagao_estimate, primes_upto,
                               product_moment)

SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23]


def test_primes_upto():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert primes_upto(1) == []


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
        for p in (2, 3, 5, 7, 11, 13):
            for t in range(p):
                if f.delta_at(t) % p == 0:
                    continue  # bad reduction: enumeration of smooth model only
                assert a_p(f, t, p) == a_p_enumerate(f.specialize(t), p), \
                    (name, p, t)


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
    for name in ("F1", "washington", "rank1"):
        f = get_family(name)
        for p in (7, 13, 19):
            for r in (1, 2):
                assert moment_sum(f, p, r, method="auto") == \
                    moment_sum(f, p, r, method="bruteforce")


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
