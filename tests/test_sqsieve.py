import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowlying.family import FamilyDef, get_family
from lowlying.modarith import PRIME_LIMIT
from lowlying.polyint import poly
from lowlying.sqsieve import (ZeroDensityError, cardinality_constant,
                              enumerate_good, nu)


def nu_brute(D, d):
    m = d * d
    return sum(1 for t in range(m) if D.eval(t) % m == 0)


def test_nu_examples():
    D = poly(1, 9)
    assert nu(D, 2) == 1
    assert nu(D, 3) == 0
    assert nu(D, 1) == 1


def test_nu_rejects_non_squarefree():
    with pytest.raises(ValueError):
        nu(poly(1, 9), 12)


def test_nu_matches_bruteforce():
    for D in (poly(1, 9), poly(13, 60, 144), poly(-5, 0, 3, 2),
              poly(0, 0, 1, 1)):
        for d in (2, 3, 5, 6, 7, 10, 15, 21, 35):
            assert nu(D, d) == nu_brute(D, d), (D, d)


def test_nu_multiplicative_upto_50():
    pairs = [(d1, d2) for d1 in range(2, 8) for d2 in range(2, 9)
             if d1 * d2 <= 50]
    import math
    for D in (poly(1, 9), poly(13, 60, 144)):
        for d1, d2 in pairs:
            if math.gcd(d1, d2) != 1:
                continue
            try:
                v = nu(D, d1 * d2)
            except ValueError:
                continue  # not square-free
            assert v == nu(D, d1) * nu(D, d2)


def test_nu_bounded_by_degree():
    D = poly(-5, 0, 3, 2)  # degree 3, leading coeff 2
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53):
        assert nu(D, p) <= 3


def test_good_set_examples():
    f1 = get_family("F1")
    rep = enumerate_good(f1, 1, d_max=30)
    assert 1 in rep.good_t.tolist()          # D(1) = 10, square-free
    rep = enumerate_good(f1, 7, d_max=30)
    assert 7 not in rep.good_t.tolist()      # D(7) = 64 = 2^6


def test_good_set_contains_exact_squarefree():
    from sympy import factorint
    f1 = get_family("F1")
    rep = enumerate_good(f1, 200, d_max=40)
    good = set(rep.good_t.tolist())
    D = f1.inv["D"]
    for t in range(200, 401):
        val = abs(D.eval(t))
        if all(e == 1 for e in factorint(val).values()):
            assert t in good, t


def test_exact_refinement():
    f1 = get_family("F1")
    loose = enumerate_good(f1, 500, d_max=5)
    tight = enumerate_good(f1, 500, d_max=5, exact=True)
    assert tight.t_set_excess >= 0
    assert set(tight.good_t.tolist()) <= set(loose.good_t.tolist())


def _exact_per_fiber(f, N):
    """enumerate_good(exact=True)'s (good_t, t_set_excess) with one
    factorize call per survivor."""
    import math

    from lowlying.tate import factorize

    keep, excess = [], 0
    for t in enumerate_good(f, N).good_t.tolist():
        fac = factorize(abs(f.inv["D"].eval(t)))
        cof = fac.cofactor
        if (any(e >= 2 for p, e in fac.prime_powers.items() if f.B % p)
                or cof != 1 and math.isqrt(cof) ** 2 == cof):
            excess += 1
        else:
            keep.append(t)
    return keep, excess


@pytest.mark.parametrize("name,N", [("F1", 2000), ("F2plus", 2000),
                                    ("F2minus", 2000), ("washington", 2000),
                                    ("rank1", 2000), ("rank6", 20)])
def test_exact_sieve_matches_per_fiber_factorize(name, N):
    # rank6: D(t) has about 100 digits, so rho runs on each survivor
    f = get_family(name)
    rep = enumerate_good(f, N, exact=True)
    assert (rep.good_t.tolist(), rep.t_set_excess) == _exact_per_fiber(f, N)


def test_density_matches_euler_product():
    for name in ("F1", "washington"):
        fam = get_family(name)
        rep = enumerate_good(fam, 10 ** 5)
        dens = rep.good_t.size / 10 ** 5
        c = cardinality_constant(fam, 1000)
        assert abs(dens - c) <= 0.02, (name, dens, c)
        assert rep.c_F_estimate == cardinality_constant(fam, rep.d_max)


def test_cardinality_constant_f1_range():
    c = cardinality_constant(get_family("F1"), 1000)
    assert 0.6 < c < 0.7


def test_cardinality_constant_constant_discriminant():
    # y^2 = x^3 + 1 at every t: D is the radical 1, so no prime has a root
    z = poly()
    fam = FamilyDef("const", z, z, z, z, poly(1))
    assert fam.inv["D"].is_constant()
    assert cardinality_constant(fam, 1000) == 1.0


def test_zero_density_guidance():
    from lowlying.family import FamilyDef
    # four consecutive integers: 4 | t(t+1)(t+2)(t+3) at every t, and the
    # square-free D keeps that factor, so nu(2) = 4
    a6 = poly(0, 1) * poly(1, 1) * poly(2, 1) * poly(3, 1)
    fam = FamilyDef(label="z", a1=poly(), a2=poly(), a3=poly(), a4=poly(),
                    a6=a6)
    assert nu(fam.inv["D"], 2) == 4
    with pytest.raises(ZeroDensityError, match=r"nu\(2\) = 2\^2"):
        enumerate_good(fam, 100, d_max=10)
    # the exceptional square B = 2 absorbs the prime
    fam = FamilyDef(label="z", a1=poly(), a2=poly(), a3=poly(), a4=poly(),
                    a6=a6, B=2)
    assert enumerate_good(fam, 100, d_max=10).good_t.size == 33


def test_singular_fiber_dropped_when_no_prime_is_sieved():
    from lowlying.family import FamilyDef
    # Delta(7) = 0; with B = 2 and d_max = 2 no prime is sieved, so only
    # the singular-fiber check removes t = 7
    fam = FamilyDef(label="s", a1=poly(), a2=poly(), a3=poly(), a4=poly(),
                    a6=poly(-7, 1) * poly(1, 2), B=2)
    assert fam.delta_at(7) == 0
    assert enumerate_good(fam, 5, d_max=2).good_t.tolist() == [5, 6, 8, 9, 10]
    rep = enumerate_good(fam, 5, d_max=2, exact=True)
    assert rep.good_t.tolist() == [5, 6, 8, 9]


def test_enumerate_good_refuses_N_beyond_limit(monkeypatch):
    # refused before the (N + 1)-byte mask, as primes_upto refuses; the
    # spy fails the test rather than allocate it
    real_ones = np.ones

    def guarded(shape, *args, **kwargs):
        assert np.prod(shape) < 10 ** 6, shape
        return real_ones(shape, *args, **kwargs)

    monkeypatch.setattr(np, "ones", guarded)
    with pytest.raises(ValueError, match=r"exceeds the limit 10\^9"):
        enumerate_good(get_family("F1"), PRIME_LIMIT + 1)
