import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowlying.family import get_family
from lowlying.polyint import poly
from lowlying.sqsieve import (ZeroDensityError, cardinality_constant,
                              enumerate_good, nu)


def nu_brute(D, d):
    m = d * d
    return sum(1 for t in range(m) if D.eval_mod(t, m) == 0)


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


def test_zero_density_guidance():
    from lowlying.family import FamilyDef
    # D(t) = 4(t^2+t+1)^2-ish: force nu(2) = 4 via delta divisible by 4
    fam = FamilyDef(label="z", a1=poly(), a2=poly(), a3=poly(),
                    a4=poly(0, 2), a6=poly(2, 0, 2))
    D = fam.inv["D"]
    if all(D.eval_mod(t, 4) == 0 for t in range(4)):
        with pytest.raises(ZeroDensityError):
            enumerate_good(fam, 100, d_max=10)
    else:
        pytest.skip("constructed family does not hit the nu(p)=p^2 case")
