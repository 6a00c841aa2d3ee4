import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from lowlying.family import PRESETS
from lowlying.polyint import (IntPoly, divexact, gcd, poly, radical,
                              rational_roots)

small_polys = st.lists(st.integers(-50, 50), min_size=0, max_size=6).map(IntPoly)
nonzero_polys = small_polys.filter(lambda p: not p.is_zero())


def test_eval_examples():
    assert poly(1, 9).eval(1) == 10
    assert poly(13, 60, 144).eval(0) == 13
    assert (4 * poly(1, 6) ** 3 + 27).eval(0) == 31


def test_gcd_examples():
    a = poly(-1, 1) ** 2 * poly(2, 1)
    b = poly(-1, 1) * poly(5, 1)
    assert gcd(a, b) == poly(-1, 1)
    assert gcd(poly(1, 9), poly(3)) == poly(1)
    assert gcd(poly(-1, 0, 0, 0, 1), poly(-1, 0, 1)) == poly(-1, 0, 1)


def test_radical_examples():
    assert radical(IntPoly([-432]) ** 3 * poly(1, 9) ** 4) == poly(1, 9)
    assert radical(poly(-5, 1)) == poly(-5, 1)
    assert radical(poly(-1, 1) ** 2 * poly(2, 1)) == poly(-1, 1) * poly(2, 1)


def test_compose_affine():
    p = poly(13, 60, 144)
    q = poly(9, 3, 1).compose_affine(12, 1)
    assert q == p  # (12t+1)^2 + 3(12t+1) + 9 = 144t^2 + 60t + 13


def test_divexact_errors():
    with pytest.raises(ValueError):
        divexact(poly(1, 1), poly(0, 1))
    with pytest.raises(ValueError):
        divexact(poly(1, 1), poly(2, 2))  # quotient 1/2
    with pytest.raises(ZeroDivisionError):
        divexact(poly(1, 1), IntPoly())


@given(small_polys, small_polys, st.integers(-1000, 1000))
@settings(max_examples=100, deadline=None)
def test_ring_ops_match_eval(a, b, t):
    assert (a + b).eval(t) == a.eval(t) + b.eval(t)
    assert (a * b).eval(t) == a.eval(t) * b.eval(t)
    assert (a - b).eval(t) == a.eval(t) - b.eval(t)


@given(small_polys, st.integers(-10 ** 6, 10 ** 6), st.integers(2, 10 ** 6))
@settings(max_examples=100, deadline=None)
def test_eval_mod(a, t, m):
    assert a.eval_mod(t, m) == a.eval(t) % m


@given(nonzero_polys, nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_gcd_divides_both(a, b):
    g = gcd(a, b)
    assert not g.is_zero()
    assert g.leading() > 0
    assert divexact(a, g) * g == a
    assert divexact(b, g) * g == b


@given(nonzero_polys)
@settings(max_examples=60, deadline=None)
def test_radical_is_squarefree(p):
    r = radical(p)
    if r.is_constant():
        assert r == poly(1)
        return
    assert gcd(r, r.derivative()).is_constant()
    # every root of p is a root of r: check resultant-style via gcd
    assert gcd(p, r) == r


@given(nonzero_polys, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_radical_kills_powers(p, k):
    if p.is_constant():
        return
    assert radical(p ** k) == radical(p)


# -- sympy as the oracle ---------------------------------------------------

_T = sympy.Symbol("t")


def _to_sympy(p):
    return sympy.Poly(list(reversed(p.coeffs)) or [0], _T, domain="ZZ")


def _from_sympy(p):
    return IntPoly(list(reversed(sympy.Poly(p, _T).all_coeffs())))


def _sympy_radical(p):
    g = sympy.gcd(_to_sympy(p), _to_sympy(p.derivative()))
    q, r = sympy.div(_to_sympy(p), g)
    assert r.is_zero
    return _from_sympy(q).primitive()


@given(nonzero_polys, nonzero_polys, nonzero_polys)
@settings(max_examples=200, deadline=None)
def test_gcd_divexact_radical_match_sympy(common, a, b):
    # products sharing a random factor, so the gcd is rarely 1
    pa, pb = a * common, b * common
    g = gcd(pa, pb)
    assert g == _from_sympy(sympy.gcd(_to_sympy(pa), _to_sympy(pb))).primitive()
    q, r = sympy.div(_to_sympy(pa), _to_sympy(common))
    assert r.is_zero and divexact(pa, common) == _from_sympy(q) == a
    assert divexact(pa, g) * g == pa
    if not pa.is_constant():
        assert radical(pa) == _sympy_radical(pa)


def _sympy_rational_roots(f):
    """(a, b) pairs of the linear factors b x - a of f over Z."""
    out = []
    for fac, _ in sympy.factor_list(_to_sympy(f))[1]:
        if fac.degree() == 1:
            b, a = fac.all_coeffs()
            b, a = int(b), -int(a)
            out.append((a, b) if b > 0 else (-a, -b))
    return sorted(out)


def test_rational_roots_match_sympy():
    # random products of distinct linear factors b x - a and irreducible
    # factors of degree 2 to 4; the product is primitive and square-free
    rng = random.Random(2003)
    checked = 0
    for _ in range(60):
        n_lin, n_irr = rng.randint(0, 4), rng.randint(0, 2)
        lin = set()
        while len(lin) < n_lin:
            b = rng.randint(1, 60)
            a = rng.randint(-200, 200)
            lin.add((a // math.gcd(a, b), b // math.gcd(a, b)))
        irr = set()
        while len(irr) < n_irr:
            q = IntPoly([rng.randint(-30, 30) for _ in range(rng.randint(2, 4))]
                        + [rng.randint(1, 9)]).primitive()
            if not q.is_constant() and _to_sympy(q).is_irreducible:
                irr.add(q)
        f = IntPoly([1])
        for a, b in lin:
            f = f * IntPoly([-a, b])
        for q in irr:
            f = f * q
        if len(_sympy_rational_roots(f)) != len(lin) or f.is_constant():
            continue  # an irreducible factor was linear
        roots, G = rational_roots(f)
        assert roots == sorted(lin) == _sympy_rational_roots(f)
        assert _sympy_rational_roots(G) == []
        prod = IntPoly([1])
        for a, b in roots:
            prod = prod * IntPoly([-a, b])
        assert prod * G == f
        checked += bool(roots) and not G.is_constant()
    assert checked >= 20


def test_rational_roots_floats_only_propose():
    # Wilkinson's product (x - 1)...(x - 25): the float roots of the
    # larger factors are too far off to round to them, so those roots
    # stay in G; every root returned is exact
    w = IntPoly([1])
    for k in range(1, 26):
        w = w * IntPoly([-k, 1])
    roots, G = rational_roots(w)
    assert all(b == 1 and 1 <= a <= 25 for a, b in roots)
    assert len(roots) + G.degree == 25
    prod = IntPoly([1])
    for a, b in roots:
        prod = prod * IntPoly([-a, b])
    assert prod * G == w
    # a coefficient past float range gives no candidates at all
    big = IntPoly([-10 ** 400, 1])
    assert rational_roots(big) == ([], big)
    assert rational_roots(IntPoly([5])) == ([], IntPoly([5]))


def test_preset_invariants_match_sympy():
    for name, f in PRESETS.items():
        inv = f.inv
        D = _sympy_radical(inv["delta"])
        if inv["c4"].is_zero():
            D1 = poly(1)
        else:
            rc4 = _sympy_radical(inv["c4"])
            D1 = _from_sympy(sympy.gcd(_to_sympy(D), _to_sympy(rc4))).primitive()
        q, r = sympy.div(_to_sympy(D), _to_sympy(D1))
        assert r.is_zero
        D2 = _from_sympy(q).primitive()
        assert (inv["D"], inv["D1"], inv["D2"]) == (D, D1, D2), name


def test_cli_import_leaves_sympy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(__file__).resolve().parents[1] / "src"),
        env.get("PYTHONPATH")]))
    code = "import lowlying.cli, sys; assert 'sympy' not in sys.modules"
    p = subprocess.run([sys.executable, "-c", code], env=env,
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
