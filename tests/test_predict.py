import math
import tracemalloc

import numpy as np
import pytest

from lowlying import predict
from lowlying.testfn import make_fejer, make_smooth_bump, panel_grid
from lowlying.predict import (GROUPS, _K, _cross2d, kernel_crosscheck,
                              predict_d1, predict_d2, primesum_check)


def test_d1_examples():
    f = make_fejer(1.0)
    d1 = predict_d1(f, 0)
    assert abs(d1["O"] - 1.5) < 1e-12
    assert abs(d1["U"] - 1.0) < 1e-12


def test_d1_orthogonal_indistinguishable_small_support():
    f = make_fejer(0.5)
    d1 = predict_d1(f, 0)
    vals = {g: d1[g] for g in ("SOeven", "O", "SOodd")}
    assert len({round(v, 12) for v in vals.values()}) == 1
    big = predict_d1(make_fejer(1.5), 0)
    vals = {g: big[g] for g in ("SOeven", "O", "SOodd")}
    assert len({round(v, 12) for v in vals.values()}) == 3


def test_d1_rank_term():
    f = make_fejer(0.3)
    assert abs(predict_d1(f, 1)["SOodd"] - predict_d1(f, 0)["SOodd"]
               - f.f0) < 1e-12


def test_d2_frozen_value():
    f = make_fejer(0.45)
    assert abs(predict_d2(f, f, 0)["SOeven"] - 0.765625) < 1e-12


def test_d2_group_separation():
    f = make_fejer(0.45)
    d2 = predict_d2(f, f, 0)
    e, o, s = d2["SOeven"], d2["O"], d2["SOodd"]
    assert abs(o - e - 0.5 * f.f0 * f.f0) < 1e-12
    assert abs(s - o - 0.5 * f.f0 * f.f0) < 1e-12
    vals = [e, o, s, d2["Sp"], d2["U"]]
    assert len({round(v, 10) for v in vals}) == 5  # pairwise distinct


def test_d2_rank_terms():
    f = make_fejer(0.45)
    assert abs(predict_d2(f, f, 1)["SOeven"] - predict_d2(f, f, 0)["SOeven"]
               - 0.9) < 1e-12


def test_d2_unitary_rank_terms():
    # the r forced central zeros add the same terms to U as to SOeven
    f, g = make_fejer(0.45), make_fejer(0.3)
    for r in (1, 2, 6):
        d2r, d20 = predict_d2(f, g, r), predict_d2(f, g, 0)
        u = d2r["U"] - d20["U"]
        e = d2r["SOeven"] - d20["SOeven"]
        assert abs(u - e) < 1e-12, r
    assert abs(predict_d2(f, f, 2)["U"] - predict_d2(f, f, 0)["U"]
               - (2 * f.f0 ** 2 + 4 * f.fhat0 * f.f0)) < 1e-12


def test_d2_sp_example():
    f = make_fejer(0.45)
    d2 = predict_d2(f, f, 0)
    diff = d2["Sp"] - d2["SOeven"]
    assert abs(diff - (-0.495)) < 1e-12


def test_d2_support_hypothesis():
    f = make_fejer(0.6)
    with pytest.raises(ValueError):
        predict_d2(f, f, 0)


def test_d2_tables_cover_groups_with_one_functionals_call(monkeypatch):
    calls = []
    real = predict.functionals

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(predict, "functionals", counting)
    f, g = make_fejer(0.45), make_smooth_bump(0.3)
    d2 = predict_d2(f, g, 1)
    assert tuple(d2) == GROUPS and tuple(predict_d1(f)) == GROUPS
    assert len(calls) == 1


def test_kernel_crosscheck_inadmissible_pair_fails_before_quadrature(
        monkeypatch):
    def refuse(*args):
        raise AssertionError("quadrature ran for an inadmissible pair")

    monkeypatch.setattr(predict, "_int_f_K2", refuse)
    monkeypatch.setattr(predict, "_cross2d", refuse)
    g = make_fejer(0.6)
    with pytest.raises(ValueError, match=r"sigma1 \+ sigma2 < 1"):
        kernel_crosscheck(g, g)


def test_kernel_crosscheck_1level():
    for mk in (make_fejer, make_smooth_bump):
        g = mk(0.9)
        res = kernel_crosscheck(g)
        assert tuple(res) == GROUPS
        for grp in GROUPS:
            assert res[grp] <= 1e-6, (grp, g.kind)


def test_kernel_crosscheck_2level(monkeypatch):
    calls = {"_cross2d": 0, "_int_f_K2": 0}
    for name in calls:
        def counting(*args, _name=name, _real=getattr(predict, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(predict, name, counting)
    fej, bump = make_fejer(0.45), make_smooth_bump(0.45)
    for g1, g2 in ((fej, fej), (bump, bump),
                   (fej, make_smooth_bump(0.3)),
                   (make_fejer(0.3), make_fejer(0.2))):
        calls.update({"_cross2d": 0, "_int_f_K2": 0})
        res = kernel_crosscheck(g1, g2)
        # one 2-D grid pass and one K(2x) quadrature per distinct test
        # function
        assert calls == {"_cross2d": 1, "_int_f_K2": 1 if g2 is g1 else 2}
        assert tuple(res) == GROUPS
        for grp in GROUPS:
            assert res[grp] <= 1e-4, (grp, g1.kind, g1.sigma, g2.sigma)


def test_cross2d_reversed_kernel_matches_direct():
    g1, g2 = make_fejer(0.45), make_smooth_bump(0.3)
    panel, order = 0.5, 10
    for T in (10.0, 40.0):  # 40 is _cross2d's default grid
        got = _cross2d(g1, g2, T=T, panel=panel, order=order)
        x, w = panel_grid(np.arange(-T, T + panel / 2, panel), order)
        Km = _K(x[:, None] - x[None, :])
        Kp = _K(x[:, None] + x[None, :])  # K(x+y) evaluated directly
        weights = np.outer(g1.f(x) * w, g2.f(x) * w)
        for val, S in zip(got, (Km ** 2, Km * Kp, Kp ** 2)):
            want = math.fsum((weights * S).ravel())
            assert abs(val - want) <= 1e-13 * abs(want), T


def test_cross2d_small_footprint(monkeypatch):
    # K only on the (2P-1)*order^2 distinct differences of the default
    # grid (P = 160 panels, order 10), and no n x n array: the dense
    # route peaks near 100 MB
    sizes = []
    real_K = predict._K

    def counting(y):
        sizes.append(np.size(y))
        return real_K(y)
    monkeypatch.setattr(predict, "_K", counting)
    g = make_fejer(0.45)
    tracemalloc.start()
    try:
        _cross2d(g, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) <= (2 * 160 - 1) * 10 ** 2
    assert peak < 8e6, peak


def test_primesum_targets():
    g = make_fejer(1.0)
    _, target, _ = primesum_check(10 ** 4, g, a=2, m=1)
    assert abs(target - g.f0 / 4) < 1e-15
    _, t31, _ = primesum_check(10 ** 4, g, a=1, m=3, b=1)
    assert abs(t31 - g.f0 / 4) < 1e-15  # 1/(2 phi(3)) = 1/4
    v, t, gap = primesum_check(10 ** 6, g, a=1, m=1)
    assert gap <= 5 / math.log(10 ** 6)


def test_primesum_rejects_small_cn():
    with pytest.raises(ValueError):
        primesum_check(100, make_fejer(1.0))
