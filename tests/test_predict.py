import math

import pytest

from lowlying.testfn import make_fejer, make_smooth_bump
from lowlying.predict import (GROUPS, kernel_crosscheck, predict_d1,
                              predict_d2, predict_d2_sp, predict_d2_u,
                              primesum_check)


def test_d1_examples():
    f = make_fejer(1.0)
    assert abs(predict_d1("O", f, 0) - 1.5) < 1e-12
    assert abs(predict_d1("U", f, 0) - 1.0) < 1e-12


def test_d1_orthogonal_indistinguishable_small_support():
    f = make_fejer(0.5)
    vals = {g: predict_d1(g, f, 0) for g in ("SOeven", "O", "SOodd")}
    assert len({round(v, 12) for v in vals.values()}) == 1
    big = make_fejer(1.5)
    vals = {g: predict_d1(g, big, 0) for g in ("SOeven", "O", "SOodd")}
    assert len({round(v, 12) for v in vals.values()}) == 3


def test_d1_rank_term():
    f = make_fejer(0.3)
    assert abs(predict_d1("SOodd", f, 1) - predict_d1("SOodd", f, 0)
               - f.f0) < 1e-12


def test_d2_frozen_value():
    f = make_fejer(0.45)
    assert abs(predict_d2(0.0, f, f, 0) - 0.765625) < 1e-12


def test_d2_group_separation():
    f = make_fejer(0.45)
    e = predict_d2("SOeven", f, f, 0)
    o = predict_d2("O", f, f, 0)
    s = predict_d2("SOodd", f, f, 0)
    assert abs(o - e - 0.5 * f.f0 * f.f0) < 1e-12
    assert abs(s - o - 0.5 * f.f0 * f.f0) < 1e-12
    vals = [e, o, s, predict_d2_sp(f, f, 0), predict_d2_u(f, f)]
    assert len({round(v, 10) for v in vals}) == 5  # pairwise distinct


def test_d2_rank_terms():
    f = make_fejer(0.45)
    assert abs(predict_d2(0.0, f, f, 1) - predict_d2(0.0, f, f, 0)
               - 0.9) < 1e-12


def test_d2_sp_example():
    f = make_fejer(0.45)
    diff = predict_d2_sp(f, f, 0) - predict_d2(0.0, f, f, 0)
    assert abs(diff - (-0.495)) < 1e-12


def test_d2_support_hypothesis():
    f = make_fejer(0.6)
    with pytest.raises(ValueError):
        predict_d2("SOeven", f, f, 0)


def test_d2_n_minus_matches_c():
    f = make_fejer(0.45)
    assert predict_d2("SOodd", f, f, 0) == predict_d2(0.0, f, f, 0,
                                                      n_minus=1.0)


def test_kernel_crosscheck_1level():
    for mk in (make_fejer, make_smooth_bump):
        g = mk(0.9)
        for grp in GROUPS:
            assert kernel_crosscheck(grp, g) <= 1e-6, (grp, g.kind)


def test_kernel_crosscheck_2level():
    for mk in (make_fejer, make_smooth_bump):
        g = mk(0.45)
        for grp in GROUPS:
            assert kernel_crosscheck(grp, g, g) <= 1e-4, (grp, g.kind)


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
