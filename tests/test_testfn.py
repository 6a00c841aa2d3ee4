import math

import numpy as np
import pytest

from lowlying.testfn import (functionals, make_fejer, make_smooth_bump,
                             make_testfn, pairwise_sum, panel_grid,
                             product_fn, quad_panels)


def test_fejer_basics():
    f = make_fejer(1.0)
    assert f.f0 == 1.0 and f.fhat0 == 1.0
    assert float(f.f(0.0)) == 1.0
    fun = functionals(f, f)
    assert abs(fun["I_abs"] - 1 / 6) < 1e-12
    assert abs(fun["P0"] - 2 / 3) < 1e-12


def test_fejer_045_functionals():
    f = make_fejer(0.45)
    fun = functionals(f, f)
    assert abs(fun["I_abs"] - 0.03375) < 1e-12
    assert abs(fun["P0"] - 0.3) < 1e-12
    assert f.int_box1 == f.f0  # sigma <= 1


def test_invalid_sigma():
    with pytest.raises(ValueError):
        make_fejer(0.0)
    with pytest.raises(ValueError):
        make_smooth_bump(-1.0)
    for spec in ("sinc:1", "bump:0.3"):  # no "bump" alias
        with pytest.raises(ValueError, match="unknown test function kind"):
            make_testfn(spec)
    for sigma in (float("nan"), float("inf"), -float("inf")):
        for make in (make_fejer, make_smooth_bump):
            with pytest.raises(ValueError, match="finite and positive"):
                make(sigma)


def test_parse():
    f = make_testfn("fejer:0.3")
    assert f.kind == "fejer" and f.sigma == 0.3
    g = make_testfn("smoothbump:0.45")
    assert g.kind == "smoothbump"


@pytest.mark.parametrize("spec", ["fejer", "fejer:", "smoothbump: "])
def test_parse_requires_sigma(spec):
    # a missing sigma once meant sigma = 1.0, a run far slower than intended
    with pytest.raises(ValueError, match="'fejer:0.3'"):
        make_testfn(spec)


def test_compact_support():
    for tf in (make_fejer(0.45), make_smooth_bump(0.45)):
        u = np.array([0.4501, 0.6, 1.0, -2.0])
        assert np.all(tf.fhat(u) == 0.0)


def test_evenness():
    xs = np.linspace(0.01, 5.0, 57)
    for tf in (make_fejer(0.9), make_smooth_bump(0.9)):
        assert np.allclose(tf.f(xs), tf.f(-xs), rtol=0, atol=1e-15)
        us = np.linspace(0.0, 1.0, 41)
        assert np.allclose(tf.fhat(us), tf.fhat(-us), rtol=0, atol=1e-15)


def test_fourier_consistency():
    for tf in (make_fejer(0.9), make_smooth_bump(0.9),
               make_fejer(0.45), make_smooth_bump(0.45)):
        int_fhat = quad_panels(tf.fhat, [-tf.sigma, 0.0, tf.sigma])
        assert abs(float(tf.f(0.0)) - int_fhat) <= 1e-10
        # x-side truncation chosen from the tail envelope
        T = 2e6 if tf.kind == "fejer" else 2000.0
        step = 1.0 if tf.kind == "fejer" else 0.25
        bp = np.arange(0.0, T + step, step)
        val = 2.0 * quad_panels(tf.f, bp, order=8)
        assert abs(tf.fhat0 - val) <= 1e-6, tf.kind


def test_quad_panels_unsorted_repeated_breakpoints():
    tf = make_smooth_bump(0.45)
    clean = quad_panels(tf.fhat, [-0.45, 0.0, 0.2, 0.45])
    messy = quad_panels(tf.fhat, [0.45, 0.0, -0.45, 0.2, 0.0, 0.45, -0.0])
    assert messy == clean
    assert abs(clean - tf.f0) < 1e-14


def test_quad_panels_blocks_match_whole_grid():
    # 2000 panels of 16 nodes: fn sees blocks of at most 4096 nodes, and
    # the correctly rounded sum equals the one over the whole grid
    tf = make_fejer(0.45)
    bp = np.arange(0.0, 500.25, 0.25)
    sizes = []

    def fn(x):
        sizes.append(x.size)
        return tf.f(x)

    x, w = panel_grid(bp, 16)
    assert quad_panels(fn, bp, order=16) == math.fsum(tf.f(x) * w)
    assert sum(sizes) == x.size and max(sizes) <= 4096 < x.size


def test_fejer_nonnegative():
    xs = np.linspace(-30, 30, 4001)
    assert np.all(make_fejer(0.45).f(xs) >= 0.0)
    # the smooth bump is real and even but NOT everywhere nonnegative:
    # its transform dips below zero near 2 pi sigma x = 2 pi
    b = make_smooth_bump(0.45)
    assert float(b.f(1.0 / 0.45)) < 0.0


def _direct_ghat(f1, f2, u):
    """ghat(u) as the cosine transform of f1 f2, by x-side quadrature."""
    return 2 * quad_panels(
        lambda x: f1.f(x) * f2.f(x) * np.cos(2 * np.pi * u * x),
        np.linspace(0, 2000, 6001), order=10)


def test_product_fn():
    f = make_fejer(0.45)
    g = product_fn(f, f)
    assert abs(g.fhat0 - 0.3) < 1e-12        # ghat(0) = P0
    assert abs(g.f0 - 0.2025) < 1e-15        # g(0) = f(0)^2
    assert g.sigma == 0.9
    u = np.array([0.95, 1.5])
    assert np.all(g.fhat(u) == 0.0)          # convolution support
    # convolution vs direct transform quadrature
    for uu in (0.1, 0.35, 0.7):
        assert abs(float(g.fhat(uu)) - _direct_ghat(f, f, uu)) < 1e-6
    # unequal Fejer pairs: the same closed form
    for s1, s2, us in ((0.15, 0.1, (0.0, 0.03, 0.12, 0.2)),
                       (0.3, 0.2, (0.0, 0.1, 0.25, 0.4))):
        f1, f2 = make_fejer(s1), make_fejer(s2)
        g = product_fn(f1, f2)
        assert abs(float(g.fhat(0.0)) - g.fhat0) < 1e-14
        assert np.all(g.fhat(np.array([s1 + s2, -(s1 + s2), 1.0])) == 0.0)
        for uu in us:
            assert abs(float(g.fhat(uu)) - _direct_ghat(f1, f2, uu)) < 1e-6


def test_product_fn_mixed_kinds():
    f = make_fejer(0.3)
    b = make_smooth_bump(0.2)
    g = product_fn(f, b)
    assert abs(g.fhat0 - functionals(f, b)["P0"]) < 1e-10
    assert abs(float(g.fhat(0.0)) - g.fhat0) < 1e-10
    assert float(g.fhat(0.6)) == 0.0
    # the batched convolution vs one scalar quadrature per u
    us = np.array([-0.45, -0.2, 0.0, 0.05, 0.17, 0.3, 0.49])
    for f1, f2 in ((b, make_smooth_bump(0.35)), (f, b), (b, f)):
        got = product_fn(f1, f2).fhat(us)
        for u, val in zip(us, got):
            bp = [-f1.sigma, 0.0, f1.sigma, u - f2.sigma, u, u + f2.sigma]
            ref = quad_panels(lambda v: f1.fhat(v) * f2.fhat(u - v), bp,
                              order=16)
            assert abs(val - ref) < 1e-14, (f1.kind, f2.kind, u)


def test_pairwise_sum():
    rng = np.random.default_rng(1)
    a = rng.normal(size=1001)
    assert abs(pairwise_sum(a) - float(np.sum(a))) < 1e-9
    assert pairwise_sum(np.array([])) == 0.0
