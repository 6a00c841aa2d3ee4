import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import src_env
from lowlying.testfn import (functionals, make_fejer, make_smooth_bump,
                             make_testfn, pairwise_sum, panel_grid,
                             product_fn, quad_panels)

MAKERS = {"fejer": make_fejer, "smoothbump": make_smooth_bump}
# (kind1, sigma1, kind2, sigma2): every kind pair, both mixed orders
KIND_PAIRS = [("fejer", 0.3, "fejer", 0.2), ("smoothbump", 0.2,
              "smoothbump", 0.35), ("fejer", 0.3, "smoothbump", 0.2),
              ("smoothbump", 0.2, "fejer", 0.3)]


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


@pytest.mark.parametrize("spec", ["fejer", "fejer:", "smoothbump: ",
                                  "fejer:abc", "fejer:0.3:1"])
def test_parse_requires_sigma(spec):
    # a missing sigma once meant sigma = 1.0, a run far slower than intended;
    # a non-numeric one once failed with float()'s bare message
    with pytest.raises(ValueError, match="kind:sigma, e.g. 'fejer:0.3'") as e:
        make_testfn(spec)
    assert repr(spec) in str(e.value)


def test_fejer_piece_is_the_closed_form_bit_for_bit():
    # the one piece -w + 1, w = |u|/sigma, is max(0, 1 - |u|/sigma) to the
    # bit, and its integral is sigma exactly
    us = np.linspace(-1.2, 1.2, 4801)
    for sigma in np.linspace(0.001, 2.0, 2006):
        f = make_fejer(sigma)
        want = np.maximum(0.0, 1.0 - np.abs(us) / sigma)
        assert np.array_equal(f.fhat(us), want), sigma
        assert f.f0 == sigma and f.fhat0 == 1.0, sigma
        if sigma <= 1.0:
            assert f.int_box1 == sigma
        else:  # the triangle cut at |u| = 1
            assert abs(f.int_box1 - (2.0 - 1.0 / sigma)) < 1e-15, sigma


def test_import_and_parse_load_no_numpy_polynomial():
    # the transforms are plain numpy (np.convolve, Horner): a run that
    # only parses its test function loads no numpy.polynomial
    code = ("import sys; import lowlying.cli; "
            "from lowlying.testfn import make_testfn; "
            "make_testfn('fejer:0.3'); make_testfn('smoothbump:1.5'); "
            "print('numpy.polynomial' in sys.modules)")
    p = subprocess.run([sys.executable, "-c", code], env=src_env(),
                       capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "False"


def test_verify_kernels_loads_no_numpy_ma():
    # quad_panels drops repeated breakpoints by a sort and a neighbour
    # compare, not np.unique, whose first call imports numpy.ma
    code = "\n".join([
        "import contextlib, io, sys",
        "from lowlying import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['verify-kernels', '--testfn', 'fejer:0.9',",
        "                     '--testfn2', 'fejer:0.45'])",
        "print(code, 'numpy.ma' in sys.modules)"])
    p = subprocess.run([sys.executable, "-c", code], env=src_env(),
                       capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "0 False"


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
    # unequal Fejer pairs
    for s1, s2, us in ((0.15, 0.1, (0.0, 0.03, 0.12, 0.2)),
                       (0.3, 0.2, (0.0, 0.1, 0.25, 0.4))):
        f1, f2 = make_fejer(s1), make_fejer(s2)
        g = product_fn(f1, f2)
        assert abs(float(g.fhat(0.0)) - g.fhat0) < 1e-14
        assert np.all(g.fhat(np.array([s1 + s2, -(s1 + s2), 1.0])) == 0.0)
        for uu in us:
            assert abs(float(g.fhat(uu)) - _direct_ghat(f1, f2, uu)) < 1e-6


def test_product_fn_mixed_kinds():
    for k1, s1, k2, s2 in KIND_PAIRS:
        f1, f2 = MAKERS[k1](s1), MAKERS[k2](s2)
        g = product_fn(f1, f2)
        assert g.sigma == s1 + s2
        assert abs(g.fhat0 - functionals(f1, f2)["P0"]) < 1e-15
        # the exact convolution vs one scalar quadrature per u: on a grid,
        # on every kink and 5e-4 to either side of it, where a misplaced
        # break would put the wrong formula
        kinks = np.array([0.0, s1, s2, abs(s1 - s2), s1 + s2])
        us = np.concatenate([np.linspace(-(s1 + s2), s1 + s2, 61), kinks,
                             kinks - 5e-4, kinks + 5e-4, -kinks - 5e-4])
        for u, val in zip(us, g.fhat(us)):
            bp = [-s1, 0.0, s1, u - s2, u, u + s2]
            ref = quad_panels(lambda v: f1.fhat(v) * f2.fhat(u - v), bp,
                              order=16)
            assert abs(val - ref) < 1e-14, (k1, k2, u)


@pytest.mark.parametrize("k1, s1, k2, s2", KIND_PAIRS + [
    ("fejer", 0.45, "smoothbump", 0.001), ("smoothbump", 0.3, "fejer", 0.15),
    ("fejer", 0.6, "fejer", 0.6)])
def test_product_fhat_is_zero_past_its_support(k1, s1, k2, s2):
    # the prime walk's S2 cut needs ghat == 0.0 exactly at |u| >= sigma
    g = product_fn(MAKERS[k1](s1), MAKERS[k2](s2))
    S = s1 + s2
    u = np.array([S, -S, np.nextafter(S, 2.0), 1.5 * S, 10.0])
    assert np.all(g.fhat(u) == 0.0) and float(g.fhat(S)) == 0.0


def _hat_quad(fn, breaks, lo, hi):
    """quad_panels of fn over [lo, hi], split at +-breaks inside it."""
    bp = [lo, hi] + [x for b in breaks for x in (b, -b) if lo < x < hi]
    return quad_panels(fn, bp, order=16)


@pytest.mark.parametrize("k1, s1, k2, s2", KIND_PAIRS + [
    ("fejer", 0.9, "smoothbump", 1.3), ("smoothbump", 1.7, "smoothbump",
                                        0.45)])
def test_functionals_match_quadrature(k1, s1, k2, s2):
    f1, f2 = MAKERS[k1](s1), MAKERS[k2](s2)
    fun = functionals(f1, f2)
    s, bk = min(s1, s2), [s1, s2, 0.0]
    P0 = _hat_quad(lambda u: f1.fhat(u) * f2.fhat(u), bk, -s, s)
    I_abs = _hat_quad(lambda u: np.abs(u) * f1.fhat(u) * f2.fhat(u),
                      bk, -s, s)
    assert abs(fun["P0"] - P0) < 1e-14 and abs(fun["I_abs"] - I_abs) < 1e-14


@pytest.mark.parametrize("spec", ["fejer:0.45", "smoothbump:0.45",
                                  "fejer:1.7", "smoothbump:1.7",
                                  "smoothbump:0.6*fejer:0.7",
                                  "fejer:0.3*smoothbump:0.2"])
def test_int_box1_and_f0_match_quadrature(spec):
    # sigma <= 1 and sigma > 1, catalogue and product: f0 = int fhat and
    # int_box1 = int of fhat over [-1, 1]
    g = None
    for part in spec.split("*"):
        f = make_testfn(part)
        g = f if g is None else product_fn(g, f)
    br = g.fhat.breaks
    assert abs(g.f0 - _hat_quad(g.fhat, br, -g.sigma, g.sigma)) < 1e-14
    assert abs(g.int_box1 - _hat_quad(g.fhat, br, -1.0, 1.0)) < 1e-14
    if g.sigma <= 1.0:
        assert g.int_box1 == g.f0


def test_pairwise_sum():
    rng = np.random.default_rng(1)
    a = rng.normal(size=1001)
    assert abs(pairwise_sum(a) - float(np.sum(a))) < 1e-9
    assert pairwise_sum(np.array([])) == 0.0
