"""Even test functions with compactly supported Fourier transform.

Convention: fhat(u) = int f(x) exp(-2 pi i x u) dx, so a transform
supported in [-sigma, sigma] cuts every prime sum off exactly at
C^sigma.  Two catalogue kinds:

  Fejer(sigma):      fhat(u) = max(0, 1 - |u|/sigma),
                     f(x) = sigma * (sin(pi sigma x)/(pi sigma x))^2
  SmoothBump(sigma): fhat(u) = (1 - (u/sigma)^2)^2 on |u| <= sigma,
                     f(x) = sigma * g(2 pi sigma x) with
                     g(a) = 16[(3 - a^2) sin a - 3a cos a]/a^5

Fejer is nonnegative (square of a transform); SmoothBump is real and
even but dips slightly negative away from the origin.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@functools.cache
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def panel_grid(breakpoints, order):
    """Gauss-Legendre nodes and weights on every panel between breakpoints.

    breakpoints has shape (..., k); each row is sorted, and a 1-D row
    also loses its repeats.  Returns (x, w), each of shape
    (..., (k - 1) * order); a repeated breakpoint in a batched row is a
    zero-width panel whose weights are 0.
    """
    bp = np.asarray(breakpoints, dtype=np.float64)
    bp = np.unique(bp) if bp.ndim == 1 else np.sort(bp, axis=-1)
    nodes, weights = _leggauss(order)
    lo, hi = bp[..., :-1, None], bp[..., 1:, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    shape = bp.shape[:-1] + (max(bp.shape[-1] - 1, 0) * order,)
    return (mid + half * nodes).reshape(shape), (half * weights).reshape(shape)


# nodes per fn call in quad_panels, so no full-grid temporary is built
_QUAD_BLOCK = 4096


def quad_panels(fn, breakpoints, order=24):
    """Composite Gauss-Legendre over the panels between the breakpoints.

    fn is called on the nodes of about _QUAD_BLOCK // order panels at a
    time, and one math.fsum takes every block's terms; fsum is correctly
    rounded, so the sum does not depend on the blocks or the panel order.
    """
    bp = np.unique(np.asarray(breakpoints, dtype=np.float64))
    step = max(1, _QUAD_BLOCK // order)

    def terms():
        for i in range(0, bp.size - 1, step):
            x, w = panel_grid(bp[i:i + step + 1], order)
            yield from fn(x) * w

    return math.fsum(terms())


def pairwise_sum(a):
    """math.fsum(a): the package's sums call math.fsum directly.

    Nothing here calls this; it stays while perfbench's per-layer
    metrics testfn.pairwise_sum.* name it (a traced run rejects a metric
    that names no function), and goes with them.
    """
    return math.fsum(a)


@dataclass(frozen=True)
class TestFn:
    kind: str  # "fejer" or "smoothbump"
    sigma: float
    f: Callable = None
    fhat: Callable = None
    f0: float = 0.0
    fhat0: float = 0.0
    int_box1: float = 0.0      # integral of fhat over [-1, 1]

    def __call__(self, x):
        return self.f(x)


def _fejer_f(sigma):
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        a = np.pi * sigma * x
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(a == 0.0, 1.0, np.sin(a) / np.where(a == 0.0, 1.0, a))
        return sigma * s * s
    return f


def _fejer_fhat(sigma):
    def fhat(u):
        u = np.asarray(u, dtype=np.float64)
        return np.maximum(0.0, 1.0 - np.abs(u) / sigma)
    return fhat


def _check_sigma(sigma) -> float:
    s = float(sigma)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    return s


def make_fejer(sigma) -> TestFn:
    s = _check_sigma(sigma)
    if s <= 1.0:
        box1 = s  # full mass of the triangle
    else:
        box1 = 2.0 - 1.0 / s
    return TestFn(kind="fejer", sigma=s, f=_fejer_f(s), fhat=_fejer_fhat(s),
                  f0=s, fhat0=1.0, int_box1=box1)


def _bump_g(a):
    """g(a) = 16[(3 - a^2) sin a - 3a cos a]/a^5, even, g(0) = 16/15."""
    a = np.asarray(a, dtype=np.float64)
    small = np.abs(a) < 1e-2
    asafe = np.where(small, 1.0, a)
    g = 16.0 * ((3.0 - asafe ** 2) * np.sin(asafe)
                - 3.0 * asafe * np.cos(asafe)) / asafe ** 5
    a2 = a * a
    taylor = 16.0 / 15.0 - 8.0 * a2 / 105.0 + 2.0 * a2 * a2 / 945.0 \
        - a2 * a2 * a2 / 31185.0
    return np.where(small, taylor, g)


def _bump_f(sigma):
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        return sigma * _bump_g(2.0 * np.pi * sigma * x)
    return f


def _bump_fhat(sigma):
    def fhat(u):
        u = np.asarray(u, dtype=np.float64)
        v = u / sigma
        return np.where(np.abs(v) <= 1.0, (1.0 - v * v) ** 2, 0.0)
    return fhat


def make_smooth_bump(sigma) -> TestFn:
    s = _check_sigma(sigma)
    fhat = _bump_fhat(s)
    # g(0) = int_{-s}^{s} (1-(u/s)^2)^2 du = 16 s / 15
    f0 = 16.0 * s / 15.0
    if s <= 1.0:
        box1 = f0
    else:
        box1 = quad_panels(fhat, [-1.0, 0.0, 1.0])
    return TestFn(kind="smoothbump", sigma=s, f=_bump_f(s), fhat=fhat,
                  f0=f0, fhat0=1.0, int_box1=box1)


def make_testfn(spec: str) -> TestFn:
    """Parse 'fejer:0.45' or 'smoothbump:0.3'."""
    kind, _, val = spec.partition(":")
    sigma = float(val) if val else 1.0
    kind = kind.strip().lower()
    if kind == "fejer":
        return make_fejer(sigma)
    if kind in ("smoothbump", "bump"):
        return make_smooth_bump(sigma)
    raise ValueError(f"unknown test function kind {kind!r}")


# -- functionals -----------------------------------------------------------

def _hat_breaks(f1, f2):
    s = max(f1.sigma, f2.sigma)
    pts = {0.0, s, -s, f1.sigma, -f1.sigma, f2.sigma, -f2.sigma}
    return sorted(pts)


def functionals(f1: TestFn, f2: TestFn) -> dict:
    """The pair functionals I_abs and P0 of the 2-level formulas.

    Closed forms for Fejer pairs; Gauss-Legendre with kink splitting
    otherwise (the integrands are piecewise polynomial, so panel
    quadrature of modest order is exact to roundoff).
    """
    if f1.kind == "fejer" and f2.kind == "fejer":
        s1, s2 = f1.sigma, f2.sigma
        s = min(s1, s2)
        I_abs = 2.0 * (s * s / 2.0 - (1.0 / s1 + 1.0 / s2) * s ** 3 / 3.0
                       + s ** 4 / (4.0 * s1 * s2))
        P0 = 2.0 * (s - (1.0 / s1 + 1.0 / s2) * s * s / 2.0
                    + s ** 3 / (3.0 * s1 * s2))
    else:
        bp = _hat_breaks(f1, f2)
        I_abs = quad_panels(lambda u: np.abs(u) * f1.fhat(u) * f2.fhat(u), bp)
        P0 = quad_panels(lambda u: f1.fhat(u) * f2.fhat(u), bp)
    return {
        "I_abs": I_abs,      # int |u| fhat1 fhat2 du
        "P0": P0,            # int f1 f2 dx = int fhat1 fhat2 du
    }


# -- pointwise products ----------------------------------------------------

def _fejer_conv(a, b):
    """Convolution of the Fejer triangles of half-widths a and b.

    Each triangle is (1/a) times the second difference of x_+ with step
    a, so their convolution is the double second difference of x_+^3/6:
    (1/(6ab)) sum_{i,j} c_i c_j (|u| + i a + j b)_+^3, c = (1, -2, 1),
    which vanishes for |u| >= a + b.
    """
    c = ((-1.0, 1.0), (0.0, -2.0), (1.0, 1.0))  # (i, c_i)

    def ghat(u):
        w = np.abs(np.asarray(u, dtype=np.float64))
        out = sum(ci * cj * np.maximum(w + i * a + j * b, 0.0) ** 3
                  for i, ci in c for j, cj in c)
        return np.where(w < a + b, out / (6.0 * a * b), 0.0)
    return ghat


def product_fn(f1: TestFn, f2: TestFn) -> TestFn:
    """Pointwise product g = f1 f2 with ghat = fhat1 * fhat2 (convolution)."""
    s = f1.sigma + f2.sigma
    fun = functionals(f1, f2)

    def g(x):
        return f1.f(x) * f2.f(x)

    if f1.kind == "fejer" and f2.kind == "fejer":
        ghat = _fejer_conv(f1.sigma, f2.sigma)
    else:
        def ghat(u):
            # one batched quadrature over the rows of kinks of
            # fhat1(v) fhat2(u - v); the integrand is piecewise
            # polynomial, so order 16 is exact to roundoff
            u = np.asarray(u, dtype=np.float64)
            out = np.zeros(u.shape)
            inside = np.abs(u) < s
            ui = u[inside][:, None]
            rows = np.broadcast_arrays(-f1.sigma, 0.0, f1.sigma,
                                       ui - f2.sigma, ui, ui + f2.sigma)
            x, w = panel_grid(np.concatenate(rows, axis=1), 16)
            # fixed-order numpy sum along the node axis
            out[inside] = np.sum(f1.fhat(x) * f2.fhat(ui - x) * w, axis=1)
            return out

    g0 = f1.f0 * f2.f0  # = int ghat
    if s <= 1.0:
        box1 = g0
    else:
        box1 = quad_panels(ghat, np.linspace(-1.0, 1.0, 33), order=16)
    return TestFn(kind=f"product({f1.kind},{f2.kind})", sigma=s, f=g,
                  fhat=ghat, f0=g0, fhat0=fun["P0"], int_box1=box1)
