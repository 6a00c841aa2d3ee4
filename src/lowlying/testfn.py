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

Every fhat, a product's too, is one exact PiecewisePoly; quad_panels
serves the x-side integrals of `predict` and the tests.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@functools.cache
def _leggauss(order):
    return np.polynomial.legendre.leggauss(order)


def panel_grid(breakpoints, order):
    """Gauss-Legendre nodes and weights (x, w) on every panel between the
    breakpoints, which must be strictly increasing."""
    bp = np.asarray(breakpoints, dtype=np.float64)
    nodes, weights = _leggauss(order)
    lo, hi = bp[:-1, None], bp[1:, None]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return (mid + half * nodes).ravel(), (half * weights).ravel()


# nodes per fn call in quad_panels, so no full-grid temporary is built
_QUAD_BLOCK = 4096


def quad_panels(fn, breakpoints, order=24):
    """Composite Gauss-Legendre over the panels between the breakpoints.

    The breakpoints are sorted and lose their repeats first (the first of
    each run is kept, and -0.0 merges with 0.0).  fn is called on the
    nodes of about _QUAD_BLOCK // order panels at a time, and one
    math.fsum takes every block's terms; fsum is correctly rounded, so
    the sum does not depend on the blocks or the panel order.
    """
    bp = np.sort(np.asarray(breakpoints, dtype=np.float64))
    bp = bp[np.concatenate(([True], bp[1:] != bp[:-1]))]
    step = max(1, _QUAD_BLOCK // order)
    grids = (panel_grid(bp[i:i + step + 1], order)
             for i in range(0, bp.size - 1, step))
    return math.fsum(itertools.chain.from_iterable(
        (fn(x) * w).tolist() for x, w in grids))


def pairwise_sum(a):
    """math.fsum(a).  Unused here; it stays while perfbench's metrics
    testfn.pairwise_sum.* name it (a traced run rejects a metric that
    names no function), and goes with them."""
    return math.fsum(a)


def _compose(c, a, b):
    """Ascending coefficients of c(a + b w), by Horner on np.convolve."""
    out = np.asarray(c[-1:], dtype=np.float64)
    for cj in c[-2::-1]:
        out = np.convolve(out, (a, b))
        out[0] += cj
    return out


class PiecewisePoly:
    """An even function, polynomial on each piece of |u|, 0 past the last.

    breaks is 0 = b_0 < ... < b_K; row k of coef holds piece k's
    ascending coefficients, degree >= 1, in its own variable
    w = (|u| - b_k)/(b_(k+1) - b_k) in [0, 1], which keeps a
    convolution's coefficients O(1) and its rounding at a few ulp.
    """

    def __init__(self, breaks, coef):
        self.breaks = np.asarray(breaks, dtype=np.float64)
        self.coef = np.asarray(coef, dtype=np.float64)
        self._breaks = self.breaks.tolist()  # floats, for bisect

    def __call__(self, u):
        """Values at u, exactly 0.0 at |u| >= b_K: Horner on the whole
        array per piece that [min |u|, max |u|] meets, lowest first."""
        a = np.abs(np.asarray(u, dtype=np.float64))
        b, amax = self._breaks, a.max(initial=0.0)
        lo = bisect.bisect(b, a.min(initial=np.inf)) - 1
        hi = min(bisect.bisect(b, amax), len(self.coef))
        if lo >= hi:
            return np.zeros(a.shape)
        for k in range(lo, hi):
            c = self.coef[k].tolist()  # b_0 = 0: piece 0 needs no shift
            w = (a - b[k] if k else a) / (b[k + 1] - b[k])
            val = c[-1] * w
            for cj in c[-2:0:-1]:
                val += cj
                val *= w
            val += c[0]
            out = val if k == lo else np.where(a >= b[k], val, out)
        if amax >= b[-1]:
            out[a >= b[-1]] = 0.0
        return out

    def integral(self, x=math.inf):
        """int of the function over [-x, x]."""
        b, terms = self.breaks, []
        for k, c in enumerate(self.coef[:bisect.bisect_left(self._breaks, x)]):
            W = min(1.0, (x - b[k]) / (b[k + 1] - b[k]))
            val = 0.0  # int_0^W of the piece, by Horner
            for j in range(len(c) - 1, -1, -1):
                val = (val + c[j] / (j + 1)) * W
            terms.append((b[k + 1] - b[k]) * val)
        return 2.0 * math.fsum(terms)

    def times_abs(self):
        """|u| times this function."""
        b = self.breaks  # |u| = b_k + (b_(k+1) - b_k) w on piece k
        return PiecewisePoly(b, [np.convolve(c, (b0, b1 - b0))
                                 for c, b0, b1 in zip(self.coef, b, b[1:])])

    def convolve(self, other):
        """(self * other)(u) = int self(v) other(u - v) dv, piece by piece.

        Its breaks are the sums of two whole-line breaks, so on each
        output piece a pair of input pieces, P on [a, b] (the wider,
        width h) and Q on [c, d] (width k), meets along one formula.
        With Q^[-n] the n-fold antiderivative of Q vanishing at c,
        F(v) = -sum_m P^(m)(v) Q^[-m-1](u - v) has F' = P(v) Q(u - v)
        and F(u - c) = 0; the pair adds F(v1) - F(v0), v1 = min(b, u - c),
        v0 = max(a, u - d).  Each P^(m) and Q^[-m-1] is read inside its
        own piece, and each term carries (k/h)^m <= 1.
        """
        # whole line, left to right; the mirror of piece k is coef(1 - s)
        A, B = ([(-fn.breaks[k + 1], -fn.breaks[k], _compose(c, 1.0, -1.0))
                 for k, c in reversed(list(enumerate(fn.coef)))]
                + list(zip(fn.breaks, fn.breaks[1:], fn.coef))
                for fn in (self, other))
        xs, ys = ((-fn.breaks).tolist() + fn.breaks.tolist()
                  for fn in (self, other))
        br = sorted({0.0} | {x + y for x in xs for y in ys if x + y > 0.0})
        rows = np.zeros((len(br) - 1, len(self.coef[0]) + len(other.coef[0])))
        for row, U0, U1 in zip(rows, br[:-1], br[1:]):
            L, mid = U1 - U0, 0.5 * (U0 + U1)
            for P, Q in itertools.product(A, B):
                if P[1] - P[0] < Q[1] - Q[0]:
                    P, Q = Q, P
                (a, b, p), (c, d, q) = P, Q
                if not (mid - d < b and mid - c > a):
                    continue  # P and Q do not meet on this piece
                h, k = b - a, d - c
                for m in range(p.size):  # in local variables s, t:
                    # p = d^m P/ds^m, q = Q's (m+1)-fold antiderivative
                    q = np.concatenate(([0.0], q / np.arange(1, q.size + 1)))
                    scale = k * (k / h) ** m
                    if mid - c > b:  # v1 = b
                        row[:q.size] -= scale * p.sum() * _compose(
                            q, (U0 - b - c) / k, L / k)
                    if mid - d < a:  # v0 = a
                        row[:q.size] += scale * p[0] * _compose(
                            q, (U0 - a - c) / k, L / k)
                    else:  # v0 = u - d
                        row[:p.size] += scale * q.sum() * _compose(
                            p, (U0 - d - a) / h, L / h)
                    p = np.arange(1, p.size) * p[1:]
        return PiecewisePoly(br, rows)


@dataclass(frozen=True)
class TestFn:
    kind: str  # "fejer", "smoothbump" or "product(kind1,kind2)"
    f: Callable
    fhat: PiecewisePoly
    # fhat is exactly 0.0 at |u| >= sigma; f(0) = int fhat
    sigma = property(lambda self: float(self.fhat.breaks[-1]))
    f0 = property(lambda self: self.fhat.integral())
    fhat0 = property(lambda self: float(self.fhat(0.0)))
    int_box1 = property(lambda self: self.fhat.integral(1.0))  # on [-1, 1]


def _fejer_f(sigma):
    def f(x):
        x = np.asarray(x, dtype=np.float64)
        a = np.pi * sigma * x
        with np.errstate(divide="ignore", invalid="ignore"):
            s = np.where(a == 0.0, 1.0, np.sin(a) / np.where(a == 0.0, 1.0, a))
        return sigma * s * s
    return f


def _check_sigma(sigma) -> float:
    s = float(sigma)
    if not (math.isfinite(s) and s > 0.0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    return s


def make_fejer(sigma) -> TestFn:
    """fhat is one piece, -w + 1 with w = |u|/sigma."""
    s = _check_sigma(sigma)
    return TestFn("fejer", _fejer_f(s), PiecewisePoly([0.0, s], [[1.0, -1.0]]))


def _bump_f(sigma):
    """f(x) = sigma g(2 pi sigma x) with the even g(a) = 16[(3 - a^2) sin a
    - 3a cos a]/a^5, by its Taylor series at |a| < 1e-2 (g(0) = 16/15)."""
    def f(x):
        a = 2.0 * np.pi * sigma * np.asarray(x, dtype=np.float64)
        small = np.abs(a) < 1e-2
        asafe = np.where(small, 1.0, a)
        g = 16.0 * ((3.0 - asafe ** 2) * np.sin(asafe)
                    - 3.0 * asafe * np.cos(asafe)) / asafe ** 5
        a2 = a * a
        taylor = 16.0 / 15.0 - 8.0 * a2 / 105.0 + 2.0 * a2 * a2 / 945.0 \
            - a2 * a2 * a2 / 31185.0
        return sigma * np.where(small, taylor, g)
    return f


def make_smooth_bump(sigma) -> TestFn:
    """fhat is one piece, 1 - 2w^2 + w^4 with w = |u|/sigma."""
    s = _check_sigma(sigma)
    return TestFn("smoothbump", _bump_f(s),
                  PiecewisePoly([0.0, s], [[1.0, 0.0, -2.0, 0.0, 1.0]]))


def make_testfn(spec: str) -> TestFn:
    """Parse 'fejer:0.45' or 'smoothbump:0.3'; sigma is required."""
    kind, _, val = spec.partition(":")
    kind = kind.strip().lower()
    make = {"fejer": make_fejer, "smoothbump": make_smooth_bump}.get(kind)
    if make is None:
        raise ValueError(f"unknown test function kind {kind!r}")
    try:
        sigma = float(val)
    except ValueError:
        what = f"sigma {val!r}, not a number" if val.strip() else "no sigma"
        raise ValueError(f"test function {spec!r} has {what}; write it as "
                         f"kind:sigma, e.g. 'fejer:0.3'") from None
    return make(sigma)


def functionals(f1: TestFn, f2: TestFn) -> dict:
    """The pair functionals of the 2-level formulas, each a convolution
    of even transforms read at 0: I_abs = int |u| fhat1 fhat2 du =
    (fhat1 * |u| fhat2)(0), P0 = int f1 f2 dx = (fhat1 * fhat2)(0)."""
    return {"I_abs": float(f1.fhat.convolve(f2.fhat.times_abs())(0.0)),
            "P0": float(f1.fhat.convolve(f2.fhat)(0.0))}


def product_fn(f1: TestFn, f2: TestFn) -> TestFn:
    """Pointwise product g = f1 f2 with ghat = fhat1 * fhat2 (convolution)."""
    return TestFn(f"product({f1.kind},{f2.kind})",
                  lambda x: f1.f(x) * f2.f(x), f1.fhat.convolve(f2.fhat))
