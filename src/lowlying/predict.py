"""Random-matrix predicted densities and their quadrature cross-checks.

One-level densities are computed on the transform side: the delta mass
contributes fhat(0), the group term is a closed form in the cached
functionals, and the family's r zeros at the central point contribute
r*f(0).  kernel_crosscheck recomputes the same numbers from the x-side
sine-kernel determinants by quadrature, which validates the hat-side
closed forms independently.

Kernel: K(y) = sin(pi y)/(pi y); K_eps(x, y) = K(x-y) + eps*K(x+y).
"""

from __future__ import annotations

import math

import numpy as np

from .modarith import primes_upto
from .testfn import TestFn, functionals, panel_grid, quad_panels

GROUPS = ("SOeven", "O", "SOodd", "Sp", "U")

# coefficient c(G) of the 2-level g1(0)g2(0) term for the orthogonal flavors
C_OF_GROUP = {"SOeven": 0.0, "O": 0.5, "SOodd": 1.0}


def predict_d1(group: str, g: TestFn, r: int = 0) -> float:
    """ghat(0) + group term + r*g(0)."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    if group not in GROUPS:
        raise ValueError(f"unknown group {group!r}")
    box = g.int_box1  # integral of ghat over [-1, 1]
    term = {
        "SOeven": 0.5 * box,
        "O": 0.5 * g.f0,
        "SOodd": -0.5 * box + g.f0,
        "Sp": -0.5 * box,
        "U": 0.0,
    }[group]
    return g.fhat0 + term + r * g.f0


def predict_d2(group_or_c, g1: TestFn, g2: TestFn, r: int = 0,
               n_minus=None) -> float:
    """Two-level density for the orthogonal flavors.

    The base value is
      [ghat1(0)+g1(0)/2][ghat2(0)+g2(0)/2] + 2*int|u| ghat1 ghat2
      - 2*int g1 g2 - g1(0)g2(0) + c*g1(0)g2(0)
    with c = c(G) for a named group or the supplied odd-sign fraction,
    plus the rank terms (r^2-r)g1(0)g2(0) + r ghat1(0)g2(0)
    + r g1(0)ghat2(0).
    """
    if g1.sigma + g2.sigma >= 1.0:
        raise ValueError("2-level prediction needs sigma1 + sigma2 < 1")
    if isinstance(group_or_c, str):
        c = C_OF_GROUP[group_or_c]
    else:
        c = float(group_or_c)
    if n_minus is not None:
        c = float(n_minus)
    fun = functionals(g1, g2)
    base = ((g1.fhat0 + 0.5 * g1.f0) * (g2.fhat0 + 0.5 * g2.f0)
            + 2.0 * fun["I_abs"] - 2.0 * fun["P0"] - g1.f0 * g2.f0
            + c * g1.f0 * g2.f0)
    rank = ((r * r - r) * g1.f0 * g2.f0
            + r * g1.fhat0 * g2.f0 + r * g1.f0 * g2.fhat0)
    return base + rank


def predict_d2_sp(g1: TestFn, g2: TestFn, r: int = 0) -> float:
    return (predict_d2(0.0, g1, g2, r)
            - g1.f0 * g2.fhat0 - g1.fhat0 * g2.f0 + 2.0 * g1.f0 * g2.f0)


def predict_d2_u(g1: TestFn, g2: TestFn) -> float:
    fun = functionals(g1, g2)
    return g1.fhat0 * g2.fhat0 + fun["I_abs"] - fun["P0"]


# -- x-side kernels and quadrature cross-checks ----------------------------

def _K(y):
    y = np.asarray(y, dtype=np.float64)
    a = np.pi * y
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a == 0.0, 1.0, np.sin(a) / np.where(a == 0.0, 1.0, a))


def w1_ac(group: str, x):
    """Absolutely continuous part of the 1-level density W_{1,G}(x)."""
    x = np.asarray(x, dtype=np.float64)
    one = np.ones_like(x)
    if group == "U":
        return one
    if group in ("SOeven", "O"):
        return one + (_K(2 * x) if group == "SOeven" else 0.0)
    if group in ("SOodd", "Sp"):
        return one - _K(2 * x)
    raise ValueError(group)


_DELTA_MASS = {"SOeven": 0.0, "O": 0.5, "SOodd": 1.0, "Sp": 0.0, "U": 0.0}


def _int_f_K2(g: TestFn, T=None, order=16):
    """Quadrature of int f(x) K(2x) dx; integrand decays like x^-3."""
    if T is None:
        T = max(60.0, (1.0 / (2.0 * math.pi ** 3 * g.sigma * 1e-8)) ** 0.5)
    bp = np.arange(0.0, T + 0.25, 0.25)
    val = quad_panels(lambda x: g.f(x) * _K(2 * x), bp, order=order)
    return 2.0 * val  # even integrand


def kernel_crosscheck(group: str, g, g2: TestFn | None = None) -> float:
    """|x-side quadrature - hat-side closed form|.

    1-level: the constant part of W pairs to fhat(0) analytically, the
    oscillatory K(2x) part is integrated numerically, delta masses add
    f(0) terms.  2-level: the separable pieces reduce to the same 1-D
    integrals; only the -K_eps(x,y)^2 cross term needs a 2-D grid.
    """
    if g2 is None:
        side = g.fhat0 + _DELTA_MASS[group] * g.f0
        if group == "SOeven":
            side += _int_f_K2(g)
        elif group in ("SOodd", "Sp"):
            side -= _int_f_K2(g)
        return abs(side - predict_d1(group, g, 0))
    if group == "U":
        side = g.fhat0 * g2.fhat0 - _cross2d(g, g2, eps=None)
        return abs(side - predict_d2_u(g, g2))
    if group == "O":
        e = _d2_side(g, g2, +1)
        o = _d2_side(g, g2, -1) + _d2_odd_delta(g, g2)
        return abs(0.5 * (e + o) - predict_d2("O", g, g2, 0))
    if group == "SOeven":
        return abs(_d2_side(g, g2, +1) - predict_d2("SOeven", g, g2, 0))
    if group == "SOodd":
        side = _d2_side(g, g2, -1) + _d2_odd_delta(g, g2)
        return abs(side - predict_d2("SOodd", g, g2, 0))
    if group == "Sp":
        return abs(_d2_side(g, g2, -1) - predict_d2_sp(g, g2, 0))
    raise ValueError(group)


def _d2_side(g1, g2, eps):
    """int int f1 f2 [ (1+eps K(2x))(1+eps K(2y)) - K_eps(x,y)^2 ]."""
    q1, q2 = _int_f_K2(g1), _int_f_K2(g2)
    sep = (g1.fhat0 + eps * q1) * (g2.fhat0 + eps * q2)
    return sep - _cross2d(g1, g2, eps)


def _d2_odd_delta(g1, g2):
    """delta(x)(1 - K(2y)) + delta(y)(1 - K(2x)) paired with f1 f2."""
    return (g1.f0 * (g2.fhat0 - _int_f_K2(g2))
            + g2.f0 * (g1.fhat0 - _int_f_K2(g1)))


def _cross2d(g1, g2, eps, T=40.0, panel=0.5, order=10):
    """2-D quadrature of int int f1(x) f2(y) K_eps(x,y)^2 dx dy.

    eps=None means the unitary kernel K(x-y)^2.  The integrand decays
    like |x|^-2 |y|^-2 off the diagonals and the diagonal strips decay
    like T^-3, so a truncated square suffices for 1e-4 accuracy.
    """
    x, w = panel_grid(np.arange(-T, T + panel / 2, panel), order)
    f1x = g1.f(x) * w
    f2y = g2.f(x) * w
    XY = x[:, None] - x[None, :]
    S = _K(XY) ** 2
    if eps is not None:
        XP = x[:, None] + x[None, :]
        S = (_K(XY) + eps * _K(XP)) ** 2
    # rows by a fixed-order numpy reduction (no BLAS), then one correctly
    # rounded sum, so the result does not depend on the thread count
    row = np.add.reduce(S * f2y[None, :], axis=1)
    return math.fsum(f1x * row)


# -- prime-sum lemma check -------------------------------------------------

def primesum_check(C_N: int, g: TestFn, a: int = 1, m: int = 1, b: int = 0):
    """Finite prime sum vs. its limit F(0)/(2a phi(m)).

    value = (1/log C_N) sum_{p = b mod m} (log p / p) ghat(a log p / log C_N)
    over the primes the transform support admits (p <= C_N^(sigma/a)).
    Returns (value, target, gap).
    """
    if C_N < 1000:
        raise ValueError("C_N must be at least 10^3")
    logC = math.log(C_N)
    pmax = int(math.exp(logC * g.sigma / a)) + 1
    ps = np.asarray(primes_upto(pmax), dtype=np.int64)
    if m > 1:
        ps = ps[ps % m == b % m]
    ps = ps.astype(np.float64)
    logp = np.log(ps)
    terms = (logp / ps) * g.fhat(a * logp / logC) / logC
    value = math.fsum(terms)
    phi = sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
    target = g.f0 / (2.0 * a * phi)
    return value, target, abs(value - target)
