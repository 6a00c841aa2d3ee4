"""Random-matrix predicted densities and their quadrature cross-checks.

Both levels are tables {group: value} over GROUPS, computed on the
transform side from the exact piecewise-polynomial fhat of `testfn`:
the delta mass contributes fhat(0), the group term int_box1 (1-level)
or the pair functionals (2-level, once per table), and the family's r
central zeros r*f(0).  The orthogonal 2-level flavors differ only in
the coefficient c(G) of g1(0)g2(0).  kernel_crosscheck recomputes every
group of either level from the x-side sine-kernel determinants by
quadrature, which validates the hat side independently; its
predictions come first, so an inadmissible pair fails before any
quadrature.

Kernel: K(y) = sin(pi y)/(pi y); K_eps(x, y) = K(x-y) + eps*K(x+y).
"""

from __future__ import annotations

import math

import numpy as np

from .modarith import prime_cutoff, primes_upto
from .testfn import TestFn, functionals, panel_grid, quad_panels

GROUPS = ("SOeven", "O", "SOodd", "Sp", "U")

# coefficient c(G) of the 2-level g1(0)g2(0) term; Sp starts from c = 0
C_OF_GROUP = {"SOeven": 0.0, "O": 0.5, "SOodd": 1.0, "Sp": 0.0}


def predict_d1(g: TestFn, r: int = 0) -> dict:
    """{group: ghat(0) + group term + r*g(0)} over GROUPS."""
    if r < 0:
        raise ValueError("rank must be non-negative")
    box, f0 = g.int_box1, g.f0  # box = integral of ghat over [-1, 1]
    term = {"SOeven": 0.5 * box, "O": 0.5 * f0, "SOodd": -0.5 * box + f0,
            "Sp": -0.5 * box, "U": 0.0}
    return {grp: g.fhat0 + term[grp] + r * f0 for grp in GROUPS}


def predict_d2(g1: TestFn, g2: TestFn, r: int = 0) -> dict:
    """{group: two-level density} over GROUPS.

    The orthogonal flavors are
      [ghat1(0)+g1(0)/2][ghat2(0)+g2(0)/2] + 2*int|u| ghat1 ghat2
      - 2*int g1 g2 - g1(0)g2(0) + c(G)*g1(0)g2(0).
    Sp is the c = 0 value minus g1(0)ghat2(0) + ghat1(0)g2(0)
    - 2 g1(0)g2(0).  U is ghat1(0)ghat2(0) + int|u| ghat1 ghat2
    - int g1 g2.  Every group, U included, adds the rank terms of the r
    forced central zeros, (r^2-r)g1(0)g2(0) + r ghat1(0)g2(0)
    + r g1(0)ghat2(0), as predict_d1 adds r*g(0).
    """
    if r < 0:
        raise ValueError("rank must be non-negative")
    if g1.sigma + g2.sigma >= 1.0:
        raise ValueError("2-level prediction needs sigma1 + sigma2 < 1")
    fun = functionals(g1, g2)
    f1, f2, h1, h2 = g1.f0, g2.f0, g1.fhat0, g2.fhat0
    rank = (r * r - r) * f1 * f2 + r * h1 * f2 + r * f1 * h2
    out = {}
    for group, c in C_OF_GROUP.items():
        out[group] = ((h1 + 0.5 * f1) * (h2 + 0.5 * f2) + 2.0 * fun["I_abs"]
                      - 2.0 * fun["P0"] - f1 * f2 + c * f1 * f2) + rank
    out["Sp"] = out["Sp"] - f1 * h2 - h1 * f2 + 2.0 * f1 * f2
    out["U"] = h1 * h2 + fun["I_abs"] - fun["P0"] + rank
    return out


# -- x-side kernels and quadrature cross-checks ----------------------------

def _K(y):
    y = np.asarray(y, dtype=np.float64)
    a = np.pi * y
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a == 0.0, 1.0, np.sin(a) / np.where(a == 0.0, 1.0, a))


def w1_ac(x) -> dict:
    """{group: absolutely continuous part of W_{1,G}(x)} over GROUPS."""
    x = np.asarray(x, dtype=np.float64)
    one, k = np.ones_like(x), _K(2 * x)
    return {"SOeven": one + k, "O": one, "SOodd": one - k, "Sp": one - k,
            "U": one}


def _int_f_K2(g: TestFn):
    """Quadrature of int f(x) K(2x) dx; integrand decays like x^-3."""
    T = max(60.0, (1.0 / (2.0 * math.pi ** 3 * g.sigma * 1e-8)) ** 0.5)
    bp = np.arange(0.0, T + 0.25, 0.25)
    val = quad_panels(lambda x: g.f(x) * _K(2 * x), bp, order=16)
    return 2.0 * val  # even integrand


def kernel_crosscheck(g: TestFn, g2: TestFn | None = None) -> dict:
    """{group: |x-side quadrature - hat-side closed form|} over GROUPS.

    1-level (g2 None): the constant part of W pairs to fhat(0)
    analytically, the oscillatory part is q = int f K(2x), and delta
    masses add f(0) terms.  2-level: with q_i for each test function and
    mm, mp, pp = int int f1 f2 times K(x-y)^2, K(x-y)K(x+y), K(x+y)^2
    from one _cross2d pass, the x-sides are
      SOeven = (fhat1(0)+q1)(fhat2(0)+q2) - (mm + 2mp + pp)
      Sp     = (fhat1(0)-q1)(fhat2(0)-q2) - (mm - 2mp + pp)
      SOodd  = Sp + g1(0)(fhat2(0)-q2) + g2(0)(fhat1(0)-q1)
      O      = (SOeven + SOodd)/2,   U = fhat1(0)fhat2(0) - mm.
    """
    if g2 is None:
        pred = predict_d1(g)
        q = _int_f_K2(g)
        side = {"SOeven": g.fhat0 + q, "O": g.fhat0 + 0.5 * g.f0,
                "SOodd": g.fhat0 + g.f0 - q, "Sp": g.fhat0 - q,
                "U": g.fhat0}
        return {grp: abs(side[grp] - pred[grp]) for grp in GROUPS}
    pred = predict_d2(g, g2)  # an inadmissible pair raises before quadrature
    q1 = _int_f_K2(g)
    q2 = q1 if g2 is g else _int_f_K2(g2)
    mm, mp, pp = _cross2d(g, g2)
    even = (g.fhat0 + q1) * (g2.fhat0 + q2) - (mm + 2.0 * mp + pp)
    sp = (g.fhat0 - q1) * (g2.fhat0 - q2) - (mm - 2.0 * mp + pp)
    odd = sp + g.f0 * (g2.fhat0 - q2) + g2.f0 * (g.fhat0 - q1)
    side = {"SOeven": even, "O": 0.5 * (even + odd), "SOodd": odd,
            "Sp": sp, "U": g.fhat0 * g2.fhat0 - mm}
    return {grp: abs(side[grp] - pred[grp]) for grp in GROUPS}


def _cross2d(g1, g2, T=40.0, panel=0.5, order=10):
    """2-D quadrature of the sine-kernel cross terms; (mm, mp, pp).

    mm, mp, pp = int int f1(x) f2(y) times K(x-y)^2, K(x-y)K(x+y) and
    K(x+y)^2.  The integrands decay like |x|^-2 |y|^-2 off the diagonals
    and the diagonal strips decay like T^-3, so a truncated square
    suffices for 1e-4 accuracy.

    The node x_(k,a) of panel k is its centre plus the Gauss offset o_a,
    and the centres are spaced by exactly `panel`, so K(x-y) is block
    Toeplitz: K(x_(k,a) - x_(l,b)) = K(panel*(k-l) + (o_a - o_b)).  K is
    evaluated once on these (2P-1)*order^2 arguments of the P panels,
    and row block k of K(x-y) is a contiguous window of that table read
    backwards in k-l.  The offsets are antisymmetric bit for bit, so the
    grid is too, x_j = -x_(n-1-j), and the same block of K(x+y) is the
    K(x-y) block with its columns reversed.  No n^2 array is built.
    """
    x, w = panel_grid(np.arange(-T, T + panel / 2, panel), order)
    P = x.size // order
    o = panel_grid([-0.5 * panel, 0.5 * panel], order)[0]  # Gauss offsets
    assert np.array_equal(o, -o[::-1])
    f1x = g1.f(x) * w
    f2y = g2.f(x) * w
    # tab[a, (j, b)] = K(panel*(P-1-j) + (o_a - o_b)), j = 0 .. 2P-2
    d = panel * np.arange(P - 1, -P, -1.0)
    tab = _K(d[None, :, None] + (o[:, None, None] - o[None, None, :]))
    tab = tab.reshape(order, -1)
    # rows by a fixed-order numpy reduction (no BLAS), then one correctly
    # rounded sum, so the results do not depend on the thread count
    rows = np.empty((3, x.size))
    for k in range(P):
        Km = tab[:, (P - 1 - k) * order:(2 * P - 1 - k) * order]
        Kp = Km[:, ::-1]
        for r, S in zip(rows, (Km ** 2, Km * Kp, Kp ** 2)):
            r[k * order:(k + 1) * order] = np.add.reduce(S * f2y[None, :],
                                                         axis=1)
    return tuple(math.fsum(f1x * r) for r in rows)


# -- prime-sum lemma check -------------------------------------------------

def primesum_check(C_N: int, g: TestFn, a: int = 1, m: int = 1, b: int = 0):
    """Finite prime sum vs. its limit F(0)/(2a phi(m)).

    value = (1/log C_N) sum_{p = b mod m} (log p / p) ghat(a log p / log C_N)
    over the primes the transform support admits (p <= C_N^(sigma/a)).
    Returns (value, target, gap).  C_N < 10^3, a < 1, m < 1 and a cutoff
    above 10^9 raise ValueError.
    """
    if C_N < 1000 or a < 1 or m < 1:
        raise ValueError(f"need C_N >= 10^3, a >= 1 and m >= 1, got "
                         f"C_N = {C_N}, a = {a}, m = {m}")
    logC = math.log(C_N)
    pmax = prime_cutoff(logC, g.sigma / a)
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
