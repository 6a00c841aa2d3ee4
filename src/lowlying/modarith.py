"""Prime generation, residue symbols, point-count coefficients a_t(p),
and exact batched moment sums A_{r}(p) = sum over t mod p of a_t(p)^r.

A whole table t -> a_t(p) (`ap_table`) is computed in O(p log p): for
p > 3 each fiber's short model y^2 = x^3 + A x + B falls in one of three
twist classes (A = 0, B = 0, AB != 0), and each class is one cyclic
correlation of a fixed histogram with the Legendre character, done by
real FFT.  The correlations are integers, and their rounding error is
asserted below 0.25 before rounding.  `a_p` computes one t directly as
a character sum and `a_p_enumerate` counts points; both stay as
independent references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .family import FamilyDef

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def primes_upto(n: int):
    """All primes <= n, ascending (Eratosthenes)."""
    if n < 2:
        return []
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return [int(p) for p in np.nonzero(sieve)[0]]


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set (deterministic below 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for an odd prime p."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"{p} is not an odd prime")
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def cube_residue_indicator(a: int, p: int) -> int:
    """1 iff a is a nonzero cube mod p, for p = 1 mod 3."""
    if p % 3 != 1 or not is_prime(p):
        raise ValueError("p must be a prime congruent to 1 mod 3")
    return 1 if pow(a % p, (p - 1) // 3, p) == 1 else 0


def chi_table(p: int) -> np.ndarray:
    """Legendre symbols (0..p-1 | p) as an int8 array."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    x = np.arange(1, p, dtype=np.int64)
    chi[x * x % p] = 1
    return chi


def _poly_mod_coeffs(q, p):
    return [c % p for c in q.coeffs] or [0]


def _poly_mod_vals(q, p, xs):
    """q(xs) mod p, vectorized Horner with pre-reduced coefficients."""
    acc = np.zeros_like(xs)
    for c in reversed(_poly_mod_coeffs(q, p)):
        acc = (acc * xs + c) % p
    return acc


# -- a_t(p) ----------------------------------------------------------------

def a_p_enumerate(ai, p: int) -> int:
    """p + 1 minus the point count of the full Weierstrass equation,
    by enumeration of the affine plane (independent oracle path)."""
    a1, a2, a3, a4, a6 = (c % p for c in ai)
    count = 1  # point at infinity
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y) % p == rhs:
                count += 1
    return p + 1 - count


def a_p(f: FamilyDef, t: int, p: int, chi=None) -> int:
    """Trace of Frobenius of the fiber at t.

    For p > 3 this is the Legendre character sum of the short-form cubic
    x^3 + A x + B, A = -27 c4(t), B = -54 c6(t) (defined at every t,
    including bad fibers); p in {2, 3} fall back to affine enumeration
    of the full Weierstrass equation.  One t at a time, in O(p): the
    independent reference for `ap_table`.
    """
    if p <= 3:
        return a_p_enumerate((f.a1.eval(t), f.a2.eval(t), f.a3.eval(t),
                              f.a4.eval(t), f.a6.eval(t)), p)
    if chi is None:
        chi = chi_table(p)
    A = (-27 * f.inv["c4"].eval_mod(t, p)) % p
    B = (-54 * f.inv["c6"].eval_mod(t, p)) % p
    xs = np.arange(p, dtype=np.int64)
    g = (xs * xs % p * xs + A * xs + B) % p
    return -int(chi[g].sum(dtype=np.int64))


def _inverses(p: int) -> np.ndarray:
    """x^(p-2) mod p for every residue x (so 0 maps to 0), int64."""
    base = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def ap_table(f: FamilyDef, p: int) -> np.ndarray:
    """a_t(p) for every residue t mod p, as an int64 array.

    For p > 3 every fiber y^2 = x^3 + A x + B (A = -27 c4(t),
    B = -54 c6(t) mod p) falls in one of three twist classes, and each
    class is one cyclic correlation with chi, for all residues at once:

      A = 0:   a(0,B) = -sum_u H[u] chi(u+B),  H the histogram of x^3;
      B = 0:   a(A,0) = -sum_v W[v] chi(v+A),  W the chi(x)-weighted
               histogram of x^2;
      AB != 0: a(A,B) = chi(AB) a(k,k), k = A^3/B^2 (a quadratic twist
               by A/B), with a(k,k) = -chi(-1) - sum_u h[u] chi(u+k) and
               h the chi(x+1)-weighted histogram of x^3/(x+1), x != -1.

    Each correlation is a real FFT at a power-of-two length >= 2p, so a
    table costs O(p log p).  The correlations are integers; the rounding
    error is asserted below 0.25 before rounding, so the table is exact.
    p in {2, 3} enumerate points fiber by fiber.
    """
    if p <= 3:
        return np.array([a_p(f, t, p) for t in range(p)], dtype=np.int64)
    chi = chi_table(p)
    xs = np.arange(p, dtype=np.int64)
    A = (-27 * _poly_mod_vals(f.inv["c4"], p, xs)) % p
    B = (-54 * _poly_mod_vals(f.inv["c6"], p, xs)) % p
    n = 1 << (2 * p - 1).bit_length()
    chi_hat = np.fft.rfft(np.tile(chi.astype(np.float64), 2), n)

    def corr(w):
        # c[k] = sum_u w[u] chi((u + k) mod p); chi is tiled twice and
        # u + k < 2p <= n, so the length-n correlation does not wrap.
        c = np.fft.irfft(np.conj(np.fft.rfft(w, n)) * chi_hat, n)[:p]
        r = np.rint(c)
        assert np.max(np.abs(c - r)) < 0.25, "FFT rounding error too large"
        return r.astype(np.int64)

    x2 = xs * xs % p
    x3 = x2 * xs % p
    out = np.empty(p, dtype=np.int64)
    a0 = A == 0
    b0 = (B == 0) & ~a0
    gen = ~(a0 | b0)
    if a0.any():
        out[a0] = -corr(np.bincount(x3, minlength=p))[B[a0]]
    if b0.any():
        out[b0] = -corr(np.bincount(x2, weights=chi, minlength=p))[A[b0]]
    if gen.any():
        inv = _inverses(p)
        s = xs[:-1] + 1  # x + 1 for x != -1
        h = np.bincount(x3[:-1] * inv[s] % p, weights=chi[s],
                        minlength=p)
        akk = -int(chi[p - 1]) - corr(h)
        Ag, Bg = A[gen], B[gen]
        k = Ag * Ag % p * Ag % p * (inv[Bg] ** 2 % p) % p
        out[gen] = chi[Ag * Bg % p] * akk[k]
    return out


# -- moment sums -----------------------------------------------------------

def _g_t_degree(f: FamilyDef) -> int:
    inv = f.inv
    return max(inv["b2"].degree, inv["b4"].degree, inv["b6"].degree, 0)


def _a1_fast(f: FamilyDef, p: int) -> int:
    """A_1(p) in O(p) via complete character sums over t.

    Writing a_t(p) = -sum_x chi(g(x, t)) and swapping the order of
    summation, the inner sum over t is a complete character sum of a
    polynomial in t of degree <= 2, which has the standard closed values
    (0 for a nondegenerate linear, -chi(lead) or (p-1)chi(lead) for a
    quadratic, p*chi(const) for a constant).  Exact, valid for p > 3.
    """
    inv = f.inv
    xs = np.arange(p, dtype=np.int64)
    x3 = 4 * (xs * xs % p * xs) % p
    b2c = _poly_mod_coeffs(inv["b2"], p)
    b4c = [2 * c % p for c in _poly_mod_coeffs(inv["b4"], p)]
    b6c = _poly_mod_coeffs(inv["b6"], p)

    def tcoeff(k):
        v = np.zeros(p, dtype=np.int64)
        if k == 0:
            v += x3
        if k < len(b2c):
            v += b2c[k] * (xs * xs % p)
        if k < len(b4c):
            v += b4c[k] * xs
        if k < len(b6c):
            v += b6c[k]
        return v % p

    al, be, ga = tcoeff(2), tcoeff(1), tcoeff(0)
    chi = chi_table(p).astype(np.int64)
    quad = al != 0
    lin = (~quad) & (be != 0)
    const = (~quad) & (~lin)
    disc = (be * be - 4 * al * ga) % p
    inner = np.zeros(p, dtype=np.int64)
    inner[quad] = chi[al[quad]] * (p * (disc[quad] == 0) - 1)
    inner[const] = p * chi[ga[const]]
    # linear terms sum to zero over a full period
    return -int(inner.sum(dtype=np.int64))


def moment_sum(f: FamilyDef, p: int, r: int, method: str = "auto") -> int:
    """Exact A_r(p) = sum over t mod p of a_t(p)^r, for p > 3, r in {1,2}."""
    if p <= 3 or not is_prime(p):
        raise ValueError("moment sums need a prime p > 3")
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    if method == "bruteforce":
        chi = chi_table(p)
        return sum(a_p(f, t, p, chi=chi) ** r for t in range(p))
    if method == "auto" and r == 1 and _g_t_degree(f) <= 2:
        return _a1_fast(f, p)
    tab = ap_table(f, p)
    return int((tab ** r).sum(dtype=object))


def product_moment(f: FamilyDef, primes, powers, method: str = "auto") -> int:
    """Sum over t mod prod(p_i) of prod a_t(p_i)^{r_i}.

    Factors as the product of single-prime moment sums; the bruteforce
    method instead enumerates t mod the full product (testing oracle).
    """
    primes, powers = list(primes), list(powers)
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be pairwise distinct")
    if any(p <= 3 for p in primes):
        raise ValueError("primes must exceed 3")
    if method == "bruteforce":
        tables = {p: ap_table(f, p) for p in primes}
        modulus = 1
        for p in primes:
            modulus *= p
        total = 0
        for t in range(modulus):
            term = 1
            for p, r in zip(primes, powers):
                term *= int(tables[p][t % p]) ** r
            total += term
        return total
    out = 1
    for p, r in zip(primes, powers):
        out *= moment_sum(f, p, r)
    return out


# -- tables and closed forms -----------------------------------------------

@dataclass
class MomentTable:
    """Per-prime exact first and second moment sums for one family."""

    label: str
    p_max: int
    entries: dict = field(default_factory=dict)  # p -> (A1, A2)

    @classmethod
    def build(cls, f: FamilyDef, p_max: int, second: bool = True):
        tab = cls(label=f.label, p_max=p_max)
        for p in primes_upto(p_max):
            if p <= 3:
                continue
            a1 = moment_sum(f, p, 1)
            a2 = moment_sum(f, p, 2) if second else None
            bound = p * (isqrt(4 * p) + 1)  # p summands, each |a_t| <= 2 sqrt p
            assert abs(a1) <= bound
            if a2 is not None:
                assert 0 <= a2 <= p * 4 * p
            tab.entries[p] = (a1, a2)
        return tab

    def nagao_sum(self, X: int) -> float:
        """Rosen-Silverman rank statistic -(1/X) sum_{p<=X} (A1(p)/p) log p."""
        import math

        acc = 0.0
        for p, (a1, _) in sorted(self.entries.items()):
            if p <= X:
                acc += -(a1 / p) * math.log(p)
        return acc / X


def nagao_estimate(f: FamilyDef, X: int) -> float:
    """-(1/X) sum_{p<=X} (A1(p)/p) log p using the fast first-moment path."""
    tab = MomentTable.build(f, X, second=False)
    return tab.nagao_sum(X)


def closed_form_moments(label: str, p: int):
    """Published exact moment values for the built-in families.

    Returns (A1, A2) with None where no exact closed form is available.
    """
    if label == "F1":
        return 0, (2 * p * p - 2 * p) if p % 3 == 1 else 0
    if label in ("F2plus", "F2minus"):
        return 0, (2 * p * p - 2 * p) if p % 4 == 1 else 0
    if label == "washington":
        return (-2 * p if p % 4 == 1 else 0), None
    if label == "rank1":
        # the -3p*h_{3,p}(2) term counts cube roots of 2: three when
        # p = 1 mod 3 and 2 is a cubic residue, none when it is not,
        # and exactly one when p = 2 mod 3 (cubing is a bijection)
        if p % 3 == 1:
            nroots = 3 * cube_residue_indicator(2, p)
        else:
            nroots = 1
        chi = chi_table(p).astype(np.int64)
        xs = np.arange(p, dtype=np.int64)
        s = int(chi[(4 * (xs * xs % p * xs) + 1) % p].sum(dtype=np.int64))
        return -p, p * p - p * nroots - 1 + p * s
    return None, None
