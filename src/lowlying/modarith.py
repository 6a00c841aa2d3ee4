"""Prime generation, residue symbols, point-count coefficients a_t(p),
and exact batched moment sums A_{r}(p) = sum over t mod p of a_t(p)^r.

A whole table t -> a_t(p) (`ap_table`) is computed in O(p log p): each
fiber's short model y^2 = x^3 + A x + B falls in one of three twist
classes (A = 0, B = 0, AB != 0), and each class is one cyclic
correlation of a fixed histogram with the Legendre character, done by
real FFT.  The correlations are integers, and their rounding error is
asserted below 0.25 before rounding.  `a_p` computes one t directly as
a character sum and `a_p_enumerate` counts points; both stay as
independent references.  `ap_table`, `a_p` and the moment sums need a
prime p > 3, where the short model exists.

A_1 needs no table when g(x, t) = 4x^3 + b2 x^2 + 2 b4 x + b6 has
t-degree <= 2: swapping the sums over x and t leaves a closed form plus
a sum over the roots mod p of the x-discriminant of g (`_a1_fast`).
Its rational roots a/b are found once per family and reduced mod p in
O(1) per prime; only a cofactor with no rational root, if any, is
scanned over x mod p.  `moment_sum(..., method="bruteforce")` sums the
per-t `a_p` as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, isqrt, log

import numpy as np

from .family import FamilyDef
from .polyint import IntPoly, radical, rational_roots

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# largest n primes_upto sieves to; its sieve takes n + 1 bytes
PRIME_LIMIT = 10 ** 9


def prime_cutoff(log_cmax: float, sigma: float) -> int:
    """Sieve limit int(C_max^sigma) + 1 of a prime sum cut off at
    C_max^sigma.  Refused above PRIME_LIMIT, where the sieve alone would
    outgrow memory; compared in log space, so a huge sigma raises here
    instead of overflowing exp."""
    if log_cmax * sigma > log(PRIME_LIMIT):
        raise ValueError(
            f"prime cutoff C_max^sigma exceeds 10^9: sigma = {sigma}, "
            f"C_max = 10^{log_cmax / log(10):.2f}")
    return int(exp(log_cmax * sigma)) + 1


def primes_upto(n: int):
    """All primes <= n, ascending (Eratosthenes); n at most PRIME_LIMIT."""
    if n > PRIME_LIMIT:
        raise ValueError(f"prime sieve up to {n} exceeds the limit 10^9")
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
    for p in _MR_BASES:
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
    return _chi(a, p)


def _chi(a: int, p: int) -> int:
    """Legendre symbol (a|p) by Euler's criterion; p an odd prime."""
    e = pow(a, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


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
    cs = _poly_mod_coeffs(q, p)
    acc = np.full_like(xs, cs[-1])
    for c in reversed(cs[:-1]):
        acc *= xs
        acc += c
        acc %= p
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

    The Legendre character sum of the short-form cubic x^3 + A x + B,
    A = -27 c4(t), B = -54 c6(t) (defined at every t, including bad
    fibers), for a prime p > 3.  One t at a time, in O(p): the
    independent reference for `ap_table`.
    """
    if p <= 3:
        raise ValueError(f"a_t(p) needs a prime p > 3, got {p}")
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
    p must be a prime > 3.
    """
    if p <= 3:
        raise ValueError(f"a_t(p) needs a prime p > 3, got {p}")
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

def _a1_polys(f: FamilyDef):
    """(alpha, gamma, roots, G, content Delta) in x for `_a1_fast`, or
    None when g(x, t) has t-degree > 2.  roots are the rational roots
    (a, b) of rad Delta and G its cofactor (`rational_roots`); both are
    unused when Delta = 0, where every residue is a root."""
    inv = f.inv
    if max(inv[n].degree for n in ("b2", "b4", "b6")) > 2:
        return None

    def tcoeff(k):
        # coefficient of t^k in g = 4x^3 + b2 x^2 + 2 b4 x + b6, in x
        b2, b4, b6 = (inv[n].coeffs[k] if k <= inv[n].degree else 0
                      for n in ("b2", "b4", "b6"))
        return IntPoly([b6, 2 * b4, b2, 4 if k == 0 else 0])

    alpha, beta, gamma = tcoeff(2), tcoeff(1), tcoeff(0)
    disc = beta * beta - 4 * alpha * gamma
    roots, G = ([], None) if disc.is_zero() else rational_roots(radical(disc))
    return alpha, gamma, roots, G, disc.content()


def _a1_fast(polys, p: int) -> int:
    """A_1(p) from a closed form and the roots of the x-discriminant.

    polys is `_a1_polys(f)`.  Write a_t(p) = -sum_x chi(g(x, t)) with
    g = alpha(x) t^2 + beta(x) t + gamma(x), and swap the sums.  For
    each x the sum over t is a complete character sum of degree <= 2:
    chi(alpha)(p [Delta = 0] - 1) if alpha != 0, 0 if alpha = 0 != beta,
    and p chi(gamma) if alpha = beta = 0, where Delta = beta^2 -
    4 alpha gamma.  Where alpha = 0, Delta = beta^2, so Delta = 0 forces
    beta = 0 and the three cases are one:

      A_1(p) = sum_x chi(alpha(x))
               - p sum_{r : Delta(r) = 0} chi(alpha(r) if alpha(r) != 0
                                              else gamma(r)).

    alpha has x-degree <= 2, so its sum takes the same closed values:
    -chi(a2), or (p-1) chi(a2) when its discriminant vanishes; 0 for a
    linear alpha; p chi(a0) for a constant.  When p does not divide
    content(Delta), the roots of Delta mod p are those of rad Delta:
    a b^-1 for each rational root a/b with p not dividing b (when p | b,
    b x - a = -a is a unit, as gcd(a, b) = 1), joined with the roots of
    the cofactor G from one scan over x mod p, made only when G is not
    constant.  Otherwise every residue is a root.  The result is an
    integer sum over a set, so it is exact and independent of the order
    of the roots; valid for p > 3.
    """
    alpha, gamma, rat, G, content = polys
    a0, a1, a2 = (_poly_mod_coeffs(alpha, p) + [0, 0])[:3]
    if a2:
        d = (a1 * a1 - 4 * a2 * a0) % p
        total = _chi(a2, p) * (p - 1 if d == 0 else -1)
    else:
        total = 0 if a1 else p * _chi(a0, p)
    roots = range(p)
    if content % p:
        roots = {a * pow(b, -1, p) % p for a, b in rat if b % p}
        if G.degree >= 1:
            xs = np.arange(p, dtype=np.int64)
            hits = _poly_mod_vals(G, p, xs) == 0
            roots.update(np.flatnonzero(hits).tolist())
    for r in roots:
        total -= p * _chi(alpha.eval_mod(r, p) or gamma.eval_mod(r, p), p)
    return total


def moment_sum(f: FamilyDef, p: int, r: int, method: str = "auto",
               table=None) -> int:
    """Exact A_r(p) = sum over t mod p of a_t(p)^r, for p > 3, r in {1,2}.

    table, if given, is ap_table(f, p), summed in place of a new one.
    Without it, method "auto" takes A_1 from `_a1_fast` when g(x, t) has
    t-degree <= 2.
    """
    if p <= 3 or not is_prime(p):
        raise ValueError("moment sums need a prime p > 3")
    if r not in (1, 2):
        raise ValueError("r must be 1 or 2")
    if method not in ("auto", "bruteforce"):
        raise ValueError(f"unknown moment method {method!r}")
    if method == "bruteforce":
        chi = chi_table(p)
        return sum(a_p(f, t, p, chi=chi) ** r for t in range(p))
    if r == 1 and table is None:
        polys = _a1_polys(f)
        if polys is not None:
            return _a1_fast(polys, p)
    tab = ap_table(f, p) if table is None else table
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
    if method not in ("auto", "bruteforce"):
        raise ValueError(f"unknown moment method {method!r}")
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
        polys = None if second else _a1_polys(f)
        for p in primes_upto(p_max):
            if p <= 3:
                continue
            if polys is not None:
                a1, a2 = _a1_fast(polys, p), None
            else:
                # A2, or A1 past t-degree 2, needs the table; A1 and A2
                # are summed from the same one
                tab_p = ap_table(f, p)
                a1 = moment_sum(f, p, 1, table=tab_p)
                a2 = moment_sum(f, p, 2, table=tab_p) if second else None
            bound = p * (isqrt(4 * p) + 1)  # p summands, each |a_t| <= 2 sqrt p
            assert abs(a1) <= bound
            if a2 is not None:
                assert 0 <= a2 <= p * 4 * p
            tab.entries[p] = (a1, a2)
        return tab

    def nagao_sum(self, X: int) -> float:
        """Rosen-Silverman rank statistic -(1/X) sum_{p<=X} (A1(p)/p) log p."""
        acc = 0.0
        for p, (a1, _) in sorted(self.entries.items()):
            if p <= X:
                acc += -(a1 / p) * log(p)
        return acc / X


def nagao_estimate(f: FamilyDef, X: int) -> float:
    """-(1/X) sum_{p<=X} (A1(p)/p) log p using the fast first-moment path."""
    if X < 2:
        raise ValueError(f"X must be at least 2, got {X}")
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
