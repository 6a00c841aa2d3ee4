"""Prime generation, residue symbols, point-count coefficients a_t(p),
and exact batched moment sums A_{r}(p) = sum over t mod p of a_t(p)^r.

A whole table t -> a_t(p) (`ap_table`) is read from one table of the
powers pw[k] = g^k of a primitive root g mod p (block doubling, every
product reduced mod p) and its inverse permutation ind; the search for
g is a Lucas certificate, so a composite p is refused.  Each fiber's
short model y^2 = x^3 + A x + B falls in one of three twist classes
(A = 0, B = 0, AB != 0), and a(u^2 A, u^3 B) = chi(u) a(A, B), with
chi(g^k) = (-1)^k.  When p = 1 mod 3 the A = 0 class is
a(0, g^k) = v[k mod 6] (g^(j+3m) = g^j (g^m)^3), three sums over the
cubes pw[::3]; when p = 1 mod 4 the B = 0 class is a(g^k, 0) =
w[k mod 4] (g^(j+2m) = g^j (g^m)^2), two sums over the squares pw[::2].
Otherwise that class is 0, and when A(t) (or B(t)) vanishes mod p
coefficient-wise the whole table is, and is returned before any residue
is evaluated.  The AB != 0 class is one cyclic correlation of a fixed
histogram with the Legendre character, done by real FFT; it is an
integer, and its rounding error is asserted below 0.25 before rounding.
`a_p` computes one t directly as a character sum and `a_p_enumerate`
counts points; both stay as independent references.  `ap_table`, `a_p`
and the moment sums need a prime p > 3, where the short model exists.

A_1 needs no table when g(x, t) = 4x^3 + b2 x^2 + 2 b4 x + b6 has
t-degree <= 2: swapping the sums over x and t leaves a closed form plus
a sum over the roots mod p of the x-discriminant of g (`_a1_fast`).
Its rational roots a/b are found once per family and reduced mod p in
O(1) per prime; only a cofactor with no rational root, if any, is
scanned over x mod p.  One per-prime step gives `moment_sum` and
`MomentTable.build` their A_1 and A_2: `_a1_fast` when only A_1 is
wanted and it applies, else both from one `ap_table` in int64.
`moment_sum(..., method="bruteforce")` sums the per-t `a_p` as its
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, isqrt, log

import numpy as np

from .family import FamilyDef
from .polyint import IntPoly, radical, rational_roots, roots_mod, vals_mod

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


def _chi(a: int, p: int) -> int:
    """Legendre symbol (a|p) by Euler's criterion; p an odd prime."""
    e = pow(a, (p - 1) // 2, p)
    return -1 if e == p - 1 else e


def chi_table(p: int) -> np.ndarray:
    """Legendre symbols (0..p-1 | p) as an int8 array."""
    chi = np.full(p, -1, dtype=np.int8)
    chi[0] = 0
    x = np.arange(1, p, dtype=np.int64)
    chi[x * x % p] = 1
    return chi


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
    A = -27 * f.inv["c4"].eval(t) % p
    B = -54 * f.inv["c6"].eval(t) % p
    xs = np.arange(p, dtype=np.int64)
    g = (xs * xs % p * xs + A * xs + B) % p
    return -int(chi[g].sum(dtype=np.int64))


def _primitive_root(p: int) -> int:
    """The least primitive root g mod p, found by a Lucas certificate.

    An a with a^(p-1) != 1 mod p proves p composite; an a with
    a^((p-1)/q) != 1 for every prime q | p - 1 as well has order p - 1,
    which proves p prime and a a generator.  Below the least prime factor
    of a composite p no a passes, and that factor fails the first test,
    so the search ends for every p > 3: a composite p raises ValueError.
    """
    n, qs, q = p - 1, [], 2
    while q * q <= n:
        if n % q == 0:
            qs.append(q)
            while n % q == 0:
                n //= q
        q += 1 + (q > 2)
    if n > 1:
        qs.append(n)
    for a in range(2, p):
        if pow(a, p - 1, p) != 1:
            raise ValueError(f"a_t(p) needs a prime p > 3, got composite {p}")
        if all(pow(a, (p - 1) // q, p) != 1 for q in qs):
            return a


def _power_table(g: int, p: int):
    """(pw, ind): pw[k] = g^k mod p for k < p - 1, by block doubling
    (pw[n:2n] = g^n pw[:n], each product reduced mod p, so it stays below
    p^2), and its inverse permutation ind[g^k] = k, with ind[0] = 0;
    both int64."""
    pw = np.empty(p - 1, dtype=np.int64)
    pw[0] = 1
    n, gn = 1, g  # gn = g^n mod p
    while n < p - 1:
        m = min(n, p - 1 - n)
        np.multiply(pw[:m], gn, out=pw[n:n + m])
        np.remainder(pw[n:n + m], p, out=pw[n:n + m])
        n, gn = n + m, gn * gn % p
    ind = np.zeros(p, dtype=np.int64)
    ind[pw] = np.arange(p - 1, dtype=np.int64)
    return pw, ind


def ap_table(f: FamilyDef, p: int) -> np.ndarray:
    """a_t(p) for every residue t mod p, as an int64 array.

    For p > 3 every fiber y^2 = x^3 + A x + B (A = -27 c4(t),
    B = -54 c6(t) mod p, the family's `inv["A"]` and `inv["B"]`) falls
    in one of three twist classes.  The substitution x -> u x gives
    a(u^2 A, u^3 B) = chi(u) a(A, B) for every unit u.  Everything is
    read from the powers pw[k] = g^k of the primitive root g of
    `_primitive_root` (which refuses a composite p) and their inverse
    permutation ind (`_power_table`): chi(g^k) = (-1)^k, the parity of
    ind, and g^a / g^b = pw[(a - b) mod (p - 1)].

      A = 0:   p = 1 mod 3: a(0, g^k) = v[k mod 6], since g^(j + 3m) =
               g^j (g^m)^3 gives a(0, g^(j+3m)) = (-1)^m a(0, g^j); and
               x -> x^3 is 3-to-1 onto the cubes pw[::3], so
               v_j = -chi(g^j) - 3 sum_{y in pw[::3]} chi(y + g^j) for
               j < 3, and v_(j+3) = -v_j.  p = 2 mod 3: cubing is a
               bijection, so a(0, B) = -sum_y chi(y + B) = 0;
      B = 0:   p = 1 mod 4: a(g^k, 0) = w[k mod 4], since g^(j + 2m) =
               g^j (g^m)^2 gives (-1)^m w_j; with x = g^i the sum
               -sum_x chi(x) chi(x^2 + g^j) repeats with period (p-1)/2
               in i, so w_j = -2 sum_i (-1)^i chi(pw[::2][i] + g^j),
               and w_(j+2) = -w_j.  p = 3 mod 4: x^3 + A x is odd and
               chi(-1) = -1, so a(A, 0) = 0;
      A = B = 0: a(0, 0) = -sum_x chi(x) = 0;
      AB != 0: a(A,B) = chi(AB) a(k,k), k = A^3/B^2 (a quadratic twist
               by A/B), with a(k,k) = -chi(-1) - sum_u h[u] chi(u+k) and
               h the chi(x+1)-weighted histogram of x^3/(x+1), x != -1;
               chi(AB) and k are read at the exponents ind A + ind B
               and 3 ind A - 2 ind B, as is x^3/(x+1).

    Coefficient rule: when A(t) vanishes mod p coefficient-wise and
    p != 1 mod 3, every fiber is in the A = 0 class (or A = B = 0), so
    the table is 0; likewise when B(t) does and p != 1 mod 4.  Such a
    table is returned before any residue is evaluated or any power
    table built.  The AB != 0 class is one cyclic correlation with chi
    for all k at once, a real FFT at a power-of-two length >= 2p, so a
    table costs O(p log p) only when some residue needs it.  The
    correlation is an integer; its rounding error is asserted below 0.25
    before rounding, so the table is exact.  No int64 product exceeds
    p^2, as every power is a table entry.  p must be a prime > 3.
    """
    if p <= 3:
        raise ValueError(f"a_t(p) needs a prime p > 3, got {p}")
    g = _primitive_root(p)
    Apoly, Bpoly = f.inv["A"], f.inv["B"]
    if ((p % 3 != 1 and not any(c % p for c in Apoly.coeffs))
            or (p % 4 != 1 and not any(c % p for c in Bpoly.coeffs))):
        return np.zeros(p, dtype=np.int64)
    pw, ind = _power_table(g, p)
    chi = 1 - 2 * (ind & 1)
    chi[0] = 0
    chi2 = np.tile(chi, 2)  # chi2[y + r] = chi[(y + r) mod p] for y, r < p
    xs = np.arange(p, dtype=np.int64)
    A, B = vals_mod(Apoly, p, xs), vals_mod(Bpoly, p, xs)
    out = np.zeros(p, dtype=np.int64)  # where a class is 0, as above
    a0, b0 = A == 0, B == 0
    # (k, class, its coordinate g^j u^k): A = 0 by cubes, B = 0 by
    # squares, each not 0 only at p = 1 mod 2k (for odd p, 1 mod 6 is
    # 1 mod 3).  With x = g^i the model is x^(3-k) (x^k + g^j), so the
    # sum over i carries (-1)^(i (3-k)), and x = 0 adds chi(g^j) at k = 3
    for k, cls, key in ((3, a0 & ~b0, B), (2, b0 & ~a0, A)):
        if p % (2 * k) != 1 or not cls.any():
            continue
        v = []
        for j in range(k):
            c = chi2[pw[::k] + pw[j]]
            s = c.sum() if k == 3 else c[::2].sum() - c[1::2].sum()
            v.append(-(k == 3) * int(chi[pw[j]]) - k * int(s))
        # v[ind mod 2k], with v tiled over the p - 1 values of ind
        vt = np.tile(v + [-a for a in v], (p - 1) // (2 * k))
        out[cls] = vt[ind[key[cls]]]
    gen = ~(a0 | b0)
    if gen.any():
        size = 1 << (2 * p - 1).bit_length()
        # x^3/(x+1) = g^(3 ind x - ind(x+1)) for x != 0, -1; and 0 at x = 0
        u = np.concatenate(([0], pw[(3 * ind[1:-1] - ind[2:]) % (p - 1)]))
        h = np.bincount(u, weights=chi[1:], minlength=p)
        # c[k] = sum_u h[u] chi((u + k) mod p); chi is tiled twice and
        # u + k < 2p <= size, so the length-size correlation does not wrap
        chi_hat = np.fft.rfft(chi2.astype(np.float64), size)
        c = np.fft.irfft(np.conj(np.fft.rfft(h, size)) * chi_hat, size)[:p]
        r = np.rint(c)
        assert np.max(np.abs(c - r)) < 0.25, "FFT rounding error too large"
        akk = -int(chi[p - 1]) - r.astype(np.int64)
        ia, ib = ind[A[gen]], ind[B[gen]]
        out[gen] = ((1 - 2 * ((ia + ib) & 1))
                    * akk[pw[(3 * ia - 2 * ib) % (p - 1)]])
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
    the cofactor G from `roots_mod`, one scan over x mod p, made only
    when G is not constant.  Otherwise every residue is a root.  The
    result is an integer sum over a set, so it is exact and independent
    of the order of the roots; valid for p > 3.
    """
    alpha, gamma, rat, G, content = polys
    a0, a1, a2 = ([c % p for c in alpha.coeffs] + [0, 0, 0])[:3]
    if a2:
        d = (a1 * a1 - 4 * a2 * a0) % p
        total = _chi(a2, p) * (p - 1 if d == 0 else -1)
    else:
        total = 0 if a1 else p * _chi(a0, p)
    roots = range(p)
    if content % p:
        roots = {a * pow(b, -1, p) % p for a, b in rat if b % p}
        if G.degree >= 1:
            roots.update(roots_mod(G, p))
    for r in roots:
        total -= p * _chi(alpha.eval(r) % p or gamma.eval(r) % p, p)
    return total


def _moments(f: FamilyDef, p: int, polys, second: bool):
    """(A_1(p), A_2(p) or None unless second) for a prime p > 3.

    A_1 comes from `_a1_fast` when polys (`_a1_polys(f)`) is not None
    and A_2 is not wanted; otherwise both are summed from one `ap_table`,
    exactly in int64, since p * 4p < 2^63 for p <= 10^9.
    """
    if polys is not None and not second:
        a1, a2 = _a1_fast(polys, p), None
    else:
        tab = ap_table(f, p)
        a1 = int(tab.sum())
        a2 = int((tab * tab).sum()) if second else None
    assert abs(a1) <= p * (isqrt(4 * p) + 1)  # p summands, |a_t| <= 2 sqrt p
    assert a2 is None or 0 <= a2 <= p * 4 * p
    return a1, a2


def moment_sum(f: FamilyDef, p: int, r: int, method: str = "auto") -> int:
    """Exact A_r(p) = sum over t mod p of a_t(p)^r, for p > 3, r in {1,2}.

    Method "auto" is the per-prime step of `MomentTable.build`: A_1 from
    `_a1_fast` when g(x, t) has t-degree <= 2, else from one `ap_table`.
    Method "bruteforce" sums the per-t `a_p`, as the oracle.
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
    return _moments(f, p, _a1_polys(f) if r == 1 else None, r == 2)[r - 1]


# -- tables and closed forms -----------------------------------------------

@dataclass
class MomentTable:
    """Per-prime exact first and second moment sums for one family."""

    entries: dict = field(default_factory=dict)  # p -> (A1, A2)

    @classmethod
    def build(cls, f: FamilyDef, p_max: int, second: bool = True):
        """(A1, A2) at every prime 3 < p <= p_max; A2 is None unless
        second, and A1 alone needs no table when `_a1_polys` applies."""
        polys = None if second else _a1_polys(f)
        return cls({p: _moments(f, p, polys, second)
                    for p in primes_upto(p_max) if p > 3})

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
        nroots = 3 * (pow(2, (p - 1) // 3, p) == 1) if p % 3 == 1 else 1
        chi = chi_table(p).astype(np.int64)
        xs = np.arange(p, dtype=np.int64)
        s = int(chi[(4 * (xs * xs % p * xs) + 1) % p].sum(dtype=np.int64))
        return -p, p * p - p * nroots - 1 + p * s
    return None, None
