"""Local reduction data via Tate's algorithm and global conductors.

One routine, `tate_local`, runs Tate's algorithm at every prime, 2 and 3
included, with each coordinate change in closed form and a restart on
non-minimal models.

`conductors(f, ts)` is the one route for a set of fibers.  It reads
f_2 and f_3 of every fiber off residues (below), with f_p = 0 where p
does not divide delta(t), so 2 and 3 need no factorization.  The bad
primes above 3 are those of D(t), factored for every t by one sieve
over the small primes with the same prime powers and cofactor as
`factorize`, and those of content(delta), factored once per call.  Each
bad prime p takes its exponent from c4(t) and c6(t) by one local rule:

- p does not divide c4(t): the model is minimal at p and the reduction
  multiplicative, so f_p = 1, at every p, 2 and 3 included;
- p > 3 with v_p(c4(t)) < 4 or v_p(c6(t)) < 6: the model is minimal
  and the reduction additive, tame as p >= 5, so f_p = 2;
- otherwise (additive reduction at 2 or 3, or a model that may not be
  minimal at p > 3) `tate_local` decides, once per local key
  (p, lam(c4(t)), lam(c6(t)), v_p(delta(t))) in each call, with
  lam(x) = (v_p(x), x / p^v_p(x) mod p^6) and lam(0) = None.

(Silverman, AEC VII.1.1 and VII.5.1; Advanced Topics, IV.10.)

The key is sound because f_p is an invariant of the curve over Q_p, and
c4, c6 fix the curve.  At p > 3 the valuations alone fix f_p: the model
is minimal exactly when v(c4) < 4 or v(c6) < 6, each rescaling by p
lowers (v(c4), v(c6), v(delta)) by (4, 6, 12), and on the minimal model
f_p is 0, 1 or 2 as v(delta) = 0, v(c4) = 0 or neither.  At 2 and 3,
f_p also depends on congruences of the unit parts of c4 and c6
(Papadopoulos, J. Number Theory 44, 1993; Cremona-Sadek, "Local and
global densities for Weierstrass models of elliptic curves").  On the
random models of tests/test_tate.py keys first disagree on f_p with the
unit parts taken mod 2^3 and mod 3, so mod p^6 leaves a margin.

At 2 and 3 the rule runs for up to 8,192 fibers at once: each t is
reduced mod 2^30 3^19 < 2^61, c4(t), c6(t) and delta(t) are taken mod
p^K with numpy, K = 30 at 2 and 19 at 3 (the largest powers below
2^31); the valuations and unit parts mod p^6 are read off those
residues, the fibers are grouped by key, and Tate runs once per new key.
A fiber whose residues are too short (v_p(c4(t)) or v_p(c6(t)) above
K - 6, v_p(delta(t)) >= K, or c4(t) or c6(t) = 0 where the polynomial is
not 0) takes the rule on c4(t) and c6(t) as integers, `_exact_f`, as
every p > 3 does.  Both share the dict of keys.

`conductor(f, t)` runs `tate_local` at every bad prime of one fiber
that `factorize` finds; it is the oracle of `conductors` in the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .family import FamilyDef, SingularFiberError, _bc_invariants
from .modarith import is_prime, primes_upto
from .polyint import IntPoly, roots_mod, vals_mod


@dataclass
class LocalData:
    p: int
    f_p: int
    reduction_type: str  # Good | Multiplicative | Additive
    kodaira: str
    minimal_model: tuple

    def __post_init__(self):
        assert (self.f_p == 0) == (self.reduction_type == "Good")
        assert (self.f_p == 1) == (self.reduction_type == "Multiplicative")


@dataclass
class Factorization:
    n: int
    prime_powers: dict = field(default_factory=dict)
    cofactor: int = 1

    def __post_init__(self):
        m = self.cofactor
        for p, e in self.prime_powers.items():
            m *= p ** e
        assert m == self.n


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _transform(ai, r, s, t, u=1):
    """Coordinate change x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
    a1, a2, a3, a4, a6 = ai
    a1n = a1 + 2 * s
    a2n = a2 - s * a1 + 3 * r - s * s
    a3n = a3 + r * a1 + 2 * t
    a4n = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t
    a6n = a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1
    if u != 1:
        assert all(x % d == 0 for x, d in
                   ((a1n, u), (a2n, u ** 2), (a3n, u ** 3),
                    (a4n, u ** 4), (a6n, u ** 6)))
        return (a1n // u, a2n // u ** 2, a3n // u ** 3,
                a4n // u ** 4, a6n // u ** 6)
    return (a1n, a2n, a3n, a4n, a6n)


def _double_root(a3t: int, a6t: int, p: int) -> int:
    """The double root of Y^2 + a3t Y - a6t mod p, for p dividing its
    discriminant a3t^2 + 4 a6t: a6t mod 2 at p = 2, else -a3t / 2."""
    return a6t % 2 if p == 2 else -a3t * ((p + 1) // 2) % p


def tate_local(ai, p: int) -> LocalData:
    """Local reduction data at p by Tate's algorithm, at every prime.

    Each coordinate change is in closed form (Cremona, Algorithms for
    Modular Elliptic Curves, 3.2; Silverman, Advanced Topics, IV.9).
    The singular point of an additive model moves to (0, 0) by x -> x + r,
    y -> y + t with r = -b2 / 12 mod p (r = -b6 mod 3 at p = 3) and one
    formula t = -(a1 r + a3) / 2 mod p at every odd p; at p = 3 it is
    a1 r + a3, as 1/2 = -1 mod 3.  At p = 2, r = a4 and t = r^3 + a2 r^2
    + a4 r + a6 mod 2.  A model that is not minimal at p is rescaled by
    u = p and restarted.
    """
    ai = tuple(int(x) for x in ai)
    h = (p + 1) // 2  # 1/2 mod p for odd p
    while True:
        b2, b4, b6, b8, c4, c6, delta = _bc_invariants(*ai)
        if delta == 0:
            raise SingularFiberError("singular curve (zero discriminant)")
        n = _vp(delta, p)
        if n == 0:
            return LocalData(p, 0, "Good", "I0", ai)
        if c4 % p != 0:
            return LocalData(p, 1, "Multiplicative", f"I{n}", ai)
        # additive reduction: move the singular point to (0, 0)
        a1, a2, a3, a4, a6 = ai
        if p == 2:
            r = a4 % 2
            t = (((r + a2) * r + a4) * r + a6) % 2
        else:
            r = -b6 % 3 if p == 3 else -b2 * pow(12, -1, p) % p
            t = -(a1 * r + a3) * h % p
        ai = _transform(ai, r, 0, t)
        b2, b4, b6, b8, c4, c6, delta = _bc_invariants(*ai)
        a1, a2, a3, a4, a6 = ai
        if a6 % p ** 2 != 0:
            return LocalData(p, n, "Additive", "II", ai)
        if b8 % p ** 3 != 0:
            return LocalData(p, n - 1, "Additive", "III", ai)
        if b6 % p ** 3 != 0:
            return LocalData(p, n - 2, "Additive", "IV", ai)
        # make p | a1, a2; p^2 | a3, a4; p^3 | a6
        if p == 2:
            s, t = a2 % 2, 2 * (a6 // 4 % 2)
        else:  # p | a3, so a3 + 2t = -p a3
            s, t = -a1 * h, -a3 * h
        ai = _transform(ai, 0, s, t)
        a1, a2, a3, a4, a6 = ai
        # the cubic T^3 + b T^2 + c T + d mod p, its discriminant -w and x
        b, c, d = a2 // p, a4 // p ** 2, a6 // p ** 3
        w = (27 * d * d - b * b * c * c + 4 * b ** 3 * d - 18 * b * c * d
             + 4 * c ** 3)
        x = 3 * c - b * b
        if w % p != 0:
            return LocalData(p, n - 4, "Additive", "I0*", ai)
        if x % p != 0:
            # type I_m*: translate the double root of the cubic to zero, then
            # peel off quadratics in Y and X until one is separable
            r = c if p == 2 else (b * c - 9 * d) * pow(2 * x, -1, p)
            ai = _transform(ai, p * (r % p), 0, 0)
            a1, a2, a3, a4, a6 = ai
            m = 1
            mx, my = p * p, p * p
            while True:
                a3t = a3 // my
                a6t = a6 // (mx * my)
                if (a3t * a3t + 4 * a6t) % p != 0:
                    break
                ai = _transform(ai, 0, 0, my * _double_root(a3t, a6t, p))
                a1, a2, a3, a4, a6 = ai
                my *= p
                m += 1
                a2t = a2 // p
                a4t = a4 // (p * mx)
                a6t = a6 // (mx * my)
                if (a4t * a4t - 4 * a6t * a2t) % p != 0:
                    break
                # double root of a2t X^2 + a4t X + a6t mod p
                if p == 2:
                    x1 = (a6t * a2t) % p
                else:
                    x1 = (-a4t * pow(2 * a2t, -1, p)) % p
                ai = _transform(ai, mx * x1, 0, 0)
                a1, a2, a3, a4, a6 = ai
                mx *= p
                m += 1
            return LocalData(p, n - 4 - m, "Additive", f"I{m}*", ai)
        # triple root: translate it to zero
        r = b if p == 2 else -d if p == 3 else -b * pow(3, -1, p)
        ai = _transform(ai, p * (r % p), 0, 0)
        a1, a2, a3, a4, a6 = ai
        a3t = a3 // p ** 2
        a6t = a6 // p ** 4
        if (a3t * a3t + 4 * a6t) % p != 0:
            return LocalData(p, n - 6, "Additive", "IV*", ai)
        ai = _transform(ai, 0, 0, p * p * _double_root(a3t, a6t, p))
        a1, a2, a3, a4, a6 = ai
        if a4 % p ** 4 != 0:
            return LocalData(p, n - 7, "Additive", "III*", ai)
        if a6 % p ** 6 != 0:
            return LocalData(p, n - 8, "Additive", "II*", ai)
        # non-minimal: rescale by p and restart
        ai = _transform(ai, 0, 0, 0, u=p)


_TRIAL = 10 ** 4


@functools.cache
def _trial_primes():
    return primes_upto(_TRIAL)


# cap on Brent's doubling cycle length: at most ~2^14 steps per seed
_BRENT_MAX_R = 1 << 12

# rho seeds tried per composite before it is left as the cofactor
_RHO_SEEDS = 64


def _brent(n: int, seed: int = 1) -> int:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor
    of composite n, or n on failure for this seed (including when the
    cycle length would pass _BRENT_MAX_R).

    n must be odd and have no prime factor below 10^4, as every part that
    `_split_remainder` passes here has.
    """
    y, c, m = seed % n, seed % n + 1, 128
    g, r, q = 1, 1, 1
    x = ys = 0
    while g == 1:
        if r > _BRENT_MAX_R:
            return n
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
    return g


def factorize(n: int) -> Factorization:
    """Trial division by the primes below 10^4, then Pollard rho / Brent.

    A composite remainder goes to the prime test, then perfect-power
    detection, then rho.  _RHO_SEEDS caps the number of rho seeds per
    composite, and _BRENT_MAX_R = 2^12 caps each seed's cycle length, so
    a hard composite costs about a second (two 30-digit primes: 0.8 s on
    a 2-CPU x86 host).  One seed splits off a prime factor below ~10^6
    almost always and one near 10^7 about two times in three.  With the
    default 64 seeds, p * q with a 21-digit q was split for 10 of 10
    primes p in [10^8, 10^9] and 6 of 10 in [10^9, 10^10].  A surviving
    cofactor is reported as incomplete data, not an error.  With
    _RHO_SEEDS = 0 every composite remainder stays as the cofactor,
    however small its prime factors above 10^4.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    orig = n
    powers = {}
    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    return Factorization(orig, powers, _split_remainder(n, powers))


def _split_remainder(n: int, powers: dict) -> int:
    """factorize's stage after trial division; returns the cofactor.

    n is 1, a prime, or has no prime factor below 10^4.  Its prime
    factors are added to powers; a composite that rho cannot split
    within _RHO_SEEDS seeds multiplies into the returned cofactor.

    One rule decides every part on the stack: below 10^8 = (10^4)^2 it
    is prime, otherwise `is_prime` decides.  A part that rho or a
    perfect-power root splits off divides n, so it has no prime factor
    below 10^4 either, and a composite part is at least 10^8.
    """
    stack, cofactor = [n] if n > 1 else [], 1
    while stack:
        m = stack.pop()
        if m < 10 ** 8 or is_prime(m):
            powers[m] = powers.get(m, 0) + 1
            continue
        # perfect powers show up as square parts of D(t)^k; a k-th power of
        # factors above 10^4 ~ 2^13.3 has k <= m.bit_length() // 13
        for k in range(2, m.bit_length() // 13 + 1):
            root = _iroot(m, k)
            if root ** k == m:
                stack.extend([root] * k)
                break
        else:
            for seed in range(1, _RHO_SEEDS + 1):
                d = _brent(m, seed)
                if 1 < d < m:
                    stack.extend((d, m // d))
                    break
            else:
                cofactor *= m
    return cofactor


# fibers sieved at a time: bounds the factorizations held at once
_CHUNK = 1024


def _factor_values(P: IntPoly, ts):
    """Yield factorize(|P(t)|) for each t of the sequence ts in order, or
    None where P(t) = 0, from one sieve instead of a trial loop per t.

    The trial primes are those up to min(10^4, isqrt(max |P(t)|)) over a
    chunk of _CHUNK values of t; the t whose P(t) a prime p divides are
    read off P(t mod p) mod p with numpy.  What is left of P(t) is then
    1, a prime, or free of primes below 10^4, as after factorize's trial
    loop, and goes through factorize's later stage.  So prime powers,
    cofactor and completeness equal factorize's.
    """
    roots = {}  # p -> the residues t mod p with P(t) = 0 mod p

    for lo in range(0, len(ts), _CHUNK):
        chunk = [int(t) for t in ts[lo:lo + _CHUNK]]
        vals = [P.eval(t) for t in chunk]
        rest = [abs(v) for v in vals]
        powers = [{} for _ in chunk]
        try:
            arr = np.array(chunk, dtype=np.int64)
        except OverflowError:  # t beyond int64: reduce Python ints
            arr = np.array(chunk, dtype=object)
        bound = min(_TRIAL, math.isqrt(max(rest)))
        for p in _trial_primes():
            if p > bound:
                break
            if p not in roots:
                roots[p] = roots_mod(P, p)
            r = roots[p]
            if not r:
                continue
            res = arr % p
            hit = res == r[0]
            for x in r[1:]:
                hit |= res == x
            for i in np.flatnonzero(hit).tolist():
                v = rest[i]
                if v:  # P(t) = 0 is divisible by every p
                    e = 0
                    while v % p == 0:
                        v //= p
                        e += 1
                    pw = powers[i]
                    pw[p] = pw.get(p, 0) + e
                    rest[i] = v
        for val, v, pw in zip(vals, rest, powers):
            yield (Factorization(abs(val), pw, _split_remainder(v, pw))
                   if val else None)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1: integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def conductor(f: FamilyDef, t: int):
    """Conductor of the fiber at t as (C, complete).

    The bad primes are those of content(delta) * D(t): with
    delta = content * prod R_i^e_i over primitive irreducible R_i and
    D = prod R_i, p | delta(t) exactly when p | content * D(t), and that
    number is far smaller than delta(t) (e.g. 2^12 3^9 (9t+1) against
    2^12 3^9 (9t+1)^4 for F1).  Each bad prime's exponent comes from
    tate_local on the fiber's own model.

    complete is False when the factorization left a hard cofactor; the
    cofactor of content * D(t) is then assumed square-free and coprime to
    c4(t), contributing exponent 1 per hidden prime, so C is exact under
    that documented assumption (its radical multiplies in, once).
    """
    ai = f.specialize(t)  # raises SingularFiberError where delta(t) = 0
    bad = f.inv["delta"].content() * f.inv["D"].eval(t)
    fac = factorize(abs(bad))
    C = 1
    for p in sorted(fac.prime_powers):
        C *= p ** tate_local(ai, p).f_p
    C *= fac.cofactor  # assumed square-free, multiplicative reduction
    return C, fac.cofactor == 1


# p-adic digits of the unit parts of c4 and c6 in the local key
_UNIT_DIGITS = 6

# fibers whose residues at 2 and 3 are read at a time: bounds the int64
# arrays held at once and amortizes numpy's per-call cost (chunks of
# _CHUNK fibers made the pass about twice as slow on 6,900 fibers)
_RESIDUE_CHUNK = 8 * _CHUNK

# exponent K of the residues mod p^K that `conductors` reads f_2 and f_3
# from: the largest p^K below 2^31, the bound of `vals_mod`
_RESIDUE_EXP = {2: 30, 3: 19}

# 2^30 3^19 < 2^61: every t, reduced mod it as a Python int, fits int64
_RESIDUE_MOD = math.prod(p ** K for p, K in _RESIDUE_EXP.items())


def _local_class(x: int, p: int):
    """(v_p(x), x / p^v_p(x) mod p^6), or None for x = 0."""
    if x == 0:
        return None
    v = _vp(x, p)
    return v, x // p ** v % p ** _UNIT_DIGITS


def _keyed_f(f: FamilyDef, t: int, key: tuple, f_local: dict) -> int:
    """f_p stored in f_local under the local key (p, ...) of the fiber at
    t, from `tate_local` on that fiber's model if the key is new."""
    if key not in f_local:
        f_local[key] = tate_local(f.specialize(t), key[0]).f_p
    return f_local[key]


def _exact_f(f: FamilyDef, t: int, p: int, c4t: int, c6t: int,
             f_local: dict) -> int:
    """f_p of the fiber at t, for a prime p dividing delta(t), by the
    module's local rule on c4t = c4(t) and c6t = c6(t); raises
    SingularFiberError where delta(t) = 0."""
    if c4t % p:
        return 1
    if p > 3 and (c4t % p ** 4 or c6t % p ** 6):
        return 2
    delta = (c4t ** 3 - c6t ** 2) // 1728
    if delta == 0:
        raise SingularFiberError(f"{f.label}: singular fiber at t={t}")
    key = (p, _local_class(c4t, p), _local_class(c6t, p), _vp(delta, p))
    return _keyed_f(f, t, key, f_local)


def _vp_unit(r: np.ndarray, p: int):
    """(v_p(r), r / p^v_p(r) mod p^6) for each entry of the int64 array
    r, |r| < 2^31; a zero entry gives (0, 0).

    v_p(r) < 32, so stripping p^16, p^8, p^4, p^2 and p wherever each
    divides finds it in five passes.
    """
    v = np.zeros_like(r)
    u = r
    for k in (16, 8, 4, 2, 1):
        d = (u % p ** k == 0) & (u != 0)
        v += k * d
        u = np.where(d, u // p ** k, u)
    return v, u % p ** _UNIT_DIGITS


def _conductor_at_2_and_3(f: FamilyDef, ts, f_local: dict) -> list:
    """2^f_2 3^f_3 of each fiber of ts, ts a list of ints: the part of its
    conductor at 2 and 3, whether or not 2 or 3 divides content(delta).

    Each t, of any size, is reduced mod 2^30 3^19, and c4(t), c6(t) and
    delta(t) are taken mod p^K from those residues with numpy.  f_p = 0
    where p does not divide delta(t), and 1 where it does not divide
    c4(t).  Elsewhere v_p and the unit part mod p^6 of a residue
    r = x mod p^K equal those of x when v_p(r) <= K - 6, and v_p(delta)
    needs only v_p(r) < K; such fibers are grouped by local key and take
    f_p from `_keyed_f`.  The others (c4(t) or c6(t) with v_p > K - 6 or
    equal to 0 for a polynomial not identically 0, or v_p(delta(t)) >= K)
    take it from `_exact_f` on c4(t) and c6(t) as integers.
    """
    c4, c6 = f.inv["c4"], f.inv["c6"]
    x = np.array([t % _RESIDUE_MOD for t in ts], dtype=np.int64)
    part = np.ones_like(x)
    for p, K in _RESIDUE_EXP.items():
        m = p ** K
        rd = vals_mod(f.inv["delta"], m, x)
        r4 = vals_mod(c4, m, x)
        # 0 where p does not divide delta(t), else 1; the fibers of rest,
        # where p also divides c4(t), get theirs below
        fp = (rd % p == 0).astype(np.int64)
        rest = np.flatnonzero(fp & (r4 % p == 0))
        rd, r4 = rd[rest], r4[rest]
        r6 = vals_mod(c6, m, x[rest])
        vd, _ = _vp_unit(rd, p)
        exact = rd == 0
        lams = []
        for P, r in ((c4, r4), (c6, r6)):
            v, u = _vp_unit(r, p)
            if P.is_zero():  # lam = None: v = K, which no residue gives
                v = np.full_like(r, K)
            else:
                exact |= (r == 0) | (v > K - _UNIT_DIGITS)
            lams.append((v, u))
        keyed = np.flatnonzero(~exact)
        (v4, u4), (v6, u6) = ((v[keyed], u[keyed]) for v, u in lams)
        vd, keyed = vd[keyed], rest[keyed]
        M = p ** _UNIT_DIGITS
        packed = (((v4 * M + u4) * (K + 1) + v6) * M + u6) * (K + 1) + vd
        _, first, which = np.unique(packed, return_index=True,
                                    return_inverse=True)
        f_key = []
        for i in first.tolist():
            key = (p, None if v4[i] == K else (int(v4[i]), int(u4[i])),
                   None if v6[i] == K else (int(v6[i]), int(u6[i])),
                   int(vd[i]))
            f_key.append(_keyed_f(f, ts[keyed[i]], key, f_local))
        fp[keyed] = np.array(f_key, dtype=np.int64)[which]
        for i in rest[exact].tolist():
            t = ts[i]
            fp[i] = _exact_f(f, t, p, c4.eval(t), c6.eval(t), f_local)
        part *= p ** fp
    return part.tolist()


def conductors(f: FamilyDef, ts):
    """Yield conductor(f, t) for each t of the sequence ts, from one sieve
    of D(t); only a chunk of factorizations, and one of residues at 2 and
    3, is held.

    Each C(t) starts from 2^f_2 3^f_3, which `_conductor_at_2_and_3`
    gives for a chunk of fibers at a time.  The bad primes above 3 are
    those of D(t), from `_factor_values`, and those of content(delta),
    factorized once per call; f_p at each comes from `_exact_f` on c4(t)
    and c6(t) as integers.  Both share one dict of local keys, so each
    key gets one Tate run per call.  A singular fiber raises
    SingularFiberError.  The cofactors of content(delta) and D(t)
    multiply into C as in `conductor`.
    """
    c4, c6 = f.inv["c4"], f.inv["c6"]
    f_local = {}  # local key -> f_p, for this call's fibers only
    cfac = factorize(f.inv["delta"].content())
    c_primes = [p for p in cfac.prime_powers if p > 3]
    facs = _factor_values(f.inv["D"], ts)
    for lo in range(0, len(ts), _RESIDUE_CHUNK):
        chunk = [int(t) for t in ts[lo:lo + _RESIDUE_CHUNK]]
        parts = _conductor_at_2_and_3(f, chunk, f_local)
        for t, C, fac in zip(chunk, parts, facs):
            if fac is None:
                f.specialize(t)  # raises SingularFiberError
            c4t, c6t = c4.eval(t), c6.eval(t)
            for p in fac.prime_powers:
                if p > 3:
                    C *= p ** _exact_f(f, t, p, c4t, c6t, f_local)
            for p in c_primes:
                if p not in fac.prime_powers:
                    C *= p ** _exact_f(f, t, p, c4t, c6t, f_local)
            cofactor = cfac.cofactor * fac.cofactor
            C *= cofactor  # assumed square-free, multiplicative
            yield C, cofactor == 1
