"""Local reduction data via Tate's algorithm and global conductors.

The conductor exponent at p > 3 on a p-minimal model only needs the
valuations of the discriminant and c4 (0 / 1 / 2 rule); p = 2 and p = 3
run the full step-by-step algorithm, including the non-minimal restart.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .family import FamilyDef, SingularFiberError, _bc_invariants
from .modarith import is_prime, primes_upto


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


def _poly_roots_mod(coeffs_desc, p):
    """Roots with multiplicity of a monic-ish polynomial mod small p,
    by scanning and synthetic division."""
    out = {}
    cs = [c % p for c in coeffs_desc]
    for r in range(p):
        mult = 0
        while True:
            # synthetic division of cs by (X - r) mod p
            acc = 0
            q = []
            for c in cs:
                acc = (acc * r + c) % p
                q.append(acc)
            if acc != 0:
                break
            cs = q[:-1]
            mult += 1
            if not cs:
                break
        if mult:
            out[r] = mult
        if not cs:
            break
    return out


def _singular_point(ai, p):
    """The singular point of the reduced curve mod p (additive or
    multiplicative bad reduction)."""
    a1, a2, a3, a4, a6 = (c % p for c in ai)
    for x in range(p):
        for y in range(p):
            F = (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x - a4 * x - a6) % p
            Fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            Fy = (2 * y + a1 * x + a3) % p
            if F == 0 and Fx == 0 and Fy == 0:
                return x, y
    raise AssertionError("no singular point found on a bad fiber")


def _normalize_step6(ai, p):
    """Find a translation making v(a1),v(a2) >= 1, v(a3),v(a4) >= 2,
    v(a6) >= 3.  Existence is guaranteed at this stage of the algorithm."""
    for s in range(p):
        ai_s = _transform(ai, 0, s, 0)
        if ai_s[0] % p or ai_s[1] % p:
            continue
        p2 = p * p
        for r0 in range(p):
            r = r0 * p  # keep the singular point at the origin
            for t0 in range(p):
                t = t0 * p
                cand = _transform(ai_s, r, 0, t)
                if (cand[2] % p2 == 0 and cand[3] % p2 == 0
                        and cand[4] % p ** 3 == 0):
                    return cand
        # r, t may also need their mod-p parts adjusted
        for r in range(p2):
            for t in range(p2):
                cand = _transform(ai_s, r, 0, t)
                if (cand[0] % p == 0 and cand[1] % p == 0
                        and cand[2] % p2 == 0 and cand[3] % p2 == 0
                        and cand[4] % p ** 3 == 0):
                    return cand
    raise AssertionError("step-6 normalization failed")


def tate_local_full(ai, p: int) -> LocalData:
    """Full Tate's algorithm at p, valid for every prime (used in
    production for p = 2, 3).  Handles non-minimal models by restarting
    on the rescaled curve."""
    ai = tuple(int(x) for x in ai)
    while True:
        b2, b4, b6, b8, c4, c6, delta = _bc_invariants(*ai)
        if delta == 0:
            raise SingularFiberError("singular curve (zero discriminant)")
        n = _vp(delta, p)
        if n == 0:
            return LocalData(p, 0, "Good", "I0", ai)
        if c4 % p != 0:
            return LocalData(p, 1, "Multiplicative", f"I{n}", ai)
        # additive reduction: move the singular point to the origin
        x0, y0 = _singular_point(ai, p)
        ai = _transform(ai, x0, 0, y0)
        b2, b4, b6, b8, c4, c6, delta = _bc_invariants(*ai)
        a1, a2, a3, a4, a6 = ai
        assert a3 % p == 0 and a4 % p == 0 and a6 % p == 0
        if a6 % p ** 2 != 0:
            return LocalData(p, n, "Additive", "II", ai)
        if b8 % p ** 3 != 0:
            return LocalData(p, n - 1, "Additive", "III", ai)
        if b6 % p ** 3 != 0:
            return LocalData(p, n - 2, "Additive", "IV", ai)
        ai = _normalize_step6(ai, p)
        a1, a2, a3, a4, a6 = ai
        # cubic P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + a6/p^3 mod p
        P = [1, a2 // p, a4 // p ** 2, a6 // p ** 3]
        roots = _poly_roots_mod(P, p)
        nroots = sum(roots.values())
        disc = (18 * P[1] * P[2] * P[3] - 4 * P[1] ** 3 * P[3]
                + P[1] ** 2 * P[2] ** 2 - 4 * P[2] ** 3 - 27 * P[3] ** 2)
        if disc % p != 0:
            return LocalData(p, n - 4, "Additive", "I0*", ai)
        if max(roots.values(), default=0) == 2:
            # type I_m*: translate the double root of P to zero, then
            # peel off quadratics in Y and X until one is separable
            t0 = next(r for r, m in roots.items() if m == 2)
            ai = _transform(ai, p * t0, 0, 0)
            a1, a2, a3, a4, a6 = ai
            ix, iy = 3, 3
            mx, my = p * p, p * p
            while True:
                a3t = a3 // my
                a6t = a6 // (mx * my)
                if (a3t * a3t + 4 * a6t) % p != 0:
                    break
                # double root of Y^2 + a3t Y - a6t mod p
                if p == 2:
                    y1 = a6t % p
                else:
                    y1 = (-a3t * pow(2, -1, p)) % p
                ai = _transform(ai, 0, 0, my * y1)
                a1, a2, a3, a4, a6 = ai
                my *= p
                iy += 1
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
                ix += 1
            m = ix + iy - 5
            return LocalData(p, n - 4 - m, "Additive", f"I{m}*", ai)
        # triple root: translate it to zero
        t0 = next(iter(roots)) if roots else 0
        if roots:
            ai = _transform(ai, p * t0, 0, 0)
        a1, a2, a3, a4, a6 = ai
        a3t = a3 // p ** 2
        a6t = a6 // p ** 4
        if (a3t * a3t + 4 * a6t) % p != 0:
            return LocalData(p, n - 6, "Additive", "IV*", ai)
        if p == 2:
            y1 = a6t % p
        else:
            y1 = (-a3t * pow(2, -1, p)) % p
        ai = _transform(ai, 0, 0, p * p * y1)
        a1, a2, a3, a4, a6 = ai
        if a4 % p ** 4 != 0:
            return LocalData(p, n - 7, "Additive", "III*", ai)
        if a6 % p ** 6 != 0:
            return LocalData(p, n - 8, "Additive", "II*", ai)
        # non-minimal: rescale by p and restart
        ai = _transform(ai, 0, 0, 0, u=p)


def tate_local_shortcut(ai, p: int) -> LocalData:
    """Conductor exponent at p > 3 from the valuation pattern of
    (c4, c6, delta) after p-minimalization: 0 / 1 / 2.

    A model that is not minimal at p is rescaled from its short model
    y^2 = x^3 - 27 c4 x - 54 c6, which is integral and isomorphic to it
    at every p > 3; rescaling the general model itself would first need a
    translation whenever a1, a2 or a3 is nonzero.
    """
    assert p > 3
    ai = tuple(int(x) for x in ai)
    _, _, _, _, c4, c6, delta = _bc_invariants(*ai)
    if delta == 0:
        raise SingularFiberError("singular curve (zero discriminant)")
    vd = _vp(delta, p)
    vc4 = _vp(c4, p) if c4 else 10 ** 9
    vc6 = _vp(c6, p) if c6 else 10 ** 9
    u = 1
    while vd >= 12 and vc4 >= 4 and vc6 >= 6:
        vd -= 12
        vc4 -= 4
        vc6 -= 6
        u *= p
    if u != 1:
        ai = _transform((0, 0, 0, -27 * c4, -54 * c6), 0, 0, 0, u=u)
    if vd == 0:
        return LocalData(p, 0, "Good", "I0", ai)
    if vc4 == 0:
        return LocalData(p, 1, "Multiplicative", f"I{vd}", ai)
    kod = {2: "II", 3: "III", 4: "IV"}.get(vd, "I0*" if vd == 6 else
                                           (f"I{vd - 6}*" if vc4 == 2 else
                                            {8: "IV*", 9: "III*", 10: "II*"}.get(vd, "")))
    return LocalData(p, 2, "Additive", kod or "additive", ai)


def tate_local(ai, p: int) -> LocalData:
    """Local reduction data at p: full algorithm for p in {2, 3},
    valuation shortcut for p > 3."""
    if p <= 3:
        return tate_local_full(ai, p)
    return tate_local_shortcut(ai, p)


@functools.cache
def _trial_primes():
    return primes_upto(10 ** 4)


def _brent(n: int, seed: int = 1) -> int:
    """Brent's cycle variant of Pollard rho; returns a nontrivial factor
    of composite n, or n on failure for this seed."""
    if n % 2 == 0:
        return 2
    y, c, m = seed % n, seed % n + 1, 128
    g, r, q = 1, 1, 1
    x = ys = 0
    while g == 1:
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


def factorize(n: int, budget: int = 64) -> Factorization:
    """Trial division by the primes below 10^4, then Pollard rho / Brent.

    A composite remainder goes to the prime test, then perfect-power
    detection, then rho.  budget caps the number of rho seeds per
    composite; a surviving cofactor is reported as incomplete data, not
    an error.  With budget=0 every composite remainder stays as the
    cofactor, however small its prime factors above 10^4.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    orig = n
    powers = {}

    def record(p, e=1):
        powers[p] = powers.get(p, 0) + e

    for p in _trial_primes():
        if p * p > n:
            break
        while n % p == 0:
            record(p)
            n //= p
    if n == 1:
        return Factorization(orig, powers, 1)
    if n < 10 ** 8 or is_prime(n):  # below trial-bound squared: prime
        record(n)
        return Factorization(orig, powers, 1)

    stack, cofactor = [n], 1
    while stack:
        m = stack.pop()
        if is_prime(m):
            record(m)
            continue
        # perfect powers show up as square parts of D(t)^k; a k-th power of
        # factors above 10^4 ~ 2^13.3 has k <= m.bit_length() // 13
        for k in range(2, m.bit_length() // 13 + 1):
            root = _iroot(m, k)
            if root ** k == m:
                stack.extend([root] * k)
                break
        else:
            for seed in range(1, budget + 1):
                d = _brent(m, seed)
                if 1 < d < m:
                    stack.extend((d, m // d))
                    break
            else:
                cofactor *= m
    return Factorization(orig, powers, cofactor)


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1: integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def conductor(f: FamilyDef, t: int, budget: int = 64):
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
    fac = factorize(abs(bad), budget=budget)
    C = 1
    for p in sorted(fac.prime_powers):
        C *= p ** tate_local(ai, p).f_p
    complete = fac.cofactor == 1
    if not complete:
        C *= fac.cofactor  # assumed square-free, multiplicative reduction
    return C, complete
