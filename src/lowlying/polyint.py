"""Exact arithmetic on integer-coefficient polynomials.

Coefficients are stored ascending: coeffs[i] is the coefficient of t**i.
All arithmetic is arbitrary precision; evaluation at any integer is exact.
`rational_roots` uses floats only to propose roots, each checked exactly.
"""

from __future__ import annotations

import math

import numpy as np


class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    # -- basic structure ---------------------------------------------------

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_constant(self):
        return len(self.coeffs) <= 1

    def leading(self):
        return self.coeffs[-1] if self.coeffs else 0

    def constant(self):
        return self.coeffs[0] if self.coeffs else 0

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == (IntPoly([other]).coeffs)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(f"{c:+d}")
            elif i == 1:
                parts.append(f"{c:+d}*t")
            else:
                parts.append(f"{c:+d}*t^{i}")
        s = " ".join(parts)
        return s.lstrip("+").replace("+", "+ ").replace("-", "- ").lstrip() if s else "0"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPoly([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return IntPoly([-x for x in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power")
        out = IntPoly([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- calculus and evaluation ------------------------------------------

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, t):
        """Exact value at integer t (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def eval_mod(self, t, m):
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * t + c) % m
        return acc

    def compose_affine(self, c, t0):
        """Return p(c*t + t0)."""
        inner = IntPoly([t0, c])
        acc = IntPoly()
        for coef in reversed(self.coeffs):
            acc = acc * inner + IntPoly([coef])
        return acc

    def content(self):
        """GCD of the coefficients (nonnegative)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self):
        """Primitive part with positive leading coefficient."""
        if self.is_zero():
            return self
        g = self.content()
        sign = 1 if self.leading() > 0 else -1
        return IntPoly([sign * c // g for c in self.coeffs])


def _coerce(x):
    if isinstance(x, IntPoly):
        return x
    if isinstance(x, int):
        return IntPoly([x])
    raise TypeError(f"cannot coerce {type(x)} to IntPoly")


def poly(*coeffs_ascending):
    """Convenience constructor: poly(1, 9) is 9t+1."""
    return IntPoly(coeffs_ascending)


def _divide(a: IntPoly, b: IntPoly, exact: bool):
    """Long division of a by b over Z (Knuth, TAOCP vol. 2, 4.6.1).

    Returns (q, r) with lc(b)**e * a = q*b + r and deg r < deg b.  A step
    whose leading coefficient lc(b) does not divide scales the partial
    remainder and quotient by lc(b) first (pseudo-division) and adds one
    to e.  With exact=True such a step, or a nonzero remainder, raises
    ValueError instead, so the result is e = 0 and a = q*b.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    lb, db = b.leading(), b.degree
    r = list(a.coeffs)
    q = [0] * max(len(r) - db, 0)
    while len(r) > db:
        c, rem = divmod(r[-1], lb)
        if rem:
            if exact:
                raise ValueError("non-integer quotient")
            c = r[-1]
            r = [lb * x for x in r]
            q = [lb * x for x in q]
        k = len(r) - 1 - db
        q[k] = c
        for i, x in enumerate(b.coeffs):
            r[k + i] -= c * x
        while r and r[-1] == 0:
            r.pop()
    if exact and r:
        raise ValueError("inexact polynomial division")
    return IntPoly(q), IntPoly(r)


def gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over Q with positive leading coefficient.

    Primitive Euclid: each pseudo-remainder is divided by its content.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd of two zero polynomials")
    a, b = a.primitive(), b.primitive()
    while not b.is_zero():
        a, b = b, _divide(a, b, exact=False)[1].primitive()
    return a


def divexact(a: IntPoly, b: IntPoly) -> IntPoly:
    """Exact quotient a/b; raises if b does not divide a in Q[t] with integer result."""
    return _divide(a, b, exact=True)[0]


def radical(p: IntPoly) -> IntPoly:
    """Primitive square-free part, positive leading coefficient.

    Every irreducible factor of p divides the result exactly once;
    constant content is dropped.
    """
    if p.is_zero():
        raise ValueError("radical of zero polynomial")
    if p.is_constant():
        return IntPoly([1])
    g = gcd(p, p.derivative())
    if g.is_constant():
        return p.primitive()
    # primitive gcd divides the primitive part exactly over Z (Gauss)
    return divexact(p.primitive(), g).primitive()


def rational_roots(f: IntPoly):
    """Rational roots of a primitive square-free f, and the cofactor.

    Returns (roots, G): roots is a list of pairs (a, b), b > 0 and
    gcd(a, b) = 1, one per root a/b, and G = f / prod(b x - a) exactly.
    Candidates come from the floating-point roots rho of f: a root a/b
    has b | lc(f), so lc(f) rho is an integer near the float.  Each is
    accepted only if sum c_i a^i b^(d-i) = 0 in integers, so a root the
    floats miss stays in G, and no accepted root is wrong.
    """
    d, lc = f.degree, f.leading()
    if d < 1:
        return [], f
    try:
        rhos = np.roots([float(c) for c in reversed(f.coeffs)])
    except OverflowError:  # coefficients beyond float range
        rhos = []
    roots, lin = [], IntPoly([1])
    for rho in set(float(r.real) for r in rhos):
        if not math.isfinite(lc * rho):
            continue
        n = round(lc * rho)
        g = math.gcd(n, lc)
        a, b = n // g, lc // g
        if b < 0:
            a, b = -a, -b
        if (a, b) in roots:
            continue
        if sum(c * a ** i * b ** (d - i) for i, c in enumerate(f.coeffs)):
            continue
        roots.append((a, b))
        lin = lin * IntPoly([-a, b])
    return sorted(roots), divexact(f, lin)
