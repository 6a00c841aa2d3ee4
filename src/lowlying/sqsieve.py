"""Square-free sieve on the values of D(t).

D(t) is the square-free part of the family discriminant.  A parameter t
in [N, 2N] is "good" when no d^2 divides D(t) for small d coprime to the
family's exceptional square B.  The sieve marks arithmetic progressions
t = t_i mod d^2 for the square-free d up to a cutoff; an optional exact
refinement factorizes the survivors' D(t) and measures how many slip
through with a large-prime square factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family import FamilyDef
from .modarith import primes_upto
from .polyint import IntPoly
from .tate import factorize


class ZeroDensityError(ValueError):
    pass


def _roots_mod_psq(D: IntPoly, p: int):
    """Residues t mod p^2 with D(t) = 0 mod p^2.

    Roots mod p are found by scanning; simple roots lift uniquely
    (Hensel), while roots where D' vanishes fall back to checking every
    lift mod p^2.
    """
    Dp = D.derivative()
    out = []
    for r in range(p):
        if D.eval_mod(r, p) != 0:
            continue
        if Dp.eval_mod(r, p) != 0:
            # unique Hensel lift: r - D(r)/D'(r) mod p^2
            m = p * p
            dr = D.eval_mod(r, m)
            inv = pow(Dp.eval_mod(r, m), -1, p)
            k = (dr // p * inv) % p
            t = (r - k * p) % m
            assert D.eval_mod(t, m) == 0
            out.append(t)
        else:
            m = p * p
            out.extend(t for t in range(r, m, p) if D.eval_mod(t, m) == 0)
    return sorted(out)


def nu(D: IntPoly, d: int) -> int:
    """Number of incongruent t mod d^2 with D(t) = 0 mod d^2, d square-free.

    Multiplicative over the primes of d (CRT), so only the per-prime
    counts are computed.
    """
    if d < 1:
        raise ValueError("d must be a positive square-free integer")
    if d == 1:
        return 1
    fac = factorize(d)
    if fac.cofactor != 1 or any(e > 1 for e in fac.prime_powers.values()):
        raise ValueError(f"d={d} is not square-free or not fully factored")
    out = 1
    for p in sorted(fac.prime_powers):
        out *= len(_roots_mod_psq(D, p))
    return out


@dataclass
class SieveReport:
    N: int
    d_max: int
    good_t: np.ndarray
    nu_table: dict = field(default_factory=dict)
    c_F_estimate: float = 1.0
    t_set_excess: int = 0

    def __post_init__(self):
        assert 0.0 < self.c_F_estimate <= 1.0
        assert self.t_set_excess >= 0


def default_d_max(N):
    """Cutoff for sieving primes: ceil(log(N)^1.5)."""
    return max(2, math.ceil(math.log(max(N, 3)) ** 1.5))


def enumerate_good(f: FamilyDef, N: int, d_max: int | None = None,
                   exact: bool = False) -> SieveReport:
    """Good t in [N, 2N]: no p^2 | D(t) for primes p <= d_max, p not | B.

    Marking by primes gives the same good set as marking every
    square-free d (a composite d^2 divides D(t) only if each of its
    prime squares does).  With exact=True the survivors' D(t) values are
    factorized and those with a square factor beyond d_max are removed;
    their count is reported as t_set_excess.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if d_max is None:
        d_max = default_d_max(N)
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    D = f.inv["D"]
    if D.is_constant():
        raise ValueError("degenerate family: D(t) is constant")
    B = f.B
    length = N + 1  # t in [N, 2N] inclusive
    good = np.ones(length, dtype=bool)
    nu_table = {1: 1}
    c = 1.0  # cardinality_constant(f, d_max), from the roots found here
    for p in primes_upto(d_max):
        if B % p == 0:
            nu_table[p] = 0  # excluded: exceptional prime
            continue
        roots = _roots_mod_psq(D, p)
        nu_table[p] = len(roots)
        if len(roots) == p * p:
            raise ZeroDensityError(
                f"nu({p}) = {p}^2: every t has {p}^2 | D(t); set the "
                f"exceptional square B to absorb this prime")
        m = p * p
        c *= 1.0 - len(roots) / m
        for r in roots:
            start = (r - N) % m
            good[start::m] = False
    ts = np.nonzero(good)[0] + N
    # also drop singular fibers
    ts = np.array([t for t in ts if f.delta_at(int(t)) != 0], dtype=np.int64)
    excess = 0
    if exact:
        keep = []
        for t in ts:
            val = abs(D.eval(int(t)))
            fac = factorize(val)
            sq = any(e >= 2 for p, e in fac.prime_powers.items() if B % p != 0)
            cof = fac.cofactor
            if sq or cof != 1 and math.isqrt(cof) ** 2 == cof:
                excess += 1
            else:
                keep.append(int(t))
        ts = np.array(keep, dtype=np.int64)
    return SieveReport(N=N, d_max=d_max, good_t=ts, nu_table=nu_table,
                       c_F_estimate=c, t_set_excess=excess)


def cardinality_constant(f: FamilyDef, p_max: int = 1000) -> float:
    """Truncated density product  prod_{p <= p_max, p not | B} (1 - nu(p)/p^2)."""
    D = f.inv["D"]
    if D.is_constant():
        return 1.0
    out = 1.0
    for p in primes_upto(p_max):
        if f.B % p == 0:
            continue
        np_ = len(_roots_mod_psq(D, p))
        if np_ == p * p:
            raise ZeroDensityError(
                f"nu({p}) = {p}^2 gives zero density; set B to absorb {p}")
        out *= 1.0 - np_ / (p * p)
    return out
