"""Square-free sieve on the values of D(t).

D(t) is the square-free part of the family discriminant.  A parameter t
in [N, 2N] is "good" when no d^2 divides D(t) for small d coprime to the
family's exceptional square B.  The sieve marks arithmetic progressions
t = r mod p^2 for the roots r of D mod p^2 (`polyint.roots_mod`) at the
primes p up to a cutoff; an optional exact refinement factorizes the
survivors' D(t) and measures how many slip through with a large-prime
square factor.

A singular fiber has Delta(t) = 0, so D(t) = 0 and p^2 | D(t) at every
sieved p: the marking removes it.  Only when every prime up to the
cutoff divides B can one survive, and the single pass D(t) mod 2^31 - 1
with an exact D(t) on its hits drops it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family import FamilyDef
from .modarith import PRIME_LIMIT, primes_upto
from .polyint import IntPoly, roots_mod, vals_mod


class ZeroDensityError(ValueError):
    pass


def nu(D: IntPoly, d: int) -> int:
    """Number of incongruent t mod d^2 with D(t) = 0 mod d^2, d square-free.

    Multiplicative over the primes of d (CRT), so only the per-prime
    counts are computed.
    """
    from .tate import factorize

    if d < 1:
        raise ValueError("d must be a positive square-free integer")
    fac = factorize(d)
    if fac.cofactor != 1 or any(e > 1 for e in fac.prime_powers.values()):
        raise ValueError(f"d={d} is not square-free or not fully factored")
    out = 1
    for p in sorted(fac.prime_powers):
        out *= len(roots_mod(D, p, 2))
    return out


def _local_factors(f: FamilyDef, p_max: int):
    """(p, sieved residues mod p^2, 1 - nu(p)/p^2) for primes p <= p_max.

    The residues are the roots of D mod p^2; a prime dividing the
    exceptional square B is not sieved, so it yields none and factor 1.
    Ascending in p, so products over it are the same floats everywhere.
    """
    D = f.inv["D"]
    for p in primes_upto(p_max):
        if f.B % p == 0:
            yield p, [], 1.0
            continue
        roots = roots_mod(D, p, 2)
        if len(roots) == p * p:
            raise ZeroDensityError(
                f"nu({p}) = {p}^2: every t has {p}^2 | D(t); set the "
                f"exceptional square B to absorb this prime")
        yield p, roots, 1.0 - len(roots) / (p * p)


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
    prime squares does).  Singular fibers (D(t) = 0) are never good:
    the marking removes them at any sieved prime, and the survivors
    with D(t) = 0 mod 2^31 - 1 are checked exactly.  With exact=True
    the survivors' D(t) values are factorized, by one sieve over all of
    them, and those with a square factor beyond d_max are removed;
    their count is reported as t_set_excess.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if N > PRIME_LIMIT:  # the mask below takes N + 1 bytes
        raise ValueError(f"sieve of N = {N} fibers exceeds the limit 10^9")
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
    for p, roots, factor in _local_factors(f, d_max):
        nu_table[p] = len(roots)  # 0 for an exceptional prime
        c *= factor
        m = p * p
        for r in roots:
            start = (r - N) % m
            good[start::m] = False
    ts = np.nonzero(good)[0] + N
    # a singular t survives only when every prime <= d_max divides B
    zero = vals_mod(D, 2 ** 31 - 1, ts) == 0
    zero[zero] = [D.eval(t) == 0 for t in ts[zero].tolist()]
    ts = ts[~zero]
    excess = 0
    if exact:
        from .tate import _factor_values

        keep = []
        for t, fac in zip(ts.tolist(), _factor_values(D, ts)):
            sq = any(e >= 2 for p, e in fac.prime_powers.items() if B % p != 0)
            cof = fac.cofactor
            if sq or cof != 1 and math.isqrt(cof) ** 2 == cof:
                excess += 1
            else:
                keep.append(t)
        ts = np.array(keep, dtype=np.int64)
    return SieveReport(N=N, d_max=d_max, good_t=ts, nu_table=nu_table,
                       c_F_estimate=c, t_set_excess=excess)


def cardinality_constant(f: FamilyDef, p_max: int = 1000) -> float:
    """Truncated density product  prod_{p <= p_max, p not | B} (1 - nu(p)/p^2).

    A constant D is the radical 1 of a constant discriminant: no prime
    has a root, so every factor is 1.0.
    """
    return math.prod(factor for *_, factor in _local_factors(f, p_max))
