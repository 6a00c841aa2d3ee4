"""Empirical 1- and 2-level densities from the prime-sum side.

For each good t the explicit formula contributes

  ghat(0) + g(0) + S1(t) + S2(t),
  S1(t) = -2 sum_p (log p / log C(t)) p^-1   ghat(log p/log C(t))  a_t(p)
  S2(t) = -2 sum_p (log p / log C(t)) p^-2   ghat(2 log p/log C(t)) a_t(p)^2

over primes p > P_MIN = 5, with the prime cutoffs enforced exactly by
the compact support of ghat: S1 ends at C_max^sigma and S2 at
C_max^(sigma/2), past which ghat(2 log p/log C(t)) is exactly 0.0 for
every t.  A prime whose a_t(p) table is all zero adds nothing and is
skipped (`_s_sum_arrays` gives the proof that both skips are exact, and
that a zero weight needs no skip of its own).
Averaging over the sieve's good set gives the empirical density; the
2-level estimator combines the per-curve product with the 1-level run
on the pointwise product test function and the odd-sign fraction.

Both levels come from one run, `densities`: one sieve, one log C(t) pass
and one prime-major walk.  Each prime's a_t(p) row, looked up from one
table per residue class mod p, serves every t and every test function
of the run (g1, or g1, g2 and g1*g2) at once.  The per-curve sums
accumulate in prime order and the averages over the good set are
correctly rounded (math.fsum), so reports are bit-identical across
thread counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .family import FamilyDef, n_minus as family_n_minus
from .modarith import a_p, ap_table, prime_cutoff, primes_upto
from .predict import predict_d1, predict_d2
from .sqsieve import enumerate_good
from .tate import conductors
from .testfn import TestFn, product_fn

P_MIN = 5  # the prime sums run over p > P_MIN


@dataclass
class DensityReport:
    family: str
    N: int
    testfns: tuple
    normalization: str
    p_min: int
    n_curves: int
    D1_emp: float
    S1_avg: float
    S2_avg: float
    D2_emp: float | None = None
    n_minus_used: float = 0.0
    predictions: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    abc_flag: bool = False
    incomplete_conductors: int = 0
    admissible: bool = True

    def __post_init__(self):
        assert set(self.residuals) <= set(self.predictions)


def _mean(a):
    return math.fsum(a) / len(a)


def log_conductors(f: FamilyDef, ts):
    """log C(t) for each t; (values, incomplete_count).

    Uses the family's conductor polynomial when one is configured (the
    normalization the closed-form density targets are stated for).  The
    polynomial is taken as given: the washington preset's
    8(144t^2 + 60t + 13) is a density normalization, not the fiber
    conductor 8(144t^2 + 60t + 13)^2, and it also sets the prime cutoff
    C^sigma of every washington run.

    Otherwise the one route is `tate.conductors` over the whole set; its
    docstring and the `tate` module's state the exponent rule.

    A fiber with |C(t)| <= 1 raises ValueError, on either route: log C
    would be undefined, or at most 0, so that the prime cutoff
    int(C^sigma) + 1 admits no prime.  Only a conductor polynomial can
    give one; every conductor from Tate has a bad prime.
    """
    ts = np.asarray(ts, dtype=np.int64)
    if f.expected_conductor is not None:
        Cs = ((abs(f.expected_conductor.eval(int(t))), True) for t in ts)
    else:
        Cs = conductors(f, ts)
    out = np.empty(ts.size)
    incomplete = 0
    for i, (C, complete) in enumerate(Cs):
        if C <= 1:
            raise ValueError(
                f"{f.label}: conductor |C({int(ts[i])})| = {C}, not > 1")
        if not complete:
            incomplete += 1
        out[i] = math.log(C)
    return out, incomplete


def s_sums(f: FamilyDef, t: int, g: TestFn, log_C: float) -> tuple:
    """Direct per-curve prime sums (S1, S2) at log C(t) = log_C; the
    simple reference route.

    Each a_t(p) is the per-t character sum `a_p`, independent of the
    `ap_table` path that `_s_sum_arrays` uses.  Every prime up to
    int(C(t)^sigma) + 1 adds both terms; a zero weight adds +-0.0, which
    changes no sum (see `_s_sum_arrays`).
    """
    pmax = prime_cutoff(log_C, g.sigma)
    S1 = S2 = 0.0
    for p in primes_upto(pmax):
        if p <= P_MIN:
            continue
        x = math.log(p) / log_C
        w1 = float(g.fhat(x))
        w2 = float(g.fhat(2.0 * x))
        ap = a_p(f, t, p)
        S1 += -2.0 * x * w1 * ap / p
        S2 += -2.0 * x * w2 * ap * ap / (p * p)
    return S1, S2


def _s_sum_arrays(f: FamilyDef, ts, gs, logC):
    """Vectorized [(S1(t), S2(t)) for g in gs] over all good t.

    One prime-major walk fetches the a_t(p) row of every prime in
    (P_MIN, max S1 cutoff] once.  Each g keeps its own cutoffs and per-t
    accumulation in prime order, as in a walk made for it alone: S1 runs
    to C_max^sigma and S2 to C_max^(sigma/2).  Two skips leave every bit
    as it was:

    - Past the S2 cutoff p >= int(C_max^(sigma/2)) + 2, so
      log p - (sigma/2) log C_max > log(1 + 1/p), and for every t
      2 log p / log C(t) exceeds sigma by a relative margin above
      1/(p log p) > 4e-11 (p <= 10^9), far above rounding.  Every ghat
      of `testfn` is exactly 0.0 at |u| >= sigma, so S2's terms there
      are +-0.0.
    - A prime whose a_t(p) table is all zero (every p = 2 mod 3 for F1,
      p = 3 mod 4 for F2+-, by `ap_table`'s coefficient rule) adds +-0.0
      to every sum; the table is tested before the fibers' row is
      gathered from it, and no test function is evaluated at the prime.
      A row that is all zero in a table that is not adds +-0.0 too, as
      below, so it is summed.

    Adding +-0.0 changes no sum: each starts at +0.0 and round to
    nearest never makes -0.0 from an exact cancellation, so no sum is
    ever -0.0, and x + (+-0.0) = x for every other x.  So a prime needs
    no skip where a weight is zero: every ghat is > 0 inside its support
    and exactly 0.0 outside it, so below the S1 cutoff the fiber of
    largest log C has a nonzero weight, and only the cutoff's last
    prime, at most int(C_max^sigma) + 1, can add +-0.0 everywhere.
    """
    ts = np.asarray(ts, dtype=np.int64)
    log_cmax = float(np.max(logC))
    pmaxs = [(prime_cutoff(log_cmax, g.sigma),
              prime_cutoff(log_cmax, g.sigma / 2)) for g in gs]
    sums = [(np.zeros(ts.size), np.zeros(ts.size)) for _ in gs]
    for p in primes_upto(max(pmax1 for pmax1, _ in pmaxs)):
        if p <= P_MIN:
            continue
        tab = ap_table(f, p)
        if not tab.any():
            continue
        ap = tab[ts % p].astype(np.float64)
        x = math.log(p) / logC
        for g, (pmax1, pmax2), (S1, S2) in zip(gs, pmaxs, sums):
            if p > pmax1:
                continue
            S1 += (-2.0 / p) * x * g.fhat(x) * ap
            if p <= pmax2:
                S2 += (-2.0 / (p * p)) * x * g.fhat(2.0 * x) * ap * ap
    return sums


def densities(f: FamilyDef, N: int, g1: TestFn, g2: TestFn | None = None,
              mode: str = "PerCurve"):
    """One density run: (sieve report, g1's 1-level report, 2-level report).

    One sieve of [N, 2N], one log C(t) pass and one prime walk over g1,
    or over g1, g2 and g1*g2; without g2 the 2-level report is None.  The
    2-level estimator is

      avg_t prod_i [ghat_i(0)+g_i(0)+S_{i,1}+S_{i,2}]
        - 2 * D1(g1*g2) + g1(0)g2(0) * N(F,-1).

    An unknown mode raises before any work, and so does an inadmissible
    pair (sigma1 + sigma2 >= 1): the predictions are computed first, and
    `predict_d2` refuses it.
    """
    if mode not in ("PerCurve", "AverageLogConductor"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    preds1 = predict_d1(g1, f.rank)
    preds2 = None if g2 is None else predict_d2(g1, g2, f.rank)
    sieve = enumerate_good(f, N)
    ts = sieve.good_t
    if ts.size == 0:
        raise ValueError("empty good-t set")
    logC, incomplete = log_conductors(f, ts)
    if mode == "AverageLogConductor":
        logC = np.full_like(logC, _mean(logC))
    gs = (g1,) if g2 is None else (g1, g2, product_fn(g1, g2))
    sums = _s_sum_arrays(f, ts, gs, logC)
    S11, S12 = sums[0]
    s1, s2 = _mean(S11), _mean(S12)
    D1 = g1.fhat0 + g1.f0 + s1 + s2
    shared = dict(family=f.label, N=N, normalization=mode, p_min=P_MIN,
                  n_curves=int(ts.size), D1_emp=D1, S1_avg=s1, S2_avg=s2,
                  abc_flag=f.abc_flag, incomplete_conductors=incomplete)
    rep1 = DensityReport(
        testfns=((g1.kind, g1.sigma),), predictions=preds1,
        residuals={grp: abs(D1 - v) for grp, v in preds1.items()}, **shared)
    if g2 is None:
        return sieve, rep1, None
    (S21, S22), (P1, P2) = sums[1:]
    prod = ((g1.fhat0 + g1.f0 + S11 + S12)
            * (g2.fhat0 + g2.f0 + S21 + S22))
    avg_prod = _mean(prod)
    d1_prod = gs[2].fhat0 + gs[2].f0 + _mean(P1) + _mean(P2)
    n_minus_value = float(family_n_minus(f, [int(t) for t in ts[:200]]))
    D2 = avg_prod - 2.0 * d1_prod + g1.f0 * g2.f0 * n_minus_value
    rep2 = DensityReport(
        testfns=((g1.kind, g1.sigma), (g2.kind, g2.sigma)),
        D2_emp=D2, n_minus_used=n_minus_value, predictions=preds2,
        residuals={grp: abs(D2 - v) for grp, v in preds2.items()}, **shared)
    return sieve, rep1, rep2


def d1_empirical(f: FamilyDef, N: int, g: TestFn,
                 mode: str = "PerCurve") -> DensityReport:
    """The 1-level report of `densities` for g."""
    return densities(f, N, g, mode=mode)[1]


def d2_empirical(f: FamilyDef, N: int, g1: TestFn, g2: TestFn,
                 mode: str = "PerCurve") -> DensityReport:
    """The 2-level report of `densities` for the pair (g1, g2)."""
    return densities(f, N, g1, g2, mode=mode)[2]
