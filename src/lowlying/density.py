"""Empirical 1- and 2-level densities from the prime-sum side.

For each good t the explicit formula contributes

  ghat(0) + g(0) + S1(t) + S2(t),
  S1(t) = -2 sum_p (log p / log C(t)) p^-1   ghat(log p/log C(t))  a_t(p)
  S2(t) = -2 sum_p (log p / log C(t)) p^-2   ghat(2 log p/log C(t)) a_t(p)^2

over primes p > P_MIN = 5, with the prime cutoffs enforced exactly by
the compact support of ghat.
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
from .tate import conductor
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
    normalization the closed-form density targets are stated for) and
    falls back to the Tate/factorization route otherwise.  The polynomial
    is taken as given: the washington preset's 8(144t^2 + 60t + 13) is a
    density normalization, not the fiber conductor 8(144t^2 + 60t + 13)^2,
    and it also sets the prime cutoff C^sigma of every washington run.
    """
    ts = np.asarray(ts, dtype=np.int64)
    if f.expected_conductor is not None:
        vals = np.array([math.log(abs(f.expected_conductor.eval(int(t))))
                         for t in ts])
        return vals, 0
    out = np.empty(ts.size)
    incomplete = 0
    for i, t in enumerate(ts):
        C, complete = conductor(f, int(t))
        if not complete:
            incomplete += 1
        out[i] = math.log(C)
    return out, incomplete


def s_sums(f: FamilyDef, t: int, g: TestFn,
           log_C: float | None = None) -> tuple:
    """Direct per-curve prime sums (S1, S2); the simple reference route.

    Each a_t(p) is the per-t character sum `a_p`, independent of the
    `ap_table` path that `_s_sum_arrays` uses.
    """
    if log_C is None:
        log_C, _ = log_conductors(f, [t])
        log_C = float(log_C[0])
    pmax = prime_cutoff(log_C, g.sigma)
    S1 = S2 = 0.0
    for p in primes_upto(pmax):
        if p <= P_MIN:
            continue
        x = math.log(p) / log_C
        w1 = float(g.fhat(x))
        w2 = float(g.fhat(2.0 * x))
        if w1 == 0.0 and w2 == 0.0:
            continue
        ap = a_p(f, t, p)
        S1 += -2.0 * x * w1 * ap / p
        S2 += -2.0 * x * w2 * ap * ap / (p * p)
    return S1, S2


def _s_sum_arrays(f: FamilyDef, ts, gs, logC):
    """Vectorized [(S1(t), S2(t)) for g in gs] over all good t.

    One prime-major walk fetches each prime's a_t(p) row at most once.
    Each g keeps its own cutoff C_max^sigma, zero-weight skip and per-t
    accumulation in prime order, as in a walk made for it alone.
    """
    ts = np.asarray(ts, dtype=np.int64)
    log_cmax = float(np.max(logC))
    pmaxs = [prime_cutoff(log_cmax, g.sigma) for g in gs]
    sums = [(np.zeros(ts.size), np.zeros(ts.size)) for _ in gs]
    for p in primes_upto(max(pmaxs)):
        if p <= P_MIN:
            continue
        x = math.log(p) / logC
        ap = None
        for g, pmax, (S1, S2) in zip(gs, pmaxs, sums):
            if p > pmax:
                continue
            w1 = g.fhat(x)
            w2 = g.fhat(2.0 * x)
            if not (np.any(w1) or np.any(w2)):
                continue
            if ap is None:
                ap = ap_table(f, p)[ts % p].astype(np.float64)
            S1 += (-2.0 / p) * x * w1 * ap
            S2 += (-2.0 / (p * p)) * x * w2 * ap * ap
    return sums


def densities(f: FamilyDef, N: int, g1: TestFn, g2: TestFn | None = None,
              mode: str = "PerCurve"):
    """One density run: (sieve report, g1's 1-level report, 2-level report).

    One sieve of [N, 2N], one log C(t) pass and one prime walk over g1,
    or over g1, g2 and g1*g2; without g2 the 2-level report is None.  The
    2-level estimator is

      avg_t prod_i [ghat_i(0)+g_i(0)+S_{i,1}+S_{i,2}]
        - 2 * D1(g1*g2) + g1(0)g2(0) * N(F,-1).

    An unknown mode or an inadmissible pair (sigma1 + sigma2 >= 1)
    raises before any work.
    """
    if mode not in ("PerCurve", "AverageLogConductor"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    if g2 is not None and g1.sigma + g2.sigma >= 1.0:
        raise ValueError("2-level density needs sigma1 + sigma2 < 1, got "
                         f"{g1.sigma} + {g2.sigma}")
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
    preds = predict_d1(g1, f.rank)
    rep1 = DensityReport(
        testfns=((g1.kind, g1.sigma),), predictions=preds,
        residuals={grp: abs(D1 - v) for grp, v in preds.items()}, **shared)
    if g2 is None:
        return sieve, rep1, None
    (S21, S22), (P1, P2) = sums[1:]
    prod = ((g1.fhat0 + g1.f0 + S11 + S12)
            * (g2.fhat0 + g2.f0 + S21 + S22))
    avg_prod = _mean(prod)
    d1_prod = gs[2].fhat0 + gs[2].f0 + _mean(P1) + _mean(P2)
    n_minus_value = float(family_n_minus(f, [int(t) for t in ts[:200]]))
    D2 = avg_prod - 2.0 * d1_prod + g1.f0 * g2.f0 * n_minus_value
    preds = predict_d2(g1, g2, f.rank)
    rep2 = DensityReport(
        testfns=((g1.kind, g1.sigma), (g2.kind, g2.sigma)),
        D2_emp=D2, n_minus_used=n_minus_value, predictions=preds,
        residuals={grp: abs(D2 - v) for grp, v in preds.items()}, **shared)
    return sieve, rep1, rep2


def d1_empirical(f: FamilyDef, N: int, g: TestFn,
                 mode: str = "PerCurve") -> DensityReport:
    """The 1-level report of `densities` for g."""
    return densities(f, N, g, mode=mode)[1]


def d2_empirical(f: FamilyDef, N: int, g1: TestFn, g2: TestFn,
                 mode: str = "PerCurve") -> DensityReport:
    """The 2-level report of `densities` for the pair (g1, g2)."""
    return densities(f, N, g1, g2, mode=mode)[2]
