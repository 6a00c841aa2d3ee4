"""Empirical 1- and 2-level densities from the prime-sum side.

For each good t the explicit formula contributes

  ghat(0) + g(0) + S1(t) + S2(t),
  S1(t) = -2 sum_p (log p / log C(t)) p^-1   ghat(log p/log C(t))  a_t(p)
  S2(t) = -2 sum_p (log p / log C(t)) p^-2   ghat(2 log p/log C(t)) a_t(p)^2

with the prime cutoffs enforced exactly by the compact support of ghat.
Averaging over the sieve's good set gives the empirical density; the
2-level estimator combines the per-curve product with the 1-level run
on the pointwise product test function and the odd-sign fraction.

Computation is prime-major: one table of a_t(p) per residue class mod p
serves every t at once.  The per-curve sums accumulate in prime order
and the averages over the good set are correctly rounded (math.fsum),
so reports are bit-identical across thread counts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .family import FamilyDef, n_minus as family_n_minus
from .modarith import ap_table, primes_upto
from .predict import GROUPS, predict_d1, predict_d2, predict_d2_sp, predict_d2_u
from .sqsieve import enumerate_good
from .testfn import TestFn, product_fn


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
    from .tate import conductor

    out = np.empty(ts.size)
    incomplete = 0
    for i, t in enumerate(ts):
        C, complete = conductor(f, int(t))
        if not complete:
            incomplete += 1
        out[i] = math.log(C)
    return out, incomplete


def s_sums(f: FamilyDef, t: int, g: TestFn, log_C: float | None = None,
           p_min: int = 5) -> tuple:
    """Direct per-curve prime sums (S1, S2); the simple reference route."""
    if log_C is None:
        log_C, _ = log_conductors(f, [t])
        log_C = float(log_C[0])
    pmax = int(math.exp(log_C * g.sigma)) + 1
    S1 = S2 = 0.0
    for p in primes_upto(pmax):
        if p <= p_min:
            continue
        x = math.log(p) / log_C
        w1 = float(g.fhat(x))
        w2 = float(g.fhat(2.0 * x))
        if w1 == 0.0 and w2 == 0.0:
            continue
        ap = int(ap_table(f, p)[t % p])
        S1 += -2.0 * x * w1 * ap / p
        S2 += -2.0 * x * w2 * ap * ap / (p * p)
    return S1, S2


def _s_sum_arrays(f: FamilyDef, ts, g: TestFn, logC, p_min=5):
    """Vectorized S1(t), S2(t) over all good t, prime-major."""
    ts = np.asarray(ts, dtype=np.int64)
    S1 = np.zeros(ts.size)
    S2 = np.zeros(ts.size)
    pmax = int(math.exp(float(np.max(logC)) * g.sigma)) + 1
    for p in primes_upto(pmax):
        if p <= p_min:
            continue
        x = math.log(p) / logC
        w1 = g.fhat(x)
        w2 = g.fhat(2.0 * x)
        if not (np.any(w1) or np.any(w2)):
            continue
        ap = ap_table(f, p)[ts % p].astype(np.float64)
        S1 += (-2.0 / p) * x * w1 * ap
        S2 += (-2.0 / (p * p)) * x * w2 * ap * ap
    return S1, S2


def _prep(f, N, d_max):
    rep = enumerate_good(f, N, d_max=d_max)
    ts = rep.good_t
    if ts.size == 0:
        raise ValueError("empty good-t set")
    return ts


def _normalize(logC, mode):
    if mode == "AverageLogConductor":
        return np.full_like(logC, _mean(logC))
    if mode != "PerCurve":
        raise ValueError(f"unknown normalization mode {mode!r}")
    return logC


def d1_empirical(f: FamilyDef, N: int, g: TestFn, mode: str = "PerCurve",
                 p_min: int = 5, d_max: int | None = None) -> DensityReport:
    """Average of [ghat(0) + g(0) + S1 + S2] over the good set in [N, 2N]."""
    ts = _prep(f, N, d_max)
    logC, incomplete = log_conductors(f, ts)
    logC = _normalize(logC, mode)
    S1, S2 = _s_sum_arrays(f, ts, g, logC, p_min=p_min)
    s1, s2 = _mean(S1), _mean(S2)
    D1 = g.fhat0 + g.f0 + s1 + s2
    preds = {grp: predict_d1(grp, g, f.rank) for grp in GROUPS}
    resid = {grp: abs(D1 - v) for grp, v in preds.items()}
    return DensityReport(
        family=f.label, N=N, testfns=((g.kind, g.sigma),), normalization=mode,
        p_min=p_min, n_curves=int(ts.size), D1_emp=D1, S1_avg=s1, S2_avg=s2,
        predictions=preds, residuals=resid, abc_flag=f.abc_flag,
        incomplete_conductors=incomplete)


def d2_empirical(f: FamilyDef, N: int, g1: TestFn, g2: TestFn,
                 mode: str = "PerCurve", p_min: int = 5,
                 d_max: int | None = None, sigma_bound: float = 1.0,
                 n_minus_value: float | None = None) -> DensityReport:
    """Two-level estimator.

    avg_t prod_i [ghat_i(0)+g_i(0)+S_{i,1}+S_{i,2}]
      - 2 * D1(g1*g2) + g1(0)g2(0) * N(F,-1).
    """
    admissible = g1.sigma + g2.sigma < sigma_bound
    if not admissible:
        warnings.warn("test-function supports exceed the admissibility "
                      "bound; run proceeds, flagged non-admissible")
    ts = _prep(f, N, d_max)
    logC, incomplete = log_conductors(f, ts)
    logC = _normalize(logC, mode)
    S11, S12 = _s_sum_arrays(f, ts, g1, logC, p_min=p_min)
    if g2 is g1:
        S21, S22 = S11, S12
    else:
        S21, S22 = _s_sum_arrays(f, ts, g2, logC, p_min=p_min)
    prod = ((g1.fhat0 + g1.f0 + S11 + S12)
            * (g2.fhat0 + g2.f0 + S21 + S22))
    avg_prod = _mean(prod)
    gp = product_fn(g1, g2)
    P1, P2 = _s_sum_arrays(f, ts, gp, logC, p_min=p_min)
    d1_prod = gp.fhat0 + gp.f0 + _mean(P1) + _mean(P2)
    if n_minus_value is None:
        if f.sign_rule.kind == "Equidistributed":
            n_minus_value = 0.5
        else:
            sample = [int(t) for t in ts[: min(ts.size, 200)]]
            n_minus_value = float(family_n_minus(f, sample))
    D2 = avg_prod - 2.0 * d1_prod + g1.f0 * g2.f0 * n_minus_value
    preds = {
        "SOeven": predict_d2("SOeven", g1, g2, f.rank),
        "O": predict_d2("O", g1, g2, f.rank),
        "SOodd": predict_d2("SOodd", g1, g2, f.rank),
        "Sp": predict_d2_sp(g1, g2, f.rank),
        "U": predict_d2_u(g1, g2),
    }
    resid = {grp: abs(D2 - v) for grp, v in preds.items()}
    s1, s2 = _mean(S11), _mean(S12)
    return DensityReport(
        family=f.label, N=N,
        testfns=((g1.kind, g1.sigma), (g2.kind, g2.sigma)),
        normalization=mode, p_min=p_min, n_curves=int(ts.size),
        D1_emp=g1.fhat0 + g1.f0 + s1 + s2, S1_avg=s1, S2_avg=s2,
        D2_emp=D2, n_minus_used=n_minus_value, predictions=preds,
        residuals=resid, abc_flag=f.abc_flag,
        incomplete_conductors=incomplete, admissible=admissible)
