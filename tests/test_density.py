import numpy as np
import pytest

from lowlying import density
from lowlying.density import (d1_empirical, d2_empirical, log_conductors,
                              s_sums, _s_sum_arrays)
from lowlying.family import get_family
from lowlying.testfn import make_fejer


def test_s_sums_dual_route():
    f1 = get_family("F1")
    g = make_fejer(0.2)
    for t in (101, 1234, 5000):
        logC, _ = log_conductors(f1, [t])
        arr = _s_sum_arrays(f1, [t], g, logC)
        direct = s_sums(f1, t, g, log_C=float(logC[0]))
        assert abs(arr[0][0] - direct[0]) < 1e-12
        assert abs(arr[1][0] - direct[1]) < 1e-12


def test_s_sums_empty_prime_range():
    f1 = get_family("F1")
    g = make_fejer(0.01)  # cutoff C^sigma stays below p_min
    S1, S2 = s_sums(f1, 50, g)
    assert S1 == 0.0 and S2 == 0.0


def test_f1_only_split_primes_contribute():
    f1 = get_family("F1")
    g = make_fejer(0.3)
    t = 101
    logC, _ = log_conductors(f1, [t])
    # recompute S1 keeping only p = 1 mod 3; must equal the full sum
    import math
    from lowlying.modarith import ap_table, primes_upto
    logc = float(logC[0])
    full = s_sums(f1, t, g, log_C=logc)[0]
    acc = 0.0
    for p in primes_upto(int(math.exp(logc * g.sigma)) + 1):
        if p <= 5 or p % 3 != 1:
            continue
        x = math.log(p) / logc
        acc += -2.0 * x * float(g.fhat(x)) * int(ap_table(f1, p)[t % p]) / p
    assert abs(full - acc) < 1e-12


def test_bookkeeping_identity():
    f1 = get_family("F1")
    g = make_fejer(0.25)
    rep = d1_empirical(f1, 300, g)
    assert abs(rep.D1_emp - (g.fhat0 + g.f0 + rep.S1_avg + rep.S2_avg)) \
        <= 1e-12
    assert set(rep.residuals) == {"SOeven", "O", "SOodd", "Sp", "U"}


def test_normalization_modes():
    f1 = get_family("F1")
    g = make_fejer(0.25)
    a = d1_empirical(f1, 300, g, mode="PerCurve")
    b = d1_empirical(f1, 300, g, mode="AverageLogConductor")
    assert a.D1_emp != b.D1_emp  # modes genuinely differ...
    assert abs(a.D1_emp - b.D1_emp) < 0.05  # ...but only slightly
    with pytest.raises(ValueError):
        d1_empirical(f1, 300, g, mode="bogus")


def test_d2_sign_term():
    f1 = get_family("F1")
    g = make_fejer(0.15)
    base = d2_empirical(f1, 300, g, g, n_minus_value=0.0)
    shifted = d2_empirical(f1, 300, g, g, n_minus_value=0.5)
    assert abs((shifted.D2_emp - base.D2_emp) - 0.5 * g.f0 * g.f0) < 1e-12


def test_d2_inadmissible_warns():
    f1 = get_family("F1")
    g = make_fejer(0.15)
    with pytest.warns(UserWarning):
        rep = d2_empirical(f1, 200, g, g, sigma_bound=0.25)
    assert not rep.admissible


def test_d2_computes_log_conductors_once(monkeypatch):
    calls = []
    real = density.log_conductors

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(density, "log_conductors", counting)
    d2_empirical(get_family("F1"), 200, make_fejer(0.15), make_fejer(0.1))
    assert len(calls) == 1


def test_washington_n_minus_is_one():
    w = get_family("washington")
    g = make_fejer(0.15)
    rep = d2_empirical(w, 200, g, g)
    assert rep.n_minus_used == 1.0


def test_determinism_same_bits():
    f1 = get_family("F1")
    g = make_fejer(0.3)
    a = d1_empirical(f1, 500, g)
    b = d1_empirical(f1, 500, g)
    assert a.D1_emp == b.D1_emp
    assert a.S1_avg == b.S1_avg and a.S2_avg == b.S2_avg
