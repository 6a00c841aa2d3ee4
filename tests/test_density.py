import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from lowlying import density, tate
from lowlying.density import (d1_empirical, d2_empirical, densities,
                              log_conductors, s_sums, _s_sum_arrays)
from lowlying.family import SignRule, get_family, load_family
from lowlying.modarith import ap_table, prime_cutoff, primes_upto
from lowlying.sqsieve import enumerate_good
from lowlying.tate import conductor
from lowlying.testfn import make_fejer, make_smooth_bump, product_fn

F1_TATE = Path(__file__).resolve().parents[1] / "perfbench" / "F1-tate.json"


def test_s_sums_dual_route():
    f1 = get_family("F1")
    g = make_fejer(0.2)
    for t in (101, 1234, 5000):
        logC, _ = log_conductors(f1, [t])
        [arr] = _s_sum_arrays(f1, [t], (g,), logC)
        direct = s_sums(f1, t, g, log_C=float(logC[0]))
        assert abs(arr[0][0] - direct[0]) < 1e-12
        assert abs(arr[1][0] - direct[1]) < 1e-12


def _reference_walk(f, ts, gs, logC):
    """Every prime up to each g's C_max^sigma, both terms, no skip."""
    ts = np.asarray(ts, dtype=np.int64)
    log_cmax = float(np.max(logC))
    sums = []
    for g in gs:
        S1, S2 = np.zeros(ts.size), np.zeros(ts.size)
        for p in primes_upto(prime_cutoff(log_cmax, g.sigma)):
            if p <= density.P_MIN:
                continue
            x = math.log(p) / logC
            w1, w2 = g.fhat(x), g.fhat(2.0 * x)
            ap = ap_table(f, p)[ts % p].astype(np.float64)
            S1 += (-2.0 / p) * x * w1 * ap
            S2 += (-2.0 / (p * p)) * x * w2 * ap * ap
        sums.append((S1, S2))
    return sums


@pytest.mark.parametrize("name", ["F1", "F2plus", "washington"])
@pytest.mark.parametrize("specs", [
    ("fejer", 0.4), ("smoothbump", 0.4),
    ("fejer", 0.25, "smoothbump", 0.15),
])
def test_walk_skips_are_exact(monkeypatch, name, specs):
    # the S2 cut past C_max^(sigma/2) and the all-zero-table skip leave
    # every bit of every sum; every prime up to the largest S1 cutoff is
    # fetched once, zero weights included
    make = {"fejer": make_fejer, "smoothbump": make_smooth_bump}
    gs = tuple(make[k](s) for k, s in zip(specs[::2], specs[1::2]))
    if len(gs) == 2:
        gs += (product_fn(*gs),)
    f = get_family(name)
    ts = np.arange(100, 250)
    logC, _ = log_conductors(f, ts)
    want = _reference_walk(f, ts, gs, logC)
    fetched = []

    def counting(f, p):
        fetched.append(p)
        return ap_table(f, p)

    monkeypatch.setattr(density, "ap_table", counting)
    got = _s_sum_arrays(f, ts, gs, logC)
    cut1 = max(prime_cutoff(float(np.max(logC)), g.sigma) for g in gs)
    assert fetched == [p for p in primes_upto(cut1) if p > density.P_MIN]
    for (S1, S2), (R1, R2) in zip(got, want):
        assert np.array_equal(S1, R1) and np.array_equal(S2, R2)
    # both skips ran: rows past some S2 cutoff, and all-zero tables for
    # the one-class families
    cut2 = min(prime_cutoff(float(np.max(logC)), g.sigma / 2) for g in gs)
    assert fetched[-1] > cut2
    zero = [not ap_table(f, p).any() for p in fetched]
    assert any(zero) == (name != "washington")


def test_s_sums_empty_prime_range():
    f1 = get_family("F1")
    g = make_fejer(0.01)  # cutoff C^sigma stays below p_min
    logC, _ = log_conductors(f1, [50])
    S1, S2 = s_sums(f1, 50, g, float(logC[0]))
    assert S1 == 0.0 and S2 == 0.0


def test_prime_cutoff_beyond_bound_raises_before_sieving(monkeypatch):
    # F1 at N = 300 has C_max near 10^8.9, so sigma = 2 asks for primes to
    # about 10^17.8; the spy fails the test rather than run that sieve
    def refuse(n):
        raise AssertionError(f"primes_upto({n}) called")

    monkeypatch.setattr(density, "primes_upto", refuse)
    f1 = get_family("F1")
    g = make_fejer(2)
    with pytest.raises(ValueError, match="sigma = 2"):
        d1_empirical(f1, 300, g)
    logC, _ = log_conductors(f1, [600])
    with pytest.raises(ValueError, match="C_max"):
        s_sums(f1, 600, g, float(logC[0]))


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


def test_average_log_conductor_matches_direct_sums():
    # every fiber is scaled by the mean log C of the good set; the direct
    # route sums in another order, so agreement is to rounding, not bits
    f1 = get_family("F1")
    g = make_fejer(0.25)
    sieve, rep, _ = densities(f1, 300, g, mode="AverageLogConductor")
    assert rep.normalization == "AverageLogConductor"
    ts = sieve.good_t.tolist()
    logC, _ = log_conductors(f1, ts)
    mean = math.fsum(logC) / len(ts)
    direct = [s_sums(f1, t, g, log_C=mean) for t in ts]
    for got, k in ((rep.S1_avg, 0), (rep.S2_avg, 1)):
        want = math.fsum(d[k] for d in direct) / len(ts)
        assert want != 0.0
        assert math.isclose(got, want, rel_tol=1e-12), (k, got, want)


def test_d2_sign_term():
    f1 = get_family("F1")
    even, odd = (dataclasses.replace(f1, sign_rule=SignRule(kind))
                 for kind in ("AllEven", "AllOdd"))
    g = make_fejer(0.15)
    base = d2_empirical(even, 300, g, g)
    shifted = d2_empirical(odd, 300, g, g)
    assert (base.n_minus_used, shifted.n_minus_used) == (0.0, 1.0)
    assert abs((shifted.D2_emp - base.D2_emp) - g.f0 * g.f0) < 1e-12


def test_d2_inadmissible_raises_before_any_work(monkeypatch):
    # predict_d2 refuses the pair before the sieve runs
    calls = []
    monkeypatch.setattr(density, "enumerate_good",
                        lambda *args: calls.append(args))
    f1 = get_family("F1")
    for s1, s2 in ((0.5, 0.5), (0.7, 0.4)):
        with pytest.raises(ValueError, match=rf"sigma1 \+ sigma2 < 1, "
                           rf"got {s1} \+ {s2}"):
            d2_empirical(f1, 200, make_fejer(s1), make_fejer(s2))
    assert calls == []


def test_d2_one_ap_table_per_prime(monkeypatch):
    seen = []
    real = density.ap_table

    def counting(f, p):
        seen.append(p)
        return real(f, p)

    monkeypatch.setattr(density, "ap_table", counting)
    d2_empirical(get_family("F1"), 200, make_fejer(0.15), make_fejer(0.1))
    assert seen and len(seen) == len(set(seen))


def test_log_conductors_tate_route(monkeypatch):
    # no conductor polynomial: the logs of the Tate conductors, bit for bit
    f = load_family(F1_TATE)
    ts = enumerate_good(f, 300).good_t
    logC, incomplete = log_conductors(f, ts)
    assert ts.size == 208 and incomplete == 0
    assert logC.tolist() == [math.log(conductor(f, int(t))[0]) for t in ts]
    # without rho, every rank6 fiber keeps a cofactor and counts once
    monkeypatch.setattr(tate, "_RHO_SEEDS", 0)
    f = get_family("rank6")
    ts = list(range(-6, 6))
    want = [conductor(f, t) for t in ts]
    logC, incomplete = log_conductors(f, ts)
    assert incomplete == sum(not c for _, c in want) == 12
    assert logC.tolist() == [math.log(C) for C, _ in want]


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
