"""Random-matrix kernel identities and prime-sum convergence checks.

Cross-validates the closed-form density predictions against direct
quadrature of the sine-kernel densities, and measures how fast the
weighted prime sums approach their limits.
"""

import math

from lowlying.predict import kernel_crosscheck, primesum_check, w1_ac
from lowlying.testfn import make_fejer, make_smooth_bump

print("== 1-level crosscheck: closed form vs kernel quadrature ==")
for mk, name in ((make_fejer, "fejer"), (make_smooth_bump, "smoothbump")):
    for grp, r in kernel_crosscheck(mk(0.9)).items():
        print(f"  {name}(0.9) {grp:7s} residual {r:.2e}")

print("\n== 2-level crosscheck, Fejer(0.45)^2 ==")
g = make_fejer(0.45)
for grp, r in kernel_crosscheck(g, g).items():
    print(f"  {grp:7s} residual {r:.2e}")

# The 1-level density w1 of each group: delta spikes aside, the AC parts
# differ only through sin(2 pi x)/(2 pi x).
print("\n== AC density parts at x = 0.25 ==")
for grp, w in w1_ac(0.25).items():
    print(f"  {grp:7s} w1_ac(0.25) = {w:+.4f}")

# Prime sums: sum over p of log(p)/p^a * fhat(...) converges to
# f(0)/(2a phi(m)) with an O(1/log C) gap.
print("\n== prime-sum gaps (target f(0)/(2a phi(m))) ==")
g = make_fejer(1.0)
for a, m, b in ((1, 1, 0), (2, 1, 0), (1, 3, 1)):
    gaps = []
    for C_N in (10 ** 4, 10 ** 5, 10 ** 6):
        _, target, gap = primesum_check(C_N, g, a=a, m=m, b=b)
        gaps.append(gap)
    print(f"  (a={a}, m={m}, b={b}) target {target:.4f}  "
          f"gaps {['%.4f' % x for x in gaps]}  "
          f"bound 5/log(1e6) = {5/math.log(1e6):.4f}")
