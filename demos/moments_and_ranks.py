"""Exact moment sums and Nagao-style rank estimates for the preset families.

Walks through the arithmetic side of the library: per-prime first and second
moments of the trace of Frobenius across a one-parameter family, their exact
closed forms, and the rank statistic built from the first moments.
"""

import math

from lowlying.family import get_family
from lowlying.modarith import MomentTable, closed_form_moments, primes_upto

# First moments detect rank: A1(p) = -r p + O(1) for a family of rank r.
print("== moment tables, p <= 60 ==")
for label in ("F1", "F2plus", "washington", "rank1"):
    tab = MomentTable.build(get_family(label), 60)
    print(f"\n{label}:")
    for p, (a1, a2) in sorted(tab.entries.items()):
        c1, c2 = closed_form_moments(label, p)
        tag = "ok" if a1 == c1 and (c2 is None or a2 == c2) else "MISMATCH"
        print(f"  p={p:3d}  A1={a1:6d}  A2={a2:8d}  closed=({c1}, {c2})  {tag}")

# The rank-6 family: -A1(p)/p hovers around 6.
tab6 = MomentTable.build(get_family("rank6"), 400, second=False)
vals = [-a1 / p for p, (a1, _) in tab6.entries.items() if p > 100]
print(f"\nrank6: mean -A1(p)/p over 100 < p <= 400: {sum(vals)/len(vals):.3f}")

# Nagao's estimator: -(1/X) sum_p (A1(p)/p) log p ~ r * theta(X)/X -> r,
# theta(X) the sum of log p over 3 < p <= X (the primes the moments cover).
# Both limits are slow: theta(X)/X nears 1 only as fast as the prime
# number theorem allows, and washington's A1(p)/p is -2 or 0 by p mod 4,
# so its estimate also waits for the primes 1 mod 4 to carry half of
# theta(X).  One table up to 10^6 serves all three X.  (The rank-0
# presets F1, F2plus and F2minus have A1(p) = 0.)
XS = (10 ** 4, 10 ** 5, 10 ** 6)
ps = [p for p in primes_upto(XS[-1]) if p > 3]
theta = {X: math.fsum(math.log(p) for p in ps if p <= X) / X for X in XS}
print("\n== Nagao estimates vs r * theta(X)/X ==")
for label in ("washington", "rank1"):
    f = get_family(label)
    tab = MomentTable.build(f, XS[-1], second=False)
    print(f"{label} (r = {f.rank}):")
    for X in XS:
        est = tab.nagao_sum(X)
        print(f"  X=10^{len(str(X)) - 1}  estimate {est:.4f}  "
              f"r*theta(X)/X {f.rank * theta[X]:.4f}  "
              f"gap {est - f.rank * theta[X]:+.4f}")
