#!/usr/bin/env python3
"""The escalation tree for floor 2, carried to its end.

A form is tight for floor n when its nonzero values are exactly n, n+1, ...
Starting from the single coefficient (2), each non-universal candidate is
extended by every coefficient its truant allows.  The recursion closes at
depth 6 and leaves 57 new tight forms and a ten-element criterion set.
"""

from octaforms import (
    check_tight_universal,
    criterion_set,
    psi,
    run_escalation,
)

trace = run_escalation(2, 50_000)
print("depth |  E |  U | NU |  A")
for rec in trace.depths:
    print(f"{rec.k:5d} | {len(rec.E):2d} | {len(rec.U):2d} | {len(rec.NU):2d} | {len(rec.A):2d}")

print("\ntruants at depth 3:", trace.depth(3).psi)
print("first universal members (depth 4):", sorted(trace.depth(4).NU))
print("still-active vectors at depth 5:", list(trace.depth(5).A))

crit = criterion_set(trace)
print("\ncriterion set:", list(crit.values))
print("total new tight forms:", sum(len(r.NU) for r in trace.depths))

# The criterion set turns tightness into a finite check.
for coeffs in ((2, 3, 4, 5), (2, 2, 3), (1, 1, 3, 3)):
    print(f"  {coeffs}: {check_tight_universal(coeffs, 2, crit, 50_000)}")

# A universal form has no truant up to the bound (psi is None);
# raising the bound keeps the certificate honest.
shown = []
for bound in (50_000, 100_000):
    truant = psi((2, 2, 3, 4), 2, bound)
    shown.append(f"none up to {bound}" if truant is None else str(truant))
print("\npsi of (2,2,3,4) at two bounds:", " / ".join(shown))
