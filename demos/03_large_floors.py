#!/usr/bin/env python3
"""For floors n >= 5 the classification collapses to two families.

The escalation for larger floors walks a single staircase until depth n,
then splits once and closes immediately: the doubled-floor family
(n, n, n+1, ..., 2n-1) and the straight run (n, n+1, ..., 2n).  The
criterion set is just n..2n.
"""

from octaforms import check_tight_universal, criterion_set, run_escalation
from octaforms.tables import family_pair

for n in (5, 7, 9):
    trace = run_escalation(n, 50_000)
    crit = criterion_set(trace)
    doubled, run = family_pair(n)
    print(f"floor n={n}: terminates at depth {trace.terminated_at}, "
          f"criterion {list(crit.values)}")
    print(f"  new forms: {sorted(trace.depth(n + 1).NU)}")
    for a in (doubled, run):
        verdict = check_tight_universal(a, n, crit, 50_000)
        print(f"  {a}: {verdict}")

# Deleting any coefficient breaks tightness, so the families are "new".
n = 6
doubled, _ = family_pair(n)
crit = criterion_set(run_escalation(n, 50_000))
shrunk = doubled[1:]
print(f"\ndrop the leading {doubled[0]} from {doubled}:",
      check_tight_universal(shrunk, n, crit, 50_000))
