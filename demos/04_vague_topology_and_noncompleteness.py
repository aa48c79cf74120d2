"""
Test-function discrepancies and the merging-sequence witness
============================================================

Closeness of configurations is probed by pairing them against a finite
family of compactly supported test functions.  The resulting discrepancy
is a pseudometric: it can certify that two configurations are far apart,
and it can collect evidence consistent with convergence.

The centerpiece is the two-point merging sequence: every term is a valid
preimage of a measure (pinpointing), but the limit has two marks at one
position, so it is not.  The space of measure preimages is not closed
under the convergence the test functions see.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # run from a checkout

from platocone import (
    check_convergence,
    cone_discrepancy,
    is_pinpointing,
    make_measure,
    merging_family,
    merging_limit,
    merging_sequence,
    reflect,
    to_plato,
    vague_discrepancy,
)

x0 = (0.0,)
s1, s2 = 1.0, 2.0
family = merging_family(x0, s1, s2)
print("family of", len(family), "tensor hats, Lipschitz constant",
      family.max_lipschitz(), "(l1 metric)")

########################################################################
# The merging sequence: two points sliding onto one position
# ----------------------------------------------------------

limit = merging_limit(x0, s1, s2)
print("\nn      discrepancy to the limit   pinpointing")
for n in [1, 10, 100, 1000]:
    term = merging_sequence(x0, s1, s2, n)
    d = vague_discrepancy(term, limit, family)
    print(f"{n:<6} {d:<25.3e} {is_pinpointing(term)}")
print("limit pinpointing:", is_pinpointing(limit))

# the Lipschitz bound: each point moves by 1/n, so the gap is <= 2 L / n
n = 1000
print("bound 2L/n at n=1000:", 2 * family.max_lipschitz() / n)

########################################################################
# A convergence scan with an explicit verdict
# -------------------------------------------
# "Converged" means: the final discrepancy beat the tolerance and the
# last quarter of the scan was non-increasing.  Evidence, not proof: a
# finite family can refute convergence but never certify it.

report = check_convergence(
    lambda k: merging_sequence(x0, s1, s2, k), limit, family, tol=0.01, n_max=1000
)
print("\nconsistent with convergence at tol 0.01:", report.converged)
print("last discrepancy:", f"{report.discrepancies[-1]:.3e}")

# a sequence fleeing the family's supports stalls at a positive level
flee = lambda k: merging_sequence((float(k),), s1, s2, 1)
report_flee = check_convergence(flee, limit, family, tol=0.01, n_max=50)
print("fleeing sequence converged:", report_flee.converged,
      "| stalls at:", round(report_flee.discrepancies[-1], 4))

########################################################################
# Measures are compared through their configuration preimages
# -----------------------------------------------------------
# There is no direct vague distance on measures here: the discrepancy is
# pulled back through the reflection, which by construction makes the
# reflection distance-preserving.

eta1 = make_measure([(1.0, [0.0])], 1)
eta2 = make_measure([(1.0 + 1e-3, [0.0])], 1)
print("\ncone discrepancy for a 1e-3 weight change:",
      f"{cone_discrepancy(eta1, eta2, family):.3e}")

term = to_plato(merging_sequence(x0, s1, s2, 500))
print("pullback equals the configuration-side value:",
      cone_discrepancy(reflect(term), reflect(to_plato(merging_sequence(x0, s1, s2, 501))), family)
      == vague_discrepancy(merging_sequence(x0, s1, s2, 500),
                           merging_sequence(x0, s1, s2, 501), family))
