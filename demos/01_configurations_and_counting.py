"""
Marked configurations: set semantics, windows, counting and pairings
====================================================================

A configuration is a finite set of marked points (s, x): a positive mark
s attached to a position x in R^d.  This script walks through the basic
operations: canonical construction, windowed counting, restriction, the
decomposition by point count, and test-function pairings.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # run from a checkout

import numpy as np

from platocone import (
    TestFunction,
    Window,
    canonical_order,
    count_in_window,
    local_mass,
    make_configuration,
    n_point_class,
    pair_configuration,
    restrict,
)

########################################################################
# Construction is order-free and duplicate-free
# ----------------------------------------------
# The same points in any input order give the same object; exact
# duplicates collapse.  Points are stored sorted by position, then mark.

gamma = make_configuration([(1.5, [0.2]), (0.25, [0.8]), (3.0, [5.0])], d=1)
same = make_configuration([(3.0, [5.0]), (0.25, [0.8]), (1.5, [0.2]), (1.5, [0.2])], d=1)
print("equal despite permutation and duplicate:", gamma == same)
print("canonical order:", [(p.mark, p.position) for p in canonical_order(gamma)])

########################################################################
# Windows are half-open boxes, so tiles add up exactly
# ----------------------------------------------------

unit = Window((0.0,), (1.0,))
print("\npoints in [0, 1):", count_in_window(gamma, unit))
print("points in [0, 10) with mark > 1:",
      count_in_window(gamma, Window((0.0,), (10.0,), mark_interval=(1.0, float("inf")))))

left = Window((0.0,), (0.5,))
right = Window((0.5,), (1.0,))
print("tile counts add exactly:",
      count_in_window(gamma, left) + count_in_window(gamma, right) == count_in_window(gamma, unit))

########################################################################
# Restriction is idempotent and consistent under nesting
# ------------------------------------------------------

inner = restrict(gamma, unit)
print("\nrestricted to [0, 1):", [(p.mark, p.position) for p in inner.points])
print("idempotent:", restrict(inner, unit) == inner)
outer = Window((0.0,), (10.0,))
print("nests through a larger window:",
      restrict(gamma, unit) == restrict(restrict(gamma, outer), unit))

# every windowed view sits in exactly one point-count class
print("point-count class of the window:", n_point_class(gamma, unit))

########################################################################
# Pairing against a compactly supported function
# ----------------------------------------------
# <f, gamma> sums f(s, x) over the points inside f's support.  The mass
# functional is the pairing with f(s, x) = s.

support = Window((0.0,), (10.0,), mark_interval=(0.0, 100.0))
mass_fn = TestFunction(lambda s, x: s, support, None, "phase")
print("\n<s, gamma> =", pair_configuration(mass_fn, gamma))
print("local mass in [0, 1):", local_mass(gamma, unit))

########################################################################
# Larger random example: permutation invariance at scale
# ------------------------------------------------------

rng = np.random.default_rng(0)
points = [(float(m), (float(x),)) for m, x in zip(rng.uniform(0.1, 2, 100), rng.uniform(-5, 5, 100))]
reference = make_configuration(points, 1)
order = list(range(100))
rng.shuffle(order)
print("\n100 shuffled points, same configuration:",
      make_configuration([points[i] for i in order], 1) == reference)
