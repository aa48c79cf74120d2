"""
Discrete measures and the reflection bijection
==============================================

A positive discrete measure is a finite sum of weighted point masses.
Exactly the *pinpointing* configurations (no two points sharing a
position) correspond to such measures: the point (s, x) becomes the atom
s * delta_x.  This script shows the correspondence, what it transports,
and where it breaks down.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))  # run from a checkout

import numpy as np

from platocone import (
    NotPinpointing,
    Window,
    is_pinpointing,
    is_sub_measure,
    local_mass,
    make_configuration,
    make_measure,
    mass_in_window,
    reflect,
    reflect_inverse,
    restrict,
    support,
    to_plato,
    weight_at,
)

########################################################################
# Measures merge coinciding atoms; configurations keep distinct marks
# -------------------------------------------------------------------

eta = make_measure([(1.0, [0.0]), (2.0, [0.0]), (0.5, [1.0])], d=1)
print("two point masses at 0 merge:", weight_at(eta, (0.0,)), "at", sorted(support(eta)))

gamma = make_configuration([(1.0, [0.0]), (2.0, [0.0])], d=1)
print("but as a configuration they stay two points:", len(gamma))
print("which is why it is not pinpointing:", is_pinpointing(gamma))

########################################################################
# Reflection and its inverse are exact inverses of each other
# -----------------------------------------------------------

try:
    to_plato(gamma)
except NotPinpointing as err:
    print("\nreflection refuses the collision at position", err.position)

plato = to_plato(make_configuration([(2.0, [1.0]), (0.5, [-1.0])], d=1))
measure = reflect(plato)
print("reflected atoms:", list(measure.atoms))
print("round trip is the identity:", reflect_inverse(measure) == plato)

########################################################################
# The correspondence transports mass, support and order structure
# ---------------------------------------------------------------

rng = np.random.default_rng(1)
points = [(float(m), (float(x),)) for m, x in zip(rng.uniform(0.1, 2, 50), rng.uniform(-5, 5, 50))]
plato = to_plato(make_configuration(points, 1))
eta = reflect(plato)
window = Window((-2.0,), (2.0,))
print("\nlocal mass and window mass agree bitwise:",
      local_mass(plato, window) == mass_in_window(eta, window))
print("support = positions:",
      support(eta) == frozenset(p.position for p in plato.configuration.points))

# reflection relabels the stored arrays: the weights are the marks
print("measure shares the configuration's arrays:",
      np.shares_memory(eta.marks, plato.configuration.marks))

# dropping points shrinks the measure in the subordination order
smaller = reflect(restrict(plato, Window((0.0,), (5.0,))))
print("sub-configuration reflects to a sub-measure:", is_sub_measure(smaller, eta))

########################################################################
# The cone structure: positive scaling
# ------------------------------------

doubled = eta.scaled(2.0)
print("\nscaling preserves support:", support(doubled) == support(eta))
print("and scales window mass:",
      np.isclose(mass_in_window(doubled, window), 2 * mass_in_window(eta, window), rtol=1e-12))
