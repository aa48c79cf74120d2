"""Pinpointing configurations and the reflection bijection onto measures.

A configuration over the marked phase space is *pinpointing* when no two
of its points share a position.  Pinpointing configurations with finite
local mass form the Plato space: the domain on which the reflection map

    ``{(s_1, x_1), (s_2, x_2), ...}  ->  s_1*delta_{x_1} + s_2*delta_{x_2} + ...``

is a bijection onto the cone of positive discrete measures.  Each marked
point becomes one atom whose weight is the mark; conversely every atom
``w * delta_x`` lifts uniquely to the point ``(w, x)``.  Configurations
that are not pinpointing have no measure counterpart (two marks at one
position cannot be told apart from their sum) and are rejected rather
than merged.  A pinpointing configuration and its measure hold the same
``marks`` and ``positions`` arrays, so the reflection is a relabel: it
copies nothing and re-validates nothing.

All finite configurations automatically have finite local mass, so on the
data this package materializes the Plato condition reduces to the
pinpointing check.  Samplers that approximate measures with infinitely
many atoms account for the discarded tail separately
(:mod:`platocone.sampling`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .configuration import Configuration, Window, _first_unordered, _mass
from .cone import DiscreteMeasure
from .errors import NotPinpointing


@dataclass(frozen=True)
class PlatoConfiguration:
    """A configuration whose points all sit at distinct positions.

    Wraps a :class:`Configuration` and re-validates the pinpointing
    invariant on construction, so an instance in hand is always a valid
    preimage of a discrete measure.  ``marks`` and ``positions`` are the
    wrapped configuration's arrays, so every window kernel accepts it.
    """

    configuration: Configuration

    def __post_init__(self):
        gamma = self.configuration
        i = _first_unordered(gamma.marks, gamma.positions, with_mark=False)
        if i is not None:
            raise NotPinpointing(gamma.positions[i].tolist())

    @classmethod
    def _wrap(cls, marks, positions) -> "PlatoConfiguration":
        """Adopt canonical, pinpointing arrays without copying or re-validating."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "configuration", Configuration._wrap(marks, positions))
        return obj

    marks = property(lambda self: self.configuration.marks)
    positions = property(lambda self: self.configuration.positions)
    dimension = property(lambda self: self.configuration.dimension)

    def __len__(self) -> int:
        return len(self.configuration)

    def __iter__(self):
        return iter(self.configuration)


def is_pinpointing(gamma: Configuration) -> bool:
    """True iff all point positions are pairwise distinct (as doubles).

    Canonical order sorts by position first, so this is one vectorized
    test that adjacent positions differ.
    """
    return _first_unordered(gamma.marks, gamma.positions, with_mark=False) is None


def local_mass(gamma, lam: Window) -> float:
    """Sum of marks of the points whose position lies in the window.

    Accepts a :class:`Configuration` or a :class:`PlatoConfiguration`.
    This is the window-mass kernel of :func:`~platocone.cone.mass_in_window`
    run on the configuration's arrays, so the two agree bitwise.
    """
    return _mass(gamma, lam)


def to_plato(gamma: Configuration) -> PlatoConfiguration:
    """Wrap a configuration after checking the pinpointing property.

    Finite local mass holds automatically for finite data, so this is the
    complete membership test.  On failure the error names the first
    duplicated position in canonical order, which makes randomized test
    failures reproducible and actionable.

    Raises
    ------
    NotPinpointing
        If two points share a position.
    """
    return PlatoConfiguration(gamma)


def reflect(gamma: PlatoConfiguration) -> DiscreteMeasure:
    """Project a pinpointing configuration to its discrete measure.

    Every point ``(s, x)`` becomes the atom ``s * delta_x``.  The measure
    wraps the configuration's own arrays: positions are distinct, so the
    canonical point order (position, then mark) is the atom order
    (position alone), and nothing is copied or re-validated.
    """
    return DiscreteMeasure._wrap(gamma.marks, gamma.positions)


def reflect_inverse(eta: DiscreteMeasure) -> PlatoConfiguration:
    """Lift a discrete measure to the unique configuration over it.

    Every atom ``w * delta_x`` becomes the point ``(w, x)``; the lift wraps
    the measure's own arrays.  This is the two-sided inverse of
    :func:`reflect`: both round trips are bitwise identities on valid
    instances.
    """
    return PlatoConfiguration._wrap(eta.marks, eta.positions)
