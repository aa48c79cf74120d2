"""The cone of positive discrete measures on R^d.

A discrete measure is a finite weighted sum of point masses
``sum_i w_i * delta_{x_i}`` with strictly positive weights and pairwise
distinct positions; the zero measure (no atoms) is included.  The set of
such measures is a cone: it is closed under addition and under scaling by
positive reals, but contains no inverses.

A measure is stored exactly like a configuration (:mod:`.configuration`):
read-only ``marks`` (here the weights) and ``positions`` arrays, sorted by
position.  Window mass and both pairings are the configuration kernels
run on those arrays, so iteration order, summation order and
serialization are reproducible, and ``(position, weight)`` atom tuples
are built only when ``atoms`` is read.

Although every discrete measure is also a Radon measure, no vague-topology
distance is exposed here: the only discrepancies defined on measures live
in :mod:`platocone.topology` and are pulled back through the reflection
bijection with configurations.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .configuration import TestFunction, Window, _mass, _pair, _PointArrays, _rows, _total, clean_position
from .errors import DimensionMismatch, InvalidArgument, NonPositiveWeight


class DiscreteMeasure(_PointArrays):
    """Finite positive discrete measure, atoms sorted by position.

    ``DiscreteMeasure(weights, positions)`` validates arrays with
    positions strictly increasing in lexicographic order and weights
    positive finite reals.  Use :func:`make_measure` to construct from
    unordered input.
    """

    __slots__ = ()
    _bad_mark = NonPositiveWeight
    _mark_in_key = False

    @property
    def atoms(self) -> tuple:
        """``(position, weight)`` pairs, built on each read."""
        return tuple(zip(map(tuple, self.positions.tolist()), self.marks.tolist()))

    def __iter__(self):
        return iter(self.atoms)

    def is_zero(self) -> bool:
        return len(self) == 0

    def total_mass(self) -> float:
        """Sum of all weights, accumulated in position order."""
        return _total(self.marks)

    def scaled(self, c: float) -> "DiscreteMeasure":
        """The measure ``c * eta`` for ``c > 0`` (cone scaling)."""
        c = float(c)
        if not (math.isfinite(c) and c > 0.0):
            raise InvalidArgument(f"cone scaling requires c > 0, got {c}")
        return DiscreteMeasure(c * self.marks, self.positions)


def zero_measure(d: int) -> DiscreteMeasure:
    """The zero measure in dimension ``d`` (by convention part of the cone)."""
    return DiscreteMeasure(np.empty(0), np.empty((0, d)))


def make_measure(atoms: Iterable, d: int) -> DiscreteMeasure:
    """Build a discrete measure from ``(weight, position)`` pairs.

    Atoms at bitwise-identical positions are merged by summing their
    weights in input order: repeated point masses at one site are one atom
    carrying the total.  A weight of zero is rejected rather than dropped,
    since a zero-weight atom is a contradiction in terms here.

    Raises
    ------
    NonPositiveWeight
        If any weight is not a positive finite real.
    DimensionMismatch
        If any position length differs from ``d``.
    """
    return DiscreteMeasure._canonical(*_rows(atoms, d))


def support(eta: DiscreteMeasure) -> frozenset:
    """The support: the set of positions carrying positive weight."""
    return frozenset(map(tuple, eta.positions.tolist()))


def weight_at(eta: DiscreteMeasure, x) -> float:
    """The weight of the atom at ``x``, or 0.0 when ``x`` is off-support."""
    pos = clean_position(x)
    if len(pos) != eta.dimension:
        raise DimensionMismatch(
            f"position of length {len(pos)} against measure of dimension {eta.dimension}"
        )
    hit = np.flatnonzero(np.all(eta.positions == pos, axis=1))
    return float(eta.marks[hit[0]]) if hit.size else 0.0


def is_sub_measure(xi: DiscreteMeasure, eta: DiscreteMeasure) -> bool:
    """Subordination test: every atom of ``xi`` is an atom of ``eta`` with
    bitwise-equal weight.

    This is a partial order on discrete measures (reflexive, antisymmetric,
    transitive).
    """
    if xi.dimension != eta.dimension:
        raise DimensionMismatch(
            f"measures of dimensions {xi.dimension} and {eta.dimension}"
        )
    return all(weight_at(eta, pos) == w for pos, w in xi.atoms)


def pair_measure(f: TestFunction, eta: DiscreteMeasure) -> float:
    """The pairing ``<f, eta> = sum over atoms of weight * f(position)``.

    ``f`` must be a position-domain function; only atoms inside its
    support contribute, summed in position order.
    """
    return _pair(f, eta, "space")


def double_pair(f: TestFunction, eta: DiscreteMeasure) -> float:
    """The pairing ``<<f, eta>> = sum over atoms of f(weight, position)``.

    This treats each atom ``w * delta_x`` as the phase point ``(w, x)``:
    it is the configuration pairing run on the same arrays, so it equals
    ``pair_configuration(f, reflect_inverse(eta))`` bitwise.
    """
    return _pair(f, eta, "phase")


def mass_in_window(eta: DiscreteMeasure, lam: Window) -> float:
    """Total weight of atoms inside the window, summed in position order.

    When the window declares a mark interval, an atom with weight ``w``
    additionally needs ``w`` in that interval; this mirrors the membership
    rule for the marked point ``(w, x)`` under reflection.
    """
    return _mass(eta, lam)
