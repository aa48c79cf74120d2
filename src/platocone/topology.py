"""Numerical surrogate for the vague topology on configurations.

Vague convergence quantifies over every compactly supported continuous
test function; numerics can only ever evaluate finitely many.  A
:class:`TestFamily` is that finite stand-in: the induced discrepancy

    ``max_i  w_i * | <f_i, gamma_1> - <f_i, gamma_2> |``

is a pseudometric whose vanishing is necessary for vague closeness but
not sufficient.  Reports therefore say "consistent with convergence";
the family can certify divergence, never convergence.

On measures, no direct vague distance is defined (the measure-side vague
topology is a different and unrelated structure).  The discrepancy is
instead pulled back through the reflection bijection: compare the unique
configurations lying over the measures.  This realizes, at the level of
computable quantities, the finest topology on the cone that makes the
reflection continuous.

``merging_sequence`` builds the standard witness that the pinpointing
space is not complete: two points with distinct marks sliding toward a
common position.  Every term is pinpointing; the limit configuration is
not, yet the discrepancy to it tends to zero, bounded by ``L * 2/n`` for
a family of Lipschitz constant at most ``L``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .configuration import (
    Configuration,
    TestFunction,
    Window,
    _bounds,
    _pairings,
    clean_position,
    make_configuration,
)
from .cone import DiscreteMeasure
from .errors import DimensionMismatch, EqualMarks, InvalidArgument
from .plato import reflect_inverse

# slack for the "non-increasing tail" check; absorbs last-bit wobble in
# the max of absolute differences of finite sums
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class TestFamily:
    """A finite weighted family of phase-domain test functions.

    Every member must have bounded support (bounded box and bounded mark
    interval); weights are positive and default to 1.
    """

    functions: tuple
    weights: tuple = ()

    def __post_init__(self):
        fns = tuple(self.functions)
        if not fns:
            raise InvalidArgument("test family must be nonempty")
        d = fns[0].dimension
        for fn in fns:
            if not isinstance(fn, TestFunction) or fn.domain != "phase":
                raise InvalidArgument("family members must be phase-domain test functions")
            if fn.dimension != d:
                raise DimensionMismatch("family members must share one dimension")
            bounded_marks = fn.support.mark_interval is not None and math.isfinite(
                fn.support.mark_interval[1]
            )
            if not (fn.support.is_bounded() and bounded_marks):
                raise InvalidArgument("family members must have bounded support")
        weights = tuple(float(w) for w in self.weights) or tuple(1.0 for _ in fns)
        if len(weights) != len(fns):
            raise InvalidArgument("one weight per family member required")
        if not all(math.isfinite(w) and w > 0.0 for w in weights):
            raise InvalidArgument("family weights must be positive finite reals")
        object.__setattr__(self, "functions", fns)
        object.__setattr__(self, "weights", weights)

    @property
    def dimension(self) -> int:
        return self.functions[0].dimension

    def max_lipschitz(self) -> float | None:
        """Largest declared Lipschitz constant, or None if any is unknown."""
        constants = [fn.lipschitz for fn in self.functions]
        if any(c is None for c in constants):
            return None
        return max(constants)

    def __len__(self) -> int:
        return len(self.functions)

    @cached_property
    def _bounds(self):
        return _bounds([fn.support for fn in self.functions])

    def pairings(self, gamma: Configuration) -> list:
        """The vector of pairings ``<f_i, gamma>``, one per member."""
        if gamma.dimension != self.dimension:
            raise DimensionMismatch(
                f"family over dimension {self.dimension}, configuration over {gamma.dimension}"
            )
        return _pairings(self.functions, self._bounds, gamma)

    def gap(self, p1: Sequence[float], p2: Sequence[float]) -> float:
        """``max_i w_i * |p1_i - p2_i|`` of two pairing vectors, 0.0 at least."""
        worst = 0.0
        for w, a, b in zip(self.weights, p1, p2):
            worst = max(worst, w * abs(a - b))
        return worst


def vague_discrepancy(gamma1: Configuration, gamma2: Configuration, family: TestFamily) -> float:
    """Weighted max pairing gap over the family; zero on equal arguments."""
    if gamma1.dimension != gamma2.dimension:
        raise DimensionMismatch(
            f"configurations of dimensions {gamma1.dimension} and {gamma2.dimension}"
        )
    return family.gap(family.pairings(gamma1), family.pairings(gamma2))


def cone_discrepancy(eta1: DiscreteMeasure, eta2: DiscreteMeasure, family: TestFamily) -> float:
    """Discrepancy between measures, pulled back through the reflection.

    Equals ``vague_discrepancy`` of the configurations lying over the two
    measures, exactly.
    """
    if eta1.dimension != eta2.dimension:
        raise DimensionMismatch(f"measures of dimensions {eta1.dimension} and {eta2.dimension}")
    return vague_discrepancy(reflect_inverse(eta1), reflect_inverse(eta2), family)


def merging_sequence(x0: Sequence[float], s1: float, s2: float, n: int) -> Configuration:
    """Term n of the two-point sequence collapsing onto a shared position.

    Returns ``{(s1, x0 + (1/n) e_1), (s2, x0 - (1/n) e_1)}``: pinpointing
    for every n, converging (in any test-family discrepancy) to the
    non-pinpointing limit ``{(s1, x0), (s2, x0)}``.  The perturbation is
    fixed along the first coordinate axis so runs are reproducible.

    Raises
    ------
    EqualMarks
        If ``s1 == s2``; the limit would then be a doubled point, which is
        a different degeneracy from the two-mark collision built here.
    """
    s1 = float(s1)
    s2 = float(s2)
    if s1 == s2:
        raise EqualMarks(f"marks must differ, got s1 == s2 == {s1}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise InvalidArgument(f"n must be a positive integer, got {n!r}")
    x0 = clean_position(x0)
    offset = 1.0 / n
    right = (x0[0] + offset,) + x0[1:]
    left = (x0[0] - offset,) + x0[1:]
    return make_configuration([(s1, right), (s2, left)], len(x0))


def merging_limit(x0: Sequence[float], s1: float, s2: float) -> Configuration:
    """The limit configuration ``{(s1, x0), (s2, x0)}`` of the merging sequence.

    A perfectly valid configuration, but not pinpointing: both points
    share the position ``x0``, so it has no measure counterpart.
    """
    s1 = float(s1)
    s2 = float(s2)
    if s1 == s2:
        raise EqualMarks(f"marks must differ, got s1 == s2 == {s1}")
    x0 = clean_position(x0)
    return make_configuration([(s1, x0), (s2, x0)], len(x0))


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a discrepancy scan along a configuration sequence.

    ``converged`` means: the final discrepancy fell below the tolerance
    and the sequence was non-increasing over its last quartile.  This is
    evidence consistent with vague convergence against the family used,
    not a certificate of topological convergence.
    """

    converged: bool
    discrepancies: tuple

    def as_dict(self) -> dict:
        return {"converged": self.converged, "discrepancies": list(self.discrepancies)}


def check_convergence(
    sequence: Callable[[int], Configuration],
    limit: Configuration,
    family: TestFamily,
    tol: float,
    n_max: int,
) -> ConvergenceReport:
    """Scan ``vague_discrepancy(sequence(n), limit)`` for n = 1 .. n_max.

    ``sequence`` is a callable mapping the index n to a configuration.
    The verdict requires the last discrepancy below ``tol`` and a
    non-increasing tail over the final quartile (with 1e-12 slack).
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise InvalidArgument(f"tol must be a positive real, got {tol!r}")
    if isinstance(n_max, bool) or not isinstance(n_max, int) or n_max < 1:
        raise InvalidArgument(f"n_max must be a positive integer, got {n_max!r}")
    at_limit = family.pairings(limit)
    discrepancies = [
        family.gap(family.pairings(sequence(n)), at_limit) for n in range(1, n_max + 1)
    ]
    tail_start = max(0, math.ceil(0.75 * n_max) - 1)
    tail = discrepancies[tail_start:]
    non_increasing = all(b <= a + _MONOTONE_SLACK for a, b in zip(tail, tail[1:]))
    converged = discrepancies[-1] < tol and non_increasing
    return ConvergenceReport(converged=converged, discrepancies=tuple(discrepancies))


def _cubic_hat(t: float) -> float:
    # C1 bump: 1 at t=0, 0 at t>=1, maximal slope 1.5 at t=1/2
    if t >= 1.0:
        return 0.0
    return 1.0 - 3.0 * t * t + 2.0 * t * t * t


def hat_function(
    center: Sequence[float],
    half_width,
    mark_center: float | None = None,
    mark_half_width: float | None = None,
) -> TestFunction:
    """Tensor product of piecewise-cubic hats, one per coordinate.

    Each factor is ``1 - 3t^2 + 2t^3`` of the scaled distance to the
    center: continuously differentiable, equal to 1 at the center and 0
    outside.  When a mark center is given the result is a phase function
    with one extra hat factor along the mark axis; otherwise it is a
    position function.

    The declared Lipschitz constant is exact for the l1 distance:
    ``1.5 / min(half widths)``, since each factor has maximal slope
    ``1.5 / width`` and all factors lie in [0, 1].
    """
    center = clean_position(center)
    d = len(center)
    if isinstance(half_width, (int, float)):
        widths = (float(half_width),) * d
    else:
        widths = tuple(float(w) for w in half_width)
    if len(widths) != d or not all(math.isfinite(w) and w > 0.0 for w in widths):
        raise InvalidArgument("one positive finite half width per coordinate required")
    lower = tuple(c - w for c, w in zip(center, widths))
    upper = tuple(c + w for c, w in zip(center, widths))

    def spatial_factors(v, x):
        # multiply v by one hat factor per axis, stopping at the first zero
        for xi, ci, wi in zip(x, center, widths):
            if v == 0.0:
                return 0.0
            v *= _cubic_hat(abs(xi - ci) / wi)
        return v

    if mark_center is None:
        ev_space = lambda x: spatial_factors(1.0, x)
        return TestFunction(ev_space, Window(lower, upper), 1.5 / min(widths), "space")

    mc = float(mark_center)
    mw = float(mark_half_width if mark_half_width is not None else min(widths))
    if not (math.isfinite(mc) and mc > 0.0 and math.isfinite(mw) and mw > 0.0):
        raise InvalidArgument("mark hat requires positive finite center and half width")
    support = Window(lower, upper, mark_interval=(max(0.0, mc - mw), mc + mw))
    ev_phase = lambda s, x: spatial_factors(_cubic_hat(abs(s - mc) / mw), x)
    return TestFunction(ev_phase, support, 1.5 / min(widths + (mw,)), "phase")


def hat_family(
    window: Window,
    grid_shape: Sequence[int],
    mark_interval: tuple,
    mark_cells: int = 1,
) -> TestFamily:
    """Grid of overlapping tensor hats covering a window.

    Each spatial axis is split into ``grid_shape[i]`` cells and each hat is
    centered on a cell with half width equal to the full cell width, so
    adjacent hats overlap and the family has no blind spots inside the
    window.  The mark axis is covered the same way over ``mark_interval``.
    """
    if not window.is_bounded():
        raise InvalidArgument("hat_family requires a bounded window")
    d = window.dimension
    shape = tuple(int(g) for g in grid_shape)
    if len(shape) != d or any(g < 1 for g in shape):
        raise InvalidArgument("grid_shape needs one positive cell count per axis")
    a, b = (float(v) for v in mark_interval)
    if not (0.0 <= a < b and math.isfinite(b)):
        raise InvalidArgument("mark_interval must satisfy 0 <= a < b < inf")
    if mark_cells < 1:
        raise InvalidArgument("mark_cells must be >= 1")

    axis_centers = []
    axis_widths = []
    for i in range(d):
        cell = (window.upper[i] - window.lower[i]) / shape[i]
        axis_centers.append([window.lower[i] + (j + 0.5) * cell for j in range(shape[i])])
        axis_widths.append(cell)
    mark_cell = (b - a) / mark_cells
    mark_centers = [a + (j + 0.5) * mark_cell for j in range(mark_cells)]

    # the last axis varies fastest, then the mark cell
    return TestFamily(
        tuple(
            hat_function(center, tuple(axis_widths), mark_center=mc, mark_half_width=mark_cell)
            for center in itertools.product(*axis_centers)
            for mc in mark_centers
        )
    )


def merging_family(x0: Sequence[float], s1: float, s2: float) -> TestFamily:
    """Default Lipschitz-1 family for watching a merging sequence.

    Three tensor hats of spatial half width 1.5 (one centered on the
    collision position, two shifted along the first axis) and a mark hat
    wide enough to see both marks.  Every member has Lipschitz constant
    exactly 1 for the l1 distance, so the discrepancy of term n of the
    merging sequence to its limit is bounded by 2/n.
    """
    x0 = clean_position(x0)
    s1 = float(s1)
    s2 = float(s2)
    mark_center = 0.5 * (s1 + s2)
    mark_half_width = max(1.5, abs(s2 - s1))
    half = 1.5
    shift = 0.75
    centers = [x0, (x0[0] + shift,) + x0[1:], (x0[0] - shift,) + x0[1:]]
    functions = tuple(
        hat_function(c, half, mark_center=mark_center, mark_half_width=mark_half_width)
        for c in centers
    )
    return TestFamily(functions)
