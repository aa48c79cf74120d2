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
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .configuration import (
    Configuration,
    TestFunction,
    Window,
    _HatForm,
    _Pairing,
    clean_position,
    make_configuration,
)
from .cone import DiscreteMeasure
from .errors import (
    DimensionMismatch,
    EqualMarks,
    InvalidArgument,
    NonPositiveMark,
    _integer,
    _iterable,
    _positive,
    _real,
    _real_pair,
)
from .plato import reflect_inverse

# slack for the "non-increasing tail" check; absorbs last-bit wobble in
# the max of absolute differences of finite sums
_MONOTONE_SLACK = 1e-12
# terms of a convergence scan held and paired at once, so that a long
# scan runs in bounded memory
_SCAN_CHUNK = 4096


@dataclass(frozen=True)
class TestFamily:
    """A finite weighted family of phase-domain test functions.

    Every member must have bounded support (bounded box and bounded mark
    interval); weights are positive and default to 1.
    """

    functions: tuple
    weights: tuple = ()

    def __post_init__(self):
        try:
            fns, weights = tuple(self.functions), tuple(self.weights)
        except TypeError:
            raise InvalidArgument("family functions and weights must be sequences") from None
        if not fns:
            raise InvalidArgument("test family must be nonempty")
        for fn in fns:
            if not isinstance(fn, TestFunction) or fn.domain != "phase":
                raise InvalidArgument("family members must be phase-domain test functions")
            if fn.dimension != fns[0].dimension:
                raise DimensionMismatch("family members must share one dimension")
            bounded_marks = fn.support.mark_interval is not None and math.isfinite(
                fn.support.mark_interval[1]
            )
            if not (fn.support.is_bounded() and bounded_marks):
                raise InvalidArgument("family members must have bounded support")
        weights = tuple(_positive(w, "family weight") for w in weights) or (1.0,) * len(fns)
        if len(weights) != len(fns):
            raise InvalidArgument("one weight per family member required")
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
    def _kernel(self) -> _Pairing:
        return _Pairing(self.functions)

    def pairings(self, gamma: Configuration) -> list:
        """The vector of pairings ``<f_i, gamma>``, one per member."""
        return self._kernel.matrix((gamma,))[0].tolist()

    def gap(self, p1, p2):
        """``max_i w_i * |p1_i - p2_i|`` of two pairing vectors.

        Either argument may be a matrix with one pairing vector per row;
        the result is then a list with one gap per row.  Raises
        :class:`InvalidArgument` if a pairing is not finite.
        """
        return self._worst(p1, p2)[0].tolist()

    def _worst(self, p1, p2):
        """The gaps along the last axis and the first member attaining each.

        A non-finite pairing (an overflowed sum) has no gap: it raises
        :class:`InvalidArgument` naming its member.
        """
        finite = np.isfinite(p1) & np.isfinite(p2)
        if not finite.all():
            i = int(np.argwhere(~finite)[0][-1])
            raise InvalidArgument(f"family member {i} has a non-finite pairing")
        gaps = np.array(self.weights) * np.abs(np.subtract(p1, p2))
        return gaps.max(axis=-1), gaps.argmax(axis=-1)


def vague_discrepancy(gamma1: Configuration, gamma2: Configuration, family: TestFamily) -> float:
    """Weighted max pairing gap over the family; zero on equal arguments."""
    if gamma1.dimension != gamma2.dimension:
        raise DimensionMismatch(
            f"configurations of dimensions {gamma1.dimension} and {gamma2.dimension}"
        )
    at_1, at_2 = family._kernel.matrix((gamma1, gamma2))
    return family.gap(at_1, at_2)


def cone_discrepancy(eta1: DiscreteMeasure, eta2: DiscreteMeasure, family: TestFamily) -> float:
    """Discrepancy between measures, pulled back through the reflection.

    Equals ``vague_discrepancy`` of the configurations lying over the two
    measures, exactly.
    """
    if eta1.dimension != eta2.dimension:
        raise DimensionMismatch(f"measures of dimensions {eta1.dimension} and {eta2.dimension}")
    return vague_discrepancy(reflect_inverse(eta1), reflect_inverse(eta2), family)


def _collision_position(x0) -> tuple:
    x0 = clean_position(x0)
    if not x0:
        raise InvalidArgument("x0 needs at least one coordinate")
    return x0


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
    NonPositiveMark, InvalidArgument
        For a bad mark, or a bad ``n`` or ``x0``.
    """
    s1 = _positive(s1, "s1", NonPositiveMark)
    s2 = _positive(s2, "s2", NonPositiveMark)
    if s1 == s2:
        raise EqualMarks(f"marks must differ, got s1 == s2 == {s1}")
    n = _integer(n, "n")
    x0 = _collision_position(x0)
    # canonical order, unsorted: left precedes right unless 1/n is below half
    # an ulp of x0[0], when equal rows put the smaller mark first; 1/n > 0,
    # so no sum is -0.0
    try:
        offset = 1.0 / n
    except OverflowError:
        raise InvalidArgument("n is too large for a double") from None
    left, right = x0[0] - offset, x0[0] + offset
    marks = [s2, s1] if left < right or s2 < s1 else [s1, s2]
    positions = np.array([(left,) + x0[1:], (right,) + x0[1:]])
    return Configuration._wrap(np.array(marks), positions)


def merging_limit(x0: Sequence[float], s1: float, s2: float) -> Configuration:
    """The limit configuration ``{(s1, x0), (s2, x0)}`` of the merging sequence.

    A perfectly valid configuration, but not pinpointing: both points
    share the position ``x0``, so it has no measure counterpart.
    """
    s1 = _real(s1, "s1", NonPositiveMark)
    s2 = _real(s2, "s2", NonPositiveMark)
    if s1 == s2:
        raise EqualMarks(f"marks must differ, got s1 == s2 == {s1}")
    x0 = _collision_position(x0)
    return make_configuration([(s1, x0), (s2, x0)], len(x0))


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a discrepancy scan along a configuration sequence.

    ``converged`` means: the final discrepancy fell below the tolerance
    and the sequence was non-increasing over its last quartile.  This is
    evidence consistent with vague convergence against the family used,
    not a certificate of topological convergence.

    ``argmax`` gives, for each term, the index of the family member that
    attains its discrepancy (the first one on ties), so a failed scan
    names the test function that sees the divergence.
    """

    converged: bool
    discrepancies: tuple
    argmax: tuple

    def as_dict(self) -> dict:
        return {
            "converged": self.converged,
            "discrepancies": list(self.discrepancies),
            "argmax": list(self.argmax),
        }


def check_convergence(
    sequence: Callable[[int], Configuration],
    limit: Configuration,
    family: TestFamily,
    tol: float,
    n_max: int,
) -> ConvergenceReport:
    """Scan ``vague_discrepancy(sequence(n), limit)`` for n = 1 .. n_max.

    ``sequence`` is a callable mapping the index n to a configuration.
    The terms are built and paired, with the limit, in one kernel call
    per ``_SCAN_CHUNK`` terms.  The verdict requires the last discrepancy below ``tol`` and a
    non-increasing tail over the final quartile (with 1e-12 slack).
    """
    tol = _positive(tol, "tol")
    n_max = _integer(n_max, "n_max")
    discrepancies, argmax = [], []
    for first in range(1, n_max + 1, _SCAN_CHUNK):
        terms = [sequence(n) for n in range(first, min(first + _SCAN_CHUNK, n_max + 1))]
        table = family._kernel.matrix(terms + [limit])
        worst, member = family._worst(table[:-1], table[-1])
        discrepancies += worst.tolist()
        argmax += member.tolist()
    tail_start = max(0, math.ceil(0.75 * n_max) - 1)
    tail = discrepancies[tail_start:]
    non_increasing = all(b <= a + _MONOTONE_SLACK for a, b in zip(tail, tail[1:]))
    converged = discrepancies[-1] < tol and non_increasing
    return ConvergenceReport(converged=converged, discrepancies=tuple(discrepancies), argmax=tuple(argmax))


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
    scalar = half_width is None or isinstance(half_width, (numbers.Real, str))
    widths = tuple(_positive(w, "half width") for w in ((half_width,) * d if scalar else half_width))
    if len(widths) != d:
        raise InvalidArgument("one half width per coordinate required")
    lower = tuple(c - w for c, w in zip(center, widths))
    upper = tuple(c + w for c, w in zip(center, widths))
    spatial = tuple((i, c, w) for i, (c, w) in enumerate(zip(center, widths)))

    if mark_center is None:
        support = Window(lower, upper)
        return TestFunction._of_form(_HatForm(spatial, support), support, 1.5 / min(widths), "space")

    mc = _positive(mark_center, "mark_center")
    mw = _positive(min(widths) if mark_half_width is None else mark_half_width, "mark_half_width")
    support = Window(lower, upper, mark_interval=(max(0.0, mc - mw), mc + mw))
    form = _HatForm(((-1, mc, mw),) + spatial, support)
    return TestFunction._of_form(form, support, 1.5 / min(widths + (mw,)), "phase")


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
    if not (isinstance(window, Window) and window.is_bounded()):
        raise InvalidArgument("hat_family requires a bounded window")
    d = window.dimension
    shape = tuple(_integer(g, "grid_shape entry") for g in _iterable(grid_shape, "grid_shape"))
    if len(shape) != d:
        raise InvalidArgument("grid_shape needs one cell count per axis")
    a, b = _real_pair(mark_interval, "mark_interval")
    if not 0.0 <= a < b < math.inf:
        raise InvalidArgument("mark_interval must satisfy 0 <= a < b < inf")
    mark_cells = _integer(mark_cells, "mark_cells")

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
    x0 = _collision_position(x0)
    s1 = _real(s1, "s1")
    s2 = _real(s2, "s2")
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
