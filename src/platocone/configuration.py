"""Marked points, windows, test functions, configurations and the window kernels.

A configuration is a finite set of marked points ``(s, x)`` with mark
``s > 0`` and position ``x`` in R^d.  Configurations have set semantics:
construction order never matters, exact duplicates are dropped, and the
points are stored as read-only ``marks: float64[n]`` and ``positions:
float64[n, d]`` arrays in canonical order (lexicographic in the position
coordinates, then the mark).  The canonical order is what makes equality,
serialization and floating-point summation reproducible.

Windows are half-open axis-aligned boxes ``prod [lo_i, hi_i)``, optionally
restricted to a mark interval ``(a, b]``.  Half-open boxes tile exactly,
so disjoint unions of windows behave additively without boundary
double-counting.

Count, mass and restriction are each one kernel here, over a boolean
window mask.  Pairing is one kernel too: it evaluates a list of test
functions through their array forms (:meth:`TestFunction.evaluate`) over
the points of a list of configurations and sums each pairing in
canonical order.  Measures (:mod:`.cone`) and pinpointing
configurations (:mod:`.plato`) hold the same two arrays and run the same
kernels, so quantities agree bitwise across the reflection by
construction.

Position and mark comparisons are exact: two floats are the same
coordinate if and only if they are equal as doubles (``-0.0`` is
normalized to ``0.0`` at construction so that equality, ordering and the
bit pattern agree).  No tolerance-based merging is ever applied; a
tolerance would make set membership intransitive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidArgument,
    NonPositiveMark,
    NotCanonical,
    _integer,
    _iterable,
    _positive,
    _real,
    _real_pair,
    _reals,
)

Position = tuple  # tuple of float coordinates

_PHASE = "phase"  # functions of (mark, position)
_SPACE = "space"  # functions of position only


def _clean_coordinate(value) -> float:
    v = _real(value, "coordinate")
    if not math.isfinite(v):
        raise InvalidArgument(f"coordinate must be finite, got {v!r}")
    # fold -0.0 into 0.0 so that ordering, equality and bits agree
    return 0.0 if v == 0.0 else v


def clean_position(position: Sequence[float]) -> Position:
    """Coerce a position to a tuple of finite floats with ``-0.0 -> 0.0``."""
    return tuple(map(_clean_coordinate, position))


@dataclass(frozen=True)
class MarkedPoint:
    """A single point ``(mark, position)`` of a configuration.

    The mark is a positive finite real; the position is a tuple of finite
    floats.  Instances are immutable and hashable.
    """

    mark: float
    position: Position

    def __post_init__(self):
        object.__setattr__(self, "mark", _positive(self.mark, "mark", NonPositiveMark))
        object.__setattr__(self, "position", clean_position(self.position))


@dataclass(frozen=True)
class Window:
    """Half-open axis-aligned box ``prod [lower_i, upper_i)`` with an
    optional mark interval ``(a, b]``.

    ``upper`` bounds may be ``+inf`` (such a window is unbounded and is
    rejected by the samplers).  Each axis must have strictly positive
    extent; the volume can still underflow to zero, and the samplers
    reject such a window with ``DegenerateWindow``.

    The mark interval is open at ``a`` and closed at ``b``; ``b`` may be
    ``inf``.  A window without a mark interval accepts every mark.
    """

    lower: Position
    upper: Position
    mark_interval: tuple | None = None

    def __post_init__(self):
        lo = tuple(_real(v, "window bound") for v in _iterable(self.lower, "window bounds"))
        hi = tuple(_real(v, "window bound") for v in _iterable(self.upper, "window bounds"))
        if len(lo) != len(hi):
            raise DimensionMismatch(f"window bounds of unequal length: {len(lo)} vs {len(hi)}")
        if len(lo) == 0:
            raise InvalidArgument("window must have at least one axis")
        for a, b in zip(lo, hi):
            if not a < b:  # also NaN
                raise InvalidArgument(f"window requires lower < upper per axis, got [{a}, {b})")
        lo = tuple(0.0 if v == 0.0 else v for v in lo)
        hi = tuple(0.0 if v == 0.0 else v for v in hi)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if self.mark_interval is not None:
            a, b = _real_pair(self.mark_interval, "mark interval")
            if not 0.0 <= a < b:
                raise InvalidArgument(f"mark interval must satisfy 0 <= a < b, got ({a}, {b}]")
            object.__setattr__(self, "mark_interval", (a, b))

    @property
    def dimension(self) -> int:
        return len(self.lower)

    def volume(self) -> float:
        """Lebesgue volume of the spatial box (``inf`` if unbounded)."""
        vol = 1.0
        for a, b in zip(self.lower, self.upper):
            vol *= b - a
        return vol

    def is_bounded(self) -> bool:
        return all(math.isfinite(v) for v in self.lower + self.upper)

    def contains_position(self, position: Sequence[float]) -> bool:
        """Half-open box membership of a position, ``lo_i <= x_i < hi_i``."""
        if len(position) != self.dimension:
            raise DimensionMismatch(
                f"position of length {len(position)} against window of dimension {self.dimension}"
            )
        return all(a <= x < b for x, a, b in zip(position, self.lower, self.upper))

    def contains_mark(self, mark: float) -> bool:
        """Mark interval membership ``a < s <= b``; True when no interval is set."""
        if self.mark_interval is None:
            return True
        a, b = self.mark_interval
        return a < mark <= b


def _hat_factor(col: np.ndarray, center: float, width: float) -> np.ndarray:
    """The cubic hat ``1 - 3t^2 + 2t^3`` at ``t = |col - center| / width``.

    ``t`` is clamped to 1, where the polynomial is exactly 0.0, so every
    factor vanishes at and beyond its support faces.  The operations and
    their order are those of the scalar formula, so each element has the
    bits a Python float evaluation gives.
    """
    t = np.minimum(np.abs(col - center) / width, 1.0)
    return 1.0 - 3.0 * t * t + 2.0 * t * t * t


def _hat_product(factors) -> np.ndarray:
    """The product of the factors in order, in place into the first (a new array)."""
    factors = iter(factors)
    product = next(factors)
    for factor in factors:
        product *= factor
        del factor  # so that the next factor can reuse its memory
    return product


class _HatForm:
    """Array form of a tensor product of cubic hats.

    ``factors`` holds ``(axis, center, half_width, lo, hi)`` in
    multiplication order, where axis -1 is the mark and ``(lo, hi)`` are
    the support's bounds on that axis.  A value is the
    :func:`_hat_product` of the factors, as in the pairing table.  Just
    below ``t = 1`` the cubic rounds to values as small as -4.4e-16, so a
    product can reach -0.0; a zero partial product before the last factor
    gives +0.0, as a scalar evaluation that stops at the first zero does.
    """

    __slots__ = ("factors",)

    def __init__(self, factors, support: Window):
        lo, hi = support.lower, support.upper
        bounds = lambda axis: support.mark_interval if axis < 0 else (lo[axis], hi[axis])
        self.factors = tuple((axis, center, width, *bounds(axis)) for axis, center, width in factors)

    def __call__(self, marks, positions):
        *head, last = (
            _hat_factor(marks if axis < 0 else positions[:, axis], center, width)
            for axis, center, width, _, _ in self.factors
        )
        if not head:
            return last
        before = _hat_product(head)
        return np.where(before == 0.0, 0.0, before * last)


def _per_point(evaluator: Callable, domain: str) -> Callable:
    """The array form of a scalar evaluator: one Python call per row."""

    def form(marks, positions):
        xs = map(tuple, positions.tolist())
        values = map(evaluator, xs) if domain == _SPACE else map(evaluator, marks.tolist(), xs)
        return np.array([float(v) for v in values], dtype=float)

    return form


def _one_row(form: Callable, domain: str) -> Callable:
    """The scalar evaluator of an array form: the form run on one row."""
    if domain == _SPACE:
        return lambda x: float(form(None, np.array([x], dtype=float))[0])
    return lambda s, x: float(form(np.array([s], dtype=float), np.array([x], dtype=float))[0])


def _inside(lam: Window, marks, positions: np.ndarray) -> np.ndarray:
    """Membership of each row in the window: ``bool[n]``.  With ``marks``
    None the mark interval is not tested."""
    inside = ((positions >= lam.lower) & (positions < lam.upper)).all(axis=1)
    if marks is not None and lam.mark_interval is not None:
        a, b = lam.mark_interval
        inside &= (marks > a) & (marks <= b)
    return inside


@dataclass(frozen=True)
class TestFunction:
    """An evaluable real function with a declared support window.

    ``domain`` selects the call signature: ``"space"`` functions are
    evaluated as ``f(x)`` on positions, ``"phase"`` functions as
    ``f(s, x)`` on (mark, position) pairs.  Values are 0.0 outside the
    declared support, so the stored evaluator only ever sees points
    inside it.

    :meth:`evaluate` computes the values at many rows at once.  The
    built-in functions (:func:`indicator`, :func:`mark_weighted`,
    :func:`linear_combination` and the hats of :mod:`.topology`) carry an
    array form for it; a function built here from a scalar ``evaluator``
    is called once per row inside the support.

    ``lipschitz`` is declared metadata: an upper bound on the Lipschitz
    constant with respect to the l1 distance on the function's arguments
    (the mark counts as one coordinate for phase functions).  ``None``
    means unknown and disables bound-based assertions downstream.
    """

    evaluator: Callable
    support: Window
    lipschitz: float | None = None
    domain: str = _PHASE
    # (marks, positions) -> float64[n] for rows inside the support
    _form: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (callable(self.evaluator) and isinstance(self.support, Window)):
            raise InvalidArgument("a test function needs a callable evaluator and a Window support")
        if self.domain not in (_PHASE, _SPACE):
            raise InvalidArgument(f"domain must be 'phase' or 'space', got {self.domain!r}")
        if self.lipschitz is not None:
            L = _real(self.lipschitz, "lipschitz")
            if not (math.isfinite(L) and L >= 0.0):
                raise InvalidArgument(f"lipschitz must be a nonnegative real or None, got {L}")
            object.__setattr__(self, "lipschitz", L)
        object.__setattr__(self, "_form", _per_point(self.evaluator, self.domain))

    @classmethod
    def _of_form(cls, form: Callable, support: Window, lipschitz, domain: str) -> "TestFunction":
        """A function given by its array form; ``evaluator`` runs it on one row."""
        fn = cls(_one_row(form, domain), support, lipschitz, domain)
        object.__setattr__(fn, "_form", form)
        return fn

    @property
    def dimension(self) -> int:
        return self.support.dimension

    def evaluate(self, marks, positions) -> np.ndarray:
        """The values at the rows ``(marks[i], positions[i])`` as ``float64[n]``.

        Rows outside the support give 0.0.  Position functions ignore
        ``marks``, which may be None.  Raises :class:`InvalidArgument` on
        a mark or coordinate that is not finite, and once, after
        evaluating every row, if any value is not finite.
        """
        positions = _reals(positions, "positions")
        if positions.ndim != 2 or positions.shape[1] != self.dimension:
            raise DimensionMismatch(
                f"positions of shape {positions.shape} against a function of dimension {self.dimension}"
            )
        if self.domain == _SPACE:
            marks = None
        else:
            marks = _reals(marks, "marks")
            if marks.shape != positions.shape[:1]:
                raise InvalidArgument(f"expected {len(positions)} marks, got shape {marks.shape}")
        if not (np.isfinite(positions).all() and (marks is None or np.isfinite(marks).all())):
            raise InvalidArgument("marks and coordinates must be finite")
        inside = _inside(self.support, marks, positions)
        out = np.zeros(len(positions))
        out[inside] = self._form(None if marks is None else marks[inside], positions[inside])
        if not np.isfinite(out).all():
            raise InvalidArgument("test function returned a non-finite value on its support")
        return out

    def __call__(self, *args) -> float:
        """``f(x)`` or ``f(s, x)``: :meth:`evaluate` on one row."""
        if self.domain == _SPACE:
            (x,) = args
            return float(self.evaluate(None, [x])[0])
        s, x = args
        return float(self.evaluate([s], [x])[0])


def indicator(support: Window, domain: str = _PHASE) -> TestFunction:
    """The function equal to 1 on ``support`` and 0 outside (unknown Lipschitz)."""
    return TestFunction._of_form(lambda marks, positions: np.ones(len(positions)), support, None, domain)


def mark_weighted(fn: TestFunction) -> TestFunction:
    """Lift a position function g to the phase function ``(s, x) -> s * g(x)``.

    The support box is inherited from ``g``; all marks are admitted.  The
    result is generally not Lipschitz over an unbounded mark range, so the
    declared constant is ``None``.
    """
    if fn.domain != _SPACE:
        raise InvalidArgument("mark_weighted expects a position-domain function")
    base = Window(fn.support.lower, fn.support.upper)
    form = lambda marks, positions: marks * fn.evaluate(None, positions)
    return TestFunction._of_form(form, base, None, _PHASE)


def linear_combination(terms: Sequence[tuple]) -> TestFunction:
    """Build ``sum_k c_k * f_k`` from ``(coefficient, TestFunction)`` pairs.

    All functions must share domain kind and dimension.  The support of the
    result is the bounding box of the members' supports (with the union of
    mark ranges for phase functions); each member still vanishes outside
    its own support, so the pointwise sum is exact.  The terms are added
    in order, starting from 0.0.
    """
    if not terms:
        raise InvalidArgument("linear_combination requires at least one term")
    fns = [fn for _, fn in terms]
    domain = fns[0].domain
    d = fns[0].dimension
    if any(fn.domain != domain for fn in fns):
        raise InvalidArgument("mixed function domains in linear combination")
    if any(fn.dimension != d for fn in fns):
        raise DimensionMismatch("mixed dimensions in linear combination")
    coefs = [_real(c, "coefficient") for c, _ in terms]
    lower = tuple(min(fn.support.lower[i] for fn in fns) for i in range(d))
    upper = tuple(max(fn.support.upper[i] for fn in fns) for i in range(d))
    intervals = [fn.support.mark_interval for fn in fns]
    if domain == _PHASE and all(iv is not None for iv in intervals):
        mark_interval = (min(iv[0] for iv in intervals), max(iv[1] for iv in intervals))
    else:
        mark_interval = None
    support = Window(lower, upper, mark_interval)
    lip = None
    if all(fn.lipschitz is not None for fn in fns):
        lip = _total([abs(c) * fn.lipschitz for c, fn in zip(coefs, fns)])

    def form(marks, positions):
        total = np.zeros(len(positions))
        for c, fn in zip(coefs, fns):
            total += c * fn.evaluate(marks, positions)
        return total

    return TestFunction._of_form(form, support, lip, domain)


def _total(values) -> float:
    """Sequential sum from 0.0 in the given order.

    Bitwise equal to ``t = 0.0; for v in values: t += v``: ``np.cumsum``
    accumulates left to right, and the leading ``0.0 +`` turns a sum of
    ``-0.0`` terms into ``0.0`` as the loop does.  ``ndarray.sum`` (pairwise)
    and builtin ``sum`` (compensated from Python 3.12) round differently.
    """
    acc = np.cumsum(values)
    return 0.0 + float(acc[-1]) if acc.size else 0.0


def _first_unordered(marks: np.ndarray, positions: np.ndarray, with_mark: bool):
    """Index of the first row not strictly after its predecessor, or None.

    Rows compare lexicographically by position, then (``with_mark``) by
    mark.  On a canonical configuration, ``with_mark=False`` finds the
    first position shared by two points.
    """
    if (positions[1:, 0] > positions[:-1, 0]).all():
        return None  # a strictly increasing first coordinate orders the rows
    keys = np.column_stack((positions, marks)) if with_mark else positions
    prev, cur = keys[:-1], keys[1:]
    differ = prev != cur
    first = differ.argmax(axis=1)  # first differing column, 0 for equal rows
    rows = np.arange(len(first))
    ok = differ[rows, first] & (cur[rows, first] > prev[rows, first])
    bad = np.flatnonzero(~ok)
    return int(bad[0]) + 1 if bad.size else None


class _PointArrays:
    """Read-only ``marks: float64[n]`` and ``positions: float64[n, d]`` in
    canonical order: the storage shared by configurations and measures.

    The constructor validates copies of its arguments and rejects rows
    that are out of canonical order or repeated (:class:`NotCanonical`);
    it never reorders or merges.  ``_canonical`` sorts and merges first;
    ``_wrap`` adopts arrays that are already valid, without copying.
    """

    __slots__ = ("marks", "positions")
    _bad_mark = NonPositiveMark
    _mark_in_key = True  # canonical key (position, mark); False: position alone

    def __init__(self, marks, positions):
        marks, positions = self._checked(marks, positions)
        i = _first_unordered(marks, positions, self._mark_in_key)
        if i is not None:
            raise NotCanonical(
                i, f"row {i} at {positions[i].tolist()} repeats or precedes row {i - 1}"
            )
        self._adopt(marks, positions)

    @classmethod
    def _checked(cls, marks, positions):
        marks = _reals(marks, "marks", cls._bad_mark)
        positions = _reals(positions, "coordinates")
        if marks.ndim != 1 or positions.ndim != 2 or len(positions) != len(marks):
            raise InvalidArgument("expected marks of shape (n,) and positions of shape (n, d)")
        if positions.shape[1] < 1:
            raise InvalidArgument("dimension must be >= 1, got 0")
        good = (marks > 0.0) & (marks < math.inf)  # False for NaN
        if not good.all():
            raise cls._bad_mark(f"{float(marks[~good][0])!r} is not a positive finite real")
        if not np.isfinite(positions).all():
            raise InvalidArgument("coordinates must be finite")
        positions += 0.0  # fold -0.0 into 0.0 so that ordering, equality and bits agree
        return marks, positions

    @classmethod
    def _canonical(cls, marks, positions):
        """Validate, sort into canonical order and drop exact repeats; for
        measures, atoms at one position merge into one whose weight is the
        sum, in input order, of theirs."""
        marks, positions = cls._checked(marks, positions)
        keys = tuple(positions.T[::-1])
        order = np.lexsort((marks,) + keys if cls._mark_in_key else keys)  # stable
        marks, positions = marks[order], positions[order]
        repeat = (positions[1:] == positions[:-1]).all(axis=1)
        if cls._mark_in_key:
            repeat &= marks[1:] == marks[:-1]
        if repeat.any():
            starts = np.flatnonzero(np.concatenate(([True], ~repeat)))
            if not cls._mark_in_key:
                ends = np.append(starts[1:], len(marks))
                runs = ends - starts > 1
                with np.errstate(over="ignore"):
                    for a, b in zip(starts[runs], ends[runs]):
                        marks[a] = np.cumsum(marks[a:b])[-1]
                if np.isinf(marks).any():
                    raise cls._bad_mark("weights merged at one position sum to inf")
            marks, positions = marks[starts], positions[starts]
        return cls._wrap(marks, positions)

    @classmethod
    def _wrap(cls, marks, positions):
        obj = object.__new__(cls)
        obj._adopt(marks, positions)
        return obj

    def _adopt(self, marks, positions):
        marks.flags.writeable = False
        positions.flags.writeable = False
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "positions", positions)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through _wrap: __setattr__ is blocked
        return type(self)._wrap, (self.marks, self.positions)

    @property
    def dimension(self) -> int:
        return self.positions.shape[1]

    def __len__(self) -> int:
        return len(self.marks)

    def __eq__(self, other) -> bool:
        # no NaN and no -0.0 is ever stored, so == is bitwise equality
        return (
            type(self) is type(other)
            and np.array_equal(self.marks, other.marks)
            and np.array_equal(self.positions, other.positions)
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self)}, d={self.dimension})"


class Configuration(_PointArrays):
    """A finite set of marked points in canonical order.

    ``Configuration(marks, positions)`` validates arrays that are already
    canonical; use :func:`make_configuration` to build one from unordered
    points.
    """

    __slots__ = ()

    @property
    def points(self) -> tuple:
        """The points as ``MarkedPoint`` objects, built on each read."""
        return tuple(
            MarkedPoint(s, tuple(x)) for s, x in zip(self.marks.tolist(), self.positions.tolist())
        )

    def __iter__(self):
        return iter(self.points)

    def is_empty(self) -> bool:
        return len(self) == 0

    def total_mark(self) -> float:
        """Sum of all marks, accumulated in canonical order."""
        return _total(self.marks)


def _rows(raw, d: int):
    """``(value, position)`` pairs or ``MarkedPoint`` instances as two lists
    (positions of shape ``(0, d)`` when there are none, for a positive
    integer ``d``; with points, any ``d`` that is not their length is a
    ``DimensionMismatch``)."""
    values, coords = [], []
    for item in _iterable(raw, "points"):
        try:
            v, x = (item.mark, item.position) if isinstance(item, MarkedPoint) else item
            n = len(x)
        except (TypeError, ValueError):
            raise InvalidArgument(f"point {item!r} is not a (value, position) pair") from None
        if n != d:
            raise DimensionMismatch(f"position {list(x)} has {n} coordinates, expected {d}")
        values.append(v)
        coords.append(x)
    return values, coords or np.empty((0, _integer(d, "d")))


def make_configuration(raw_points: Iterable, d: int) -> Configuration:
    """Build a configuration from marked points, enforcing set semantics.

    Parameters
    ----------
    raw_points : iterable
        ``MarkedPoint`` instances or ``(mark, position)`` pairs.
    d : int
        Spatial dimension; every position must have exactly ``d`` finite
        coordinates.

    Exact duplicates (same mark and same position, as doubles) are
    dropped.  Permuted inputs produce equal configurations.

    Raises
    ------
    NonPositiveMark
        If any mark is not a positive finite real.
    DimensionMismatch
        If any position length differs from ``d``.
    """
    return Configuration._canonical(*_rows(raw_points, d))


def _mask(data, lam: Window) -> np.ndarray:
    if not isinstance(lam, Window):
        raise InvalidArgument(f"expected a Window, got {type(lam).__name__}")
    if data.dimension != lam.dimension:
        raise DimensionMismatch(f"data of dimension {data.dimension}, window of {lam.dimension}")
    return _inside(lam, data.marks, data.positions)


def count_in_window(gamma: Configuration, lam: Window) -> int:
    """Number of points of ``gamma`` (or atoms of a measure) inside the window.

    Membership is the half-open box test on the position, combined with
    the mark interval ``(a, b]`` when the window declares one.
    """
    return int(np.count_nonzero(_mask(gamma, lam)))


def restrict(gamma: Configuration, lam: Window) -> Configuration:
    """The sub-configuration (or sub-measure) of points inside the window.

    Restriction preserves canonical order, is idempotent, and is
    consistent under nesting: restricting to an inner window factors
    through any outer window containing it.
    """
    mask = _mask(gamma, lam)
    return type(gamma)._wrap(gamma.marks[mask], gamma.positions[mask])


def _mass(data, lam: Window) -> float:
    """Sum of the marks (weights) inside the window, in canonical order."""
    return _total(data.marks[_mask(data, lam)])


def n_point_class(gamma: Configuration, lam: Window) -> int:
    """Index n of the n-point class the windowed configuration falls in.

    The configurations supported in a window split disjointly by
    cardinality; this returns that cardinality.  Computed through
    :func:`restrict` so it provides a second route to the same number as
    :func:`count_in_window`.
    """
    return len(restrict(gamma, lam))


def canonical_order(gamma: Configuration) -> list:
    """The points as a list in canonical (position, mark) order.

    Any ordering would do as a representative of the inputs modulo
    permutation; lexicographic order is the one fixed by this package
    because it reproduces across platforms.
    """
    return list(gamma.points)


# Member values the pairing kernel holds at once; the points are visited
# in blocks of about this many values over all (member, configuration)
# pairs, so memory stays bounded and the bits do not depend on it.
_BLOCK_CELLS = 1 << 18


class _Pairing:
    """The pairing kernel of a fixed list of test functions of one domain
    and dimension: :meth:`matrix` gives ``<f_j, data_i>`` for a list of
    configurations or measures as a ``[data, functions]`` array.

    Hat members share one table: each distinct factor (axis, center, half
    width and the support bounds on that axis) is one row over the points,
    zero outside those bounds, and a member's values are the
    :func:`_hat_product` of its rows in the order of :class:`_HatForm`.
    Other members call :meth:`TestFunction.evaluate`.  Position functions
    contribute ``s * f(x)``.

    Each sum runs over a member's values in canonical order, starting
    from 0.0: one ``cumsum`` along the points per block of points, with
    the running sums of the previous block as its first row and +0.0
    after each configuration's last point.  Adding a zero of either sign
    to a sum that starts at +0.0 leaves its bits as they are, so every
    sum equals a plain loop over the points inside the support, whatever
    the block size, and zeros from the table need no sign fix.
    """

    def __init__(self, functions: Sequence[TestFunction]):
        self.functions = tuple(functions)
        self.domain = self.functions[0].domain
        self.dimension = self.functions[0].dimension
        hats = {j: f._form.factors for j, f in enumerate(self.functions) if type(f._form) is _HatForm}
        # the distinct factors, grouped by axis so that each axis is one pass over the points
        order = sorted(dict.fromkeys(key for keys in hats.values() for key in keys), key=lambda key: key[0])
        row_of = {key: i for i, key in enumerate(order)}
        self._axes = [
            (axis, *np.array([key[1:] for key in group]).T[:, :, None])
            for axis, group in itertools.groupby(order, key=lambda key: key[0])
        ]
        self._hats = list(hats)
        # [factor position, hat member]: the table row of each factor
        self._rows = np.array([[row_of[key] for key in keys] for keys in hats.values()], dtype=np.intp).T
        self._others = [j for j in range(len(self.functions)) if j not in hats]

    def values(self, marks: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """The terms ``f_j(s, x)`` (or ``s * f_j(x)``) at every row: ``[functions, n]``."""
        out = np.empty((len(self.functions), len(marks)))
        if self._hats:
            tables = []
            for axis, center, width, lo, hi in self._axes:
                col = marks if axis < 0 else positions[:, axis]
                inside = (col > lo) & (col <= hi) if axis < 0 else (col >= lo) & (col < hi)
                tables.append(np.where(inside, _hat_factor(col, center, width), 0.0))
            table = np.concatenate(tables)
            out[self._hats] = _hat_product(table[rows] for rows in self._rows)
        for j in self._others:
            out[j] = self.functions[j].evaluate(marks, positions)
        if self.domain == _SPACE:
            out *= marks
        return out

    def matrix(self, data: Sequence) -> np.ndarray:
        """The pairings ``<f_j, data[i]>`` as ``float64[len(data), len(functions)]``."""
        for item in data:
            if item.dimension != self.dimension:
                raise DimensionMismatch(
                    f"test functions over dimension {self.dimension}, data over {item.dimension}"
                )
        k, m = len(data), len(self.functions)
        marks = np.concatenate([item.marks for item in data])
        positions = np.concatenate([item.positions for item in data])
        lengths = np.array([len(item) for item in data], dtype=np.intp)
        starts = np.cumsum(lengths) - lengths
        longest = int(lengths.max(initial=0))
        width = max(1, _BLOCK_CELLS // max(1, k * m))
        sums = np.zeros((k, m))
        # s * f(x) and the sums may overflow to inf, silently, as float loops do
        with np.errstate(over="ignore"):
            for first in range(0, longest, width):
                cols = np.arange(first, min(first + width, longest))
                present = cols[:, None] < lengths  # [block, k]; the rest of the block stays +0.0
                rows = (cols[:, None] + starts)[present]
                # [1 + block, k, m]: the running sums, then one row of terms per point
                block = np.zeros((len(cols) + 1, k, m))
                block[0] = sums
                block[1:][present] = self.values(marks[rows], positions[rows]).T
                sums = np.cumsum(block, axis=0)[-1]
        return sums


def _pair(f: TestFunction, data, domain: str) -> float:
    if f.domain != domain:
        raise InvalidArgument(f"expected a {domain}-domain test function, got {f.domain!r}")
    return float(_Pairing((f,)).matrix((data,))[0, 0])


def pair_configuration(f: TestFunction, gamma: Configuration) -> float:
    """The pairing ``<f, gamma> = sum over points (s, x) of f(s, x)``.

    Only points inside ``f.support`` contribute; they are summed in
    canonical order with plain sequential accumulation, which makes the
    pairing bitwise reproducible and exactly local: pairing against
    ``restrict(gamma, f.support)`` gives the identical float.
    """
    return _pair(f, gamma, _PHASE)
