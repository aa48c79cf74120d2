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

Count, mass, restriction and pairing are each one kernel here, over a
boolean window mask.  Measures (:mod:`.cone`) and pinpointing
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

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NonPositiveMark, NotCanonical

Position = tuple  # tuple of float coordinates

_PHASE = "phase"  # functions of (mark, position)
_SPACE = "space"  # functions of position only


def _clean_coordinate(value) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise InvalidArgument(f"coordinate must be finite, got {value!r}")
    # fold -0.0 into 0.0 so that ordering, equality and bits agree
    return 0.0 if v == 0.0 else v


def clean_position(position: Sequence[float]) -> Position:
    """Coerce a position to a tuple of finite floats with ``-0.0 -> 0.0``."""
    return tuple(_clean_coordinate(c) for c in position)


@dataclass(frozen=True)
class MarkedPoint:
    """A single point ``(mark, position)`` of a configuration.

    The mark is a positive finite real; the position is a tuple of finite
    floats.  Instances are immutable and hashable.
    """

    mark: float
    position: Position

    def __post_init__(self):
        m = float(self.mark)
        if not (math.isfinite(m) and m > 0.0):
            raise NonPositiveMark(f"mark must be a positive finite real, got {self.mark!r}")
        object.__setattr__(self, "mark", m)
        object.__setattr__(self, "position", clean_position(self.position))


@dataclass(frozen=True)
class Window:
    """Half-open axis-aligned box ``prod [lower_i, upper_i)`` with an
    optional mark interval ``(a, b]``.

    ``upper`` bounds may be ``+inf`` (such a window is unbounded and is
    rejected by the samplers).  By default each axis must have strictly
    positive extent; pass ``allow_degenerate=True`` to permit
    ``lower_i == upper_i`` faces, which produce empty windows.

    The mark interval is open at ``a`` and closed at ``b``; ``b`` may be
    ``inf``.  A window without a mark interval accepts every mark.
    """

    lower: Position
    upper: Position
    mark_interval: tuple | None = None
    allow_degenerate: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi):
            raise DimensionMismatch(f"window bounds of unequal length: {len(lo)} vs {len(hi)}")
        if len(lo) == 0:
            raise InvalidArgument("window must have at least one axis")
        for a, b in zip(lo, hi):
            if math.isnan(a) or math.isnan(b):
                raise InvalidArgument("window bounds must not be NaN")
            if a > b or (a == b and not self.allow_degenerate):
                raise InvalidArgument(f"window requires lower < upper per axis, got [{a}, {b})")
        lo = tuple(0.0 if v == 0.0 else v for v in lo)
        hi = tuple(0.0 if v == 0.0 else v for v in hi)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if self.mark_interval is not None:
            a, b = (float(v) for v in self.mark_interval)
            if math.isnan(a) or math.isnan(b) or a < 0.0 or b <= a:
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


@dataclass(frozen=True)
class TestFunction:
    """An evaluable real function with a declared support window.

    ``domain`` selects the call signature: ``"space"`` functions are
    evaluated as ``f(x)`` on positions, ``"phase"`` functions as
    ``f(s, x)`` on (mark, position) pairs.  The wrapper returns 0.0 for
    arguments outside the declared support, so the stored evaluator only
    ever sees points inside it.

    ``lipschitz`` is declared metadata: an upper bound on the Lipschitz
    constant with respect to the l1 distance on the function's arguments
    (the mark counts as one coordinate for phase functions).  ``None``
    means unknown and disables bound-based assertions downstream.
    """

    evaluator: Callable
    support: Window
    lipschitz: float | None = None
    domain: str = _PHASE

    def __post_init__(self):
        if self.domain not in (_PHASE, _SPACE):
            raise InvalidArgument(f"domain must be 'phase' or 'space', got {self.domain!r}")
        if self.lipschitz is not None:
            L = float(self.lipschitz)
            if not (math.isfinite(L) and L >= 0.0):
                raise InvalidArgument(f"lipschitz must be a nonnegative real or None, got {L}")
            object.__setattr__(self, "lipschitz", L)

    @property
    def dimension(self) -> int:
        return self.support.dimension

    def __call__(self, *args) -> float:
        if self.domain == _SPACE:
            (x,) = args
            if not self.support.contains_position(x):
                return 0.0
            v = float(self.evaluator(x))
        else:
            s, x = args
            if not (self.support.contains_position(x) and self.support.contains_mark(s)):
                return 0.0
            v = float(self.evaluator(s, x))
        if not math.isfinite(v):
            raise InvalidArgument("test function returned a non-finite value on its support")
        return v


def indicator(support: Window, domain: str = _PHASE) -> TestFunction:
    """The function equal to 1 on ``support`` and 0 outside (unknown Lipschitz)."""
    if domain == _SPACE:
        return TestFunction(lambda x: 1.0, support, None, _SPACE)
    return TestFunction(lambda s, x: 1.0, support, None, _PHASE)


def mark_weighted(fn: TestFunction) -> TestFunction:
    """Lift a position function g to the phase function ``(s, x) -> s * g(x)``.

    The support box is inherited from ``g``; all marks are admitted.  The
    result is generally not Lipschitz over an unbounded mark range, so the
    declared constant is ``None``.
    """
    if fn.domain != _SPACE:
        raise InvalidArgument("mark_weighted expects a position-domain function")
    base = Window(fn.support.lower, fn.support.upper)
    return TestFunction(lambda s, x: s * fn(x), base, None, _PHASE)


def linear_combination(terms: Sequence[tuple]) -> TestFunction:
    """Build ``sum_k c_k * f_k`` from ``(coefficient, TestFunction)`` pairs.

    All functions must share domain kind and dimension.  The support of the
    result is the bounding box of the members' supports (with the union of
    mark ranges for phase functions); each member still vanishes outside
    its own support, so the pointwise sum is exact.
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
    coefs = [float(c) for c, _ in terms]
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

    def ev(*args):
        total = 0.0
        for c, fn in zip(coefs, fns):
            total += c * fn(*args)
        return total

    return TestFunction(ev, support, lip, domain)


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
        marks = np.array(marks, dtype=float)
        positions = np.array(positions, dtype=float)
        if marks.ndim != 1 or positions.ndim != 2 or len(positions) != len(marks):
            raise InvalidArgument("expected marks of shape (n,) and positions of shape (n, d)")
        if positions.shape[1] < 1:
            raise InvalidArgument("dimension must be >= 1, got 0")
        good = (marks > 0.0) & (marks < math.inf)  # False for NaN
        if not good.all():
            raise cls._bad_mark(f"{marks[~good][0]!r} is not a positive finite real")
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
                for a, b in zip(starts[runs], ends[runs]):
                    marks[a] = np.cumsum(marks[a:b])[-1]
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
    """``(value, position)`` pairs or ``MarkedPoint`` instances as two arrays."""
    values, coords = [], []
    for item in raw:
        v, x = (item.mark, item.position) if isinstance(item, MarkedPoint) else item
        if len(x) != d:
            raise DimensionMismatch(f"position {list(x)} has {len(x)} coordinates, expected {d}")
        values.append(v)
        coords.append(x)
    return values, np.array(coords, dtype=float).reshape(len(coords), d)


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


def _bounds(windows, with_marks: bool = True):
    """Stacked window bounds, shaped to broadcast against ``n`` points."""
    lo = np.array([w.lower for w in windows])[:, None, :]
    hi = np.array([w.upper for w in windows])[:, None, :]
    everything = (-math.inf, math.inf)
    iv = np.array([(w.mark_interval if with_marks else None) or everything for w in windows])
    return lo, hi, iv[:, :1], iv[:, 1:]


def _window_masks(bounds, data) -> np.ndarray:
    """Membership of every point in every window: ``bool[k, n]``."""
    lo, hi, a, b = bounds
    x, s = data.positions, data.marks
    return ((x >= lo) & (x < hi)).all(axis=2) & (s > a) & (s <= b)


def _mask(data, lam: Window) -> np.ndarray:
    if data.dimension != lam.dimension:
        raise DimensionMismatch(f"data of dimension {data.dimension}, window of {lam.dimension}")
    return _window_masks(_bounds((lam,)), data)[0]


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


def _finite(value) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise InvalidArgument("test function returned a non-finite value on its support")
    return v


def _pairings(functions: Sequence[TestFunction], bounds, data) -> list:
    """``<f, data>`` for each function (all of one domain), with the support
    bounds stacked in ``bounds``.

    The points inside a function's support are visited in canonical order
    and their values summed sequentially: ``f(s, x)`` for phase functions,
    ``s * f(x)`` for position functions.
    """
    totals = [0.0] * len(functions)
    evs = [f.evaluator for f in functions]
    # row-major: member by member, each member's points in canonical order
    members, points = _window_masks(bounds, data).nonzero()
    hits = zip(
        members.tolist(), data.marks[points].tolist(), map(tuple, data.positions[points].tolist())
    )
    if functions[0].domain == _PHASE:
        for j, s, x in hits:
            totals[j] += _finite(evs[j](s, x))
    else:
        for j, s, x in hits:
            totals[j] += s * _finite(evs[j](x))
    return totals


def _pair(f: TestFunction, data, domain: str) -> float:
    if f.domain != domain:
        raise InvalidArgument(f"expected a {domain}-domain test function, got {f.domain!r}")
    if f.dimension != data.dimension:
        raise DimensionMismatch(f"function over dimension {f.dimension}, data over {data.dimension}")
    return _pairings((f,), _bounds((f.support,), domain == _PHASE), data)[0]


def pair_configuration(f: TestFunction, gamma: Configuration) -> float:
    """The pairing ``<f, gamma> = sum over points (s, x) of f(s, x)``.

    Only points inside ``f.support`` contribute; they are summed in
    canonical order with plain sequential accumulation, which makes the
    pairing bitwise reproducible and exactly local: pairing against
    ``restrict(gamma, f.support)`` gives the identical float.
    """
    return _pair(f, gamma, _PHASE)
