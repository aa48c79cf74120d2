"""Seedable samplers for Poisson configurations and Gamma random measures.

The Gamma random measure has atom intensity ``theta * s^-1 * e^-s ds dx``:
infinitely many atoms in any window, almost all with tiny weights, with
total window mass distributed Gamma(theta * volume, 1).  Two samplers are
provided and cross-checked against each other:

* ``sample_gamma`` keeps every atom with mark above a threshold
  ``epsilon``.  The kept atoms form a Poisson process with mean count
  ``theta * volume * E1(epsilon)``; the discarded tail carries expected
  mass ``theta * volume * (1 - e^-epsilon)``, which the report states
  explicitly so truncation is always accounted for, never silent.
* ``sample_gamma_ordered`` generates the ``n_jumps`` largest marks
  directly, largest first, by inverting the tail mass function
  ``T(s) = theta * volume * E1(s)`` at the arrival times of a unit-rate
  Poisson process.  Marks come out strictly decreasing.

``sample_poisson`` draws a finite-intensity marked Poisson process: the
product of a mark density with finite total mass and a homogeneous
spatial rate.

Reproducibility contract: a sampler's output is a pure function of
(parameters, window, seed).  Each seed feeds three fixed substreams
(atom count, marks, positions) derived with distinct spawn keys, so the
atom count of a run never depends on how many mark or position draws
another part of the pipeline consumed.  All randomness reduces to
uniform doubles from PCG64, the most version- and platform-stable part
of the generator API.  Inverse-CDF inversions are bisections (in log
space) to relative tolerance 1e-12, capped at 200 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .configuration import Configuration, TestFunction, Window
from .errors import (
    DegenerateWindow,
    InvalidArgument,
    InvalidEpsilon,
    InvalidTheta,
    NonIntegrableDensity,
    UnboundedWindow,
)
from .plato import reflect, to_plato
from . import stats
from .stats import _EULER_GAMMA, exp_integral_e1

_E1_AT_ONE = exp_integral_e1(1.0)

_STREAM_COUNT = 0
_STREAM_MARKS = 1
_STREAM_POSITIONS = 2

_BISECT_REL_TOL = 1e-12
_BISECT_MAX_ITER = 200
_POISSON_CHUNK_MEAN = 500.0
_MARK_GRID_NODES = 2**14 + 1
# E1(s) = t has no positive double solution once t exceeds about 708
_MAX_E1_TARGET = 700.0


@dataclass(frozen=True)
class FiniteProduct:
    """Finite product intensity: mark density (finite mass) x spatial rate.

    ``mark_density`` is a position-domain test function of one variable
    (the mark axis), nonnegative with bounded support and positive finite
    integral.  The induced point process in a window of volume V has mean
    atom count ``total_mark_mass * spatial_rate * V``.
    """

    mark_density: TestFunction
    spatial_rate: float = 1.0

    def __post_init__(self):
        r = float(self.spatial_rate)
        if not (math.isfinite(r) and r > 0.0):
            raise InvalidArgument(f"spatial_rate must be a positive finite real, got {self.spatial_rate!r}")
        object.__setattr__(self, "spatial_rate", r)
        fn = self.mark_density
        if fn.domain != "space" or fn.dimension != 1:
            raise InvalidArgument("mark_density must be a one-dimensional position-domain function")
        if fn.support.lower[0] < 0.0:
            raise InvalidArgument("mark_density support must lie in [0, inf)")

    @cached_property
    def _mark_table(self):
        # Tabulated CDF on a uniform grid over the declared support;
        # trapezoid rule, inverted by linear interpolation per cell.
        fn = self.mark_density
        if not fn.support.is_bounded():
            raise NonIntegrableDensity("mark_density support must be bounded for numeric integration")
        lo, hi = fn.support.lower[0], fn.support.upper[0]
        grid = np.linspace(lo, hi, _MARK_GRID_NODES)
        values = np.array([fn((s,)) for s in grid])
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise NonIntegrableDensity("mark_density must be finite and nonnegative on its support")
        step = (hi - lo) / (_MARK_GRID_NODES - 1)
        cdf = np.concatenate([[0.0], np.cumsum((values[1:] + values[:-1]) * (step / 2.0))])
        mass = float(cdf[-1])
        if not (math.isfinite(mass) and mass > 0.0):
            raise NonIntegrableDensity(f"mark_density must have positive finite mass, got {mass}")
        return grid, cdf, mass

    @property
    def total_mark_mass(self) -> float:
        """Numerically computed total mass of the mark density."""
        return self._mark_table[2]


@dataclass(frozen=True)
class SampleReport:
    """Bookkeeping attached to every sampler run.

    ``expected_discarded_mass`` is the expected total mass of atoms the
    truncation dropped: exact and deterministic for the threshold sampler,
    conditional on the realized smallest jump for the ordered sampler,
    and zero for finite-intensity sampling.
    """

    seed: int
    epsilon: float | None
    expected_discarded_mass: float
    atom_count: int

    def __post_init__(self):
        if self.expected_discarded_mass < 0.0:
            raise InvalidArgument("expected_discarded_mass must be nonnegative")
        if self.atom_count < 0:
            raise InvalidArgument("atom_count must be nonnegative")


def substream(seed: int, index: int) -> np.random.Generator:
    """The PCG64 generator for one of the fixed per-seed substreams."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _require_seed(seed) -> int:
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise InvalidArgument(f"seed must be an integer, got {seed!r}")
    s = int(seed)
    if not 0 <= s < 2**64:
        raise InvalidArgument(f"seed must fit in 64 unsigned bits, got {s}")
    return s


def _require_sampling_window(lam: Window) -> float:
    if lam.mark_interval is not None:
        raise InvalidArgument("sampling windows are spatial: no mark interval allowed")
    if not lam.is_bounded():
        raise UnboundedWindow(f"sampling window must be bounded, got {lam.lower} .. {lam.upper}")
    vol = lam.volume()
    if vol <= 0.0:
        raise DegenerateWindow(f"sampling window must have positive volume, got {vol}")
    return _require_finite(vol, "sampling window volume")


def _require_finite(value: float, what: str) -> float:
    # a product of finite factors can still overflow to inf
    if not math.isfinite(value):
        raise InvalidArgument(f"{what} overflows a double: {value}")
    return value


def _poisson_draw(rng: np.random.Generator, mean: float) -> int:
    """Poisson variate by CDF inversion, exact for any mean.

    Means above ~745 underflow the pmf recursion, so large means are split
    into chunks of at most 500 and the chunk draws are summed; Poisson
    additivity keeps the law exact.  Uses only uniform doubles.
    """
    if mean == 0.0:
        return 0
    chunks = max(1, math.ceil(mean / _POISSON_CHUNK_MEAN))
    part = mean / chunks
    total = 0
    for _ in range(chunks):
        u = rng.random()
        pmf = math.exp(-part)
        cum = pmf
        k = 0
        while u > cum:
            k += 1
            pmf *= part / k
            if pmf == 0.0:
                break
            cum += pmf
        total += k
    return total


def _uniforms_open(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniforms in the open interval (0, 1): zero draws are redrawn."""
    u = rng.random(n)
    zero = u == 0.0
    while np.any(zero):
        u[zero] = rng.random(int(zero.sum()))
        zero = u == 0.0
    return u


def _uniform_positions(rng: np.random.Generator, n: int, lam: Window) -> np.ndarray:
    """n positions uniform in the half-open box, clamped below the upper face."""
    lo = np.array(lam.lower)
    hi = np.array(lam.upper)
    x = lo + rng.random((n, lam.dimension)) * (hi - lo)
    return np.minimum(x, np.nextafter(hi, lo))


def _invert_e1_below_one(t: np.ndarray) -> np.ndarray:
    # roots in (0, 1]: bracket [exp(-gamma - t), 1] (E1(s) > -gamma - ln s
    # on (0, 1), E1(1) <= t), bisect on m = ln s where the series comparator
    # E1(e^m) >= t needs no log: -gamma - m + series(e^m) >= t
    a = -_EULER_GAMMA - t
    b = np.zeros_like(t)
    for _ in range(_BISECT_MAX_ITER):
        if not np.any(b - a > _BISECT_REL_TOL):
            break
        m = 0.5 * (a + b)
        ge = -_EULER_GAMMA - m + np.polyval(stats._E1_SERIES_COEFFS, np.exp(m)) >= t
        a = np.where(ge, m, a)
        b = np.where(ge, b, m)
    return np.exp(0.5 * (a + b))


def _invert_e1_above_one(t: float) -> float:
    # root in [1, 1 - ln t]: E1(1) >= t and E1(s) < e^-s <= t/e at the
    # upper end; bisect on ln s with the scalar continued fraction
    a = 0.0
    b = math.log(1.0 - math.log(t))
    for _ in range(_BISECT_MAX_ITER):
        if b - a <= _BISECT_REL_TOL:
            break
        m = 0.5 * (a + b)
        if stats._e1_cf_scalar(math.exp(m)) >= t:
            a = m
        else:
            b = m
    return math.exp(0.5 * (a + b))


def _invert_e1(targets: np.ndarray) -> np.ndarray:
    """Solve E1(s) = t elementwise for positive targets.

    Each root is bracketed analytically and the bracket is bisected on
    ln s until narrower than 1e-12, i.e. to relative tolerance 1e-12 on
    s.  Roots below 1 (the bulk, for small truncation thresholds) run as
    one vectorized bisection against the power series; roots at or above
    1 are bisected one by one against the continued fraction.
    """
    t = np.asarray(targets, dtype=float)
    if t.size == 0:
        return t.copy()
    if np.any(t > _MAX_E1_TARGET):
        raise InvalidArgument(
            f"cannot invert E1 at targets above {_MAX_E1_TARGET}: jump sizes underflow"
        )
    out = np.empty_like(t)
    small_root = t >= _E1_AT_ONE
    if np.any(small_root):
        out[small_root] = _invert_e1_below_one(t[small_root])
    if not np.all(small_root):
        big = ~small_root
        out[big] = [_invert_e1_above_one(float(v)) for v in t[big]]
    return out


def sample_poisson(spec: FiniteProduct, lam: Window, seed: int):
    """Draw a marked Poisson configuration with finite product intensity.

    The atom count is Poisson with mean ``mass * spatial_rate * volume``;
    marks are i.i.d. from the normalized mark density (inverse CDF on the
    tabulated integral), positions are uniform in the window.  Output is
    a pure function of (spec, lam, seed).

    Returns
    -------
    (Configuration, SampleReport)
    """
    if not isinstance(spec, FiniteProduct):
        raise InvalidArgument("sample_poisson requires a FiniteProduct intensity")
    seed = _require_seed(seed)
    vol = _require_sampling_window(lam)
    grid, cdf, mass = spec._mark_table
    mean = _require_finite(mass * spec.spatial_rate * vol, "mean atom count")

    n = _poisson_draw(substream(seed, _STREAM_COUNT), mean)
    u = _uniforms_open(substream(seed, _STREAM_MARKS), n)
    marks = _invert_mark_cdf(u, grid, cdf, mass)
    positions = _uniform_positions(substream(seed, _STREAM_POSITIONS), n, lam)

    gamma = Configuration._canonical(marks, positions)
    report = SampleReport(seed=seed, epsilon=None, expected_discarded_mass=0.0, atom_count=len(gamma))
    return gamma, report


def _invert_mark_cdf(u: np.ndarray, grid: np.ndarray, cdf: np.ndarray, mass: float) -> np.ndarray:
    if u.size == 0:
        return u.copy()
    t = u * mass
    idx = np.clip(np.searchsorted(cdf, t, side="left"), 1, len(cdf) - 1)
    span = cdf[idx] - cdf[idx - 1]
    span = np.where(span > 0.0, span, 1.0)
    s = grid[idx - 1] + (t - cdf[idx - 1]) * (grid[idx] - grid[idx - 1]) / span
    if np.any(s <= 0.0):
        raise RuntimeError("mark inversion produced a nonpositive mark")
    return s


def sample_gamma(theta: float, lam: Window, epsilon: float, seed: int):
    """Draw a Gamma random measure, keeping atoms with mark above ``epsilon``.

    The kept atoms form a Poisson process on (epsilon, inf) x window with
    intensity ``theta * s^-1 e^-s ds dx``: the count is Poisson with mean
    ``theta * volume * E1(epsilon)`` and each mark inverts the truncated
    tail.  The configuration of (mark, position) points is validated as
    pinpointing and reflected to a measure.  The report carries the exact
    expected discarded mass ``theta * volume * (1 - e^-epsilon)``.

    Returns
    -------
    (DiscreteMeasure, SampleReport)
    """
    theta = _require_theta(theta)
    epsilon = float(epsilon)
    if not (math.isfinite(epsilon) and 0.0 < epsilon < 1.0):
        raise InvalidEpsilon(f"epsilon must lie strictly in (0, 1), got {epsilon!r}")
    seed = _require_seed(seed)
    vol = _require_sampling_window(lam)

    e1_eps = exp_integral_e1(epsilon)
    mean = _require_finite(theta * vol * e1_eps, "mean atom count")
    n = _poisson_draw(substream(seed, _STREAM_COUNT), mean)
    u = _uniforms_open(substream(seed, _STREAM_MARKS), n)
    marks = _invert_e1((1.0 - u) * e1_eps)
    positions = _uniform_positions(substream(seed, _STREAM_POSITIONS), n, lam)

    gamma = Configuration._canonical(marks, positions)
    if len(gamma) != n:
        raise RuntimeError("bitwise atom collision in sampler output")
    eta = reflect(to_plato(gamma))
    report = SampleReport(
        seed=seed,
        epsilon=epsilon,
        expected_discarded_mass=theta * vol * (-math.expm1(-epsilon)),
        atom_count=len(eta),
    )
    return eta, report


def sample_gamma_ordered(theta: float, lam: Window, n_jumps: int, seed: int):
    """Draw a Gamma random measure from its largest-jumps-first representation.

    The k-th largest mark is ``T^-1(A_k)`` where ``T(s) = theta * volume *
    E1(s)`` is the mean number of atoms above s and ``A_1 < A_2 < ...``
    are unit-rate Poisson arrivals; marks come out strictly decreasing.
    Positions are uniform in the window.  The report's discarded mass is
    the residual tail expectation given the realized smallest jump.

    Returns
    -------
    (DiscreteMeasure, SampleReport)
    """
    theta = _require_theta(theta)
    if isinstance(n_jumps, bool) or not isinstance(n_jumps, (int, np.integer)) or n_jumps < 1:
        raise InvalidArgument(f"n_jumps must be a positive integer, got {n_jumps!r}")
    seed = _require_seed(seed)
    vol = _require_sampling_window(lam)

    u = _uniforms_open(substream(seed, _STREAM_MARKS), int(n_jumps))
    arrivals = np.cumsum(-np.log1p(-u))
    marks = _invert_e1(arrivals / _require_finite(theta * vol, "expected window mass"))
    if np.any(np.diff(marks) >= 0.0):
        raise RuntimeError("ordered jumps failed to decrease strictly")
    positions = _uniform_positions(substream(seed, _STREAM_POSITIONS), int(n_jumps), lam)

    gamma = Configuration._canonical(marks, positions)
    if len(gamma) != int(n_jumps):
        raise RuntimeError("bitwise atom collision in sampler output")
    eta = reflect(to_plato(gamma))
    report = SampleReport(
        seed=seed,
        epsilon=None,
        expected_discarded_mass=theta * vol * (-math.expm1(-float(marks[-1]))),
        atom_count=len(eta),
    )
    return eta, report


def expected_truncation_error(theta: float, volume: float, epsilon: float) -> float:
    """Expected mass discarded by a mark threshold: theta * volume * (1 - e^-epsilon).

    The first moment of the atom intensity below the threshold; bounded
    above by ``theta * volume * epsilon``.
    """
    theta = _require_theta(theta)
    volume = float(volume)
    epsilon = float(epsilon)
    if not (math.isfinite(volume) and volume > 0.0):
        raise InvalidArgument(f"volume must be a positive finite real, got {volume!r}")
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise InvalidArgument(f"epsilon must be a positive finite real, got {epsilon!r}")
    return theta * volume * (-math.expm1(-epsilon))


def _require_theta(theta) -> float:
    t = float(theta)
    if not (math.isfinite(t) and t > 0.0):
        raise InvalidTheta(f"theta must be a positive finite real, got {theta!r}")
    return t
