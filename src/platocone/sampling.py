"""Seedable samplers for Poisson configurations and Gamma random measures.

The Gamma random measure has atom intensity ``theta * s^-1 * e^-s ds dx``:
infinitely many atoms in any window, almost all with tiny weights, with
total window mass distributed Gamma(theta * volume, 1).  Two samplers are
provided and cross-checked against each other:

* ``sample_gamma`` keeps every atom with mark above a threshold
  ``epsilon``.  The kept atoms form a Poisson process with mean count
  ``theta * volume * E1(epsilon)``; the discarded tail carries expected
  mass ``theta * volume * (1 - e^-epsilon)``, which the report states
  explicitly so truncation is always accounted for, never silent.  Its
  marks are drawn by rejection (Devroye, *Non-Uniform Random Variate
  Generation*, 1986, ch. II).
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
of the generator API.  The marks substream is one pool read by one
reader (see ``_rejection_marks``); nothing reads it after the marks, so
a sampler may draw past the last uniform it uses without moving a bit.
Marks take ``exp`` and ``log`` from ``stats._exp`` and ``stats._log``,
so their bits do not depend on the CPU.  The ordered sampler inverts E1 by
safeguarded Newton (bisection steps where Newton leaves the analytic
bracket) to relative tolerance 1e-12 on the mark; its report certifies
the run with the largest iteration count and the worst E1 residual, and
the threshold sampler's report counts its rejection rounds.  A mean atom
count (or ``n_jumps``) above 10^7 is refused.

The samplers share one tail: positions, the canonical build and the
report.  A draw whose atoms repeat one another bit for bit would merge
there, so every sampler refuses it with ``InvalidArgument``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .configuration import Configuration, TestFunction, Window
from .errors import (
    DegenerateWindow,
    InvalidArgument,
    InvalidEpsilon,
    InvalidTheta,
    NonIntegrableDensity,
    UnboundedWindow,
    _integer,
    _positive,
    _real,
)
from .plato import reflect, to_plato
from . import stats
from .stats import _EULER_GAMMA, exp_integral_e1

# The series and the continued fraction differ in the last bits at s = 1
# (the series is 4.4e-16 higher).  Splitting at the series value keeps
# the bracket of each branch valid for the E1 evaluation it uses.
_E1_SERIES_AT_ONE = float(stats._e1_series(np.array([1.0]))[0])

_STREAM_COUNT = 0
_STREAM_MARKS = 1
_STREAM_POSITIONS = 2

# version of the mark algorithm, carried by every report
_ALGORITHM = 3
# half the 1e-12 contract on s: an accepted iterate is off by about its
# Newton step, plus the rounding of s = e^m
_NEWTON_TOL = 5e-13
_NEWTON_MAX_ITER = 100
_POISSON_CHUNK_MEAN = 500.0
# the count draw takes about mean / 500 Python steps and every atom is
# an array row, so larger means are refused before any draw
_MAX_MEAN_COUNT = 10**7
_MARK_GRID_NODES = 2**14 + 1
# E1(s) = t has no positive double solution once t exceeds about 708
_MAX_E1_TARGET = 700.0
# below the smallest normal double E1 values lose precision
_MIN_E1_TARGET = sys.float_info.min


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
        object.__setattr__(self, "spatial_rate", _positive(self.spatial_rate, "spatial_rate"))
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
        values = fn.evaluate(None, grid[:, None])  # finite, or InvalidArgument
        if np.any(values < 0.0):
            raise NonIntegrableDensity("mark_density must be finite and nonnegative on its support")
        step = (hi - lo) / (_MARK_GRID_NODES - 1)
        cdf = np.concatenate([[0.0], np.cumsum((values[1:] + values[:-1]) * (step / 2.0))])
        return grid, cdf, _positive(cdf[-1], "mark_density mass", NonIntegrableDensity)

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

    The last four fields certify the numerics.  ``algorithm`` names the
    mark algorithm (1: E1 inversion by bisection, 2: by safeguarded
    Newton, 3: rejection in ``sample_gamma`` and Newton on
    ``stats._exp``/``_log`` in ``sample_gamma_ordered``).
    ``e1_iterations`` is the largest number of E1 evaluations any mark
    took, and ``e1_residual`` the worst ``|E1(s)/t - 1|`` over the
    returned marks; both are 0 when no E1 inversion ran.
    ``rejection_rounds`` counts the rounds of the rejection, 0 if none ran.
    """

    seed: int
    epsilon: float | None
    expected_discarded_mass: float
    atom_count: int
    algorithm: int
    e1_iterations: int
    e1_residual: float
    rejection_rounds: int

    def __post_init__(self):
        if self.expected_discarded_mass < 0.0:
            raise InvalidArgument("expected_discarded_mass must be nonnegative")
        if self.atom_count < 0:
            raise InvalidArgument("atom_count must be nonnegative")
        if self.e1_iterations < 0:
            raise InvalidArgument("e1_iterations must be nonnegative")
        if not self.e1_residual >= 0.0:
            raise InvalidArgument("e1_residual must be nonnegative")
        if self.rejection_rounds < 0:
            raise InvalidArgument("rejection_rounds must be nonnegative")


def substream(seed: int, index: int) -> np.random.Generator:
    """The PCG64 generator for one of the fixed per-seed substreams."""
    ss = np.random.SeedSequence(seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))


def _require_seed(seed) -> int:
    return _integer(seed, "seed", 0, 2**64)


def _require_sampling_window(lam: Window) -> float:
    if not isinstance(lam, Window):
        raise InvalidArgument(f"expected a Window, got {type(lam).__name__}")
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


def _require_count(count: float, what: str) -> float:
    _require_finite(count, what)
    if count > _MAX_MEAN_COUNT:
        raise InvalidArgument(f"{what} {count:.8g} exceeds the cap of {_MAX_MEAN_COUNT} atoms per sample")
    return count


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
    while not u.all():
        zero = u == 0.0
        u[zero] = rng.random(int(zero.sum()))
    return u


def _uniform_positions(rng: np.random.Generator, n: int, lam: Window) -> np.ndarray:
    """n positions uniform in the half-open box, clamped below the upper face."""
    lo = np.array(lam.lower)
    hi = np.array(lam.upper)
    x = lo + rng.random((n, lam.dimension)) * (hi - lo)
    return np.minimum(x, np.nextafter(hi, lo))


def _count(seed: int, mean: float) -> int:
    """The atom count of one seed: Poisson with the (capped) mean."""
    return _poisson_draw(substream(seed, _STREAM_COUNT), _require_count(mean, "mean atom count"))


def _build(
    seed: int, lam: Window, marks: np.ndarray, epsilon, discarded: float, iterations=0, residual=0.0, rounds=0
):
    """The tail every sampler shares: positions, the canonical build, the report."""
    n = marks.size
    gamma = Configuration._canonical(marks, _uniform_positions(substream(seed, _STREAM_POSITIONS), n, lam))
    if len(gamma) != n:  # the build merged atoms that repeat bit for bit
        raise InvalidArgument(
            f"seed {seed}: {n - len(gamma)} of the {n} atoms drawn repeat another bit for bit; "
            "the window is too narrow for the intensity"
        )
    return gamma, SampleReport(seed, epsilon, discarded, n, _ALGORITHM, iterations, residual, rounds)


def _newton_below_one(t: np.ndarray):
    # Roots in (0, 1], on m = ln s: g(m) = E1(e^m) - t = -gamma - m +
    # P(e^m) - t with g'(m) = -e^-s.  g is convex and decreasing, and
    # g = P(e^m) > 0 at the bracket's left end -gamma - t, so Newton from
    # there rises monotonically to the root; m = 0 closes the bracket
    # (E1(1) <= t).  E1 is evaluated as stats._e1_series at the double
    # s = e^m that is returned, so the residual belongs to that root.
    lo = -_EULER_GAMMA - t
    hi = np.zeros_like(t)
    m = lo.copy()
    roots = np.empty_like(t)
    values = np.empty_like(t)
    pending = np.arange(t.size)
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        s = stats._exp(m)
        e1 = stats._e1_series(s)
        g = e1 - t
        step = g * stats._exp(s)
        done = np.abs(step) <= _NEWTON_TOL
        if done.any():
            roots[pending[done]] = s[done]
            values[pending[done]] = e1[done]
            if done.all():
                return roots, values, iterations
            live = ~done
            pending, t, m, lo, hi, g, step = (v[live] for v in (pending, t, m, lo, hi, g, step))
        above = g > 0.0
        lo = np.where(above, m, lo)
        hi = np.where(above, hi, m)
        m = m + step
        outside = (m < lo) | (m > hi)
        if outside.any():
            m[outside] = 0.5 * (lo[outside] + hi[outside])
    raise RuntimeError("E1 inversion below 1 did not converge")


def _newton_above_one(t: float):
    # Root in [1, 1 - ln t]: E1(1) >= t and E1(s) < e^-s <= t/e at the
    # upper end.  Newton on f(s) = ln E1(s) - ln t with f'(s) = -1/(s h),
    # E1 = h e^-s; E1 is log-convex, so f is convex and decreasing.  Two
    # fixed-point steps of s = L - ln(1 + s), L = -ln t, from s = 1 end at
    # or left of the root of e^-s / (1 + s) = t, itself left of the root,
    # so the iterates rise monotonically.
    big_l = -float(stats._log(t))
    lo = 1.0
    hi = 1.0 + big_l
    s = 1.0
    for _ in range(2):
        s = big_l - float(stats._log(1.0 + s))
    s = min(max(s, lo), hi)
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        e1 = stats._e1_cf_scalar(s)
        ratio = e1 / t
        step = float(stats._log(ratio)) * s * (e1 * float(stats._exp(s)))
        if abs(step) <= _NEWTON_TOL:
            return s, e1, iterations
        if ratio > 1.0:
            lo = s
        else:
            hi = s
        s += step
        if not lo <= s <= hi:
            s = 0.5 * (lo + hi)
    raise RuntimeError("E1 inversion above 1 did not converge")


def _invert_e1(targets: np.ndarray):
    """Solve E1(s) = t elementwise for targets t in [2.2e-308, 700].

    Safeguarded Newton (a step that leaves the analytic bracket is
    replaced by a bisection step) to relative tolerance 1e-12 on s: an
    evaluated iterate is returned once its Newton step is at most 5e-13.
    The one caller, ``sample_gamma_ordered``, passes arrival times over
    theta * volume.  Roots below 1 (targets above E1(1) ~ 0.219) iterate
    as one vectorized loop on ln s against the power series, so the step
    bound is relative; roots at or above 1 iterate one by one in s
    against the continued fraction, where the absolute bound is the
    stricter one and keeps the E1 residual near 1e-12 even at s ~ 700.

    Returns ``(roots, iterations, residual)``: the largest number of E1
    evaluations any root took, and the worst ``|E1(s)/t - 1|`` over the
    returned roots, from the evaluation that accepted each root.
    """
    t = np.asarray(targets, dtype=float)
    if t.size == 0:
        return t.copy(), 0, 0.0
    if not np.all((t >= _MIN_E1_TARGET) & (t <= _MAX_E1_TARGET)):
        raise InvalidArgument(
            f"cannot invert E1 at targets outside [{_MIN_E1_TARGET}, {_MAX_E1_TARGET}]: "
            "jump sizes underflow above, E1 is subnormal below"
        )
    roots = np.empty_like(t)
    values = np.empty_like(t)
    iterations = 0
    small_root = t >= _E1_SERIES_AT_ONE
    if np.any(small_root):
        roots[small_root], values[small_root], iterations = _newton_below_one(t[small_root])
    for i in np.flatnonzero(~small_root):
        roots[i], values[i], k = _newton_above_one(float(t[i]))
        iterations = max(iterations, k)
    residual = float(np.max(np.abs(values / t - 1.0)))
    return roots, iterations, residual


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

    n = _count(seed, mass * spec.spatial_rate * vol)
    u = _uniforms_open(substream(seed, _STREAM_MARKS), n)
    return _build(seed, lam, _invert_mark_cdf(u, grid, cdf, mass), None, 0.0)


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


@lru_cache(maxsize=16)
def _e1_at(epsilon: float):
    """``(E1(epsilon), ln epsilon)``, computed once per truncation level."""
    return exp_integral_e1(epsilon), float(stats._log(epsilon))


def _rejection_marks(rng: np.random.Generator, n: int, epsilon: float):
    """n i.i.d. marks with density proportional to s^-1 e^-s on (epsilon, inf), and the rounds.

    Each mark picks its branch once, below 1 with probability
    ``(E1(epsilon) - E1(1)) / E1(epsilon)``.  Each round draws U, V for
    every mark still open: below 1 it proposes ``s = epsilon^(1 - U)``
    and accepts if ``ln V < epsilon - s``, at or above 1 it proposes
    ``s = 1 - ln U`` and accepts if ``V s < 1``.  One reader takes
    uniforms from one pool indexed by stream position: mark i's (branch,
    U, V) at ``3i .. 3i + 2``, then per round a (U, V) pair per open mark
    in index order; each pass gives every zero left the next unread
    uniform, as ``_uniforms_open`` does.  The pool keeps ``16 + n // 4``
    or more uniforms ahead, so one ``_exp`` and ``_log`` serve most calls.
    """
    if not n:
        return np.empty(0), 0
    e1_eps, ln_eps = _e1_at(epsilon)
    block = 16 + n // 4
    pool = np.concatenate((rng.random(3 * n), rng.random(block)))
    exps, logs = stats._exp((1.0 - pool) * ln_eps), stats._log(pool)
    read = 0

    def take(k):
        nonlocal pool, exps, logs, read
        at = np.arange(read, read + k)
        read += k
        while True:
            if read > pool.size:
                more = rng.random(max(block, read - pool.size))
                pool = np.concatenate((pool, more))
                exps = np.concatenate((exps, stats._exp((1.0 - more) * ln_eps)))
                logs = np.concatenate((logs, stats._log(more)))
            zero = pool[at] == 0.0
            if not zero.any():
                return at
            k = int(zero.sum())
            at[zero] = np.arange(read, read + k)
            read += k

    at = take(3 * n)
    below = pool[at[0::3]] * e1_eps >= _E1_SERIES_AT_ONE
    at_u, at_v = at[1::3], at[2::3]
    marks, live, rounds = np.empty(n), np.arange(n), 0
    while True:
        rounds += 1
        # one log for both branches: ln V decides below 1, ln U proposes above
        low = below[live]
        log_w = logs[np.where(low, at_v, at_u)]
        s = np.where(low, exps[at_u], 1.0 - log_w)
        accept = np.where(low, log_w < epsilon - s, pool[at_v] * s < 1.0)
        marks[live[accept]] = s[accept]
        live = live[~accept]
        if not live.size:
            return marks, rounds
        at = take(2 * live.size)
        at_u, at_v = at[0::2], at[1::2]


def sample_gamma(theta: float, lam: Window, epsilon: float, seed: int):
    """Draw a Gamma random measure, keeping atoms with mark above ``epsilon``.

    The kept atoms form a Poisson process on (epsilon, inf) x window with
    intensity ``theta * s^-1 e^-s ds dx``: the count is Poisson with mean
    ``theta * volume * E1(epsilon)`` and the marks are i.i.d. with density
    proportional to ``s^-1 e^-s`` there, drawn by rejection.  The
    configuration of (mark, position) points is validated as pinpointing
    and reflected to a measure.  The report carries the exact
    expected discarded mass ``theta * volume * (1 - e^-epsilon)``.

    Returns
    -------
    (DiscreteMeasure, SampleReport)
    """
    theta = _positive(theta, "theta", InvalidTheta)
    epsilon = _real(epsilon, "epsilon", InvalidEpsilon)
    if not 0.0 < epsilon < 1.0:
        raise InvalidEpsilon(f"epsilon must lie strictly in (0, 1), got {epsilon!r}")
    seed = _require_seed(seed)
    vol = _require_sampling_window(lam)

    n = _count(seed, theta * vol * _e1_at(epsilon)[0])
    marks, rounds = _rejection_marks(substream(seed, _STREAM_MARKS), n, epsilon)
    discarded = expected_truncation_error(theta, vol, epsilon)
    gamma, report = _build(seed, lam, marks, epsilon, discarded, rounds=rounds)
    return reflect(to_plato(gamma)), report


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
    theta = _positive(theta, "theta", InvalidTheta)
    n_jumps = _integer(n_jumps, "n_jumps", high=2**53)  # so float(n_jumps) is exact
    _require_count(float(n_jumps), "n_jumps")
    seed = _require_seed(seed)
    vol = _require_sampling_window(lam)

    u = _uniforms_open(substream(seed, _STREAM_MARKS), n_jumps)
    # -ln(1 - u), where 1 - u is exact: numpy's uniform doubles are multiples of 2^-53
    arrivals = np.cumsum(-stats._log(1.0 - u))
    marks, iterations, residual = _invert_e1(arrivals / _require_finite(theta * vol, "expected window mass"))
    if np.any(np.diff(marks) >= 0.0):
        raise RuntimeError("ordered jumps failed to decrease strictly")
    discarded = expected_truncation_error(theta, vol, float(marks[-1]))
    gamma, report = _build(seed, lam, marks, None, discarded, iterations, residual)
    return reflect(to_plato(gamma)), report


def expected_truncation_error(theta: float, volume: float, epsilon: float) -> float:
    """Expected mass discarded by a mark threshold: theta * volume * (1 - e^-epsilon).

    The first moment of the atom intensity below the threshold; bounded
    above by ``theta * volume * epsilon``.
    """
    theta = _positive(theta, "theta", InvalidTheta)
    volume = _positive(volume, "volume")
    epsilon = _positive(epsilon, "epsilon")
    return theta * volume * (-math.expm1(-epsilon))
