"""Distribution oracles and test statistics for the verification harness.

The special functions here are self-contained double-precision
implementations (no special-function library behind them), so they can
serve as independent oracles for the samplers:

* ``exp_integral_e1`` evaluates E1(s) = integral of t^-1 e^-t over (s, inf)
  by the alternating power series for s < 1 and by the modified Lentz
  continued fraction for s >= 1.  Absolute error is below 1e-14 over the
  range exercised by the samplers.
* ``_exp`` and ``_log``, the samplers' ``exp`` and ``log``, use only
  ``+ - * /``, ``rint``, ``frexp`` and ``ldexp``, whose IEEE results are
  exact or correctly rounded, so their bits do not depend on numpy's CPU
  dispatch.
* ``gamma_cdf`` evaluates the regularized lower incomplete gamma function
  by the classic series / continued-fraction pair, switching at
  x/scale = shape + 1.  Absolute error is below 1e-10.

The test statistics (Kolmogorov-Smirnov sup distance, Pearson chi-square
for a two-way table) are computed against explicit thresholds rather than
p-values: acceptance runs use fixed seeds, so hard thresholds keep the
whole harness deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateTable, InvalidArgument, _positive, _real, _reals

# Euler-Mascheroni constant, correctly rounded double
_EULER_GAMMA = 0.5772156649015329

_E1_SERIES_TERMS = 30  # term 30 is below 1e-33 for s < 1
_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-16
_MAX_CF_ITER = 300

# Horner coefficients (highest power first) of sum_{k=1..K} (-1)^{k+1} s^k / (k k!)
_E1_SERIES_COEFFS = np.array(
    [
        (-1.0) ** (k + 1) / (k * math.factorial(k))
        for k in range(_E1_SERIES_TERMS, 0, -1)
    ]
    + [0.0]
)

# fdlibm's ln 2 = _LN2_HI + _LN2_LO: k * _LN2_HI is exact for |k| < 2**20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.44269504088896338700e00
_SQRT_HALF = 0.7071067811865476
# Taylor terms r^k / k! to k = 13: the rest is below 4e-18 for |r| <= ln(2) / 2
_EXP_COEFFS = [1.0 / math.factorial(k) for k in range(13, -1, -1)]
# (atanh(f) - f) / f^3 to f^16 / 19: the rest is below 3e-17 of atanh(f) for |f| < 0.172
_ATANH_COEFFS = [1.0 / (2 * k + 1) for k in range(9, 0, -1)]


@dataclass(frozen=True)
class EmpiricalSample:
    """A finite batch of real observations plus a note on its provenance."""

    values: tuple
    seed_range: str = ""

    def __post_init__(self):
        vals = tuple(_real(v, "empirical sample value") for v in self.values)
        if not vals:
            raise InvalidArgument("empirical sample must be nonempty")
        if not all(math.isfinite(v) for v in vals):
            raise InvalidArgument("empirical sample values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)


def _horner(coeffs, x):
    """The polynomial with ``coeffs`` (highest power first) at ``x``, elementwise."""
    p = coeffs[0] * x + coeffs[1]
    for c in coeffs[2:]:
        p *= x
        p += c
    return p


def _exp(x):
    """e^x elementwise for x <= 709, within 1 ulp; 0.0 below about -745.

    Cody-Waite: x = k ln 2 + r with k = rint(x / ln 2), |r| <= ln(2) / 2,
    then ``ldexp(e^r, k)`` with e^r by its Taylor polynomial.
    """
    x = np.maximum(x, -1100.0)
    k = np.rint(x * _INV_LN2)
    r = (x - k * _LN2_HI) - k * _LN2_LO
    return np.ldexp(_horner(_EXP_COEFFS, r), k.astype(int))


def _log(x):
    """ln x elementwise for positive finite x: within 2 ulp, 1 ulp if |ln x| > 1.

    x = m 2^k with m in [sqrt(1/2), sqrt(2)), and ln x = k ln 2 + 2
    atanh(f), f = (m - 1) / (m + 1), by its odd series; k ln 2 is added last.
    """
    m, k = np.frexp(x)
    low = m < _SQRT_HALF
    m = np.where(low, m + m, m)
    k = k - low
    f = (m - 1.0) / (m + 1.0)
    z = f * f
    atanh = f + f * z * _horner(_ATANH_COEFFS, z)
    return k * _LN2_HI + (k * _LN2_LO + 2.0 * atanh)


def _e1_series(s: np.ndarray) -> np.ndarray:
    # E1(s) = -gamma - ln s + sum_{k>=1} (-1)^{k+1} s^k / (k * k!), s < 1
    return -_EULER_GAMMA - _log(s) + _horner(_E1_SERIES_COEFFS, s)


def _lentz(t: float, shape: float) -> float:
    # e^t t^-shape Gamma(shape, t) = 1 / (t + 1 - shape - 1 (1 - shape) /
    # (t + 3 - shape - 2 (2 - shape) / (...))) by the modified Lentz
    # algorithm; shape 0 gives e^t E1(t)
    b = t + 1.0 - shape
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_ITER + 1):
        a = -i * (i - shape)
        b += 2.0
        d = a * d + b
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        d = 1.0 / d
        c = b + a / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            break
    return h


def _e1_cf_scalar(s: float) -> float:
    # E1(s) for s >= 1 by the continued fraction
    return float(_lentz(s, 0.0) * _exp(-s))


def e1_array(s: np.ndarray) -> np.ndarray:
    """E1 on an array of positive arguments; branches at s = 1.

    The series below 1 is vectorized; above 1 each element runs its own
    continued fraction.  Either way an element's value is the value it has
    alone, bit for bit.
    """
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = s < 1.0
    if np.any(small):
        out[small] = _e1_series(s[small])
    if not np.all(small):
        # one scalar Lentz loop per element, so each value's bits do not
        # depend on the rest of the batch
        big = ~small
        out[big] = [_lentz(v, 0.0) for v in s[big].tolist()] * _exp(-s[big])
    return out


def exp_integral_e1(s: float) -> float:
    """The exponential integral E1(s) for s > 0.

    Power series below 1, continued fraction above; absolute error below
    1e-14 on the tested range [1e-8, 50].  E1 is strictly decreasing and
    satisfies ``e^-s * ln(1 + 1/s) / 2 < E1(s) < e^-s * ln(1 + 1/s)``.
    """
    return float(e1_array(np.array([_positive(s, "exp_integral_e1 argument s")]))[0])


def gamma_cdf(shape: float, scale: float, x: float) -> float:
    """Regularized lower incomplete gamma: P(X <= x) for X ~ Gamma(shape, scale).

    Series expansion for x/scale < shape + 1, continued fraction for the
    complement otherwise; both terminate at relative 1e-16 per step, for
    an absolute error below 1e-10.
    """
    shape = _positive(shape, "gamma_cdf shape")
    scale = _positive(scale, "gamma_cdf scale")
    x = _real(x, "gamma_cdf x")
    if not 0.0 <= x < math.inf:
        raise InvalidArgument(f"gamma_cdf requires x >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    try:
        log_gamma = math.lgamma(shape)
    except OverflowError:
        raise InvalidArgument(f"gamma_cdf shape {shape!r} is too large: ln Gamma(shape) overflows") from None
    t = x / scale
    log_prefactor = -t + shape * math.log(t) - log_gamma
    if t < shape + 1.0:
        # series: P(a, t) = t^a e^-t / Gamma(a) * sum_n t^n / (a (a+1) ... (a+n))
        ap = shape
        delta = 1.0 / shape
        total = delta
        for _ in range(_MAX_CF_ITER):
            ap += 1.0
            delta *= t / ap
            total += delta
            if abs(delta) < abs(total) * _LENTZ_EPS:
                break
        return total * math.exp(log_prefactor)
    # continued fraction for Q(a, t), then P = 1 - Q
    return 1.0 - math.exp(log_prefactor) * _lentz(t, shape)


def ks_statistic(sample: EmpiricalSample, cdf: Callable[[float], float]) -> float:
    """Kolmogorov-Smirnov sup distance between the empirical CDF and ``cdf``.

    Evaluated at the sorted sample points with both one-sided gaps, which
    is exact for the sup over the whole line.
    """
    xs = sorted(sample.values)
    n = len(xs)
    d = 0.0
    for i, x in enumerate(xs):
        f = float(cdf(x))
        d = max(d, (i + 1) / n - f, f - i / n)
    return d


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int


def chi_square_independence(counts) -> ChiSquareResult:
    """Pearson chi-square statistic for independence in a two-way table.

    ``counts`` is an r-by-c array of nonnegative cell counts with r, c >= 2.
    Expected counts are the usual margin products over the grand total;
    degrees of freedom are (r - 1)(c - 1).

    Raises
    ------
    DegenerateTable
        On negative cells, an empty row or column, or a margin with fewer
        than two categories.
    """
    table = _reals(counts, "cell counts", DegenerateTable)
    if table.ndim != 2 or table.shape[0] < 2 or table.shape[1] < 2:
        raise DegenerateTable(f"need an r x c table with r, c >= 2, got shape {table.shape}")
    if np.any(table < 0) or not np.all(np.isfinite(table)):
        raise DegenerateTable("cell counts must be finite and nonnegative")
    rows = table.sum(axis=1)
    cols = table.sum(axis=0)
    if np.any(rows == 0) or np.any(cols == 0):
        raise DegenerateTable("every row and column sum must be positive")
    total = table.sum()
    expected = np.outer(rows, cols) / total
    statistic = float(((table - expected) ** 2 / expected).sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    return ChiSquareResult(statistic, dof)
