"""Distribution oracles and test statistics against closed forms and scipy."""

import math

import numpy as np
import pytest
from scipy.special import exp1, gammainc

from platocone import (
    DegenerateTable,
    EmpiricalSample,
    InvalidArgument,
    chi_square_independence,
    exp_integral_e1,
    gamma_cdf,
    ks_statistic,
)
from platocone import stats
from platocone.stats import e1_array


def test_e1_reference_values():
    assert abs(exp_integral_e1(1.0) - 0.21938393439552026) <= 1e-14
    assert abs(exp_integral_e1(1e-6) - 13.2383) <= 1e-4
    assert exp_integral_e1(0.5) > exp_integral_e1(1.0)


def test_e1_against_scipy_to_1e14():
    grid = np.concatenate(
        [
            np.logspace(-8, -0.0001, 400),
            np.linspace(1.0, 50.0, 400),
            [0.999999999999, 1.0, 1.000000000001],
        ]
    )
    assert np.max(np.abs(e1_array(grid) - exp1(grid))) <= 1e-14


def ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def test_exp_kernel_is_within_one_ulp_of_libm():
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.uniform(-708.0, 709.0, 20000), rng.uniform(-1.0, 1.0, 20000), [0.0, -1e-300]])
    want = np.array([math.exp(v) for v in x.tolist()])
    assert ulps(stats._exp(x), want).max() <= 1.0
    assert stats._exp(np.array([0.0]))[0] == 1.0
    # subnormal results are within one subnormal step; far below, 0.0
    tiny = np.array([-709.5, -730.0, -744.0])
    assert np.all(np.abs(stats._exp(tiny) - [math.exp(v) for v in tiny]) <= 5e-324)
    assert np.all(stats._exp(np.array([-746.0, -1e300])) == 0.0)


def test_log_kernel_is_within_two_ulp_of_libm():
    rng = np.random.default_rng(8)
    x = np.concatenate(
        [np.exp(rng.uniform(-744.0, 709.0, 20000)), rng.uniform(0.5, 2.0, 20000), [5e-324, 1e-310, 2.0, 1.7e308]]
    )
    want = np.array([math.log(v) for v in x.tolist()])
    err = ulps(stats._log(x), want)
    assert err.max() <= 2.0
    # away from 1 the large part k ln 2 is added last, which keeps 1 ulp
    assert err[np.abs(want) > 1.0].max() <= 1.0
    assert stats._log(np.array([1.0]))[0] == 0.0


def test_kernels_give_a_scalar_the_bits_it_has_in_an_array():
    x = np.array([-700.0, -3.25, 0.1, 1.0, 12.5])
    assert [float(stats._exp(v)) for v in x.tolist()] == stats._exp(x).tolist()
    y = np.array([1e-300, 0.3, 1.0, 7.0, 1e300])
    assert [float(stats._log(v)) for v in y.tolist()] == stats._log(y).tolist()


def test_e1_array_element_bits_do_not_depend_on_the_batch():
    s = np.array([684.0, 50.0, 3.0] + [1.0] * 8 + [0.5, 1e-8])
    alone = [e1_array(np.array([v]))[0] for v in s]
    assert e1_array(s).tobytes() == np.array(alone).tobytes()
    assert [exp_integral_e1(v) for v in s] == alone


def test_e1_bracket_inequality():
    for s in np.logspace(-8, math.log10(50.0), 300):
        upper = math.exp(-s) * math.log1p(1.0 / s)
        value = exp_integral_e1(float(s))
        assert upper / 2 < value < upper


def test_e1_rejects_bad_arguments():
    for bad in [0.0, -1.0, float("nan"), float("inf")]:
        with pytest.raises(InvalidArgument):
            exp_integral_e1(bad)


def test_gamma_cdf_closed_forms():
    assert abs(gamma_cdf(1.0, 1.0, 1.0) - (1.0 - math.exp(-1.0))) <= 1e-12
    assert gamma_cdf(3.7, 2.0, 0.0) == 0.0
    assert abs(gamma_cdf(2.0, 1.0, 2.0) - (1.0 - 3.0 * math.exp(-2.0))) <= 1e-12


def test_gamma_cdf_matches_erlang_closed_form():
    # integer shapes: P(k, x) = 1 - e^-x sum_{j<k} x^j / j!
    for k in range(1, 6):
        for x in np.linspace(0.01, 20.0, 100):
            tail = math.exp(-x) * sum(x**j / math.factorial(j) for j in range(k))
            assert abs(gamma_cdf(k, 1.0, float(x)) - (1.0 - tail)) <= 1e-10


def test_gamma_cdf_monotone_and_bounded():
    xs = np.linspace(0.0, 30.0, 500)
    vals = [gamma_cdf(1.3, 0.7, float(x)) for x in xs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)
    # strictly below 1 wherever the survival mass is representable
    assert all(v < 1.0 for x, v in zip(xs, vals) if x <= 15.0)


def test_gamma_cdf_where_x_over_scale_underflows_or_overflows():
    # x / scale underflows to 0.0: ln t = ln x - ln scale, and for a small
    # shape P(a, t) ~ t^a / Gamma(a + 1) is far from 0
    assert gamma_cdf(2.0, 1e308, 1e-308) == 0.0
    assert gamma_cdf(2.0, 1e300, 5e-324) == 0.0
    log_t = math.log(1e-308) - math.log(1e308)
    expected = math.exp(1e-3 * log_t - math.lgamma(1.001))
    assert abs(gamma_cdf(1e-3, 1e308, 1e-308) / expected - 1.0) <= 1e-12
    assert 0.2422 < expected < 0.2423
    # x / scale overflows to inf
    assert gamma_cdf(1.0, 1e-308, 1e308) == 1.0
    assert gamma_cdf(1e300, 1e-300, 1e300) == 1.0


def test_gamma_cdf_against_scipy():
    rng = np.random.default_rng(400)
    for _ in range(300):
        shape = float(rng.uniform(0.1, 8.0))
        scale = float(rng.uniform(0.2, 3.0))
        x = float(rng.uniform(0.0, 25.0))
        assert abs(gamma_cdf(shape, scale, x) - gammainc(shape, x / scale)) <= 1e-10


def test_ks_statistic_single_point_at_median():
    sample = EmpiricalSample((0.0,))
    assert ks_statistic(sample, lambda x: 0.5) == 0.5


def test_ks_statistic_quantile_grid_is_small():
    n = 200
    cdf = lambda x: min(max(x, 0.0), 1.0)
    sample = EmpiricalSample(tuple(k / (n + 1) for k in range(1, n + 1)))
    assert ks_statistic(sample, cdf) <= 1.0 / (n + 1) + 1.0 / n


def test_ks_statistic_degenerate_sample():
    sample = EmpiricalSample((0.0,) * 50)
    assert ks_statistic(sample, lambda x: 0.0) == 1.0


def test_ks_invariance_under_increasing_transform():
    rng = np.random.default_rng(401)
    values = tuple(float(v) for v in rng.uniform(0.0, 1.0, 100))
    cdf = lambda x: min(max(x, 0.0), 1.0)
    direct = ks_statistic(EmpiricalSample(values), cdf)
    transformed = ks_statistic(
        EmpiricalSample(tuple(math.exp(v) for v in values)),
        lambda y: cdf(math.log(y)),
    )
    assert abs(direct - transformed) <= 1e-12


def test_empirical_sample_validation():
    with pytest.raises(InvalidArgument):
        EmpiricalSample(())
    with pytest.raises(InvalidArgument):
        EmpiricalSample((1.0, float("nan")))


def test_chi_square_proportional_table_is_zero():
    result = chi_square_independence([[10.0, 20.0], [30.0, 60.0]])
    assert abs(result.statistic) <= 1e-12
    assert result.dof == 1


def test_chi_square_diagonal_table():
    result = chi_square_independence([[10, 0], [0, 10]])
    assert abs(result.statistic - 20.0) <= 1e-12
    assert result.dof == 1


def test_chi_square_poisson_table_near_dof_mean():
    rng = np.random.default_rng(402)
    table = rng.poisson(40.0, size=(5, 5))
    result = chi_square_independence(table)
    assert result.dof == 16
    # mean of a chi-square with 16 dof is 16, std is sqrt(32)
    assert abs(result.statistic - 16.0) <= 3.0 * math.sqrt(32.0)


def test_chi_square_degenerate_tables():
    with pytest.raises(DegenerateTable):
        chi_square_independence([[0, 0], [1, 2]])
    with pytest.raises(DegenerateTable):
        chi_square_independence([[1, 2]])
    with pytest.raises(DegenerateTable):
        chi_square_independence([[1, -2], [3, 4]])


# The two continued-fraction loops as they stood before they became one
# (stats._lentz), copied verbatim; the shared loop must keep their bits.
# E1's factor e^-s has since moved from math.exp to stats._exp.
_LENTZ_TINY = 1e-300
_LENTZ_EPS = 1e-16
_MAX_CF_ITER = 300


def _e1_cf_two_loops(s):
    b = s + 1.0
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_ITER + 1):
        a = -float(i * i)
        b += 2.0
        den = a * d + b
        if abs(den) < _LENTZ_TINY:
            den = _LENTZ_TINY
        d = 1.0 / den
        c = b + a / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            break
    return h * stats._exp(-s)


def _gamma_cdf_two_loops(shape, scale, x):
    log_gamma = math.lgamma(shape)
    t = x / scale
    log_prefactor = -t + shape * math.log(t) - log_gamma
    if t < shape + 1.0:
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
    b = t + 1.0 - shape
    c = 1.0 / _LENTZ_TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_CF_ITER + 1):
        an = -i * (i - shape)
        b += 2.0
        d = an * d + b
        if abs(d) < _LENTZ_TINY:
            d = _LENTZ_TINY
        c = b + an / c
        if abs(c) < _LENTZ_TINY:
            c = _LENTZ_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _LENTZ_EPS:
            break
    q = math.exp(log_prefactor) * h
    return 1.0 - q


def test_one_lentz_loop_keeps_the_bits_of_the_two():
    rng = np.random.default_rng(20261019)
    s_values = np.concatenate(
        [
            [1.0, math.nextafter(1.0, 2.0), 2.0, 50.0, 700.0],
            np.logspace(0.0, math.log10(700.0), 2000),
            np.exp(rng.uniform(0.0, math.log(700.0), 8000)),
        ]
    ).tolist()
    assert len(s_values) >= 10**4
    for s in s_values:
        assert stats._e1_cf_scalar(s) == _e1_cf_two_loops(s), s

    n = 12000
    shapes = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    scales = np.exp(rng.uniform(math.log(0.1), math.log(10.0), n))
    # t = x / scale at or above shape + 1 runs the continued fraction: 10^4
    # of the arguments, and the series branch the rest
    ratios = np.exp(np.concatenate([rng.uniform(0.0, math.log(30.0), 10**4),
                                    rng.uniform(math.log(0.05), 0.0, n - 10**4)]))
    xs = (shapes + 1.0) * ratios * scales
    for shape, scale, x in zip(shapes.tolist(), scales.tolist(), xs.tolist()):
        assert gamma_cdf(shape, scale, x) == _gamma_cdf_two_loops(shape, scale, x), (shape, scale, x)
