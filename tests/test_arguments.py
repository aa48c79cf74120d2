"""Bad scalar arguments: every public entry point raises its own
``PlatoconeError`` subclass, never a raw ``TypeError`` or ``ValueError``.

Each case names one argument, the call that takes it, the class the
call raises for a bad value of the right type (a negative theta, a zero
seed count, ...) and the probes: None, a non-numeric string, NaN and
the infinities where a finite value is required; integer arguments also
get a fraction and a numeric string.  Window arguments get objects that
are not a ``Window``.
"""

import json
import math

import pytest

from platocone import (
    Configuration,
    DegenerateTable,
    DimensionMismatch,
    EmpiricalSample,
    FiniteProduct,
    InvalidArgument,
    InvalidEpsilon,
    InvalidTheta,
    JsonlFormatError,
    MarkedPoint,
    NonPositiveMark,
    NonPositiveWeight,
    PlatoconeError,
    TestFamily,
    TestFunction,
    Window,
    check_convergence,
    chi_square_independence,
    count_in_window,
    exp_integral_e1,
    expected_truncation_error,
    gamma_cdf,
    hat_family,
    hat_function,
    jsonl,
    linear_combination,
    make_configuration,
    make_measure,
    mass_in_window,
    merging_family,
    merging_limit,
    merging_sequence,
    restrict,
    sample_gamma,
    sample_gamma_ordered,
    sample_poisson,
    weight_at,
    zero_measure,
)

UNIT = Window((0.0,), (1.0,))
HAT = hat_function((0.5,), 0.5, mark_center=1.0, mark_half_width=1.0)
MEASURE = make_measure([(1.0, (0.5,))], 1)
GAMMA = make_configuration([(1.0, (0.5,))], 1)
DENSITY = TestFunction(lambda x: 1.0, UNIT, None, "space")
SPEC = FiniteProduct(DENSITY)

NOT_REAL = [None, "x"]
REAL = NOT_REAL + [math.nan]  # a real number, infinities allowed
FINITE = REAL + [math.inf, -math.inf]  # a finite (and often positive) real
INTEGER = NOT_REAL + [2.7, "3", math.nan, math.inf]
NOT_WINDOW = NOT_REAL + [(0.0, 1.0), 1.0]


def _header(d):
    return jsonl.parse('{"d":%s,"kind":"measure"}\n' % json.dumps(d))


def _scan(tol, n_max):
    return check_convergence(lambda n: GAMMA, GAMMA, TestFamily((HAT,)), tol, n_max)


CASES = {
    # configuration
    "MarkedPoint mark": (lambda v: MarkedPoint(v, (0.0,)), NonPositiveMark, FINITE),
    "MarkedPoint coordinate": (lambda v: MarkedPoint(1.0, (v,)), InvalidArgument, FINITE),
    "Window bound": (lambda v: Window((v,), (1.0,)), InvalidArgument, REAL + [math.inf]),
    "Window mark interval": (lambda v: Window((0.0,), (1.0,), (v, 2.0)), InvalidArgument, FINITE),
    "TestFunction lipschitz": (lambda v: TestFunction(lambda s, x: 1.0, UNIT, v), InvalidArgument, FINITE[1:]),
    # a non-finite row would read as outside the support and give 0.0
    "TestFunction.evaluate": (lambda v: HAT.evaluate([1.0], [[v]]), InvalidArgument, FINITE),
    "TestFunction.evaluate mark": (lambda v: HAT.evaluate([v], [[0.5]]), InvalidArgument, FINITE),
    "linear_combination coefficient": (lambda v: linear_combination([(v, HAT)]), InvalidArgument, NOT_REAL),
    "make_configuration mark": (lambda v: make_configuration([(v, (0.5,))], 1), NonPositiveMark, FINITE),
    "make_configuration coordinate": (lambda v: make_configuration([(1.0, (v,))], 1), InvalidArgument, FINITE),
    "Configuration marks": (lambda v: Configuration([v], [[0.5]]), NonPositiveMark, FINITE),
    "make_configuration d": (lambda v: make_configuration([], v), InvalidArgument, INTEGER + [0]),
    # with points, a d that is not their length is a dimension mismatch
    "make_configuration d with points": (lambda v: make_configuration([(1.0, (0.5,))], v), DimensionMismatch, INTEGER),
    "count_in_window window": (lambda v: count_in_window(GAMMA, v), InvalidArgument, NOT_WINDOW),
    "restrict window": (lambda v: restrict(GAMMA, v), InvalidArgument, NOT_WINDOW),
    # cone
    "mass_in_window window": (lambda v: mass_in_window(MEASURE, v), InvalidArgument, NOT_WINDOW),
    "make_measure weight": (lambda v: make_measure([(v, (0.5,))], 1), NonPositiveWeight, FINITE),
    "make_measure coordinate": (lambda v: make_measure([(1.0, (v,))], 1), InvalidArgument, FINITE),
    "make_measure d": (lambda v: make_measure([], v), InvalidArgument, INTEGER + [0]),
    "make_measure d with points": (lambda v: make_measure([(1.0, (0.5,))], v), DimensionMismatch, INTEGER),
    "zero_measure d": (zero_measure, InvalidArgument, INTEGER + [0, -1]),
    "DiscreteMeasure.scaled": (lambda v: MEASURE.scaled(v), InvalidArgument, FINITE),
    "weight_at": (lambda v: weight_at(MEASURE, (v,)), InvalidArgument, FINITE),
    # sampling
    "FiniteProduct spatial_rate": (lambda v: FiniteProduct(DENSITY, v), InvalidArgument, FINITE),
    "sample_gamma theta": (lambda v: sample_gamma(v, UNIT, 0.5, 0), InvalidTheta, FINITE),
    "sample_gamma epsilon": (lambda v: sample_gamma(1.0, UNIT, v, 0), InvalidEpsilon, FINITE),
    "sample_gamma seed": (lambda v: sample_gamma(1.0, UNIT, 0.5, v), InvalidArgument, INTEGER),
    "sample_gamma window": (lambda v: sample_gamma(1.0, v, 1e-8, 0), InvalidArgument, NOT_WINDOW),
    "sample_gamma_ordered window": (lambda v: sample_gamma_ordered(1.0, v, 3, 0), InvalidArgument, NOT_WINDOW),
    "sample_poisson window": (lambda v: sample_poisson(SPEC, v, 0), InvalidArgument, NOT_WINDOW),
    "sample_gamma_ordered theta": (lambda v: sample_gamma_ordered(v, UNIT, 3, 0), InvalidTheta, FINITE),
    # 10**400 is past the double range, where float(n_jumps) overflows
    "sample_gamma_ordered n_jumps": (
        lambda v: sample_gamma_ordered(1.0, UNIT, v, 0), InvalidArgument, INTEGER + [10**400]
    ),
    "sample_poisson seed": (lambda v: sample_poisson(SPEC, UNIT, v), InvalidArgument, INTEGER),
    "expected_truncation_error theta": (lambda v: expected_truncation_error(v, 1.0, 0.5), InvalidTheta, FINITE),
    "expected_truncation_error volume": (lambda v: expected_truncation_error(1.0, v, 0.5), InvalidArgument, FINITE),
    "expected_truncation_error epsilon": (lambda v: expected_truncation_error(1.0, 1.0, v), InvalidArgument, FINITE),
    # stats
    "exp_integral_e1": (exp_integral_e1, InvalidArgument, FINITE),
    "gamma_cdf shape": (lambda v: gamma_cdf(v, 1.0, 1.0), InvalidArgument, FINITE),
    "gamma_cdf scale": (lambda v: gamma_cdf(1.0, v, 1.0), InvalidArgument, FINITE),
    "gamma_cdf x": (lambda v: gamma_cdf(1.0, 1.0, v), InvalidArgument, FINITE),
    "EmpiricalSample value": (lambda v: EmpiricalSample((1.0, v)), InvalidArgument, FINITE),
    "chi_square_independence cell": (
        lambda v: chi_square_independence([[1.0, v], [1.0, 1.0]]), DegenerateTable, FINITE
    ),
    # topology
    "TestFamily weight": (lambda v: TestFamily((HAT,), (v,)), InvalidArgument, FINITE),
    "merging_sequence mark": (lambda v: merging_sequence((0.0,), v, 2.0, 3), NonPositiveMark, FINITE),
    "merging_sequence n": (lambda v: merging_sequence((0.0,), 1.0, 2.0, v), InvalidArgument, INTEGER),
    "merging_sequence x0": (lambda v: merging_sequence((v,), 1.0, 2.0, 3), InvalidArgument, FINITE),
    "merging_limit mark": (lambda v: merging_limit((0.0,), 1.0, v), NonPositiveMark, FINITE),
    "merging_family mark": (lambda v: merging_family((0.0,), v, 2.0), InvalidArgument, FINITE),
    "check_convergence tol": (lambda v: _scan(v, 3), InvalidArgument, FINITE),
    "check_convergence n_max": (lambda v: _scan(0.1, v), InvalidArgument, INTEGER),
    "hat_function center": (lambda v: hat_function((v,), 0.5), InvalidArgument, FINITE),
    "hat_function half_width": (lambda v: hat_function((0.5,), v), InvalidArgument, FINITE),
    "hat_function mark_center": (lambda v: hat_function((0.5,), 0.5, mark_center=v), InvalidArgument, FINITE[1:]),
    "hat_function mark_half_width": (
        lambda v: hat_function((0.5,), 0.5, mark_center=1.0, mark_half_width=v), InvalidArgument, FINITE[1:]
    ),
    "hat_family grid_shape": (lambda v: hat_family(UNIT, (v,), (0.0, 1.0)), InvalidArgument, INTEGER),
    "hat_family mark_interval": (lambda v: hat_family(UNIT, (2,), (0.0, v)), InvalidArgument, FINITE),
    "hat_family mark_cells": (lambda v: hat_family(UNIT, (2,), (0.0, 1.0), v), InvalidArgument, INTEGER),
    # jsonl
    "jsonl header d": (_header, JsonlFormatError, INTEGER),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_scalar_arguments_raise_the_class_of_their_argument(case):
    call, error, probes = CASES[case]
    for value in probes:
        with pytest.raises(PlatoconeError) as info:
            call(value)
        assert type(info.value) is error, (value, info.value)
