"""Samplers: determinism, parameter validation, laws and truncation accounting."""

import math

import numpy as np
import pytest

from platocone import (
    DegenerateWindow,
    FiniteProduct,
    InvalidArgument,
    InvalidEpsilon,
    InvalidTheta,
    NonIntegrableDensity,
    TestFunction,
    UnboundedWindow,
    Window,
    count_in_window,
    expected_truncation_error,
    exp_integral_e1,
    reflect_inverse,
    sample_gamma,
    sample_gamma_ordered,
    sample_poisson,
    to_plato,
)
from platocone.sampling import _poisson_draw, substream

UNIT = Window((0.0,), (1.0,))


def exp_mark_density(cut=40.0):
    return TestFunction(lambda x: math.exp(-x[0]), Window((0.0,), (cut,)), None, "space")


def test_sample_gamma_is_deterministic():
    a, ra = sample_gamma(1.0, UNIT, 1e-8, 42)
    b, rb = sample_gamma(1.0, UNIT, 1e-8, 42)
    assert a == b and ra == rb
    c, _ = sample_gamma(1.0, UNIT, 1e-8, 43)
    assert c != a


def test_sample_gamma_validation():
    with pytest.raises(InvalidTheta):
        sample_gamma(-1.0, UNIT, 1e-8, 0)
    with pytest.raises(InvalidEpsilon):
        sample_gamma(1.0, UNIT, 0.0, 0)
    with pytest.raises(InvalidEpsilon):
        sample_gamma(1.0, UNIT, 1.0, 0)
    with pytest.raises(UnboundedWindow):
        sample_gamma(1.0, Window((0.0,), (float("inf"),)), 1e-8, 0)
    with pytest.raises(DegenerateWindow):
        sample_gamma(1.0, Window((0.0,), (0.0,), allow_degenerate=True), 1e-8, 0)
    with pytest.raises(InvalidArgument):
        sample_gamma(1.0, UNIT, 1e-8, -3)


def test_sample_gamma_report_fields():
    eta, report = sample_gamma(1.0, UNIT, 0.01, 5)
    assert report.seed == 5
    assert report.epsilon == 0.01
    assert report.atom_count == len(eta)
    assert math.isclose(report.expected_discarded_mass, -math.expm1(-0.01), rel_tol=1e-12)


def test_sample_gamma_output_is_pinpointing():
    for seed in range(200):
        eta, report = sample_gamma(1.0, UNIT, 1e-4, seed)
        gamma = to_plato(reflect_inverse(eta).configuration)
        assert len(gamma) == report.atom_count
        assert all(w > 1e-4 * (1 - 1e-9) for _, w in eta.atoms)


def test_gamma_atom_count_matches_count_stream():
    # the atom count must come from the dedicated substream, independent
    # of how many mark/position draws are consumed
    mu = 1.0 * 1.0 * exp_integral_e1(1e-6)
    for seed in [0, 7, 123]:
        _, report = sample_gamma(1.0, UNIT, 1e-6, seed)
        assert report.atom_count == _poisson_draw(substream(seed, 0), mu)


def test_gamma_mean_count_short_run():
    mu = exp_integral_e1(1e-4)
    n = 400
    counts = [sample_gamma(1.0, UNIT, 1e-4, seed)[1].atom_count for seed in range(n)]
    assert abs(np.mean(counts) - mu) <= 3.0 * math.sqrt(mu / n)


def test_sample_gamma_ordered_marks_strictly_decrease():
    for seed in [0, 1, 99]:
        eta, report = sample_gamma_ordered(1.0, UNIT, 50, seed)
        weights = sorted((w for _, w in eta.atoms), reverse=True)
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert report.atom_count == 50
        assert report.epsilon is None
        assert report.expected_discarded_mass >= 0.0


def test_sample_gamma_ordered_validation():
    with pytest.raises(InvalidTheta):
        sample_gamma_ordered(0.0, UNIT, 10, 0)
    with pytest.raises(InvalidArgument):
        sample_gamma_ordered(1.0, UNIT, 0, 0)
    with pytest.raises(UnboundedWindow):
        sample_gamma_ordered(1.0, Window((0.0,), (float("inf"),)), 10, 0)


def test_cross_sampler_mean_agreement_short_run():
    n = 400
    masses_eps = [sample_gamma(1.0, UNIT, 1e-8, s)[0].total_mass() for s in range(n)]
    masses_ord = [sample_gamma_ordered(1.0, UNIT, 200, s)[0].total_mass() for s in range(n)]
    # both estimate a mean-1 exponential; 3 sigma of the difference of means
    assert abs(np.mean(masses_eps) - np.mean(masses_ord)) <= 3.0 * math.sqrt(2.0 / n)


def test_expected_truncation_error():
    assert expected_truncation_error(1.0, 1.0, 1e-12) <= 1e-12
    assert math.isclose(expected_truncation_error(1.0, 1.0, 0.01), 0.009950166250831947)
    assert math.isclose(expected_truncation_error(2.0, 3.0, 0.01), 6.0 * 0.009950166250831947)
    with pytest.raises(InvalidArgument):
        expected_truncation_error(1.0, 0.0, 0.01)
    with pytest.raises(InvalidTheta):
        expected_truncation_error(0.0, 1.0, 0.01)


def test_sample_poisson_deterministic_and_valid():
    spec = FiniteProduct(exp_mark_density())
    a, ra = sample_poisson(spec, UNIT, 42)
    b, rb = sample_poisson(spec, UNIT, 42)
    assert a == b and ra == rb
    assert ra.epsilon is None
    assert ra.expected_discarded_mass == 0.0
    assert ra.atom_count == len(a)


def test_sample_poisson_mark_mass():
    spec = FiniteProduct(exp_mark_density())
    assert abs(spec.total_mark_mass - 1.0) <= 1e-5


def test_sample_poisson_mean_count_short_run():
    spec = FiniteProduct(exp_mark_density())
    n = 2000
    counts = [sample_poisson(spec, UNIT, seed)[1].atom_count for seed in range(n)]
    assert abs(np.mean(counts) - 1.0) <= 3.0 / math.sqrt(n)


def test_sample_poisson_marks_follow_density():
    # mean mark of a unit exponential truncated to [0, 40) is 1
    spec = FiniteProduct(exp_mark_density())
    marks = []
    for seed in range(1500):
        gamma, _ = sample_poisson(spec, UNIT, seed)
        marks.extend(p.mark for p in gamma.points)
    assert abs(np.mean(marks) - 1.0) <= 3.0 / math.sqrt(len(marks))
    assert all(m > 0 for m in marks)


def test_sample_poisson_rejects_bad_inputs():
    spec = FiniteProduct(exp_mark_density())
    with pytest.raises(DegenerateWindow):
        sample_poisson(spec, Window((0.0,), (0.0,), allow_degenerate=True), 0)
    with pytest.raises(UnboundedWindow):
        sample_poisson(spec, Window((0.0,), (float("inf"),)), 0)
    with pytest.raises(InvalidArgument):
        sample_poisson(1.0, UNIT, 0)
    unbounded_density = TestFunction(
        lambda x: 1.0, Window((0.0,), (float("inf"),)), None, "space"
    )
    with pytest.raises(NonIntegrableDensity):
        FiniteProduct(unbounded_density).total_mark_mass
    negative_density = TestFunction(lambda x: -1.0, Window((0.0,), (1.0,)), None, "space")
    with pytest.raises(NonIntegrableDensity):
        FiniteProduct(negative_density).total_mark_mass


def test_poisson_draw_moments():
    rng = substream(12345, 0)
    for mean in [0.5, 4.0, 700.0, 1300.0]:
        draws = [_poisson_draw(rng, mean) for _ in range(3000)]
        assert abs(np.mean(draws) - mean) <= 4.0 * math.sqrt(mean / len(draws))
        assert abs(np.var(draws) - mean) <= 5.0 * mean / math.sqrt(len(draws)) + 0.5


def test_disjoint_window_counts_are_uncorrelated_short_run():
    spec = FiniteProduct(exp_mark_density())
    left = Window((0.0,), (0.5,))
    right = Window((0.5,), (1.0,))
    pairs = []
    for seed in range(2000):
        gamma, _ = sample_poisson(spec, UNIT, seed)
        pairs.append((count_in_window(gamma, left), count_in_window(gamma, right)))
    arr = np.array(pairs, dtype=float)
    corr = np.corrcoef(arr[:, 0], arr[:, 1])[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(len(pairs))


def test_non_finite_volume_or_mean_is_rejected():
    huge = Window((0.0, 0.0), (1e200, 1e200))
    spec = FiniteProduct(exp_mark_density())
    with pytest.raises(InvalidArgument):
        sample_gamma(1.0, huge, 0.5, 0)
    with pytest.raises(InvalidArgument):
        sample_gamma_ordered(1.0, huge, 3, 0)
    with pytest.raises(InvalidArgument):
        sample_poisson(spec, huge, 0)
    # finite volume, but theta * volume * E1(epsilon) overflows
    with pytest.raises(InvalidArgument):
        sample_gamma(1e300, Window((0.0,), (1e10,)), 0.5, 0)
    with pytest.raises(InvalidArgument):
        sample_gamma_ordered(1e300, Window((0.0,), (1e10,)), 3, 0)
