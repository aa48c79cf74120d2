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
    NotPinpointing,
    TestFunction,
    UnboundedWindow,
    Window,
    count_in_window,
    expected_truncation_error,
    exp_integral_e1,
    indicator,
    reflect_inverse,
    sample_gamma,
    sample_gamma_ordered,
    sample_poisson,
    to_plato,
)
from platocone import stats
from platocone.sampling import (
    _E1_SERIES_AT_ONE,
    _MIN_E1_TARGET,
    _NEWTON_MAX_ITER,
    _invert_e1,
    _poisson_draw,
    substream,
)

UNIT = Window((0.0,), (1.0,))
# each side is positive, the volume underflows to 0.0
TINY_AREA = Window((0.0, 0.0), (1e-200, 1e-200))


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
        sample_gamma(1.0, TINY_AREA, 1e-8, 0)
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
    assert (ra.algorithm, ra.e1_iterations, ra.e1_residual, ra.rejection_rounds) == (3, 0, 0.0, 0)


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
        sample_poisson(spec, TINY_AREA, 0)
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


def reference_e1_root(t):
    """Plain bisection on ln s, run until the midpoint equals an end.

    The bracket ln s in [-gamma - t - 1, ln(2 + |ln t|)] holds for every
    positive t: E1(s) > -gamma - ln s below 1, and E1(s) < e^-s above 1.
    """
    lo = -stats._EULER_GAMMA - t - 1.0
    hi = np.log(2.0 + np.abs(np.log(t)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        above = stats.e1_array(np.exp(mid)) >= t
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.exp(0.5 * (lo + hi))


def inversion_targets():
    e1_one = exp_integral_e1(1.0)
    edges = [
        e1_one, np.nextafter(e1_one, 0.0), np.nextafter(e1_one, 1.0),
        _E1_SERIES_AT_ONE, np.nextafter(_E1_SERIES_AT_ONE, 0.0), np.nextafter(_E1_SERIES_AT_ONE, 1.0),
        _MIN_E1_TARGET, 1e-300, 700.0, exp_integral_e1(1e-8),
    ]
    spread = np.geomspace(1e-300, 700.0, 400)
    rng = np.random.default_rng(2024)
    scattered = np.exp(rng.uniform(np.log(1e-300), np.log(700.0), 400))
    near_one = e1_one * (1.0 + rng.uniform(-1e-6, 1e-6, 50))
    return np.concatenate([edges, spread, scattered, near_one])


def test_invert_e1_meets_the_relative_contract():
    t = inversion_targets()
    roots, iterations, _ = _invert_e1(t)
    deviation = np.abs(roots / reference_e1_root(t) - 1.0)
    assert deviation.max() <= 1e-12, t[np.argmax(deviation)]
    assert 1 <= iterations <= 8


def test_invert_e1_roots_strictly_decrease():
    t = np.sort(inversion_targets())
    pairs = np.concatenate([t, t * (1.0 + 2e-9)])
    pairs = np.sort(pairs[pairs <= 700.0])
    keep = np.concatenate([[True], pairs[1:] / pairs[:-1] > 1.0 + 1e-9])
    roots, _, _ = _invert_e1(pairs[keep])
    assert np.all(np.diff(roots) < 0.0)


def test_invert_e1_certificate_matches_recomputation():
    t = inversion_targets()
    roots, iterations, residual = _invert_e1(t)
    # E1 recomputed root by root: series below 1, scalar continued fraction above
    e1 = np.array([stats.e1_array(np.array([s]))[0] for s in roots])
    assert residual == np.max(np.abs(e1 / t - 1.0))
    assert residual <= 1e-11
    # a batch reports the worst of its roots, each solved alone
    alone = [_invert_e1(np.array([v])) for v in t]
    assert iterations == max(a[1] for a in alone) < _NEWTON_MAX_ITER
    assert residual == max(a[2] for a in alone)
    assert all(a[0][0] == r for a, r in zip(alone, roots))


def test_invert_e1_rejects_targets_outside_its_range():
    assert _invert_e1(np.array([]))[1:] == (0, 0.0)
    for bad in [0.0, 1e-310, 700.5, float("nan")]:
        with pytest.raises(InvalidArgument):
            _invert_e1(np.array([1.0, bad]))
    # theta * volume = 1e308 puts the first arrivals' targets below the normal range
    with pytest.raises(InvalidArgument, match="subnormal"):
        sample_gamma_ordered(1e300, Window((0.0,), (1e8,)), 3, 0)


def reference_rejection_marks(seed, n, eps):
    """The rejection marks of ``sample_gamma`` replayed one mark at a time.

    The marks substream gives (branch, U, V) for each mark in turn, then
    one (U, V) pair per round for each mark still open, in index order.
    Returns the marks in draw order and the number of rounds.
    """
    rng = substream(seed, 1)
    e1_eps, ln_eps = exp_integral_e1(eps), float(stats._log(eps))
    first = rng.random((n, 3))
    below = first[:, 0] * e1_eps >= exp_integral_e1(1.0)
    draws = dict(enumerate(first[:, 1:].tolist()))
    marks, rounds = [None] * n, 0
    while draws:
        rounds += 1
        for i, (u, v) in list(draws.items()):
            if below[i]:
                s = float(stats._exp((1.0 - u) * ln_eps))
                accepted = float(stats._log(v)) < eps - s
            else:
                s = 1.0 - float(stats._log(u))
                accepted = v * s < 1.0
            if accepted:
                marks[i] = s
                del draws[i]
        draws = dict(zip(draws, rng.random((len(draws), 2)).tolist()))
    return np.array(marks, dtype=float), rounds


def test_sample_gamma_report_certifies_its_marks():
    rounds = []
    for seed in range(40):
        eta, report = sample_gamma(1.0, UNIT, 1e-8, seed)
        n = len(eta)
        assert (report.algorithm, report.e1_iterations, report.e1_residual) == (3, 0, 0.0)
        marks, k = reference_rejection_marks(seed, n, 1e-8)
        # the build sorts atoms by position; the positions keep their draw order
        order = np.argsort(substream(seed, 2).random((n, 1))[:, 0], kind="stable")
        assert eta.marks.tobytes() == marks[order].tobytes()
        assert report.rejection_rounds == k and (k == 0) == (n == 0)
        assert np.all(eta.marks > 1e-8)
        rounds.append(k)
    assert 1.0 < np.mean(rounds) < 3.0 and max(rounds) <= 10


def test_count_and_position_substreams_are_untouched():
    mean = exp_integral_e1(1e-8)
    for seed in range(200):
        eta, report = sample_gamma(1.0, UNIT, 1e-8, seed)
        n = _poisson_draw(substream(seed, 0), mean)
        assert report.atom_count == n
        positions = substream(seed, 2).random((n, 1))
        assert np.array_equal(np.sort(eta.positions, axis=0), np.sort(positions, axis=0))


def test_mean_count_above_the_cap_is_rejected():
    with pytest.raises(InvalidArgument, match="mean atom count 5.5977359e\\+11 exceeds"):
        sample_gamma(1.0, Window((0.0,), (1e12,)), 0.5, 0)
    with pytest.raises(InvalidArgument, match="mean atom count"):
        sample_poisson(FiniteProduct(exp_mark_density(), spatial_rate=2e7), UNIT, 0)
    with pytest.raises(InvalidArgument, match="n_jumps 10000001 exceeds"):
        sample_gamma_ordered(1.0, UNIT, 10**7 + 1, 0)


def test_e1_of_epsilon_is_computed_once_and_marks_keep_their_bits(monkeypatch):
    from platocone import sampling

    calls = []

    def counted(s):
        calls.append(s)
        return exp_integral_e1(s)

    eps = 0.123456789
    expected = [sample_gamma(1.0, UNIT, eps, seed)[0] for seed in range(3)]
    sampling._e1_at.cache_clear()
    monkeypatch.setattr(sampling, "exp_integral_e1", counted)
    got = [sample_gamma(1.0, UNIT, eps, seed)[0] for seed in range(3)]
    assert calls == [eps]
    assert all(a.marks.tobytes() == b.marks.tobytes() for a, b in zip(expected, got))
    assert all(a.positions.tobytes() == b.positions.tobytes() for a, b in zip(expected, got))
    # an exception is never cached: an invalid epsilon raises on every call
    for _ in range(3):
        for bad in (0.0, -1.0, 1.0, math.nan, math.inf):
            with pytest.raises(InvalidEpsilon):
                sample_gamma(1.0, UNIT, bad, 0)
    assert calls == [eps]


# one double wide: every uniform position in it rounds to 1.0
ONE_ULP = Window((1.0,), (1.0000000000000002,))


def test_gamma_samplers_reject_positions_that_collide():
    # distinct marks at one position keep every point through the canonical
    # build, so the pinpointing check, not the collision count, rejects them
    draws = [lambda: sample_gamma(1e16, ONE_ULP, 1e-8, 0), lambda: sample_gamma_ordered(1e16, ONE_ULP, 5, 0)]
    for draw in draws:
        with pytest.raises(NotPinpointing) as err:
            draw()
        assert err.value.position == (1.0,)


def test_poisson_sampler_refuses_atoms_that_repeat_bit_for_bit():
    # marks and positions both lie in one double, so the five atoms drawn
    # for seed 0 are one (mark, position) pair five times over; the
    # canonical build would merge them into one point
    spec = FiniteProduct(indicator(ONE_ULP, "space"), spatial_rate=1e32)
    with pytest.raises(InvalidArgument, match="seed 0: 4 of the 5 atoms"):
        sample_poisson(spec, ONE_ULP, 0)
