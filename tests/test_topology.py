"""Discrepancies, the merging-sequence witness and convergence scans."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_configuration, random_plato

from platocone import (
    EqualMarks,
    InvalidArgument,
    NonPositiveMark,
    PlatoconeError,
    TestFamily,
    TestFunction,
    Window,
    check_convergence,
    cone_discrepancy,
    hat_family,
    hat_function,
    is_pinpointing,
    make_configuration,
    make_measure,
    mark_weighted,
    merging_family,
    merging_limit,
    merging_sequence,
    pair_configuration,
    reflect,
    vague_discrepancy,
)
from platocone.configuration import clean_position

X0 = (0.0,)
FAMILY = merging_family(X0, 1.0, 2.0)


def test_family_validation():
    with pytest.raises(InvalidArgument):
        TestFamily(())
    unbounded = TestFunction(lambda s, x: 1.0, Window((0.0,), (1.0,)), None, "phase")
    with pytest.raises(InvalidArgument):
        TestFamily((unbounded,))
    hat = hat_function((0.0,), 1.0, mark_center=1.0, mark_half_width=1.0)
    with pytest.raises(InvalidArgument):
        TestFamily((hat,), (0.0,))
    fam = TestFamily((hat,))
    assert fam.weights == (1.0,)
    assert fam.max_lipschitz() == 1.5


def test_discrepancy_zero_on_equal_arguments():
    gamma = make_configuration([(1.0, [0.1]), (2.0, [0.4])], 1)
    assert vague_discrepancy(gamma, gamma, FAMILY) == 0.0


def test_discrepancy_lipschitz_bound_single_moved_point():
    g1 = make_configuration([(1.0, [0.1])], 1)
    g2 = make_configuration([(1.0, [0.2])], 1)
    assert vague_discrepancy(g1, g2, FAMILY) <= 1.0 * 0.1 + 1e-15


def test_discrepancy_counts_disjointly_supported_points():
    # a window-indicator-like family member sees exactly the count difference
    flat = TestFunction(
        lambda s, x: 1.0,
        Window((-1.0,), (1.0,), mark_interval=(0.0, 10.0)),
        None,
        "phase",
    )
    family = TestFamily((flat,))
    g1 = make_configuration([(1.0, [0.0]), (2.0, [0.5])], 1)
    g2 = make_configuration([(3.0, [-0.5])], 1)
    assert vague_discrepancy(g1, g2, family) == 1.0


def test_discrepancy_is_pseudometric():
    rng = np.random.default_rng(500)
    fam = hat_family(Window((-5.0,), (5.0,)), (4,), (0.0, 4.0), mark_cells=2)
    for _ in range(40):
        a = random_configuration(rng, 1, 10)
        b = random_configuration(rng, 1, 10)
        c = random_configuration(rng, 1, 10)
        dab = vague_discrepancy(a, b, fam)
        dba = vague_discrepancy(b, a, fam)
        assert dab == dba
        assert vague_discrepancy(a, c, fam) <= dab + vague_discrepancy(b, c, fam) + 1e-12


def test_cone_discrepancy_examples():
    eta = make_measure([(1.0, [0.3])], 1)
    assert cone_discrepancy(eta, eta, FAMILY) == 0.0
    close = make_measure([(1.0, [0.35])], 1)
    assert cone_discrepancy(eta, close, FAMILY) <= 0.05 + 1e-15
    bump = hat_function((0.0,), 1.5)
    fam = TestFamily(
        (
            TestFunction(
                lambda s, x: s * bump(x),
                Window((-1.5,), (1.5,), mark_interval=(0.0, 8.0)),
                None,
                "phase",
            ),
        )
    )
    one = make_measure([(1.0, [0.0])], 1)
    heavier = make_measure([(1.0 + 1e-3, [0.0])], 1)
    assert abs(cone_discrepancy(one, heavier, fam) - 1e-3) <= 1e-12


def test_cone_discrepancy_equals_pullback():
    rng = np.random.default_rng(501)
    fam = hat_family(Window((-5.0,), (5.0,)), (3,), (0.0, 4.0))
    for _ in range(40):
        p1 = random_plato(rng, 1, 12)
        p2 = random_plato(rng, 1, 12)
        assert cone_discrepancy(reflect(p1), reflect(p2), fam) == vague_discrepancy(
            p1.configuration, p2.configuration, fam
        )


def test_merging_sequence_pinpointing_and_limit_not():
    for n in [1, 2, 10, 1000]:
        assert is_pinpointing(merging_sequence(X0, 1.0, 2.0, n))
    assert not is_pinpointing(merging_limit(X0, 1.0, 2.0))


def test_merging_sequence_equal_marks_rejected():
    with pytest.raises(EqualMarks):
        merging_sequence(X0, 1.0, 1.0, 5)
    with pytest.raises(EqualMarks):
        merging_limit(X0, 2.0, 2.0)


_SETTINGS = settings(max_examples=300, deadline=None, database=None, derandomize=True)
_COORDS = st.one_of(
    # -0.0, subnormals, and +-2**60 where 1/n is below half an ulp for every n
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0, -0.5, 2.0**60, -(2.0**60)]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_MARKS = st.one_of(
    st.sampled_from([0.0, -1.0, math.nan, math.inf, 1.0, 2.0, 5e-324]),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)


def _merging_by_sorting(x0, s1, s2, n):
    """Term n built the general way, through ``make_configuration``'s sort."""
    x0 = clean_position(x0)
    right = (x0[0] + 1.0 / n,) + x0[1:]
    left = (x0[0] - 1.0 / n,) + x0[1:]
    return make_configuration([(s1, right), (s2, left)], len(x0))


def _outcome(build, *args):
    try:
        gamma = build(*args)
    except PlatoconeError as exc:
        return type(exc)
    return gamma.marks.tobytes(), gamma.positions.shape, gamma.positions.tobytes()


@_SETTINGS
@given(
    d=st.integers(1, 3),
    data=st.data(),
    marks=st.tuples(_MARKS, _MARKS).filter(lambda m: m[0] != m[1]),
    n=st.one_of(st.integers(1, 1000), st.integers(1, 2**62), st.sampled_from([2**53, 2**62])),
)
def test_merging_sequence_equals_the_sorted_construction_bitwise(d, data, marks, n):
    x0 = tuple(data.draw(_COORDS) for _ in range(d))
    for s1, s2 in (marks, marks[::-1]):
        new = _outcome(merging_sequence, x0, s1, s2, n)
        assert new == _outcome(_merging_by_sorting, x0, s1, s2, n)
        assert new is NonPositiveMark or isinstance(new, tuple)


@pytest.mark.parametrize("x0, n", [((2.0**60,), 3), ((-(2.0**60), 1.0), 1), ((1.0,), 2**62)])
def test_merging_sequence_orders_coinciding_rows_by_mark(x0, n):
    for s1, s2 in ((2.0, 1.0), (1.0, 2.0)):
        gamma = merging_sequence(x0, s1, s2, n)
        assert gamma.marks.tolist() == [1.0, 2.0]
        assert gamma.positions.tolist() == [list(x0), list(x0)]
        assert gamma == make_configuration([(s1, x0), (s2, x0)], len(x0))


def test_merging_sequence_rejects_n_beyond_the_double_range():
    for n in (2**1024, 2**1024 - 1, 10**400):
        with pytest.raises(InvalidArgument, match="too large"):
            merging_sequence(X0, 1.0, 2.0, n)
    assert merging_sequence(X0, 1.0, 2.0, 2**1023).positions.tolist() == [[-(2.0**-1023)], [2.0**-1023]]


def test_empty_x0_is_an_invalid_argument():
    with pytest.raises(InvalidArgument, match="x0"):
        merging_sequence((), 1.0, 2.0, 3)
    with pytest.raises(InvalidArgument, match="x0"):
        merging_family((), 1.0, 2.0)
    with pytest.raises(InvalidArgument, match="x0"):
        merging_limit((), 1.0, 2.0)


def test_overflowing_pairing_raises_naming_the_member():
    # valued 1e308 on [0, 1): every configuration with two points there pairs to +inf
    huge = TestFunction(lambda s, x: 1e308, Window((0.0,), (1.0,), mark_interval=(0.0, 10.0)), 0.0)
    two = make_configuration([(1.0, [0.1]), (2.0, [0.2])], 1)
    four = make_configuration([(1.0, [0.1]), (2.0, [0.2]), (3.0, [0.3]), (4.0, [0.4])], 1)
    with pytest.raises(InvalidArgument, match="family member 0 has a non-finite pairing"):
        vague_discrepancy(two, four, TestFamily((huge,)))
    family = TestFamily((hat_function((0.0,), 1.0, mark_center=1.0, mark_half_width=1.0), huge))
    with pytest.raises(InvalidArgument, match="family member 1 "):
        vague_discrepancy(two, four, family)
    with pytest.raises(InvalidArgument, match="family member 1 "):
        family.gap(family.pairings(two), family.pairings(four))
    with pytest.raises(InvalidArgument, match="family member 1 "):
        check_convergence(lambda n: four, two, family, 0.1, 3)
    one = make_configuration([(1.0, [0.1])], 1)
    assert vague_discrepancy(one, one, family) == 0.0


def test_merging_discrepancy_bound():
    limit = merging_limit(X0, 1.0, 2.0)
    for n in [1, 10, 100, 1000]:
        d = vague_discrepancy(merging_sequence(X0, 1.0, 2.0, n), limit, FAMILY)
        assert d <= 2.0 / n + 1e-15
    assert vague_discrepancy(merging_sequence(X0, 1.0, 2.0, 1000), limit, FAMILY) <= 2e-3


def test_check_convergence_constant_sequence():
    gamma = make_configuration([(1.0, [0.2])], 1)
    report = check_convergence(lambda n: gamma, gamma, FAMILY, 0.01, 20)
    assert report.converged
    assert all(d == 0.0 for d in report.discrepancies)


def test_check_convergence_merging_sequence():
    limit = merging_limit(X0, 1.0, 2.0)
    report = check_convergence(
        lambda n: merging_sequence(X0, 1.0, 2.0, n), limit, FAMILY, 0.01, 1000
    )
    assert report.converged
    assert report.discrepancies[-1] < 0.01


def test_check_convergence_fails_for_tiny_tolerance():
    limit = merging_limit(X0, 1.0, 2.0)
    report = check_convergence(
        lambda n: merging_sequence(X0, 1.0, 2.0, n), limit, FAMILY, 1e-9, 10
    )
    assert not report.converged


def test_check_convergence_drifting_sequence_stabilizes():
    limit = merging_limit(X0, 1.0, 2.0)
    drifting = lambda n: make_configuration([(1.0, [float(n)]), (2.0, [float(n) + 0.25])], 1)
    report = check_convergence(drifting, limit, FAMILY, 0.01, 50)
    assert not report.converged
    floor = pair_configuration(FAMILY.functions[0], limit)
    assert report.discrepancies[-1] >= floor - 1e-12
    assert abs(report.discrepancies[-1] - report.discrepancies[-10]) <= 1e-12


def test_sensitivity_floor_mark_gap():
    bump = hat_function((0.0,), 1.5)
    member = mark_weighted(bump)
    member = TestFunction(
        member.evaluator,
        Window(member.support.lower, member.support.upper, mark_interval=(0.0, 16.0)),
        None,
        "phase",
    )
    fam = TestFamily((member,))
    base = make_configuration([(1.0, [0.0])], 1)
    shifted = make_configuration([(1.0 + 0.125, [0.0])], 1)
    d = vague_discrepancy(base, shifted, fam)
    assert d >= 0.125 * bump((0.0,)) - 1e-12


def test_report_serialization_shape():
    gamma = make_configuration([(1.0, [0.2])], 1)
    report = check_convergence(lambda n: gamma, gamma, FAMILY, 0.01, 3)
    payload = report.as_dict()
    assert payload == {"converged": True, "discrepancies": [0.0, 0.0, 0.0], "argmax": [0, 0, 0]}


def test_hat_function_exact_lipschitz_declaration():
    hat = hat_function((0.0, 0.0), (2.0, 4.0), mark_center=3.0, mark_half_width=3.0)
    assert hat.lipschitz == 1.5 / 2.0
    # steepest slope of the cubic hat is 1.5/width, attained mid-flank
    probe = lambda u: hat(3.0, (u, 0.0))
    h = 1e-6
    slopes = [abs(probe(u + h) - probe(u)) / h for u in np.linspace(-1.99, 1.99, 400)]
    assert max(slopes) <= hat.lipschitz + 1e-4
