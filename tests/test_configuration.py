"""Configurations: construction, counting, restriction, ordering, pairing."""

import copy
import pickle

import numpy as np
import pytest

from conftest import random_configuration, random_points, random_window

from platocone import (
    Configuration,
    DimensionMismatch,
    NonPositiveMark,
    NotCanonical,
    TestFunction,
    Window,
    canonical_order,
    count_in_window,
    linear_combination,
    local_mass,
    make_configuration,
    n_point_class,
    pair_configuration,
    reflect,
    restrict,
    to_plato,
)
from platocone.topology import hat_function


def test_empty_configuration():
    gamma = make_configuration([], 1)
    assert len(gamma) == 0
    assert gamma.is_empty()


def test_permuted_inputs_give_equal_configurations():
    a = make_configuration([(1.0, [0.5]), (2.0, [0.1])], 1)
    b = make_configuration([(2.0, [0.1]), (1.0, [0.5])], 1)
    assert a == b
    assert [(p.mark, p.position) for p in a.points] == [(2.0, (0.1,)), (1.0, (0.5,))]


def test_exact_duplicates_are_dropped():
    gamma = make_configuration([(1.0, [0.5]), (1.0, [0.5]), (2.0, [0.1])], 1)
    assert len(gamma) == 2


def test_negative_zero_position_is_canonicalized():
    a = make_configuration([(1.0, [-0.0]), (1.0, [0.0])], 1)
    assert len(a) == 1
    assert a.points[0].position == (0.0,)


def test_nonpositive_mark_rejected():
    for bad in [0.0, -1.0, float("nan"), float("inf")]:
        with pytest.raises(NonPositiveMark):
            make_configuration([(bad, [0.0])], 1)


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        make_configuration([(1.0, [0.0, 1.0])], 1)


def test_permutation_invariance_random():
    rng = np.random.default_rng(100)
    points = random_points(rng, 2, 100)
    reference = make_configuration(points, 2)
    order = list(range(len(points)))
    for _ in range(10):
        rng.shuffle(order)
        assert make_configuration([points[i] for i in order], 2) == reference
        assert canonical_order(make_configuration([points[i] for i in order], 2)) == list(
            reference.points
        )


def test_count_in_window_examples():
    gamma = make_configuration([(1.5, [0.2]), (0.25, [0.8]), (3.0, [5.0])], 1)
    assert count_in_window(gamma, Window((0.0,), (1.0,))) == 2
    assert count_in_window(make_configuration([], 1), Window((0.0,), (1.0,))) == 0
    marked = Window((0.0,), (10.0,), mark_interval=(1.0, float("inf")))
    assert count_in_window(gamma, marked) == 2


def test_count_dimension_mismatch():
    gamma = make_configuration([(1.0, [0.0, 0.0])], 2)
    with pytest.raises(DimensionMismatch):
        count_in_window(gamma, Window((0.0,), (1.0,)))


def test_restrict_examples():
    gamma = make_configuration([(1.5, [0.2]), (3.0, [5.0])], 1)
    lam = Window((0.0,), (1.0,))
    inner = restrict(gamma, lam)
    assert [(p.mark, p.position) for p in inner.points] == [(1.5, (0.2,))]
    assert restrict(inner, lam) == inner
    outer = Window((0.0,), (10.0,))
    assert restrict(gamma, lam) == restrict(restrict(gamma, outer), lam)


def test_restriction_consistency_random():
    rng = np.random.default_rng(101)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        gamma = random_configuration(rng, d, int(rng.integers(0, 40)))
        lam1 = random_window(rng, d)
        lam2 = random_window(rng, d)
        assert restrict(gamma, lam1) == restrict(restrict(gamma, lam1), lam1)
        both = restrict(restrict(gamma, lam1), lam2)
        assert both == restrict(restrict(gamma, lam2), lam1)
        assert len(restrict(gamma, lam1)) == count_in_window(gamma, lam1)


def test_counting_additivity_on_disjoint_tiles():
    rng = np.random.default_rng(102)
    for _ in range(100):
        gamma = random_configuration(rng, 1, int(rng.integers(0, 60)), box=4.0)
        cut = float(rng.uniform(-3.0, 3.0))
        left = Window((-4.0,), (cut,))
        right = Window((cut,), (4.0,))
        whole = Window((-4.0,), (4.0,))
        assert count_in_window(gamma, left) + count_in_window(gamma, right) == count_in_window(
            gamma, whole
        )


def test_n_point_class_matches_count():
    assert n_point_class(make_configuration([], 1), Window((0.0,), (1.0,))) == 0
    gamma = make_configuration([(1.5, [0.2]), (0.25, [0.8])], 1)
    assert n_point_class(gamma, Window((0.0,), (1.0,))) == 2
    five = make_configuration([(1.0 + i, [0.1 * i]) for i in range(5)], 1)
    assert n_point_class(five, Window((0.0,), (1.0,))) == 5


def test_canonical_order_is_sorted_and_stable():
    gamma = make_configuration([(2.0, [0.1]), (1.0, [0.5])], 1)
    ordered = canonical_order(gamma)
    assert [(p.mark, p.position) for p in ordered] == [(2.0, (0.1,)), (1.0, (0.5,))]


def test_pair_configuration_examples():
    support = Window((-2.0,), (2.0,), mark_interval=(0.0, 10.0))
    f = TestFunction(lambda s, x: s, support, None, "phase")
    assert pair_configuration(f, make_configuration([], 1)) == 0.0
    gamma = make_configuration([(2.0, [1.0]), (0.5, [-1.0])], 1)
    assert pair_configuration(f, gamma) == 2.5
    one = TestFunction(lambda s, x: 1.0, support, None, "phase")
    three = make_configuration([(1.0, [0.0]), (2.0, [0.5]), (3.0, [-0.5])], 1)
    assert pair_configuration(one, three) == 3.0


def test_pairing_locality_is_bitwise():
    rng = np.random.default_rng(103)
    for _ in range(50):
        gamma = random_configuration(rng, 2, 30)
        f = hat_function(
            (float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3))),
            float(rng.uniform(0.5, 3.0)),
            mark_center=1.5,
            mark_half_width=2.0,
        )
        assert pair_configuration(f, gamma) == pair_configuration(f, restrict(gamma, f.support))


def test_pairing_linearity_within_tolerance():
    rng = np.random.default_rng(104)
    for _ in range(50):
        gamma = random_configuration(rng, 1, 40, mark_low=0.1, mark_high=3.0)
        f = hat_function((0.0,), 3.0, mark_center=1.6, mark_half_width=1.6)
        g = hat_function((1.0,), 2.0, mark_center=2.0, mark_half_width=2.0)
        alpha = float(rng.uniform(-4, 4))
        beta = float(rng.uniform(-4, 4))
        combo = linear_combination([(alpha, f), (beta, g)])
        lhs = pair_configuration(combo, gamma)
        rhs = alpha * pair_configuration(f, gamma) + beta * pair_configuration(g, gamma)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(alpha) + abs(beta)) * len(gamma)


def test_window_validation():
    with pytest.raises(Exception):
        Window((0.0,), (0.0,))
    with pytest.raises(Exception):
        Window((0.0, 0.0), (1.0,))
    with pytest.raises(Exception):
        Window((0.0,), (1.0,), mark_interval=(2.0, 1.0))
    unbounded = Window((0.0,), (float("inf"),))
    assert not unbounded.is_bounded()
    assert unbounded.volume() == float("inf")


def test_half_open_membership():
    lam = Window((0.0,), (1.0,))
    assert lam.contains_position((0.0,))
    assert not lam.contains_position((1.0,))
    marked = Window((0.0,), (1.0,), mark_interval=(1.0, 2.0))
    assert not marked.contains_mark(1.0)
    assert marked.contains_mark(2.0)


def test_configuration_rejects_out_of_order_points():
    with pytest.raises(NotCanonical):
        Configuration([1.0, 1.0], [[0.5], [0.1]])
    with pytest.raises(NotCanonical):
        Configuration([1.0, 1.0], [[0.5], [0.5]])


def test_kernels_match_a_sequential_reference_loop():
    # count, mass and pairing sum in canonical order with a plain loop;
    # ndarray.sum (pairwise) and builtin sum (compensated from Python
    # 3.12) would round differently at this size
    rng = np.random.default_rng(105)
    gamma = random_configuration(rng, 2, 10_000, box=5.0)
    lam = Window((-4.0, -3.0), (4.5, 3.5), mark_interval=(0.5, 3.5))
    f = hat_function((0.5, -0.5), (4.0, 3.0), mark_center=2.0, mark_half_width=2.0)
    count, mass, paired, total = 0, 0.0, 0.0, 0.0
    for s, x in zip(gamma.marks.tolist(), gamma.positions.tolist()):
        total += s
        if lam.contains_position(x) and lam.contains_mark(s):
            count += 1
            mass += s
        if f.support.contains_position(x) and f.support.contains_mark(s):
            paired += f.evaluator(s, tuple(x))
    assert count_in_window(gamma, lam) == count > 1000
    assert local_mass(gamma, lam).hex() == mass.hex()
    assert pair_configuration(f, gamma).hex() == paired.hex()
    assert gamma.total_mark().hex() == total.hex()


def test_linear_combination_sums_sequentially():
    one = TestFunction(lambda s, x: 1.0, Window((0.0,), (1.0,), mark_interval=(0.0, 2.0)))
    # 1e16 + 1 rounds back to 1e16, so a left-to-right sum gives 0.0;
    # a compensated sum would give 1.0
    combo = linear_combination([(1e16, one), (1.0, one), (-1e16, one)])
    assert combo(1.0, (0.5,)) == 0.0
    assert combo.lipschitz is None


def test_messages_show_plain_floats():
    from platocone import FiniteProduct, InvalidArgument, InvalidTheta, MarkedPoint, NonPositiveMark, sample_gamma

    density = TestFunction(lambda x: 1.0, Window((0.0,), (1.0,)), None, "space")
    cases = [
        (NonPositiveMark, lambda: make_configuration([(np.float64(-1.0), [0.5])], 1), "-1.0 is not"),
        (NonPositiveMark, lambda: MarkedPoint(np.float64(-2.0), (0.0,)), "got -2.0"),
        (InvalidArgument, lambda: make_configuration([(1.0, [np.float64("nan")])], 1), "finite"),
        (InvalidArgument, lambda: MarkedPoint(1.0, (np.float64("inf"),)), "got inf"),
        (InvalidTheta, lambda: sample_gamma(np.float64(-3.0), Window((0.0,), (1.0,)), 0.1, 0), "got -3.0"),
        (InvalidArgument, lambda: FiniteProduct(density, np.float64(0.0)), "got 0.0"),
    ]
    for error, call, text in cases:
        with pytest.raises(error, match=text) as info:
            call()
        assert "np." not in str(info.value)


def test_stores_pickle_and_copy_to_equal_read_only_stores():
    gamma = random_configuration(np.random.default_rng(130), 2, 20)
    plato = to_plato(gamma)
    for obj in (gamma, plato, reflect(plato)):
        for twin in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
            assert type(twin) is type(obj) and twin == obj
            assert not twin.marks.flags.writeable and not twin.positions.flags.writeable
