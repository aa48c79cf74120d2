"""Discrete measures: construction, support, subordination, pairings, mass."""

import math

import numpy as np
import pytest

from conftest import random_measure, random_window

from platocone import (
    DimensionMismatch,
    NonPositiveWeight,
    TestFunction,
    Window,
    double_pair,
    is_sub_measure,
    make_measure,
    mark_weighted,
    mass_in_window,
    pair_configuration,
    pair_measure,
    reflect_inverse,
    support,
    weight_at,
    zero_measure,
)
from platocone.topology import hat_function


def test_zero_measure():
    eta = make_measure([], 1)
    assert eta.is_zero()
    assert eta == zero_measure(1)
    assert support(eta) == frozenset()
    assert weight_at(eta, (3.0,)) == 0.0


def test_make_measure_basic():
    eta = make_measure([(2.0, [1.0]), (0.5, [-1.0])], 1)
    assert weight_at(eta, (1.0,)) == 2.0
    assert weight_at(eta, (-1.0,)) == 0.5
    assert weight_at(eta, (7.0,)) == 0.0


def test_coinciding_atoms_merge_by_addition():
    eta = make_measure([(1.0, [0.0]), (2.0, [0.0])], 1)
    assert len(eta) == 1
    assert weight_at(eta, (0.0,)) == 3.0
    assert support(eta) == frozenset({(0.0,)})


def test_nonpositive_weight_rejected():
    for bad in [0.0, -0.5, float("nan"), float("inf")]:
        with pytest.raises(NonPositiveWeight):
            make_measure([(bad, [0.0])], 1)


def test_support_extraction():
    eta = make_measure([(2.0, [1.0]), (0.5, [-1.0])], 1)
    assert support(eta) == frozenset({(1.0,), (-1.0,)})


def test_sub_measure_examples():
    eta = make_measure([(2.0, [1.0]), (0.5, [-1.0])], 1)
    assert is_sub_measure(zero_measure(1), eta)
    assert is_sub_measure(make_measure([(2.0, [1.0])], 1), eta)
    assert not is_sub_measure(make_measure([(1.9, [1.0])], 1), eta)
    assert is_sub_measure(eta, eta)


def test_sub_measure_is_partial_order():
    rng = np.random.default_rng(200)
    for _ in range(100):
        eta = random_measure(rng, 2, 20)
        atoms = list(eta.atoms)
        pick = lambda k: make_measure(
            [(w, pos) for pos, w in atoms if rng.random() < k], 2
        )
        xi = pick(0.7)
        chi = make_measure([(w, pos) for pos, w in xi.atoms if rng.random() < 0.7], 2)
        assert is_sub_measure(eta, eta)
        assert is_sub_measure(xi, eta)
        assert is_sub_measure(chi, xi)
        assert is_sub_measure(chi, eta)  # transitivity
        if is_sub_measure(eta, xi):  # antisymmetry
            assert eta == xi


def test_pair_measure_examples():
    eta = make_measure([(2.0, [1.0]), (0.5, [-1.0])], 1)
    values = {(1.0,): 1.0, (-1.0,): 0.5}
    f = TestFunction(lambda x: values[tuple(x)], Window((-2.0,), (2.0,)), None, "space")
    assert pair_measure(f, eta) == 2.25
    assert pair_measure(f, zero_measure(1)) == 0.0
    one = TestFunction(lambda x: 1.0, Window((-2.0,), (2.0,)), None, "space")
    assert pair_measure(one, eta) == eta.total_mass()
    assert pair_measure(one, eta) == mass_in_window(eta, Window((-2.0,), (2.0,)))


def test_double_pair_examples():
    eta = make_measure([(2.0, [1.0]), (0.5, [-1.0])], 1)
    g_values = {(1.0,): 1.0, (-1.0,): 0.5}
    g = TestFunction(lambda x: g_values[tuple(x)], Window((-2.0,), (2.0,)), None, "space")
    f = mark_weighted(g)
    assert double_pair(f, eta) == 2.25
    assert double_pair(f, zero_measure(1)) == 0.0
    one = TestFunction(lambda s, x: 1.0, Window((-2.0,), (2.0,)), None, "phase")
    three = make_measure([(1.0, [0.0]), (2.0, [0.5]), (3.0, [-0.5])], 1)
    assert double_pair(one, three) == 3.0


def test_double_pair_equals_pairing_over_the_lifted_configuration():
    rng = np.random.default_rng(201)
    for _ in range(100):
        eta = random_measure(rng, 1, int(rng.integers(0, 30)))
        f = hat_function(
            (float(rng.uniform(-3, 3)),),
            float(rng.uniform(0.5, 4.0)),
            mark_center=2.0,
            mark_half_width=2.0,
        )
        assert double_pair(f, eta) == pair_configuration(f, reflect_inverse(eta).configuration)


def test_mark_linear_reduction():
    rng = np.random.default_rng(202)
    for _ in range(100):
        eta = random_measure(rng, 1, int(rng.integers(0, 30)))
        g = hat_function((float(rng.uniform(-3, 3)),), float(rng.uniform(0.5, 4.0)))
        assert abs(double_pair(mark_weighted(g), eta) - pair_measure(g, eta)) <= 1e-12 * (
            1 + eta.total_mass()
        )


def test_mass_in_window_examples():
    eta = make_measure([(1.5, [0.2]), (0.25, [0.8]), (3.0, [5.0])], 1)
    assert mass_in_window(eta, Window((0.0,), (1.0,))) == 1.75
    assert mass_in_window(eta, Window((0.0,), (10.0,))) == 4.75
    assert mass_in_window(zero_measure(1), Window((0.0,), (1.0,))) == 0.0


def test_mass_additivity_and_monotonicity():
    rng = np.random.default_rng(203)
    for _ in range(100):
        eta = random_measure(rng, 1, 25, box=4.0)
        cut = float(rng.uniform(-3.0, 3.0))
        left = mass_in_window(eta, Window((-4.0,), (cut,)))
        right = mass_in_window(eta, Window((cut,), (4.0,)))
        whole = mass_in_window(eta, Window((-4.0,), (4.0,)))
        assert math.isclose(left + right, whole, rel_tol=1e-12, abs_tol=0.0)
        inner = mass_in_window(eta, Window((-2.0,), (2.0,)))
        assert inner <= whole


def test_cone_scaling():
    rng = np.random.default_rng(204)
    eta = random_measure(rng, 2, 15)
    lam = random_window(rng, 2)
    scaled = eta.scaled(2.5)
    assert support(scaled) == support(eta)
    assert math.isclose(
        mass_in_window(scaled, lam), 2.5 * mass_in_window(eta, lam), rel_tol=1e-12
    )
    with pytest.raises(Exception):
        eta.scaled(0.0)


def test_dimension_checks():
    eta = make_measure([(1.0, [0.0, 0.0])], 2)
    with pytest.raises(DimensionMismatch):
        weight_at(eta, (0.0,))
    with pytest.raises(DimensionMismatch):
        mass_in_window(eta, Window((0.0,), (1.0,)))
    with pytest.raises(DimensionMismatch):
        is_sub_measure(eta, make_measure([], 1))
