"""Pinpointing, local mass and the reflection bijection."""

import math

import numpy as np
import pytest

from conftest import random_measure, random_plato, random_window

from platocone import (
    NotPinpointing,
    PlatoConfiguration,
    Window,
    double_pair,
    is_pinpointing,
    is_sub_measure,
    local_mass,
    make_configuration,
    make_measure,
    mass_in_window,
    pair_configuration,
    reflect,
    reflect_inverse,
    support,
    to_plato,
    weight_at,
)
from platocone.configuration import Configuration
from platocone.topology import hat_function


def test_is_pinpointing_examples():
    assert is_pinpointing(make_configuration([], 1))
    collision = make_configuration([(1.0, [0.0]), (2.0, [0.0])], 1)
    assert not is_pinpointing(collision)
    assert is_pinpointing(make_configuration([(1.0, [0.0]), (2.0, [0.1])], 1))


def test_local_mass_examples():
    assert local_mass(make_configuration([], 1), Window((0.0,), (1.0,))) == 0.0
    gamma = make_configuration([(1.5, [0.2]), (0.25, [0.8]), (3.0, [5.0])], 1)
    assert local_mass(gamma, Window((0.0,), (1.0,))) == 1.75
    dust = make_configuration([(1e-3, [i / 1000.0]) for i in range(1000)], 1)
    assert abs(local_mass(dust, Window((0.0,), (1.0,))) - 1.0) <= 1e-12


def test_to_plato_accepts_and_rejects():
    gamma = make_configuration([(1.0, [0.0]), (2.0, [0.1])], 1)
    plato = to_plato(gamma)
    assert len(plato) == 2
    collision = make_configuration([(1.0, [0.0]), (2.0, [0.0])], 1)
    with pytest.raises(NotPinpointing) as err:
        to_plato(collision)
    assert err.value.position == (0.0,)


def test_to_plato_reports_first_duplicate_in_canonical_order():
    gamma = make_configuration(
        [(1.0, [0.7]), (2.0, [0.7]), (1.0, [0.2]), (3.0, [0.2])], 1
    )
    with pytest.raises(NotPinpointing) as err:
        to_plato(gamma)
    assert err.value.position == (0.2,)


def test_reflect_examples():
    assert reflect(to_plato(make_configuration([], 1))).is_zero()
    plato = to_plato(make_configuration([(2.0, [1.0]), (0.5, [-1.0])], 1))
    eta = reflect(plato)
    assert weight_at(eta, (1.0,)) == 2.0
    assert weight_at(eta, (-1.0,)) == 0.5
    assert len(eta) == len(plato)


def test_reflect_inverse_examples():
    assert len(reflect_inverse(make_measure([], 1))) == 0
    eta = make_measure([(2.0, [1.0]), (0.5, [-1.0])], 1)
    plato = reflect_inverse(eta)
    got = {(p.mark, p.position) for p in plato.configuration.points}
    assert got == {(2.0, (1.0,)), (0.5, (-1.0,))}
    assert reflect(plato) == eta


def test_bijection_round_trips_random():
    rng = np.random.default_rng(300)
    for _ in range(200):
        d = int(rng.integers(1, 4))
        plato = random_plato(rng, d, int(rng.integers(0, 50)))
        assert reflect_inverse(reflect(plato)) == plato
        eta = random_measure(rng, d, int(rng.integers(0, 50)))
        assert reflect(reflect_inverse(eta)) == eta


def test_mass_and_support_transport():
    rng = np.random.default_rng(301)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        plato = random_plato(rng, d, 25)
        eta = reflect(plato)
        lam = random_window(rng, d)
        assert local_mass(plato, lam) == mass_in_window(eta, lam)
        assert support(eta) == frozenset(p.position for p in plato.configuration.points)


def test_pairing_transport():
    rng = np.random.default_rng(302)
    for _ in range(100):
        plato = random_plato(rng, 1, 20)
        f = hat_function(
            (float(rng.uniform(-3, 3)),),
            float(rng.uniform(0.5, 4.0)),
            mark_center=2.0,
            mark_half_width=2.0,
        )
        assert pair_configuration(f, plato.configuration) == double_pair(f, reflect(plato))


def test_reflection_is_monotone_for_subsets():
    rng = np.random.default_rng(303)
    for _ in range(50):
        plato = random_plato(rng, 1, 30)
        keep = rng.random(len(plato)) < 0.6
        smaller = to_plato(Configuration(plato.marks[keep], plato.positions[keep]))
        assert is_sub_measure(reflect(smaller), reflect(plato))


def test_plato_wrapper_validates_on_construction():
    collision = make_configuration([(1.0, [0.0]), (2.0, [0.0])], 1)
    with pytest.raises(NotPinpointing):
        PlatoConfiguration(collision)


def test_local_mass_many_small_atoms_matches_measure_mass():
    dust = to_plato(make_configuration([(1e-3, [i / 1000.0]) for i in range(1000)], 1))
    lam = Window((0.0,), (1.0,))
    assert local_mass(dust, lam) == mass_in_window(reflect(dust), lam)
    assert math.isclose(local_mass(dust, lam), 1.0, abs_tol=1e-12)


def test_reflection_relabels_the_arrays_without_copying():
    plato = random_plato(np.random.default_rng(304), 2, 50)
    eta = reflect(plato)
    assert np.shares_memory(eta.marks, plato.configuration.marks)
    assert np.shares_memory(eta.positions, plato.configuration.positions)
    back = reflect_inverse(eta)
    assert np.shares_memory(back.configuration.marks, eta.marks)
    assert np.shares_memory(back.configuration.positions, eta.positions)
    assert back == plato and len(back) == len(eta)
    assert not eta.marks.flags.writeable and not eta.positions.flags.writeable
