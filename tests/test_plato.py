"""Pinpointing, local mass and the reflection bijection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_measure, random_plato, random_window

from platocone import (
    NotPinpointing,
    PlatoConfiguration,
    Window,
    count_in_window,
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
from platocone.configuration import Configuration, restrict
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


def test_plato_configuration_is_a_configuration_on_the_same_arrays():
    gamma = random_plato(np.random.default_rng(305), 2, 30).configuration
    plato = PlatoConfiguration(gamma)
    assert isinstance(plato, Configuration) and plato.points == gamma.points
    assert type(plato.configuration) is Configuration and plato.configuration == gamma
    assert np.shares_memory(plato.configuration.marks, gamma.marks)
    assert np.shares_memory(plato.configuration.positions, gamma.positions)
    assert type(restrict(plato, Window((-1.0, -1.0), (2.0, 2.0)))) is PlatoConfiguration


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


# --- boundary points ---------------------------------------------------------

_TINY = 5e-324  # the smallest subnormal
_SETTINGS = settings(max_examples=150, deadline=None, database=None, derandomize=True)


def _around(v):
    return [float(np.nextafter(v, -math.inf)), v, float(np.nextafter(v, math.inf))]


@st.composite
def boundary_cases(draw):
    """A window with a mark interval (a, b] and atoms at its edges: signed
    zeros, subnormals, each face and its neighbours, marks at and next to
    a and b.  Positions may repeat, so some atoms merge."""
    d = draw(st.integers(1, 2))
    faces = st.sampled_from([(-0.0, 1.0), (-1.0, -0.0), (-_TINY, _TINY), (0.0, 2.2e-308)])
    faces = [draw(faces) for _ in range(d)]
    a, b = draw(st.sampled_from([(0.0, 1.0), (0.5, 2.0), (_TINY, 1.5)]))
    lam = Window(*zip(*faces), mark_interval=(a, b))
    coords = [[0.0, -0.0, _TINY, -_TINY, *_around(lo), *_around(hi)] for lo, hi in faces]
    marks = [m for m in (*_around(a), *_around(b), 1.0) if m > 0.0]
    atoms = draw(st.lists(
        st.tuples(st.sampled_from(marks), st.tuples(*(st.sampled_from(c) for c in coords))), max_size=12
    ))
    return lam, d, atoms


def _inside(lam, w, x):
    a, b = lam.mark_interval
    return a < w <= b and all(lo <= c < hi for c, lo, hi in zip(x, lam.lower, lam.upper))


@_SETTINGS
@given(boundary_cases())
def test_reflection_round_trips_bitwise_at_boundary_coordinates(case):
    _, d, atoms = case
    eta = make_measure(atoms, d)
    # -0.0 and 0.0 are one position, stored as 0.0; distinct subnormals stay apart
    assert len(eta) == len({tuple(c + 0.0 for c in x) for _, x in atoms})
    assert not (np.signbit(eta.positions) & (eta.positions == 0.0)).any()
    plato = reflect_inverse(eta)
    assert plato == to_plato(make_configuration([(w, x) for x, w in eta.atoms], d))
    back = reflect(plato)
    assert back.marks.tobytes() == eta.marks.tobytes()
    assert back.positions.tobytes() == eta.positions.tobytes()
    assert make_measure(zip(plato.marks.tolist(), plato.positions.tolist()), d) == eta


@_SETTINGS
@given(boundary_cases())
def test_window_membership_at_faces_and_mark_ends_agrees_across_the_reflection(case):
    lam, d, atoms = case
    assert not any(math.copysign(1.0, v) < 0.0 for v in lam.lower + lam.upper if v == 0.0)
    eta = make_measure(atoms, d)
    plato = reflect_inverse(eta)
    kept = [(x, w) for x, w in eta.atoms if _inside(lam, w, x)]
    assert [lam.contains_position(x) and lam.contains_mark(w) for x, w in eta.atoms] == [
        _inside(lam, w, x) for x, w in eta.atoms
    ]
    assert count_in_window(eta, lam) == count_in_window(plato, lam) == len(kept)
    assert restrict(eta, lam).atoms == tuple(kept)
    assert reflect_inverse(restrict(eta, lam)) == restrict(plato, lam)
    assert mass_in_window(eta, lam).hex() == local_mass(plato, lam).hex()
