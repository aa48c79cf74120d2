"""Array-form test functions and the pairing kernel, against scalar references.

The references below are the scalar closures that evaluated the built-in
test functions one point at a time before they had array forms, kept
verbatim: the factor-by-factor hat that stops at the first zero, the
support-checking call wrapper, and sequential sums from 0.0 over the
points inside each support.  Every comparison is bitwise (``float.hex``),
which also tells ``-0.0`` from ``0.0``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from platocone import (
    FiniteProduct,
    InvalidArgument,
    TestFamily,
    TestFunction,
    Window,
    check_convergence,
    double_pair,
    hat_family,
    indicator,
    linear_combination,
    make_configuration,
    make_measure,
    mark_weighted,
    pair_configuration,
    pair_measure,
    vague_discrepancy,
)
from platocone import configuration
from platocone.topology import hat_function

_SETTINGS = settings(max_examples=100, deadline=None, database=None, derandomize=True)
_TINY = 5e-324


# --- scalar references -----------------------------------------------------


def _ref_cubic_hat(t):
    if t >= 1.0:
        return 0.0
    return 1.0 - 3.0 * t * t + 2.0 * t * t * t


def _ref_hat_evaluator(center, widths, mark_center=None, mark_half_width=None):
    def spatial_factors(v, x):
        for xi, ci, wi in zip(x, center, widths):
            if v == 0.0:
                return 0.0
            v *= _ref_cubic_hat(abs(xi - ci) / wi)
        return v

    if mark_center is None:
        return lambda x: spatial_factors(1.0, x)
    return lambda s, x: spatial_factors(_ref_cubic_hat(abs(s - mark_center) / mark_half_width), x)


class _Ref:
    """A scalar evaluator behind the support check of the old call wrapper."""

    def __init__(self, evaluator, support, domain):
        self.evaluator, self.support, self.domain = evaluator, support, domain

    def __call__(self, *args):
        if self.domain == "space":
            (x,) = args
            if not self.support.contains_position(x):
                return 0.0
            v = float(self.evaluator(x))
        else:
            s, x = args
            if not (self.support.contains_position(x) and self.support.contains_mark(s)):
                return 0.0
            v = float(self.evaluator(s, x))
        if not math.isfinite(v):
            raise InvalidArgument("non-finite")
        return v

    def inside(self, s, x):
        ok = self.support.contains_position(x)
        return ok and (self.domain == "space" or self.support.contains_mark(s))


def _ref_linear_combination(terms, support, domain):
    def ev(*args):
        total = 0.0
        for c, ref in terms:
            total += c * ref(*args)
        return total

    return _Ref(ev, support, domain)


def _ref_pairing(ref, data):
    """Sequential sum from 0.0 over the rows inside the support, in storage order."""
    total = 0.0
    for s, x in zip(data.marks.tolist(), map(tuple, data.positions.tolist())):
        if ref.inside(s, x):
            total += ref(s, x) if ref.domain == "phase" else s * ref(x)
    return total


def _hex(values):
    return [float(v).hex() for v in values]


# --- strategies --------------------------------------------------------------

_CENTERS = st.one_of(
    st.sampled_from([0.0, 0.5, -1.25, 1e-300, 3.0]),
    st.floats(-4.0, 4.0, allow_nan=False),
)
_WIDTHS = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 1.0 / 3.0]), st.floats(0.05, 4.0))


@st.composite
def hats(draw, d):
    center = tuple(draw(_CENTERS) for _ in range(d))
    widths = tuple(draw(_WIDTHS) for _ in range(d))
    mark_center = draw(st.one_of(st.sampled_from([1.0, 0.25, 2.5]), st.floats(0.05, 4.0)))
    mark_width = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.05, 3.0)))
    return center, widths, mark_center, mark_width


def _edge_values(lo, hi, center):
    """Faces, their nextafter neighbours, the center, signed zeros and subnormals."""
    values = [lo, hi, center, 0.0, -0.0, _TINY, -_TINY, 2.2e-308, -2.2e-308]
    for face in (lo, hi):
        values += [np.nextafter(face, -math.inf), np.nextafter(face, math.inf)]
    return [float(v) for v in values]


@st.composite
def rows_near(draw, support, d, n_max=12):
    """Rows (marks, positions) that straddle the support: faces, their
    neighbours, ``-0.0``, subnormals and marks at both interval ends."""
    lo, hi = support.lower, support.upper
    axis_edges = [_edge_values(lo[i], hi[i], 0.5 * (lo[i] + hi[i])) for i in range(d)]
    a, b = support.mark_interval or (0.0, 4.0)
    up, down = math.inf, -math.inf
    mark_edges = [a, b, np.nextafter(a, up), np.nextafter(b, down), np.nextafter(b, up), 0.5 * (a + b)]
    mark_edges = [float(m) for m in mark_edges if m > 0.0] or [1.0]
    n = draw(st.integers(0, n_max))
    marks, positions = [], []
    for _ in range(n):
        marks.append(draw(st.one_of(st.sampled_from(mark_edges), st.floats(0.01, 6.0))))
        positions.append(
            tuple(draw(st.one_of(st.sampled_from(axis_edges[i]), st.floats(-6.0, 6.0))) for i in range(d))
        )
    return np.array(marks, dtype=float), np.array(positions, dtype=float).reshape(n, d)


@st.composite
def function_pairs(draw):
    """A built-in test function and its scalar reference."""
    d = draw(st.integers(1, 3))
    center, widths, mc, mw = draw(hats(d))
    phase_hat = hat_function(center, widths, mark_center=mc, mark_half_width=mw)
    space_hat = hat_function(center, widths)
    ref_phase = _Ref(_ref_hat_evaluator(center, widths, mc, mw), phase_hat.support, "phase")
    ref_space = _Ref(_ref_hat_evaluator(center, widths), space_hat.support, "space")
    kind = draw(st.sampled_from(
        ["phase hat", "space hat", "indicator", "space indicator", "mark weighted", "combination"]
    ))
    if kind == "phase hat":
        return phase_hat, ref_phase, d
    if kind == "space hat":
        return space_hat, ref_space, d
    if kind == "indicator":
        f = indicator(phase_hat.support)
        return f, _Ref(lambda s, x: 1.0, f.support, "phase"), d
    if kind == "space indicator":
        f = indicator(space_hat.support, "space")
        return f, _Ref(lambda x: 1.0, f.support, "space"), d
    weighted = mark_weighted(space_hat)
    ref_weighted = _Ref(lambda s, x: s * ref_space(x), weighted.support, "phase")
    if kind == "mark weighted":
        return weighted, ref_weighted, d
    # a combination with a zero and a negative coefficient makes -0.0 terms
    coefs = [draw(st.sampled_from([1.0, -2.5, 0.0, 3.0])) for _ in range(3)]
    box = indicator(Window(space_hat.support.lower, space_hat.support.upper, (0.5, 3.0)))
    ref_box = _Ref(lambda s, x: 1.0, box.support, "phase")
    f = linear_combination(list(zip(coefs, [phase_hat, box, weighted])))
    refs = [ref_phase, ref_box, ref_weighted]
    ref = _ref_linear_combination(list(zip(coefs, refs)), f.support, "phase")
    return f, ref, d


# --- evaluate ----------------------------------------------------------------


@_SETTINGS
@given(st.data())
def test_evaluate_equals_scalar_reference_and_one_row_calls(data):
    f, ref, d = data.draw(function_pairs())
    marks, positions = data.draw(rows_near(f.support, d))
    values = f.evaluate(marks, positions)
    assert values.dtype == np.float64 and values.shape == (len(marks),)
    rows = zip(marks.tolist(), map(tuple, positions.tolist()))
    args = [(x,) if f.domain == "space" else (s, x) for s, x in rows]
    assert _hex(values) == _hex(ref(*a) for a in args)
    assert _hex(values) == _hex(f(*a) for a in args)


def test_hat_is_exactly_zero_on_and_beyond_its_faces():
    f = hat_function((0.0, 1.0), (1.0, 0.5), mark_center=1.0, mark_half_width=1.0)
    positions = np.array([[-1.0, 1.0], [1.0, 1.0], [0.0, 0.5], [0.0, 1.5], [np.nextafter(1.0, 0.0), 1.0]])
    values = f.evaluate(np.ones(5), positions)
    assert _hex(values[:4]) == _hex([0.0] * 4)
    assert values[4] > 0.0
    # the mark interval (0, 2] is open below and closed above
    at_ends = f.evaluate([2.0, np.nextafter(2.0, 3.0), _TINY], [[0.0, 1.0]] * 3)
    tiny_mark = _ref_hat_evaluator((0.0, 1.0), (1.0, 0.5), 1.0, 1.0)(_TINY, (0.0, 1.0))
    assert _hex(at_ends) == _hex([0.0, 0.0, tiny_mark])


def test_user_scalar_callable_is_called_only_inside_its_support():
    seen = []
    f = TestFunction(lambda s, x: seen.append((s, x)) or 2.0, Window((0.0,), (1.0,), (0.0, 1.0)))
    values = f.evaluate([0.5, 0.5, 1.5, 1.0], [[0.25], [1.0], [0.5], [-0.0]])
    assert _hex(values) == _hex([2.0, 0.0, 0.0, 2.0])
    assert seen == [(0.5, (0.25,)), (1.0, (0.0,))]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_user_scalar_callable_returning_non_finite_raises(bad):
    window = Window((0.0,), (1.0,), mark_interval=(0.0, 2.0))
    f = TestFunction(lambda s, x: bad if x[0] > 0.5 else 1.0, window)
    with pytest.raises(InvalidArgument):
        f.evaluate([1.0, 1.0], [[0.25], [0.75]])
    with pytest.raises(InvalidArgument):
        f(1.0, (0.75,))
    assert f(1.0, (0.25,)) == 1.0
    gamma = make_configuration([(1.0, [0.25]), (1.0, [0.75])], 1)
    with pytest.raises(InvalidArgument):
        pair_configuration(f, gamma)
    with pytest.raises(InvalidArgument):
        vague_discrepancy(gamma, gamma, TestFamily((f,)))
    density = TestFunction(lambda x: bad if x[0] > 0.5 else 1.0, Window((0.0,), (1.0,)), None, "space")
    with pytest.raises(InvalidArgument):
        FiniteProduct(density).total_mark_mass


# --- the pairing kernel --------------------------------------------------------


@st.composite
def families_and_data(draw):
    d = draw(st.integers(1, 2))
    members, refs = [], []
    for _ in range(draw(st.integers(1, 5))):
        center, widths, mc, mw = draw(hats(d))
        members.append(hat_function(center, widths, mark_center=mc, mark_half_width=mw))
        refs.append(_Ref(_ref_hat_evaluator(center, widths, mc, mw), members[-1].support, "phase"))
    box = Window((-2.0,) * d, (2.0,) * d, mark_interval=(0.0, 3.0))
    # a user member with -0.0 terms, and a combination with -0.0 terms at hat faces
    signed_zero = lambda s, x: -0.0 if x[0] < 0.5 else s - 1.0
    members.append(TestFunction(signed_zero, box))
    refs.append(_Ref(signed_zero, box, "phase"))
    combo = linear_combination([(-1.0, members[0]), (0.0, members[-1])])
    members.append(combo)
    refs.append(_ref_linear_combination([(-1.0, refs[0]), (0.0, refs[-2])], combo.support, "phase"))
    configs = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.sampled_from([0, 1, 1, 2, 5, 9]))
        support = members[draw(st.integers(0, len(members) - 1))].support
        marks, positions = draw(rows_near(support, d, n_max=n))
        configs.append(make_configuration(list(zip(marks.tolist(), positions.tolist())), d))
    return TestFamily(tuple(members)), refs, configs


@_SETTINGS
@given(families_and_data())
def test_kernel_over_many_configurations_equals_one_at_a_time(case):
    family, refs, configs = case
    table = family._kernel.matrix(configs)
    assert table.shape == (len(configs), len(family))
    for row, gamma in zip(table, configs):
        assert _hex(row) == _hex(family.pairings(gamma))
        assert _hex(row) == _hex(_ref_pairing(ref, gamma) for ref in refs)
        assert _hex(row[:1]) == _hex([pair_configuration(family.functions[0], gamma)])


@_SETTINGS
@given(families_and_data())
def test_convergence_scan_names_the_first_member_at_the_maximum(case):
    family, refs, configs = case
    terms, limit = configs[:-1] or configs, configs[-1]
    report = check_convergence(lambda n: terms[n - 1], limit, family, 0.01, len(terms))
    at_limit = [_ref_pairing(ref, limit) for ref in refs]
    for gamma, worst, member in zip(terms, report.discrepancies, report.argmax):
        at_term = [_ref_pairing(ref, gamma) for ref in refs]
        gaps = [w * abs(a - b) for w, a, b in zip(family.weights, at_term, at_limit)]
        expected = 0.0
        for g in gaps:
            expected = max(expected, g)
        assert worst.hex() == expected.hex()
        assert member == next((j for j, g in enumerate(gaps) if g == expected), 0)
        assert vague_discrepancy(gamma, limit, family).hex() == expected.hex()


def test_long_scans_pair_their_terms_in_chunks(monkeypatch):
    from platocone import merging_family, merging_limit, merging_sequence, topology

    x0 = (0.25, -1.0)
    args = (lambda n: merging_sequence(x0, 0.5, 3.0, n), merging_limit(x0, 0.5, 3.0),
            merging_family(x0, 0.5, 3.0), 0.01, 50)
    whole = check_convergence(*args)
    monkeypatch.setattr(topology, "_SCAN_CHUNK", 7)
    chunked = check_convergence(*args)
    assert _hex(chunked.discrepancies) == _hex(whole.discrepancies)
    assert chunked.argmax == whole.argmax and chunked.converged == whole.converged


def test_measure_pairings_weight_position_functions_by_the_mark():
    rng = np.random.default_rng(11)
    atoms = zip(rng.uniform(0.1, 3.0, 60).tolist(), rng.uniform(-3.0, 3.0, (60, 1)).tolist())
    eta = make_measure(list(atoms), 1)
    space = hat_function((0.5,), 2.0)
    phase = hat_function((0.5,), 2.0, mark_center=1.5, mark_half_width=1.5)
    ref_space = _Ref(_ref_hat_evaluator((0.5,), (2.0,)), space.support, "space")
    ref_phase = _Ref(_ref_hat_evaluator((0.5,), (2.0,), 1.5, 1.5), phase.support, "phase")
    assert pair_measure(space, eta).hex() == _ref_pairing(ref_space, eta).hex()
    assert double_pair(phase, eta).hex() == _ref_pairing(ref_phase, eta).hex()


def test_kernel_blocks_do_not_change_bits(monkeypatch):
    rng = np.random.default_rng(12)
    n = 100_000
    points = zip(rng.uniform(0.01, 8.0, n).tolist(), rng.uniform((0.0, 0.0), (10.0, 5.0), (n, 2)).tolist())
    gamma = make_configuration(list(points), 2)
    family = hat_family(Window((0.0, 0.0), (10.0, 5.0)), (4, 2), (0.0, 8.0), mark_cells=4)
    assert len(family) == 32
    # block-free reference: each member's whole value vector summed in one cumsum
    reference = [configuration._total(f.evaluate(gamma.marks, gamma.positions)) for f in family.functions]
    monkeypatch.setattr(configuration, "_BLOCK_CELLS", 32 * 1000 + 7)
    blocked = family._kernel.matrix((gamma, gamma))
    assert _hex(blocked[0]) == _hex(reference) == _hex(blocked[1])
    assert all(v != 0.0 for v in reference)
