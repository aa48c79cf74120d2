"""The Gamma law beyond one window's mass: the mark law and the largest jump.

A Gamma random measure with parameter theta on a window of volume vol has
atoms at the points of a Poisson process with intensity
``theta * s^-1 e^-s ds dx``.  Two consequences are tested here:

* given the count, the marks kept above ``eps`` are i.i.d. with
  ``P(mark <= s) = 1 - E1(s) / E1(eps)`` on (eps, inf);
* the largest mark has ``P(max <= s) = exp(-theta * vol * E1(s))``, the
  chance that no atom lies above s;
* the Laplace functional of ``f = c 1_A`` is ``E exp(-c mass(A)) =
  exp(-theta |A| [E1(eps) - E1(eps (1 + c))])`` for the atoms kept above
  ``eps`` (Campbell's theorem; Kingman, *Poisson Processes*, 1993, ch. 3);
* the masses of disjoint sub-windows are independent Gamma(theta |A_i|, 1)
  (up to the truncated mass, about 1e-8 per unit volume at eps 1e-8);
* positions are uniform on the window and independent of the marks, for
  both samplers.

Each distance test is a Kolmogorov-Smirnov distance on fixed seeds
against the asymptotic 0.1 % critical value ``1.95 / sqrt(n)``; the
Laplace mean may stray 4 standard errors, the chi-square statistic 4
standard deviations above its degrees of freedom (or up to its 0.1 %
quantile, where that is quoted).
"""

import math

import numpy as np
import pytest

from platocone import (
    EmpiricalSample,
    Window,
    chi_square_independence,
    exp_integral_e1,
    gamma_cdf,
    ks_statistic,
    mass_in_window,
    sample_gamma,
    sample_gamma_ordered,
)
from platocone.stats import e1_array

UNIT = Window((0.0,), (1.0,))
EPS = 1e-2
E1_EPS = exp_integral_e1(EPS)
E1_ONE = exp_integral_e1(1.0)


def critical(n: int) -> float:
    return 1.95 / math.sqrt(n)


def ks(values, cdf) -> float:
    """``ks_statistic`` against ``cdf``, evaluated on all values at once."""
    values = np.asarray(values, dtype=float)
    table = dict(zip(values.tolist(), cdf(values).tolist()))
    return ks_statistic(EmpiricalSample(tuple(values.tolist())), table.__getitem__)


@pytest.fixture(scope="module")
def marks() -> np.ndarray:
    # about 1000 kept atoms per call, 5 % of them at or above 1
    window = Window((0.0,), (250.0,))
    return np.concatenate([sample_gamma(1.0, window, EPS, seed)[0].marks for seed in range(100)])


def test_kept_marks_follow_the_truncated_intensity(marks):
    assert marks.min() > EPS and len(marks) > 95_000
    d = ks(marks, lambda s: 1.0 - e1_array(s) / E1_EPS)
    assert d < critical(len(marks)), d


def test_marks_below_one_follow_the_intensity_on_that_branch(marks):
    below = marks[marks < 1.0]
    d = ks(below, lambda s: (E1_EPS - e1_array(s)) / (E1_EPS - E1_ONE))
    assert d < critical(len(below)), d


def test_marks_at_or_above_one_follow_the_intensity_on_that_branch(marks):
    above = marks[marks >= 1.0]
    assert len(above) > 5000
    d = ks(above, lambda s: 1.0 - e1_array(s) / E1_ONE)
    assert d < critical(len(above)), d


def largest_jump_cdf(s: np.ndarray) -> np.ndarray:
    # theta * vol = 1; the threshold sampler at eps = 1e-8 is empty with
    # probability exp(-E1(1e-8)) ~ 2e-8, so no maximum sits at eps
    return np.exp(-e1_array(s))


def test_largest_mark_of_the_threshold_sampler():
    largest = [sample_gamma(1.0, UNIT, 1e-8, seed)[0].marks.max() for seed in range(4000)]
    d = ks(largest, largest_jump_cdf)
    assert d < critical(len(largest)), d


def test_first_jump_of_the_ordered_sampler():
    first = [sample_gamma_ordered(1.0, UNIT, 1, seed)[0].marks[0] for seed in range(4000)]
    d = ks(first, largest_jump_cdf)
    assert d < critical(len(first)), d


@pytest.mark.parametrize("eps, n", [(EPS, 4000), (0.5, 10_000)])
def test_laplace_functional_of_an_indicator(eps, n):
    # f = c 1_A with c = 1 and A = [0, 1/2): E exp(-k mass(A)) for k = 1, 2
    # gives the mean and, with the square of the mean, the variance.  At
    # eps = 1/2 a draw has 0.56 atoms on average, so a coupling of one
    # atom's mark to its own position shows
    half = Window((0.0,), (0.5,))
    e1_eps = exp_integral_e1(eps)
    laplace = [math.exp(-0.5 * (e1_eps - exp_integral_e1(eps * (1.0 + k)))) for k in (1, 2)]
    values = [math.exp(-mass_in_window(sample_gamma(1.0, UNIT, eps, seed)[0], half)) for seed in range(n)]
    error = math.sqrt((laplace[1] - laplace[0] ** 2) / n)
    assert abs(np.mean(values) - laplace[0]) < 4.0 * error, (np.mean(values), laplace[0], error)


def gamma_quantile(shape: float, p: float) -> float:
    lo, hi = 0.0, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if gamma_cdf(shape, 1.0, mid) < p else (lo, mid)
    return 0.5 * (lo + hi)


def test_masses_of_disjoint_sub_windows_are_independent_gamma():
    # halves of the window: each is empty with probability exp(-E1(eps) / 2),
    # about 1e-4, where Gamma(1/2, 1) holds about as much below eps
    halves = [Window((0.0,), (0.5,)), Window((0.5,), (1.0,))]
    etas = [sample_gamma(1.0, UNIT, 1e-8, seed)[0] for seed in range(4000)]
    masses = np.array([[mass_in_window(eta, half) for half in halves] for eta in etas])
    for column in masses.T:
        d = ks(column, lambda x: np.array([gamma_cdf(0.5, 1.0, v) for v in x]))
        assert d < critical(len(column)), d
    # quartile cells of Gamma(1/2, 1) for each half
    cuts = [gamma_quantile(0.5, p) for p in (0.25, 0.5, 0.75)]
    cells = np.searchsorted(cuts, masses)
    table = np.zeros((4, 4))
    np.add.at(table, (cells[:, 0], cells[:, 1]), 1.0)
    result = chi_square_independence(table)
    assert result.statistic < result.dof + 4.0 * math.sqrt(2.0 * result.dof), result


BOX = Window((0.0, 0.0), (2.0, 1.0))
# 0.999 quantiles of the chi-square law with 21 and 14 degrees of freedom
CHI2_999 = {21: 46.80, 14: 36.12}


def position_cells(positions: np.ndarray) -> np.ndarray:
    """The index of each position's cell in the 4 x 2 grid of 1/2 x 1/2 squares on BOX."""
    column = np.minimum((positions[:, 0] * 2.0).astype(int), 3)
    return column * 2 + np.minimum((positions[:, 1] * 2.0).astype(int), 1)


def independence(rows: np.ndarray, positions: np.ndarray, n_rows: int):
    table = np.zeros((n_rows, 8))
    np.add.at(table, (rows, position_cells(positions)), 1.0)
    return chi_square_independence(table)


def mark_quantile(p: float) -> float:
    """The p-quantile of the kept-mark law 1 - E1(s) / E1(EPS)."""
    lo, hi = EPS, 50.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if 1.0 - exp_integral_e1(mid) / E1_EPS < p else (lo, mid)
    return 0.5 * (lo + hi)


def test_positions_are_uniform_and_independent_of_the_marks():
    # about 4000 atoms over 500 draws
    etas = [sample_gamma(1.0, BOX, EPS, seed)[0] for seed in range(500)]
    marks = np.concatenate([eta.marks for eta in etas])
    positions = np.concatenate([eta.positions for eta in etas])
    for axis, length in enumerate(BOX.upper):
        d = ks(positions[:, axis], lambda x: x / length)
        assert d < critical(len(positions)), (axis, d)
    # the mark law's quartiles against the position cells
    quartile = np.searchsorted([mark_quantile(p) for p in (0.25, 0.5, 0.75)], marks)
    result = independence(quartile, positions, 4)
    assert result.statistic < CHI2_999[result.dof], result


def test_ordered_positions_are_uniform_and_independent_of_the_jump_rank():
    n_jumps = 18
    etas = [sample_gamma_ordered(1.0, BOX, n_jumps, seed)[0] for seed in range(300)]
    positions = np.concatenate([eta.positions for eta in etas])
    d = ks(positions[:, 0], lambda x: x / 2.0)
    assert d < critical(len(positions)), d
    # atoms are stored in position order; rank 0 is the largest jump
    ranks = np.concatenate([np.argsort(np.argsort(-eta.marks)) for eta in etas])
    result = independence(ranks // (n_jumps // 3), positions, 3)
    assert result.statistic < CHI2_999[result.dof], result
