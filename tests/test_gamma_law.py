"""The Gamma law beyond one window's mass: the mark law and the largest jump.

A Gamma random measure with parameter theta on a window of volume vol has
atoms at the points of a Poisson process with intensity
``theta * s^-1 e^-s ds dx``.  Two consequences are tested here:

* given the count, the marks kept above ``eps`` are i.i.d. with
  ``P(mark <= s) = 1 - E1(s) / E1(eps)`` on (eps, inf);
* the largest mark has ``P(max <= s) = exp(-theta * vol * E1(s))``, the
  chance that no atom lies above s.

Each test is a Kolmogorov-Smirnov distance on fixed seeds against the
asymptotic 0.1 % critical value ``1.95 / sqrt(n)``.
"""

import math

import numpy as np
import pytest

from platocone import (
    EmpiricalSample,
    Window,
    exp_integral_e1,
    ks_statistic,
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
