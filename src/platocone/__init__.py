"""platocone: marked configurations, discrete measures and the reflection between them.

The package implements, with exact set semantics and reproducible
floating-point behavior:

* finite configurations of marked points over R^d, with windowed
  counting, restriction and test-function pairings (:mod:`.configuration`);
* the cone of positive discrete measures, with support, subordination,
  window mass and both pairings (:mod:`.cone`);
* pinpointing configurations and the reflection bijection onto the cone
  (:mod:`.plato`);
* seedable samplers for Poisson configurations and Gamma random measures
  with explicit truncation-error accounting (:mod:`.sampling`);
* a test-function discrepancy toolkit for vague-convergence experiments,
  including the two-point merging sequence whose limit leaves the
  pinpointing space (:mod:`.topology`);
* self-contained distribution oracles and test statistics
  (:mod:`.stats`) and JSONL persistence (:mod:`.jsonl`).
"""

from .configuration import (
    Configuration,
    MarkedPoint,
    TestFunction,
    Window,
    canonical_order,
    count_in_window,
    indicator,
    linear_combination,
    make_configuration,
    mark_weighted,
    n_point_class,
    pair_configuration,
    restrict,
)
from .cone import (
    DiscreteMeasure,
    double_pair,
    is_sub_measure,
    make_measure,
    mass_in_window,
    pair_measure,
    support,
    weight_at,
    zero_measure,
)
from .errors import (
    DegenerateTable,
    DegenerateWindow,
    DimensionMismatch,
    EqualMarks,
    InvalidArgument,
    InvalidEpsilon,
    InvalidTheta,
    JsonlFormatError,
    NonIntegrableDensity,
    NonPositiveMark,
    NonPositiveWeight,
    NotCanonical,
    NotPinpointing,
    PlatoconeError,
    UnboundedWindow,
)
from .plato import (
    PlatoConfiguration,
    is_pinpointing,
    local_mass,
    reflect,
    reflect_inverse,
    to_plato,
)
from .sampling import (
    FiniteProduct,
    SampleReport,
    expected_truncation_error,
    sample_gamma,
    sample_gamma_ordered,
    sample_poisson,
)
from .stats import (
    ChiSquareResult,
    EmpiricalSample,
    chi_square_independence,
    exp_integral_e1,
    gamma_cdf,
    ks_statistic,
)
from .topology import (
    ConvergenceReport,
    TestFamily,
    check_convergence,
    cone_discrepancy,
    hat_family,
    hat_function,
    merging_family,
    merging_limit,
    merging_sequence,
    vague_discrepancy,
)

__version__ = "0.1.0"

__all__ = [
    "Configuration",
    "MarkedPoint",
    "TestFunction",
    "Window",
    "canonical_order",
    "count_in_window",
    "indicator",
    "linear_combination",
    "make_configuration",
    "mark_weighted",
    "n_point_class",
    "pair_configuration",
    "restrict",
    "DiscreteMeasure",
    "double_pair",
    "is_sub_measure",
    "make_measure",
    "mass_in_window",
    "pair_measure",
    "support",
    "weight_at",
    "zero_measure",
    "PlatoConfiguration",
    "is_pinpointing",
    "local_mass",
    "reflect",
    "reflect_inverse",
    "to_plato",
    "FiniteProduct",
    "SampleReport",
    "expected_truncation_error",
    "sample_gamma",
    "sample_gamma_ordered",
    "sample_poisson",
    "ChiSquareResult",
    "EmpiricalSample",
    "chi_square_independence",
    "exp_integral_e1",
    "gamma_cdf",
    "ks_statistic",
    "ConvergenceReport",
    "TestFamily",
    "check_convergence",
    "cone_discrepancy",
    "hat_family",
    "hat_function",
    "merging_family",
    "merging_limit",
    "merging_sequence",
    "vague_discrepancy",
    "DegenerateTable",
    "DegenerateWindow",
    "DimensionMismatch",
    "EqualMarks",
    "InvalidArgument",
    "InvalidEpsilon",
    "InvalidTheta",
    "JsonlFormatError",
    "NonIntegrableDensity",
    "NonPositiveMark",
    "NonPositiveWeight",
    "NotCanonical",
    "NotPinpointing",
    "PlatoconeError",
    "UnboundedWindow",
    "__version__",
]
