"""Bayesian false-discovery and false-acceptance rates of one-sided tests.

Three routes to the same quantities, cross-validating each other:

* third-order asymptotic series in powers of n^(-1/2) (``expansions``),
* exact quadrature of the power function against the prior (``exact``),
* Monte-Carlo simulation of m simultaneous experiments whose groupwise FDR
  converges to the Bayesian rate (``mtsim``).

``analysis`` adds rates under scaled (spiky or flat) priors, honesty
thresholds and mean-vs-median comparisons; ``cli`` exposes everything as
CSV/JSON tables.
"""

from .analysis import StatisticGap, n_alpha, statistic_gap
from .exact import DegenerateDenominator, JointProbabilities, exact_joint, exact_rates
from .expansions import (
    CoefficientSet,
    exp_family_coefficients,
    median_coefficients,
    rate_series,
)
from .models import (
    ExpFamilyModel,
    LocationModel,
    Problem,
    ReissCoefficients,
    ResolvedTest,
    TestSetup,
    cauchy_location_model,
    check_problem,
    exponential_rate_model,
    median_cdf_exact,
    normal_location_model,
    normal_mean_model,
    reiss_coefficients,
    resolve_test,
    ump_critical_value,
)
from .mtsim import SimConfig, SimResult, convergence_sweep, simulate
from .numkernel import IntegralValue, QuadratureNonConvergence, integrate, std_normal_pdf
from .priors import (
    Prior,
    cauchy_prior,
    f_mode1_prior,
    gamma_mode1_prior,
    lambda_alt,
    make_prior,
    normal_prior,
    parse_prior_spec,
    scale_prior,
    student_t_prior,
)
from .results import RatePair, RateResult

__version__ = "0.1.0"
