"""Derived studies: rates under scaled priors, honesty thresholds, statistic gaps.

The scale family g_tau(theta) = g(theta/tau)/tau concentrates at the null
boundary as tau -> 0 and flattens as tau -> infinity. In the spiky limit the
rates converge to ratios of the one-sided power limits at the boundary (the
tests check :func:`empirical_spiky_check` against them); in the flat limit
both rates vanish. The honesty threshold n_alpha(tau) is the
smallest sample size at which the post-experimental rate delta_n drops below
the pre-experimental level alpha under g_tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from . import numkernel as nk
from .exact import exact_joint, exact_rates
# Bound here because perfbench/tracing.py rebinds these three in ``analysis``.
from .expansions import exp_family_coefficients, median_coefficients, rate_series  # noqa: F401
from .models import TestSetup, _check_alpha, _check_count, check_problem
from .priors import Prior, scale_prior


class AnalysisError(ValueError):
    """Invalid analysis configuration."""


@dataclass(frozen=True)
class SpikyRow:
    tau: float
    fdr: float
    far: float


def empirical_spiky_check(
    model,
    base_prior: Prior,
    setup: TestSetup,
    tau_grid: Sequence[float],
) -> List[SpikyRow]:
    """Exact rates under g_tau across a grid of scales."""
    if not len(tau_grid):
        raise AnalysisError("tau_grid must be non-empty")
    rows = []
    for tau in tau_grid:
        rates = exact_rates(exact_joint(model, scale_prior(base_prior, float(tau)), setup))
        rows.append(SpikyRow(tau=float(tau), fdr=rates.fdr.value, far=rates.far.value))
    return rows


def n_alpha(
    model,
    base_prior: Prior,
    tau: float,
    alpha: float,
    n_max: int = 100,
    theta0: float = 0.0,
) -> Optional[int]:
    """Smallest n in [1, n_max] with the exact delta_n <= alpha under g_tau, else None.

    The scan is linear in n since delta_n need not be monotone.
    """
    n_max = _check_count("n_max", n_max)
    prior = scale_prior(base_prior, tau)
    check_problem(model, prior, theta0, alpha)

    def fdr(n):
        setup = TestSetup(model.statistic, theta0, alpha, n)
        return exact_rates(exact_joint(model, prior, setup)).fdr.value
    return next((n for n in range(1, n_max + 1) if fdr(n) <= alpha), None)


@dataclass(frozen=True)
class StatisticGap:
    """First-order gap and second-order lower bound between median and mean.

    For the normal model with a symmetric prior the median test's c1 exceeds
    the mean test's by g(0) (phi(z) - alpha z) (sqrt(2 pi) - 2), and the c2
    difference is bounded below by g(0)^2 z (phi(z) - alpha z) (2 pi - 4);
    both are positive for alpha < 1/2.
    """

    c1_gap: float
    c2_gap_lower: float


def statistic_gap(g0: float, alpha: float) -> StatisticGap:
    """Closed-form mean-vs-median coefficient gaps for prior density g0 at 0."""
    if not g0 > 0.0:
        raise AnalysisError(f"g0 must be positive, got {g0}")
    _check_alpha(alpha)
    z = nk.upper_quantile_z(alpha)
    core = nk.std_normal_pdf(z) - alpha * z
    return StatisticGap(
        c1_gap=g0 * core * (math.sqrt(2.0 * math.pi) - 2.0),
        c2_gap_lower=g0 * g0 * z * core * (2.0 * math.pi - 4.0),
    )
