"""Spiky/flat limits, honesty thresholds, and the mean-vs-median gap."""

import math

import numpy as np
import pytest

from bfdr import analysis, exact, expansions, models, priors
from bfdr.analysis import (
    AnalysisError,
    empirical_spiky_check,
    n_alpha,
    statistic_gap,
)
from bfdr.models import TestSetup

from derivations import spiky_limits

NORMAL = models.normal_mean_model()
NLOC = models.normal_location_model()
CLOC = models.cauchy_location_model()

# mpmath, 40 digits: g(0) (phi(z) - alpha z) (sqrt(2 pi) - 2) at the standard
# normal-normal alpha = 0.05 point
C1_GAP_STANDARD = 0.004222789590031064


class TestSpikyLimits:
    def test_symmetric_boundary(self):
        lim = spiky_limits(0.3, 0.3, 0.5)
        assert lim.delta_limit_tau0 == pytest.approx(0.5, rel=1e-14)
        assert lim.eps_limit_tau0 == pytest.approx(0.5, rel=1e-14)

    def test_continuous_power_gives_null_mass(self):
        for p in (0.05, 0.4, 0.9):
            for lam in (0.2, 0.5, 0.8):
                lim = spiky_limits(p, p, lam)
                assert lim.delta_limit_tau0 == pytest.approx(lam, rel=1e-14)

    def test_asymmetric_arithmetic(self):
        lim = spiky_limits(0.1, 0.9, 0.3)
        assert lim.delta_limit_tau0 == pytest.approx(0.03 / 0.66, rel=1e-12)
        assert lim.eps_limit_tau0 == pytest.approx(0.07 / 0.34, rel=1e-12)

    def test_flat_limits_are_zero(self):
        lim = spiky_limits(0.2, 0.2, 0.5)
        assert lim.delta_limit_tauinf == 0.0
        assert lim.eps_limit_tauinf == 0.0

    def test_zero_denominators_rejected(self):
        with pytest.raises(AnalysisError):
            spiky_limits(0.0, 0.0, 0.5)
        with pytest.raises(AnalysisError):
            spiky_limits(1.0, 1.0, 0.5)
        with pytest.raises(AnalysisError):
            spiky_limits(0.5, 0.5, 0.0)


class TestEmpiricalSpikyCheck:
    def test_limits_on_scale_grid(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        rows = empirical_spiky_check(NORMAL, priors.normal_prior(1.0), setup, [1e-3, 1.0, 1e3])
        by_tau = {row.tau: row for row in rows}
        assert by_tau[1e-3].fdr == pytest.approx(0.5, abs=0.05)
        assert by_tau[1e-3].far == pytest.approx(0.5, abs=0.05)
        assert by_tau[1e3].fdr <= 0.01
        assert by_tau[1e3].far <= 0.01

    def test_unit_scale_matches_plain_exact(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        rows = empirical_spiky_check(NORMAL, priors.normal_prior(1.0), setup, [1.0])
        plain = exact.exact_rates(exact.exact_joint(NORMAL, priors.normal_prior(1.0), setup))
        assert rows[0].fdr == pytest.approx(plain.fdr.value, abs=1e-12)
        assert rows[0].far == pytest.approx(plain.far.value, abs=1e-12)

    def test_empty_grid_rejected(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        with pytest.raises(AnalysisError):
            empirical_spiky_check(NORMAL, priors.normal_prior(1.0), setup, [])


class TestNAlpha:
    def test_normal_normal_thresholds(self):
        assert n_alpha(NORMAL, priors.normal_prior(1.0), 1.0, 0.05) <= 15
        assert n_alpha(NORMAL, priors.normal_prior(1.0), 0.5, 0.05) <= 8

    def test_cauchy_cauchy_median_thresholds(self):
        assert n_alpha(CLOC, priors.cauchy_prior(1.0), 1.0, 0.05) <= 15
        assert n_alpha(CLOC, priors.cauchy_prior(1.0), 0.5, 0.05) < 30

    # the id "exact" names the one scan n_alpha has
    @pytest.mark.parametrize("scan", ["exact"])
    def test_not_found_returns_none(self, scan):
        assert n_alpha(NORMAL, priors.normal_prior(1.0), 0.01, 0.05, n_max=2) is None

    def test_scan_is_smallest_qualifying_n(self):
        found = n_alpha(NORMAL, priors.normal_prior(1.0), 1.0, 0.05)
        prior = priors.scale_prior(priors.normal_prior(1.0), 1.0)
        if found > 1:
            before = exact.exact_rates(
                exact.exact_joint(NORMAL, prior, TestSetup("mean_ump", 0.0, 0.05, found - 1))
            ).fdr.value
            assert before > 0.05
        at = exact.exact_rates(
            exact.exact_joint(NORMAL, prior, TestSetup("mean_ump", 0.0, 0.05, found))
        ).fdr.value
        assert at <= 0.05

    @pytest.mark.parametrize(
        "model,prior",
        [(NORMAL, priors.normal_prior(1.0)), (CLOC, priors.cauchy_prior(1.0))],
        ids=["normal-normal-mean", "cauchy-cauchy-median"],
    )
    def test_threshold_non_increasing_in_tau(self, model, prior):
        taus = [0.3, 0.6, 1.0, 2.0, 4.0]
        thresholds = [n_alpha(model, prior, tau, 0.05, n_max=80) for tau in taus]
        assert all(t is not None for t in thresholds)
        assert all(a >= b for a, b in zip(thresholds, thresholds[1:]))

    @pytest.mark.parametrize("method", ["exact", "series3"])
    def test_takes_no_method(self, method):
        # the series scan is gone: no method picks a route, not even the exact one
        with pytest.raises(TypeError, match="method"):
            n_alpha(NORMAL, priors.normal_prior(1.0), 1.0, 0.05, method=method)

    # the id "exact" names the one scan n_alpha has
    @pytest.mark.parametrize("scan", ["exact"])
    def test_median_rejects_nonzero_theta0(self, scan):
        with pytest.raises(models.ModelError, match="theta0 = 0"):
            n_alpha(CLOC, priors.cauchy_prior(1.0), 1.0, 0.05, theta0=0.5)


class TestStatisticGap:
    def test_standard_point(self):
        gap = statistic_gap(1.0 / math.sqrt(2.0 * math.pi), 0.05)
        assert gap.c1_gap == pytest.approx(C1_GAP_STANDARD, rel=1e-12)

    def test_identity_with_coefficient_sets(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            g0 = float(np.exp(rng.uniform(np.log(0.05), np.log(2.0))))
            alpha = float(rng.uniform(0.005, 0.495))
            tau = 1.0 / (math.sqrt(2.0 * math.pi) * g0)  # normal prior with g(0) = g0
            prior = priors.normal_prior(tau)
            cs_mean = expansions.exp_family_coefficients(NORMAL, prior, 0.0, alpha)
            cs_med = expansions.median_coefficients(NLOC, prior, alpha, 21)
            gap = statistic_gap(g0, alpha)
            assert abs(gap.c1_gap - (cs_med.c1 - cs_mean.c1)) <= 1e-12

    def test_positive_below_one_half(self):
        for alpha in (0.001, 0.05, 0.2, 0.4, 0.49):
            gap = statistic_gap(0.4, alpha)
            assert gap.c1_gap > 0.0
            assert gap.c2_gap_lower > 0.0

    def test_homogeneity_in_g0(self):
        g1 = statistic_gap(0.3, 0.05)
        g2 = statistic_gap(0.6, 0.05)
        assert g2.c1_gap == pytest.approx(2.0 * g1.c1_gap, rel=1e-14)
        assert g2.c2_gap_lower == pytest.approx(4.0 * g1.c2_gap_lower, rel=1e-14)

    def test_second_order_bound_is_a_lower_bound(self):
        # even n adds -g(0) sqrt(2 pi) f12 alpha >= 0 on top of the bound
        g0 = 1.0 / math.sqrt(2.0 * math.pi)
        prior = priors.normal_prior(1.0)
        cs_mean = expansions.exp_family_coefficients(NORMAL, prior, 0.0, 0.05)
        gap = statistic_gap(g0, 0.05)
        for n, strict in ((20, True), (21, False)):
            cs_med = expansions.median_coefficients(NLOC, prior, 0.05, n)
            c2_gap = cs_med.c2 - cs_mean.c2
            if strict:
                assert c2_gap > gap.c2_gap_lower
            else:
                assert c2_gap == pytest.approx(gap.c2_gap_lower, rel=1e-12)

    def test_domain_rejections(self):
        with pytest.raises(AnalysisError):
            statistic_gap(0.0, 0.05)
        with pytest.raises(models.ModelError, match=r"alpha must lie in \(0, 1\)"):
            statistic_gap(0.4, 1.2)

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-54])
    def test_alpha_where_one_minus_alpha_rounds_to_one_rejected(self, alpha):
        with pytest.raises(models.ModelError, match=r"alpha must exceed 2\*\*-54"):
            statistic_gap(0.4, alpha)


class TestCoefficientInequalityAcrossStatistics:
    def test_c1_below_d1_for_both_statistics(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            tau = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
            alpha = float(rng.uniform(0.01, 0.49))
            prior = priors.normal_prior(tau)
            cs_mean = expansions.exp_family_coefficients(NORMAL, prior, 0.0, alpha)
            cs_med = expansions.median_coefficients(NLOC, prior, alpha, 21)
            assert cs_mean.c1 < cs_mean.d1
            assert cs_med.c1 < cs_med.d1
