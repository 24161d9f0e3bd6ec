"""Models, tests, power functions and the sample-median distributions.

The Monte-Carlo reference for the median power was generated once with
numpy's default_rng(20260810), 2e6 replicates of the median of 21 draws from
N(0.3, 1) against the threshold z_0.05/(2 f(0) sqrt(21)): estimate 0.289633,
binomial SE 0.000321. Other frozen constants come from 40-digit mpmath or
exact arithmetic.
"""

import dataclasses
import math

import numpy as np
import pytest

from bfdr import models
from bfdr import numkernel as nk
from bfdr.models import TestSetup

from derivations import (
    cornish_fisher_critical,
    median_cdf_edgeworth,
    median_pdf_exact,
    power_median_edgeworth,
    reiss_r1,
    reiss_r2,
)
from oracles import gamma_upper_quantile_oracle, order_stat_cdf

Z95 = 1.6448536269514722
SQRT_2PI = math.sqrt(2.0 * math.pi)

NORMAL = models.normal_mean_model()
EXP = models.exponential_rate_model()
NLOC = models.normal_location_model()
CLOC = models.cauchy_location_model()


class TestBuiltinModels:
    def test_normal_mean_constants(self):
        th = np.linspace(-3.0, 3.0, 7)
        np.testing.assert_array_equal(NORMAL.mu(th), th)
        np.testing.assert_array_equal(NORMAL.sigma(th), np.ones_like(th))
        np.testing.assert_array_equal(NORMAL.rho3(th), np.zeros_like(th))
        np.testing.assert_array_equal(NORMAL.rho4(th), np.zeros_like(th))

    def test_exp_rate_constants(self):
        th = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(EXP.rho3(th), 2.0)
        np.testing.assert_allclose(EXP.rho4(th), 6.0)
        assert float(EXP.sigma(np.asarray(1.0))) == 1.0
        assert float(EXP.mu(np.asarray(1.0))) == 1.0
        assert EXP.natural_direction == -1

    def test_location_models(self):
        assert NLOC.f0 == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)
        assert NLOC.f0p == 0.0
        assert NLOC.f0pp == pytest.approx(-1.0 / SQRT_2PI, rel=1e-15)
        assert CLOC.f0 == pytest.approx(1.0 / math.pi, rel=1e-15)
        assert CLOC.f0pp == pytest.approx(-2.0 / math.pi, rel=1e-15)

    def test_invalid_setup_rejected(self):
        with pytest.raises(models.ModelError):
            TestSetup("mean_ump", 0.0, 1.5, 10)
        with pytest.raises(models.ModelError):
            TestSetup("mean_ump", 0.0, 0.05, 0)
        with pytest.raises(models.ModelError):
            TestSetup("wilcoxon", 0.0, 0.05, 10)

    @pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta0_rejected(self, theta0):
        with pytest.raises(models.ModelError, match="theta0 must be finite"):
            TestSetup("mean_ump", theta0, 0.05, 10)

    def test_sigma_positivity_enforced(self):
        with pytest.raises(models.ModelError):
            models.ExpFamilyModel(
                name="broken",
                theta_lo=-1.0,
                theta_hi=1.0,
                mu=lambda th: np.asarray(th, dtype=float),
                sigma=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
                rho3=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
                rho4=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
                mean_statistic_cdf=NORMAL.mean_statistic_cdf,
                sample_from_uniform=NORMAL.sample_from_uniform,
            )

    def test_location_quantile_must_invert_the_cdf(self):
        with pytest.raises(models.ModelError, match="cdf"):
            models.LocationModel("bad", NLOC.f0, NLOC.f0p, NLOC.f0pp, NLOC.pdf, NLOC.cdf,
                                 ppf=lambda u: 2 * nk.std_normal_quantile(u))

    def test_sampler_must_follow_the_mean_statistic_cdf(self):
        with pytest.raises(models.ModelError, match="sample_from_uniform"):
            dataclasses.replace(NORMAL, sample_from_uniform=lambda th, u: th + 2 * nk.std_normal_quantile(u))


def _example_variant(rc, n):
    """The worked-example coefficients: f23 = 1/4 - (1/2 - {n/2})^2."""
    frac = 0.0 if n % 2 == 0 else 0.5
    return dataclasses.replace(rc, f23=0.25 - (0.5 - frac) ** 2)


class TestUmpCriticalValue:
    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_normal_pivot_is_exact(self, n):
        k = models.ump_critical_value(NORMAL, TestSetup("mean_ump", 0.0, 0.05, n))
        assert k == pytest.approx(Z95, abs=1e-9)

    def test_exponential_n1_analytic(self):
        k = models.ump_critical_value(EXP, TestSetup("mean_ump", 1.0, 0.05, 1))
        assert k == pytest.approx(-math.log(0.05) - 1.0, abs=1e-9)

    def test_exponential_n30_vs_gamma_quantile_oracle(self):
        k = models.ump_critical_value(EXP, TestSetup("mean_ump", 1.0, 0.05, 30))
        gamma_q = gamma_upper_quantile_oracle(30.0, 30.0, 0.05)
        assert k == pytest.approx(math.sqrt(30.0) * (gamma_q - 1.0), abs=1e-8)

    def test_size_is_alpha(self):
        for model, th0 in ((NORMAL, 0.0), (EXP, 1.0)):
            for n in (1, 5, 30):
                setup = TestSetup("mean_ump", th0, 0.05, n)
                k = models.ump_critical_value(model, setup)
                size = 1.0 - float(model.mean_statistic_cdf(th0, n, k))
                assert size == pytest.approx(0.05, abs=1e-9)

    def test_large_n_limit_is_z_alpha(self):
        # k - z_alpha ~ (z^2-1) rho3 / (6 sqrt(n)), so a 100x larger n cuts
        # the gap about 10x
        gaps = []
        for n in (100, 10_000):
            k = models.ump_critical_value(EXP, TestSetup("mean_ump", 1.0, 0.05, n))
            gaps.append(abs(k - Z95))
        assert gaps[1] < gaps[0] / 8.0
        assert gaps[1] < 6e-3

    @pytest.mark.parametrize(
        "alpha", [round(0.01 * i, 2) for i in range(1, 31)] + [1e-3, 1e-4, 1e-6]
    )
    @pytest.mark.parametrize("n", [1, 4, 10, 11, 20, 30])
    @pytest.mark.parametrize("model,th0", [(NORMAL, 0.0), (EXP, 1.0)], ids=["normal", "exp"])
    def test_smallest_double_reaching_the_level(self, model, th0, n, alpha):
        k = models.ump_critical_value(model, TestSetup("mean_ump", th0, alpha, n))
        target = 1.0 - alpha
        assert float(model.mean_statistic_cdf(th0, n, k)) >= target
        assert float(model.mean_statistic_cdf(th0, n, math.nextafter(k, -math.inf))) < target


class TestCornishFisher:
    def test_normal_case_collapses_to_z(self):
        assert cornish_fisher_critical(0.0, 0.0, 0.05, 7) == pytest.approx(
            Z95, rel=1e-14
        )

    def test_skewed_case(self):
        # mpmath, 40 digits, z = Phi^{-1}(0.95)
        assert cornish_fisher_critical(2.0, 6.0, 0.05, 1) == pytest.approx(
            2.0171527665022595, rel=1e-12
        )

    def test_large_n_limit(self):
        assert cornish_fisher_critical(2.0, 6.0, 0.05, 10**12) == pytest.approx(
            Z95, abs=1e-5
        )
        gap_far = abs(cornish_fisher_critical(2.0, 6.0, 0.05, 10**16) - Z95)
        gap_near = abs(cornish_fisher_critical(2.0, 6.0, 0.05, 10**12) - Z95)
        assert gap_far < gap_near

    def test_tracks_exact_exponential_critical_value(self):
        # k_CF - k_exact = O(n^{-3/2})
        gaps = []
        for n in (25, 100, 400):
            k_exact = models.ump_critical_value(EXP, TestSetup("mean_ump", 1.0, 0.05, n))
            k_cf = cornish_fisher_critical(2.0, 6.0, 0.05, n)
            gaps.append(abs(k_cf - k_exact) * n**1.5)
        assert max(gaps) / min(gaps) < 4.0


class TestPowerMeanTest:
    def test_power_at_null_is_alpha(self):
        for model, th0 in ((NORMAL, 0.0), (EXP, 1.0)):
            for n in (1, 5, 30):
                setup = TestSetup("mean_ump", th0, 0.05, n)
                assert models.resolve_test(model, setup).power(th0) == pytest.approx(
                    0.05, abs=1e-8
                )

    def test_normal_closed_form(self):
        # 1 - Phi(z_0.05 - 1); mpmath 40 digits
        setup = TestSetup("mean_ump", 0.0, 0.05, 4)
        assert models.resolve_test(NORMAL, setup).power(0.5) == pytest.approx(
            0.2595110228414441, rel=1e-12
        )

    def test_consistency_toward_alternative(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        assert models.resolve_test(NORMAL, setup).power(5.0) > 1.0 - 1e-9
        setup_exp = TestSetup("mean_ump", 1.0, 0.05, 10)
        # exp-rate alternative is small rates
        assert models.resolve_test(EXP, setup_exp).power(1e-4) > 1.0 - 1e-12
        assert models.resolve_test(EXP, setup_exp).power(50.0) < 1e-12

    def test_monotone_in_natural_direction(self):
        setup = TestSetup("mean_ump", 1.0, 0.05, 8)
        rates = np.array([0.4, 0.8, 1.0, 1.5, 3.0])
        power = models.resolve_test(EXP, setup).power(rates)
        assert np.all(np.diff(power) < 0)

    def test_vectorized(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 4)
        th = np.array([0.0, 0.5, 1.0])
        out = models.resolve_test(NORMAL, setup).power(th)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.2595110228414441, rel=1e-10)


class TestMedianDistribution:
    def test_order_index(self):
        assert [models.median_order_index(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]

    def test_pdf_single_observation(self):
        assert median_pdf_exact(NLOC, 1, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_pdf_three_observations_at_center(self):
        assert median_pdf_exact(NLOC, 3, 0.0) == pytest.approx(
            0.75 / math.sqrt(3.0), rel=1e-13
        )

    @pytest.mark.parametrize("model", [NLOC, CLOC], ids=lambda m: m.name)
    @pytest.mark.parametrize("n", list(range(1, 32)))
    def test_pdf_normalizes(self, model, n):
        # Cauchy medians at tiny n have polynomial tails; the log-compressed
        # tail map makes the wide window cheap.
        res = nk.integrate_split(
            lambda t: median_pdf_exact(model, n, t),
            -1e7,
            1e7,
            0.0,
            nk.QuadratureConfig(abs_tol=1e-8),
        )
        assert res.value == pytest.approx(1.0, abs=1e-6)

    def test_cdf_limits(self):
        assert models.median_cdf_exact(NLOC, 7, 100.0) == pytest.approx(1.0, abs=1e-12)
        assert models.median_cdf_exact(NLOC, 7, -100.0) == pytest.approx(0.0, abs=1e-12)

    def test_cdf_single_observation(self):
        ts = np.linspace(-3.0, 3.0, 13)
        expected = NLOC.cdf(ts / (2.0 * NLOC.f0))
        np.testing.assert_allclose(models.median_cdf_exact(NLOC, 1, ts), expected, rtol=1e-12)

    @pytest.mark.parametrize("model", [NLOC, CLOC], ids=lambda m: m.name)
    @pytest.mark.parametrize("n", [1, 3, 9, 21])
    def test_cdf_median_unbiased_odd_n(self, model, n):
        assert models.median_cdf_exact(model, n, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_cdf_monotone(self):
        ts = np.linspace(-4.0, 4.0, 41)
        vals = models.median_cdf_exact(CLOC, 10, ts)
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
    def test_cdf_against_binomial_sum_oracle(self, n):
        k = models.median_order_index(n)
        for t in (-1.5, -0.3, 0.0, 0.4, 2.2):
            u = float(NLOC.cdf(t / (2.0 * NLOC.f0 * math.sqrt(n))))
            assert models.median_cdf_exact(NLOC, n, t) == pytest.approx(
                order_stat_cdf(u, k, n), rel=1e-12, abs=1e-14
            )


class TestReissCoefficients:
    def test_normal_even(self):
        rc = models.reiss_coefficients(NLOC, 20)
        assert rc.parity == "even"
        assert rc.f11 == 0.0
        assert rc.f12 == -1.0
        assert rc.f21 == 0.0
        assert rc.f22 == pytest.approx(0.25 - math.pi / 12.0, rel=1e-14)
        assert rc.f23 == pytest.approx(-0.25, rel=1e-14)

    def test_normal_odd(self):
        rc = models.reiss_coefficients(NLOC, 21)
        assert rc.parity == "odd"
        assert rc.f12 == 0.0
        assert rc.f23 == pytest.approx(0.25, rel=1e-14)

    def test_cauchy_even(self):
        rc = models.reiss_coefficients(CLOC, 30)
        assert rc.f22 == pytest.approx(0.25 - math.pi**2 / 12.0, rel=1e-14)

    def test_example_variant_even(self):
        # the worked-example f23 vanishes for even n, where the general
        # formula gives -1/4, and coincides with it for odd n
        rc_even = models.reiss_coefficients(NLOC, 20)
        assert rc_even.f23 == -0.25
        assert _example_variant(rc_even, 20).f23 == 0.0
        rc_odd = models.reiss_coefficients(NLOC, 21)
        assert _example_variant(rc_odd, 21).f23 == pytest.approx(rc_odd.f23, rel=1e-14)

    def test_parity_constraint_enforced(self):
        with pytest.raises(models.ModelError):
            models.ReissCoefficients(0.0, -0.5, 0.0, 0.0, 0.0, "even")


class TestMedianCdfEdgeworth:
    def test_zeroed_corrections_reduce_to_normal(self):
        rc = models.ReissCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, "odd")
        ts = np.linspace(-3.0, 3.0, 13)
        reconstructed = (
            nk.std_normal_cdf(ts)
            + nk.std_normal_pdf(ts) * reiss_r1(rc, ts) / math.sqrt(9)
            + nk.std_normal_pdf(ts) * reiss_r2(rc, ts) / 9
        )
        np.testing.assert_allclose(reconstructed, nk.std_normal_cdf(ts), rtol=0, atol=0)

    def test_center_value_odd_n(self):
        assert median_cdf_edgeworth(NLOC, 25, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_close_to_exact_at_n100(self):
        gap = abs(
            median_cdf_edgeworth(NLOC, 100, 1.0)
            - models.median_cdf_exact(NLOC, 100, 1.0)
        )
        assert gap <= 0.005

    @pytest.mark.parametrize("model", [NLOC, CLOC], ids=lambda m: m.name)
    @pytest.mark.parametrize("pair", [(25, 101), (26, 104)], ids=["odd", "even"])
    def test_two_term_error_decays_like_n_to_3_halves(self, model, pair):
        n_small, n_large = pair
        ts = np.linspace(-3.0, 3.0, 61)
        gap_small = np.max(
            np.abs(
                median_cdf_edgeworth(model, n_small, ts)
                - models.median_cdf_exact(model, n_small, ts)
            )
        )
        gap_large = np.max(
            np.abs(
                median_cdf_edgeworth(model, n_large, ts)
                - models.median_cdf_exact(model, n_large, ts)
            )
        )
        assert gap_small / gap_large >= 2.5

    def test_general_f23_beats_example_variant_even_n(self):
        # adjudication of the even-n f23 ambiguity against the exact CDF
        ts = np.linspace(-3.0, 3.0, 61)
        exact = models.median_cdf_exact(NLOC, 104, ts)
        gap_general = np.max(np.abs(median_cdf_edgeworth(NLOC, 104, ts) - exact))
        rc = _example_variant(models.reiss_coefficients(NLOC, 104), 104)
        example = (
            nk.std_normal_cdf(ts)
            + nk.std_normal_pdf(ts) * reiss_r1(rc, ts) / math.sqrt(104)
            + nk.std_normal_pdf(ts) * reiss_r2(rc, ts) / 104
        )
        gap_example = np.max(np.abs(example - exact))
        assert gap_general < gap_example


class TestPowerMedianTest:
    def test_alpha_half_at_origin(self):
        setup = TestSetup("median", 0.0, 0.5, 21)
        assert models.resolve_test(NLOC, setup).power(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_consistency(self):
        setup = TestSetup("median", 0.0, 0.05, 11)
        assert models.resolve_test(NLOC, setup).power(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_monte_carlo_oracle(self):
        # frozen MC reference, see module docstring
        setup = TestSetup("median", 0.0, 0.05, 21)
        mc_value, mc_se = 0.289633, 0.000321
        exact = models.resolve_test(NLOC, setup).power(0.3)
        assert abs(exact - mc_value) <= 3.0 * mc_se

    def test_edgeworth_mode_close_to_exact(self):
        setup = TestSetup("median", 0.0, 0.05, 41)
        th = np.linspace(-0.5, 0.8, 14)
        ex = models.resolve_test(NLOC, setup).power(th)
        ed = power_median_edgeworth(NLOC, th, setup)
        assert np.max(np.abs(ex - ed)) < 5e-3

    def test_requires_location_convention(self):
        setup = TestSetup("median", 0.3, 0.05, 9)
        with pytest.raises(models.ModelError):
            models.resolve_test(NLOC, setup)
        with pytest.raises(models.ModelError):
            power_median_edgeworth(NLOC, 0.1, setup)


class TestResolvedTest:
    def test_exp_rate_runs_against_the_user_parameter(self):
        test = models.resolve_test(EXP, TestSetup("mean_ump", 1.0, 0.05, 8))
        assert test.direction == -1 and test.theta0 == 1.0
        np.testing.assert_array_equal(
            test.is_null(np.array([0.5, 1.0, 2.0])), [False, True, True]
        )
        # the power rises toward the alternative theta < theta0
        assert test.power(0.5) > test.power(1.0) > test.power(2.0)
        assert test.power(1.0) == pytest.approx(0.05, abs=1e-12)

    def test_median_rejection_threshold(self):
        setup = TestSetup("median", 0.0, 0.05, 3)
        test = models.resolve_test(NLOC, setup)
        cut = Z95 / (2.0 * NLOC.f0 * math.sqrt(3))
        rows = np.array([[-9.0, cut * 1.001, 9.0], [-9.0, cut * 0.999, 9.0]])
        np.testing.assert_array_equal(test.rejects(rows), [True, False])
        np.testing.assert_array_equal(test.is_null(np.array([-0.1, 0.0, 0.1])), [True, True, False])

    def test_statistic_must_fit_model(self):
        with pytest.raises(models.ModelError):
            models.resolve_test(NLOC, TestSetup("mean_ump", 0.0, 0.05, 5))
        with pytest.raises(models.ModelError):
            models.resolve_test(NORMAL, TestSetup("median", 0.0, 0.05, 5))
