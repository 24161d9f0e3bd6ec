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

from bfdr import exact, models, priors
from bfdr import numkernel as nk
from bfdr._special import _sp
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
# the priors the tests are resolved under: exp-rate's must lie on (0, inf)
N01 = priors.normal_prior(1.0)
GAMMA2 = priors.gamma_mode1_prior(2.0)
#: The location models' densities (a model carries only f0, f0p and f0pp).
PDF = {NLOC.name: priors._STANDARD_NORMAL.g, CLOC.name: priors._STANDARD_CAUCHY.g}


class TestBuiltinModels:
    def test_normal_mean_constants(self):
        th = np.linspace(-3.0, 3.0, 7)
        np.testing.assert_array_equal(NORMAL.mu(th), th)
        np.testing.assert_array_equal(NORMAL.sigma(th), np.ones_like(th))
        np.testing.assert_array_equal(NORMAL.rho3(th), np.zeros_like(th))
        np.testing.assert_array_equal(NORMAL.rho4(th), np.zeros_like(th))
        assert NORMAL.natural_direction == 1

    def test_exp_rate_constants(self):
        th = np.array([0.25, 1.0, 4.0])
        np.testing.assert_allclose(EXP.rho3(th), 2.0)
        np.testing.assert_allclose(EXP.rho4(th), 6.0)
        assert float(EXP.sigma(np.asarray(1.0))) == 1.0
        assert float(EXP.mu(np.asarray(1.0))) == 1.0
        assert EXP.natural_direction == -1

    def test_location_models(self):
        assert NLOC.f0 == 1.0 / SQRT_2PI
        assert NLOC.f0p == 0.0
        assert NLOC.f0pp == -1.0 / SQRT_2PI
        assert CLOC.f0 == 1.0 / math.pi
        assert CLOC.f0p == 0.0
        assert CLOC.f0pp == -2.0 / math.pi

    @pytest.mark.parametrize("model, member", [(NLOC, priors._STANDARD_NORMAL),
                                               (CLOC, priors._STANDARD_CAUCHY)],
                             ids=["normal", "cauchy"])
    def test_location_models_are_the_unit_priors(self, model, member):
        # one law per family: the model's CDF and quantile are the unit
        # prior's, and f0, f0p, f0pp its g, g1, g2 at 0
        assert (model.cdf, model.ppf) == (member.cdf, member.ppf)
        assert (model.f0, model.f0p, model.f0pp) == (member.g(0.0), member.g1(0.0), member.g2(0.0))

    def test_each_model_class_names_its_statistic(self):
        # class constants, not constructor fields
        assert NORMAL.statistic == EXP.statistic == models.ExpFamilyModel.statistic == "mean_ump"
        assert NLOC.statistic == CLOC.statistic == models.LocationModel.statistic == "median"
        assert models.LocationModel.natural_direction == 1
        assert {"statistic", "natural_direction"}.isdisjoint(
            f.name for f in dataclasses.fields(models.LocationModel))
        assert "statistic" not in {f.name for f in dataclasses.fields(models.ExpFamilyModel)}

    def test_invalid_setup_rejected(self):
        with pytest.raises(models.ModelError):
            TestSetup("mean_ump", 0.0, 1.5, 10)
        with pytest.raises(models.ModelError):
            TestSetup("mean_ump", 0.0, 0.05, 0)
        # the statistic is checked against the model, where the test is resolved
        with pytest.raises(models.ModelError, match="takes mean_ump, not wilcoxon"):
            models.resolve_test(NORMAL, N01, TestSetup("wilcoxon", 0.0, 0.05, 10))

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-54])
    def test_alpha_where_one_minus_alpha_rounds_to_one_rejected(self, alpha):
        with pytest.raises(models.ModelError, match=r"alpha must exceed 2\*\*-54"):
            TestSetup("mean_ump", 0.0, alpha, 10)

    def test_smallest_alpha_accepted(self):
        alpha = math.nextafter(2.0**-54, 1.0)
        assert 1.0 - alpha < 1.0
        assert TestSetup("mean_ump", 0.0, alpha, 10).alpha == alpha

    def test_prior_support_must_lie_in_the_parameter_interval(self):
        gamma = priors.gamma_mode1_prior(2.0)
        # accepted problems carry lambda in the test's natural direction
        assert models.check_problem(EXP, gamma, 1.0, 0.05).lambda_alt == priors.lambda_alt(gamma, 1.0, -1)
        assert models.check_problem(NLOC, priors.normal_prior(1.0), 0.0, 0.05).lambda_alt == 0.5
        with pytest.raises(models.ModelError, match="reaches outside"):
            models.check_problem(EXP, priors.normal_prior(1.0), 1.0, 0.05)
        with pytest.raises(models.ModelError, match="reaches outside"):
            models.check_problem(dataclasses.replace(EXP, theta_hi=10.0), gamma, 1.0, 0.05)

    @pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta0_rejected(self, theta0):
        # check_problem's rule 2, which every route runs; the setup holds theta0 as given
        setup = TestSetup("mean_ump", theta0, 0.05, 10)
        with pytest.raises(models.ModelError, match="theta0 must be finite"):
            models.resolve_test(NORMAL, N01, setup)

    def test_sigma_positivity_enforced(self):
        with pytest.raises(models.ModelError, match="sigma must be positive"):
            models.ExpFamilyModel(
                name="broken",
                theta_lo=-1.0,
                theta_hi=1.0,
                mu=lambda th: np.asarray(th, dtype=float),
                sigma=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
                rho3=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
                rho4=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
                mean_statistic_cdf=NORMAL.mean_statistic_cdf,
                mean_statistic_isf=NORMAL.mean_statistic_isf,
                sample_from_uniform=NORMAL.sample_from_uniform,
            )

    def test_location_quantile_must_invert_the_cdf(self):
        with pytest.raises(models.ModelError, match="cdf"):
            models.LocationModel("bad", NLOC.f0, NLOC.f0p, NLOC.f0pp, NLOC.cdf,
                                 ppf=lambda u: 2 * NLOC.ppf(u))

    def test_sampler_must_follow_the_mean_statistic_cdf(self):
        with pytest.raises(models.ModelError, match="sample_from_uniform"):
            dataclasses.replace(NORMAL, sample_from_uniform=lambda th, u: th + 2 * NLOC.ppf(u))

    @pytest.mark.parametrize("model", [NORMAL, EXP], ids=lambda m: m.name)
    def test_isf_must_invert_the_survival_function(self, model):
        isf = model.mean_statistic_isf
        with pytest.raises(models.ModelError, match="mean_statistic_isf"):
            dataclasses.replace(model, mean_statistic_isf=lambda th, n, q: 2.0 * isf(th, n, q))

    @pytest.mark.parametrize("model", [NORMAL, EXP], ids=lambda m: m.name)
    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_builtin_isf_round_trip(self, model, n):
        q = np.array([1e-6, 1e-3, 0.05, 0.5, 0.95, 1 - 1e-3])
        t = model.mean_statistic_isf(1.0, n, q)
        np.testing.assert_allclose(1.0 - model.mean_statistic_cdf(1.0, n, t), q, rtol=1e-9, atol=1e-15)


def _mirrored_normal_mean():
    """N(-theta, 1): its mean falls in theta, so its alternative is {theta < theta0}."""
    return dataclasses.replace(
        NORMAL, name="normal-mirrored", mu=lambda th: -np.asarray(th, dtype=float),
        sample_from_uniform=lambda th, u: NORMAL.sample_from_uniform(-np.asarray(th), u))


class TestNaturalDirection:
    """The direction is read from mu, never passed."""

    def test_the_constructor_takes_no_direction(self):
        fields = {f.name: f for f in dataclasses.fields(models.ExpFamilyModel)}
        assert not fields["natural_direction"].init
        kwargs = {f: getattr(NORMAL, f) for f, spec in fields.items() if spec.init}
        with pytest.raises(TypeError, match="natural_direction"):
            models.ExpFamilyModel(**kwargs, natural_direction=1)

    def test_a_falling_mean_flips_the_direction(self):
        assert _mirrored_normal_mean().natural_direction == -1

    @pytest.mark.parametrize("prior_spec", ["normal:1", "cauchy:0.5", "t:4:2"])
    @pytest.mark.parametrize("alpha, n", [(0.05, 10), (1e-4, 4)])
    def test_the_mirrored_normal_mean_has_normal_mean_rates(self, prior_spec, alpha, n):
        # a symmetric prior seen through theta -> -theta is the same prior,
        # so the mirrored test's rates at theta0 = 0 are normal-mean's
        prior = priors.parse_prior_spec(prior_spec)
        setup = TestSetup("mean_ump", 0.0, alpha, n)
        mirrored, normal = (exact.exact_rates(exact.exact_joint(model, prior, setup))
                            for model in (_mirrored_normal_mean(), NORMAL))
        assert mirrored.fdr.value.hex() == normal.fdr.value.hex()
        assert mirrored.far.value.hex() == normal.far.value.hex()

    def test_a_mean_that_is_not_monotone_is_refused(self):
        with pytest.raises(models.ModelError, match="monotone"):
            dataclasses.replace(NORMAL, mu=lambda th: np.asarray(th, dtype=float) ** 2)


#: The (alpha, n) grid on which k is checked against its contract.
STRADDLE_ALPHAS = [round(0.01 * i, 2) for i in range(1, 31)] + [1e-3, 1e-4, 1e-6]
STRADDLE_NS = [1, 4, 10, 11, 20, 30]
#: Most pivot-CDF calls one critical-value solve makes on that grid, as measured.
#: Both are at alpha = 1e-6 (for exp-rate at n = 1): near 1 - alpha the CDF
#: steps by one of its own ulps only over some 10**4 ulps of k, so k lies
#: farthest from the isf seed there (12,630 ulps for normal-mean, 31,250
#: for exp-rate at n = 1).
MAX_NORMAL_CALLS = 23
MAX_EXP_CALLS = 27


class _CountingPivot:
    """A stand-in model: ``mean_statistic_cdf``, recording every point it is asked
    at, and ``mean_statistic_isf`` (the normal pivot's unless given)."""

    def __init__(self, cdf, isf=NORMAL.mean_statistic_isf):
        self.points = []
        self._cdf = cdf
        self.mean_statistic_isf = isf

    def mean_statistic_cdf(self, theta, n, t):
        self.points.append(t)
        return self._cdf(theta, n, t)


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

    @pytest.mark.parametrize("alpha", STRADDLE_ALPHAS)
    @pytest.mark.parametrize("n", STRADDLE_NS)
    @pytest.mark.parametrize("model,th0", [(NORMAL, 0.0), (EXP, 1.0)], ids=["normal", "exp"])
    def test_smallest_double_reaching_the_level(self, model, th0, n, alpha):
        """k and the double below it straddle the level: cdf(k) >= 1 - alpha > cdf(k - 1 ulp).

        Only that: a lower double can reach the level too where the CDF is
        flat or non-monotone in the last bit (ndtr at alpha = 0.15 is one).
        """
        k = models.ump_critical_value(model, TestSetup("mean_ump", th0, alpha, n))
        target = 1.0 - alpha
        assert float(model.mean_statistic_cdf(th0, n, k)) >= target
        assert float(model.mean_statistic_cdf(th0, n, math.nextafter(k, -math.inf))) < target

    def test_pivot_cdf_calls_per_solve_are_bounded(self):
        most = {}
        for model, th0 in ((NORMAL, 0.0), (EXP, 1.0)):
            for n in STRADDLE_NS:
                for alpha in STRADDLE_ALPHAS:
                    counted = _CountingPivot(model.mean_statistic_cdf, model.mean_statistic_isf)
                    models.ump_critical_value(counted, TestSetup("mean_ump", th0, alpha, n))
                    most[model.name] = max(most.get(model.name, 0), len(counted.points))
        assert most["normal-mean"] <= MAX_NORMAL_CALLS
        assert most["exp-rate"] <= MAX_EXP_CALLS

    @pytest.mark.parametrize(
        "cdf", [lambda theta, n, t: 0.5, lambda theta, n, t: math.nan], ids=["constant", "nan"]
    )
    def test_cdf_never_reaching_the_level_fails_at_the_limit(self, cdf):
        counted = _CountingPivot(cdf)
        with pytest.raises(models.ModelError, match="failed to bracket"):
            models.ump_critical_value(counted, TestSetup("mean_ump", 0.0, 0.05, 10))
        # the bracket grew to the +-1e6 limit and stopped there
        assert 1e6 / 4.0 < max(abs(t) for t in counted.points) <= 1e6

    @pytest.mark.parametrize("seed", [math.nan, math.inf, -math.inf])
    def test_non_finite_seed_fails_before_any_cdf_call(self, seed):
        counted = _CountingPivot(NORMAL.mean_statistic_cdf, isf=lambda theta, n, q: seed)
        with pytest.raises(models.ModelError, match="non-finite seed"):
            models.ump_critical_value(counted, TestSetup("mean_ump", 0.0, 0.05, 10))
        assert counted.points == []


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
        for model, prior, th0 in ((NORMAL, N01, 0.0), (EXP, GAMMA2, 1.0)):
            for n in (1, 5, 30):
                setup = TestSetup("mean_ump", th0, 0.05, n)
                assert models.resolve_test(model, prior, setup).power(th0) == pytest.approx(
                    0.05, abs=1e-8
                )

    def test_normal_closed_form(self):
        # 1 - Phi(z_0.05 - 1); mpmath 40 digits
        setup = TestSetup("mean_ump", 0.0, 0.05, 4)
        assert models.resolve_test(NORMAL, N01, setup).power(0.5) == pytest.approx(
            0.2595110228414441, rel=1e-12
        )

    def test_consistency_toward_alternative(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        assert models.resolve_test(NORMAL, N01, setup).power(5.0) > 1.0 - 1e-9
        setup_exp = TestSetup("mean_ump", 1.0, 0.05, 10)
        # exp-rate alternative is small rates
        assert models.resolve_test(EXP, GAMMA2, setup_exp).power(1e-4) > 1.0 - 1e-12
        assert models.resolve_test(EXP, GAMMA2, setup_exp).power(50.0) < 1e-12

    def test_monotone_in_natural_direction(self):
        setup = TestSetup("mean_ump", 1.0, 0.05, 8)
        rates = np.array([0.4, 0.8, 1.0, 1.5, 3.0])
        power = models.resolve_test(EXP, GAMMA2, setup).power(rates)
        assert np.all(np.diff(power) < 0)

    def test_vectorized(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 4)
        th = np.array([0.0, 0.5, 1.0])
        out = models.resolve_test(NORMAL, N01, setup).power(th)
        assert out.shape == (3,)
        assert out[1] == pytest.approx(0.2595110228414441, rel=1e-10)


class TestMedianDistribution:
    def test_order_index(self):
        assert [models.median_order_index(n) for n in (1, 2, 3, 4, 5)] == [1, 2, 2, 3, 3]

    def test_pdf_single_observation(self):
        assert median_pdf_exact(NLOC, PDF[NLOC.name], 1, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_pdf_three_observations_at_center(self):
        assert median_pdf_exact(NLOC, PDF[NLOC.name], 3, 0.0) == pytest.approx(
            0.75 / math.sqrt(3.0), rel=1e-13
        )

    @pytest.mark.parametrize("model", [NLOC, CLOC], ids=lambda m: m.name)
    @pytest.mark.parametrize("n", list(range(1, 32)))
    def test_pdf_normalizes(self, model, n):
        # Cauchy medians at tiny n have polynomial tails, which the
        # double-exponential map reaches out to 1e13.
        tol = 1e-8
        pdf = PDF[model.name]
        halves = [nk.integrate(lambda t: median_pdf_exact(model, pdf, n, t), 0.0, end, tol)
                  for end in (-math.inf, math.inf)]
        assert sum(h.value for h in halves) == pytest.approx(1.0, abs=1e-6)

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


class TestMedianCdfEdgeworth:
    def test_zeroed_corrections_reduce_to_normal(self):
        rc = models.ReissCoefficients(0.0, 0.0, 0.0, 0.0, 0.0, "odd")
        ts = np.linspace(-3.0, 3.0, 13)
        reconstructed = (
            _sp.ndtr(ts)
            + nk.std_normal_pdf(ts) * reiss_r1(rc, ts) / math.sqrt(9)
            + nk.std_normal_pdf(ts) * reiss_r2(rc, ts) / 9
        )
        np.testing.assert_allclose(reconstructed, _sp.ndtr(ts), rtol=0, atol=0)

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
            _sp.ndtr(ts)
            + nk.std_normal_pdf(ts) * reiss_r1(rc, ts) / math.sqrt(104)
            + nk.std_normal_pdf(ts) * reiss_r2(rc, ts) / 104
        )
        gap_example = np.max(np.abs(example - exact))
        assert gap_general < gap_example


class TestPowerMedianTest:
    def test_alpha_half_at_origin(self):
        setup = TestSetup("median", 0.0, 0.5, 21)
        assert models.resolve_test(NLOC, N01, setup).power(0.0) == pytest.approx(0.5, abs=1e-12)

    def test_consistency(self):
        setup = TestSetup("median", 0.0, 0.05, 11)
        assert models.resolve_test(NLOC, N01, setup).power(50.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_monte_carlo_oracle(self):
        # frozen MC reference, see module docstring
        setup = TestSetup("median", 0.0, 0.05, 21)
        mc_value, mc_se = 0.289633, 0.000321
        exact = models.resolve_test(NLOC, N01, setup).power(0.3)
        assert abs(exact - mc_value) <= 3.0 * mc_se

    def test_edgeworth_mode_close_to_exact(self):
        setup = TestSetup("median", 0.0, 0.05, 41)
        th = np.linspace(-0.5, 0.8, 14)
        ex = models.resolve_test(NLOC, N01, setup).power(th)
        ed = power_median_edgeworth(NLOC, th, setup)
        assert np.max(np.abs(ex - ed)) < 5e-3

    def test_requires_location_convention(self):
        setup = TestSetup("median", 0.3, 0.05, 9)
        with pytest.raises(models.ModelError, match="location convention theta0 = 0"):
            models.resolve_test(NLOC, N01, setup)
        with pytest.raises(models.ModelError):
            power_median_edgeworth(NLOC, 0.1, setup)


class TestResolvedTest:
    def test_exp_rate_runs_against_the_user_parameter(self):
        test = models.resolve_test(EXP, GAMMA2, TestSetup("mean_ump", 1.0, 0.05, 8))
        assert test.direction == -1 and test.theta0 == 1.0
        np.testing.assert_array_equal(
            test.is_null(np.array([0.5, 1.0, 2.0])), [False, True, True]
        )
        # the power rises toward the alternative theta < theta0
        assert test.power(0.5) > test.power(1.0) > test.power(2.0)
        assert test.power(1.0) == pytest.approx(0.05, abs=1e-12)

    def test_median_rejection_threshold(self):
        # the median is theta + ppf at each row's middle uniform; ppf(1/2) = 0
        setup = TestSetup("median", 0.0, 0.05, 3)
        test = models.resolve_test(NLOC, N01, setup)
        cut = Z95 / (2.0 * NLOC.f0 * math.sqrt(3))
        theta = np.array([cut * 1.001, cut * 0.999])
        u = np.array([[0.99, 0.5, 0.01], [0.01, 0.99, 0.5]])
        np.testing.assert_array_equal(test.rejects(theta, u), [True, False])
        np.testing.assert_array_equal(test.is_null(np.array([-0.1, 0.0, 0.1])), [True, True, False])

    def test_mean_rejection_threshold(self):
        # the mean of theta + ndtri(u): a high draw lifts the third row over
        # the cut that its median stays under
        setup = TestSetup("mean_ump", 0.0, 0.05, 3)
        test = models.resolve_test(NORMAL, N01, setup)
        cut = models.ump_critical_value(NORMAL, setup) / math.sqrt(3)
        theta = np.array([cut * 1.001, cut * 0.999, cut * 0.999])
        u = np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.5, 0.999, 0.5]])
        np.testing.assert_array_equal(test.rejects(theta, u), [True, False, True])
        np.testing.assert_array_equal(test.is_null(np.array([-0.1, 0.0, 0.1])), [True, True, False])

    def test_statistic_must_fit_model(self):
        with pytest.raises(models.ModelError):
            models.resolve_test(NLOC, N01, TestSetup("mean_ump", 0.0, 0.05, 5))
        with pytest.raises(models.ModelError):
            models.resolve_test(NORMAL, N01, TestSetup("median", 0.0, 0.05, 5))


def _counting(model):
    """``model`` with mu and sigma counting their calls in ``calls``."""
    calls = []

    def count(name, f):
        return lambda th: calls.append(name) or f(th)

    counted = dataclasses.replace(model, mu=count("mu", model.mu), sigma=count("sigma", model.sigma))
    calls.clear()  # construction checks evaluate both
    return counted, calls


class TestCheckProblem:
    def test_rules_apply_in_order(self):
        gamma = priors.gamma_mode1_prior(2.0)
        # each problem breaks its rule and most later ones; the first rule broken speaks
        with pytest.raises(models.ModelError, match="alpha must lie in"):
            models.check_problem("no model", priors.normal_prior(1.0), -1.0, 1.5)
        with pytest.raises(models.ModelError, match="unsupported model type str"):
            models.check_problem("no model", priors.normal_prior(1.0), -1.0, 0.05)
        with pytest.raises(models.ModelError, match="reaches outside"):
            models.check_problem(EXP, priors.normal_prior(1.0), -1.0, 0.05)
        with pytest.raises(priors.PriorError, match="outside the open support"):
            models.check_problem(EXP, gamma, -1.0, 0.05)
        with pytest.raises(priors.PriorError, match="degenerate alternative mass"):
            models.check_problem(EXP, gamma, 5e-324, 0.05)

    def test_no_model_function_runs_before_the_last_rule(self):
        model, calls = _counting(EXP)
        for prior, theta0 in ((priors.normal_prior(1.0), 1.0),
                              (priors.gamma_mode1_prior(2.0), 0.0),
                              (priors.gamma_mode1_prior(2.0), 1e300)):
            with pytest.raises(ValueError):
                models.check_problem(model, prior, theta0, 0.05)
        assert calls == []
        models.check_problem(model, priors.gamma_mode1_prior(2.0), 1.0, 0.05)
        assert calls == ["mu", "sigma"]

    def test_non_finite_mu_or_sigma_at_theta0_refused(self):
        # the model's laws are checked on (-8, 8); at theta0 = 0.5 mu or
        # sigma is broken, each without a floating-point warning
        gamma = priors.gamma_mode1_prior(2.0)
        inf_mu = dataclasses.replace(NORMAL, mu=lambda th: np.where(np.asarray(th) == 0.5, np.inf, th))
        nan_sigma = dataclasses.replace(
            NORMAL, sigma=lambda th: np.where(np.asarray(th) == 0.5, np.nan, 1.0))
        for model in (inf_mu, nan_sigma):
            with pytest.raises(models.ModelError, match="need finite mu, sigma > 0 at theta0=0.5"):
                models.check_problem(model, gamma, 0.5, 0.05)
