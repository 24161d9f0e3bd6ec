"""Series coefficients, expansion polynomials, and their quadrature oracles.

Frozen constants were computed with 40-digit mpmath from the closed forms
(z = Phi^{-1}(0.95), phi(z), the symmetric-prior coefficient reductions).
"""

import math

import numpy as np
import pytest

from bfdr import cli, exact, expansions, models, priors
from bfdr import numkernel as nk
from bfdr._special import _sp
from bfdr.expansions import (
    CoefficientSet,
    compose_coefficient_set,
    exp_family_coefficients,
    median_coefficients,
    rate_series,
)
from bfdr.models import TestSetup

from derivations import (
    cornish_fisher_critical,
    f1_poly,
    f2_poly,
    g1_poly,
    g2_poly,
    power_mean_edgeworth,
)
from test_routes import PAIRS, _benchmark_inputs

Z95 = 1.6448536269514722
PHI_Z95 = 0.10313564037537128

NORMAL = models.normal_mean_model()
EXP = models.exponential_rate_model()
NLOC = models.normal_location_model()
CLOC = models.cauchy_location_model()

# mpmath, 40 digits
C1_NN = 0.016670169437766601
C2_NN = 0.021877985610485040
C3_NN = 0.026575733981118071
D1_NN = 1.3290734831629425
SERIES3_NN_N10 = 0.008299767500186277
A1_MEDIAN_NN = 0.010446479513898833
C1_MEDIAN_NN = 0.020892959027797665
G1_POLY_AT_0 = 1.8036956360636097

_GRID = _benchmark_inputs()
#: The 132 (alpha, n) setups the benchmark asks of each of its seven pairs.
GRID_SETUPS = [(alpha, n) for n in _GRID.NS for alpha in _GRID.ALPHAS]

_N01 = priors.normal_prior(1.0)
_GAMMA2 = priors.gamma_mode1_prior(2.0)


def _shifted_normal(shift):
    return priors.make_prior(
        lambda x: _N01.g(x - shift),
        lambda x: _N01.g1(x - shift),
        lambda x: _N01.g2(x - shift),
        _N01.support,
        lambda x: _N01.cdf(x - shift),
        lambda u: _N01.ppf(u) + shift,
        name=f"normal({shift:g},1)",
    )


# N(+-0.5, 1): g'(0) != 0, so the g1 terms of a2, a3, at2 and at3 count
SHIFTED_NORMAL = _shifted_normal(0.5)
LEFT_SHIFTED_NORMAL = _shifted_normal(-0.5)

# A skewed location model, f0'(0) != 0, so the f'(0) terms of the median
# series count (every built-in location model is symmetric): the standard
# Gumbel law re-centred at its median, F(y) = exp(-e^(c - y)) = 2^(-e^(-y))
# for c = log(log 2), and f = F e^(c - y), so f0 = log(2)/2,
# f0' = f0 (log(2) - 1) and f0'' = f0 ((log(2) - 1)^2 - log(2)). The
# exponent is capped where F is already 0, so that e^(c - y) cannot
# overflow. Not a built-in.
_LN2 = math.log(2.0)
_GUMBEL_C = math.log(_LN2)
_GUMBEL_F0 = _LN2 / 2.0
GUMBEL_LOC = models.LocationModel(
    "gumbel-location",
    _GUMBEL_F0,
    _GUMBEL_F0 * (_LN2 - 1.0),
    _GUMBEL_F0 * ((_LN2 - 1.0) ** 2 - _LN2),
    lambda y: np.exp(-np.exp(np.minimum(_GUMBEL_C - np.asarray(y, dtype=float), 700.0))),
    lambda u: _GUMBEL_C - np.log(-np.log(np.asarray(u, dtype=float))),
)

# The coefficient set of each built-in model with its default prior and
# theta0, by CLI model name; the median sets take n = 20.
BUILTIN_COEFFICIENTS = {
    "normal-mean": lambda alpha: exp_family_coefficients(NORMAL, _N01, 0.0, alpha),
    "exp-rate": lambda alpha: exp_family_coefficients(EXP, priors.gamma_mode1_prior(2.0), 1.0, alpha),
    "normal-median": lambda alpha: median_coefficients(NLOC, _N01, alpha, 20),
    "cauchy-median": lambda alpha: median_coefficients(CLOC, priors.cauchy_prior(1.0), alpha, 20),
}


class TestPolynomials:
    def test_g1_vanishes_without_skewness(self):
        xs = np.linspace(-4.0, 2.0, 13)
        np.testing.assert_array_equal(g1_poly(xs, 0.0, Z95), np.zeros_like(xs))

    def test_g1_constant_term(self):
        assert g1_poly(0.0, 2.0, Z95) == pytest.approx(G1_POLY_AT_0, rel=1e-13)
        assert g1_poly(0.0, 2.0, Z95) == pytest.approx(Z95**2 * 2.0 / 3.0, rel=1e-14)

    def test_g2_vanishes_without_corrections(self):
        xs = np.linspace(-4.0, 2.0, 13)
        np.testing.assert_array_equal(g2_poly(xs, 0.0, 0.0, Z95), np.zeros_like(xs))

    def test_g2_vanishes_at_minus_z(self):
        # the test has exact size at theta0, so the 1/n local-power
        # correction must vanish where the boundary maps to
        for rho3, rho4 in ((2.0, 6.0), (1.0, 1.5), (-0.7, 2.2)):
            for z in (0.8, Z95, 2.3263478740408408):
                assert g2_poly(-z, rho3, rho4, z) == pytest.approx(0.0, abs=1e-13)

    def test_f_polys_vanish_without_corrections(self):
        xs = np.linspace(-4.0, 2.0, 13)
        np.testing.assert_array_equal(f1_poly(xs, 0.0, Z95), np.zeros_like(xs))
        np.testing.assert_array_equal(f2_poly(xs, 0.0, 0.0, Z95), np.zeros_like(xs))

    def test_f1_point_value(self):
        expected = -Z95 * 2.0 / 2.0 - (2.0 * Z95**2 + 1.0) * 2.0 / 6.0
        assert f1_poly(1.0, 2.0, Z95) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [100, 10_000])
    def test_local_critical_value_reproduces_quantile_expansion(self, n):
        # -x + f1(x)/sqrt(n) + f2(x)/n at x = -z equals the two-correction
        # quantile expansion exactly (identical truncation)
        rho3, rho4 = 2.0, 6.0
        alpha = 0.05
        k_local = (
            Z95
            + f1_poly(-Z95, rho3, Z95) / math.sqrt(n)
            + f2_poly(-Z95, rho3, rho4, Z95) / n
        )
        k_cf = cornish_fisher_critical(rho3, rho4, alpha, n)
        assert k_local == pytest.approx(k_cf, abs=1e-12)


class TestExpFamilyCoefficients:
    def test_normal_normal_first_order(self):
        cs = exp_family_coefficients(NORMAL, priors.normal_prior(1.0), 0.0, 0.05)
        assert cs.c1 == pytest.approx(C1_NN, rel=1e-12)
        assert cs.d1 == pytest.approx(D1_NN, rel=1e-12)
        assert cs.lambda_alt == pytest.approx(0.5, abs=1e-14)

    def test_symmetric_prior_reductions(self):
        cs = exp_family_coefficients(NORMAL, priors.normal_prior(1.0), 0.0, 0.05)
        assert cs.a2 == pytest.approx(0.0, abs=1e-15)
        g0 = 1.0 / math.sqrt(2.0 * math.pi)
        assert cs.c2 == pytest.approx(
            4.0 * Z95 * g0**2 * (PHI_Z95 - 0.05 * Z95), rel=1e-12
        )
        assert cs.c2 == pytest.approx(C2_NN, rel=1e-12)
        assert cs.c3 == pytest.approx(C3_NN, rel=1e-11)

    def test_b_is_at_minus_a(self):
        for model, prior, th0 in (
            (NORMAL, priors.cauchy_prior(1.0), 0.0),
            (EXP, priors.gamma_mode1_prior(2.0), 1.0),
            (EXP, priors.f_mode1_prior(2.0, 2.0), 1.0),
        ):
            cs = exp_family_coefficients(model, prior, th0, 0.07)
            assert cs.b1 == cs.at1 - cs.a1
            assert cs.b2 == cs.at2 - cs.a2
            assert cs.b3 == cs.at3 - cs.a3

    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.3])
    @pytest.mark.parametrize("model", BUILTIN_COEFFICIENTS)
    def test_rate_composition_identities(self, model, alpha):
        # re-derive c/d from a, at, lambda with the composition formulas
        cs = BUILTIN_COEFFICIENTS[model](alpha)
        lam = cs.lambda_alt
        mu = 1.0 - lam
        b1, b2 = cs.at1 - cs.a1, cs.at2 - cs.a2
        assert cs.c1 == pytest.approx(cs.a1 / lam, abs=1e-13)
        assert cs.c2 == pytest.approx(cs.a1 * b1 / lam**2 + cs.a2 / lam, abs=1e-13)
        assert cs.c3 == pytest.approx(
            cs.a3 / lam + (cs.a1 * b2 + cs.a2 * b1) / lam**2 + cs.a1 * b1**2 / lam**3,
            abs=1e-13,
        )
        assert cs.d1 == pytest.approx(cs.at1 / mu, abs=1e-13)
        assert cs.d2 == pytest.approx(cs.at2 / mu - cs.at1 * b1 / mu**2, abs=1e-13)
        assert cs.d3 == pytest.approx(
            cs.at3 / mu - (cs.at2 * b1 + cs.at1 * b2) / mu**2 + cs.at1 * b1**2 / mu**3,
            abs=1e-13,
        )

    def test_exp_rate_lambda_flip(self):
        cs = exp_family_coefficients(EXP, priors.gamma_mode1_prior(2.0), 1.0, 0.05)
        assert cs.lambda_alt == pytest.approx(1.0 - 2.0 * math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("prior", [priors.normal_prior(1.0), priors.student_t_prior(3.0, 1.0)],
                             ids=["normal", "t"])
    def test_prior_mass_outside_the_parameter_interval_rejected(self, prior):
        with pytest.raises(models.ModelError, match="reaches outside"):
            exp_family_coefficients(EXP, prior, 1.0, 0.05)

    def test_degenerate_prior_mass_rejected(self):
        with pytest.raises(priors.PriorError):
            exp_family_coefficients(EXP, priors.gamma_mode1_prior(2.0), 1e9, 0.05)

    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-54])
    def test_alpha_where_one_minus_alpha_rounds_to_one_rejected(self, alpha):
        with pytest.raises(models.ModelError, match=r"alpha must exceed 2\*\*-54"):
            exp_family_coefficients(NORMAL, priors.normal_prior(1.0), 0.0, alpha)

    @pytest.mark.parametrize(
        "model,prior,th0",
        [
            (NORMAL, priors.normal_prior(1.0), 0.0),
            (NORMAL, priors.cauchy_prior(1.0), 0.0),
            (EXP, priors.gamma_mode1_prior(2.0), 1.0),
            (EXP, priors.f_mode1_prior(2.0, 2.0), 1.0),
            (NORMAL, SHIFTED_NORMAL, 0.0),
            # the g1 term of a3 needs skewness and g'(theta0) != 0: the
            # gamma and F priors have their mode at theta0 = 1
            (EXP, priors.gamma_mode1_prior(2.0), 0.7),
        ],
        ids=["normal-normal", "normal-cauchy", "exp-gamma", "exp-F", "normal-shifted",
             "exp-gamma-off-mode"],
    )
    def test_joint_probability_series_against_quadrature(self, model, prior, th0):
        # n^2-scaled residuals of the three-term series stay bounded
        cs = exp_family_coefficients(model, prior, th0, 0.05)
        tol = 1e-12
        resid_a, resid_at = [], []
        for n in (50, 100, 200):
            joint = exact.exact_joint(model, prior, TestSetup("mean_ump", th0, 0.05, n), tol)
            rn = math.sqrt(n)
            series_a = cs.a1 / rn + cs.a2 / n + cs.a3 / (n * rn)
            series_at = cs.at1 / rn + cs.at2 / n + cs.at3 / (n * rn)
            resid_a.append(n**2 * abs(joint.A.value - series_a))
            resid_at.append(n**2 * abs(joint.A_tilde.value - series_at))
        assert max(resid_a) < 1.0
        assert max(resid_at) < 1.0
        assert max(resid_a) / max(min(resid_a), 1e-12) < 4.0
        assert max(resid_at) / min(resid_at) < 4.0

    def test_third_coefficients_against_quadrature(self):
        # a3 and at3 themselves, where the skewness meets g'(theta0) != 0:
        # D(n) = n^(3/2) (I - c1/sqrt(n) - c2/n) - c3 falls as 1/sqrt(n). A's
        # D(1600) is read as it is; At's larger 1/sqrt(n) term is cancelled by
        # 2 D(6400) - D(1600). Both are near 2e-5 and 2.5e-4, and each
        # quadrature bound, scaled to D, is below 2e-7. Writing h21's (z^2 + 1)
        # as (z^2 + 2) moves a3 and at3 by about 5e-3.
        prior, th0 = priors.gamma_mode1_prior(2.0), 0.7
        cs = exp_family_coefficients(EXP, prior, th0, 0.05)

        def residual(n, alt):
            joint = exact.exact_joint(EXP, prior, TestSetup("mean_ump", th0, 0.05, n), 1e-12)
            side, (c1, c2, c3) = ((joint.A_tilde, (cs.at1, cs.at2, cs.at3)) if alt
                                  else (joint.A, (cs.a1, cs.a2, cs.a3)))
            scale = n * math.sqrt(n)
            assert scale * side.error_bound < 2e-7
            return scale * (side.value - c1 / math.sqrt(n) - c2 / n) - c3

        assert abs(residual(1600, False)) < 1e-3
        assert abs(2.0 * residual(6400, True) - residual(1600, True)) < 1e-3


class TestEdgeworthPowerCheck:
    def test_matches_exact_power_at_three_halves_order(self):
        alpha = 0.05
        xs = np.linspace(-3.0, -Z95, 25)
        errs = {}
        for n in (200, 400):
            theta = 1.0 - (xs + Z95) / math.sqrt(n)
            setup = TestSetup("mean_ump", 1.0, alpha, n)
            exact_power = models.resolve_test(EXP, _GAMMA2, setup).power(theta)
            approx = power_mean_edgeworth(2.0, 6.0, alpha, n, xs)
            errs[n] = float(np.max(np.abs(approx - exact_power)))
        assert errs[200] / errs[400] >= 2.3  # 2^{3/2} ~ 2.83 in the limit

    def test_derived_g2_beats_odd_power_sign_variant(self):
        # Regression guard for the 1/n polynomial: flipping the sign of the
        # x^5 term and shifting the x^3/x constants the way a naive
        # transcription does breaks the boundary consistency (nonzero value
        # at x = -z) and costs three orders of magnitude of power accuracy.
        def g2_variant(x, rho30, rho40, z):
            x = np.asarray(x, dtype=float)
            r2 = rho30 * rho30
            c5 = r2 / 72.0
            c3 = rho40 / 8.0 - 13.0 * z * z * r2 / 72.0 - 7.0 * r2 / 24.0
            c1 = (
                (z * z / 4.0 - 7.0 / 24.0) * rho40
                - z**4 * r2 / 18.0
                - 13.0 * z * z * r2 / 72.0
                + 4.0 * r2 / 9.0
            )
            base = g2_poly(x, rho30, rho40, z)
            c5_d = -r2 / 72.0
            c3_d = rho40 / 24.0 - 13.0 * z * z * r2 / 72.0 - r2 / 72.0
            c1_d = (
                (z * z / 4.0 - 1.0 / 24.0) * rho40
                - z**4 * r2 / 18.0
                - 13.0 * z * z * r2 / 72.0
                + r2 / 36.0
            )
            return base + (c5 - c5_d) * x**5 + (c3 - c3_d) * x**3 + (c1 - c1_d) * x

        assert abs(g2_variant(-Z95, 2.0, 6.0, Z95)) > 0.1  # inconsistent at the boundary
        n = 400
        alpha = 0.05
        xs = np.linspace(-3.0, -Z95, 25)
        theta = 1.0 - (xs + Z95) / math.sqrt(n)
        setup = TestSetup("mean_ump", 1.0, alpha, n)
        exact_power = models.resolve_test(EXP, _GAMMA2, setup).power(theta)
        phi = nk.std_normal_pdf(xs)
        base = _sp.ndtr(xs) + phi * g1_poly(xs, 2.0, Z95) / math.sqrt(n)
        err_derived = np.max(np.abs(base + phi * g2_poly(xs, 2.0, 6.0, Z95) / n - exact_power))
        err_variant = np.max(np.abs(base + phi * g2_variant(xs, 2.0, 6.0, Z95) / n - exact_power))
        assert err_derived < err_variant / 100.0


class TestMedianCoefficients:
    @pytest.mark.parametrize("alpha", [1e-17, 2.0**-54])
    def test_alpha_where_one_minus_alpha_rounds_to_one_rejected(self, alpha):
        with pytest.raises(models.ModelError, match=r"alpha must exceed 2\*\*-54"):
            median_coefficients(NLOC, priors.normal_prior(1.0), alpha, 11)

    def test_first_order_values(self):
        cs = median_coefficients(NLOC, priors.normal_prior(1.0), 0.05, 20)
        assert cs.a1 == pytest.approx(A1_MEDIAN_NN, rel=1e-12)
        assert cs.c1 == pytest.approx(C1_MEDIAN_NN, rel=1e-12)
        assert cs.parity == "even"

    def test_mean_median_gap_identity(self):
        cs_med = median_coefficients(NLOC, priors.normal_prior(1.0), 0.05, 21)
        cs_mean = exp_family_coefficients(NORMAL, priors.normal_prior(1.0), 0.0, 0.05)
        g0 = 1.0 / math.sqrt(2.0 * math.pi)
        identity = g0 * (PHI_Z95 - 0.05 * Z95) * (math.sqrt(2.0 * math.pi) - 2.0)
        assert cs_med.c1 - cs_mean.c1 == pytest.approx(identity, abs=1e-15)

    def test_symmetric_models_drop_f11_terms(self):
        # f'(0) = 0 kills f11 and f21; with a symmetric prior a2 is parity-only
        for model in (NLOC, CLOC):
            rc = models.reiss_coefficients(model, 20)
            assert rc.f11 == 0.0 and rc.f21 == 0.0
        cs_odd = median_coefficients(NLOC, priors.normal_prior(1.0), 0.05, 21)
        assert cs_odd.a2 == pytest.approx(0.0, abs=1e-15)
        cs_even = median_coefficients(NLOC, priors.normal_prior(1.0), 0.05, 20)
        assert cs_even.a2 == pytest.approx(0.5 * 0.05, rel=1e-12)  # -(g0/2f0) f12 alpha

    def test_parity_flip_touches_only_f12_f23_terms(self):
        g0 = 1.0 / math.sqrt(2.0 * math.pi)
        f0 = g0
        alpha = 0.05
        cs_even = median_coefficients(NLOC, priors.normal_prior(1.0), alpha, 20)
        cs_odd = median_coefficients(NLOC, priors.normal_prior(1.0), alpha, 21)
        assert cs_even.a1 == cs_odd.a1
        assert cs_even.at1 == cs_odd.at1
        # a2 shift: -(g0/2f0) (f12_even - f12_odd) alpha = +alpha/2
        assert cs_even.a2 - cs_odd.a2 == pytest.approx(alpha / 2.0, rel=1e-12)
        # a3 shift: -(g0/2f0) phi(z) (f23_even - f23_odd) = +phi(z)/4
        assert cs_even.a3 - cs_odd.a3 == pytest.approx(PHI_Z95 / 4.0, rel=1e-10)

    def test_dependence_on_n_is_parity_only(self):
        a = median_coefficients(CLOC, priors.cauchy_prior(1.0), 0.1, 6)
        b = median_coefficients(CLOC, priors.cauchy_prior(1.0), 0.1, 100)
        assert a == b

    def test_b_coefficients_closed_forms(self):
        # b1 = z g(0)/(2f(0)); b2 = g'(0)(z^2+1)/(8f^2) + g(0)(f11+f12)/(2f);
        # b3 = g''(0)(z^3+3z)/(48f^3) + z g'(0)(f11+f12)/(4f^2)
        cs = median_coefficients(CLOC, priors.cauchy_prior(1.0), 0.05, 20)
        g0 = f0 = 1.0 / math.pi
        g2_0 = -2.0 / math.pi
        assert cs.b1 == pytest.approx(Z95 * g0 / (2.0 * f0), rel=1e-12)
        rc = models.reiss_coefficients(CLOC, 20)
        assert cs.b2 == pytest.approx(g0 * (rc.f11 + rc.f12) / (2.0 * f0), rel=1e-12)
        assert cs.b3 == pytest.approx(
            g2_0 * (Z95**3 + 3.0 * Z95) / (48.0 * f0**3), rel=1e-12
        )

    def test_median_series_against_quadrature(self):
        # same n^2-residual check as the mean case, median statistic; the
        # A or At residual grows about 2x from the first n to the last if
        # its n^(-3/2) term is wrong
        tol = 1e-12
        odd, even = (51, 101, 201), (50, 100, 200)
        for model, prior, ns in (
            (NLOC, priors.normal_prior(1.0), odd),
            (CLOC, priors.cauchy_prior(1.0), odd),
            (NLOC, SHIFTED_NORMAL, odd),
            # f12 = -1 at even n and the shifted prior has g1(0) != 0: only
            # this row weighs the g1 x (f11, f12) term of a3 and at3
            (NLOC, SHIFTED_NORMAL, even),
            # f0' != 0: f11, f21 and, at even n only, f22's f0' part count
            (GUMBEL_LOC, LEFT_SHIFTED_NORMAL, odd),
            (GUMBEL_LOC, LEFT_SHIFTED_NORMAL, even),
        ):
            resid_a, resid_at = [], []
            for n in ns:
                cs = median_coefficients(model, prior, 0.05, n)
                joint = exact.exact_joint(model, prior, TestSetup("median", 0.0, 0.05, n), tol)
                rn = math.sqrt(n)
                series_a = cs.a1 / rn + cs.a2 / n + cs.a3 / (n * rn)
                series_at = cs.at1 / rn + cs.at2 / n + cs.at3 / (n * rn)
                resid_a.append(n**2 * abs(joint.A.value - series_a))
                resid_at.append(n**2 * abs(joint.A_tilde.value - series_at))
            assert max(resid_a) < 1.0
            assert max(resid_at) < 6.0
            assert resid_a[-1] < 1.5 * resid_a[0]
            assert resid_at[-1] < 1.5 * resid_at[0]


class TestFrequentistTypeOrdering:
    def test_c1_below_d1_for_symmetric_priors(self):
        # zero violations over 200 seeded (scale, alpha) draws
        rng = np.random.default_rng(1234)
        violations = 0
        for _ in range(200):
            tau = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
            alpha = float(rng.uniform(0.001, 0.4999))
            prior = priors.normal_prior(tau) if rng.random() < 0.5 else priors.cauchy_prior(tau)
            cs = exp_family_coefficients(NORMAL, prior, 0.0, alpha)
            if not cs.c1 < cs.d1:
                violations += 1
        assert violations == 0


class TestRateSeries:
    def test_pure_first_order(self):
        cs = compose_coefficient_set((0.05, 0.0, 0.0), (0.05, 0.0, 0.0), 0.5, "mean_ump")
        pair = rate_series(cs, 4, order=3)
        assert pair.fdr.value == pytest.approx(cs.c1 / 2.0, rel=1e-14)
        assert not pair.fdr.clamped

    def test_normal_normal_frozen_point(self):
        cs = exp_family_coefficients(NORMAL, priors.normal_prior(1.0), 0.0, 0.05)
        pair = rate_series(cs, 10, order=3)
        assert pair.fdr.value == pytest.approx(SERIES3_NN_N10, rel=1e-11)
        assert pair.fdr.method == "series3"

    def test_order_difference_is_exactly_the_tail_terms(self):
        cs = exp_family_coefficients(NORMAL, priors.cauchy_prior(1.0), 0.0, 0.1)
        n = 17
        p1 = rate_series(cs, n, order=1)
        p3 = rate_series(cs, n, order=3)
        assert p3.fdr.value - p1.fdr.value == pytest.approx(
            cs.c2 / n + cs.c3 / n**1.5, abs=1e-15
        )

    def test_clamping_flags(self):
        cs = compose_coefficient_set((10.0, 0.0, 0.0), (10.0, 0.0, 0.0), 0.5, "mean_ump")
        pair = rate_series(cs, 1, order=1)
        assert pair.fdr.value == 1.0
        assert pair.fdr.clamped
        cs_neg = compose_coefficient_set((0.1, -10.0, 0.0), (0.1, -10.0, 0.0), 0.5, "mean_ump")
        pair_neg = rate_series(cs_neg, 1, order=2)
        assert pair_neg.fdr.value == 0.0
        assert pair_neg.fdr.clamped

    @pytest.mark.parametrize("spec, prior_spec", PAIRS)
    def test_a_series_value_carries_no_error_bound(self, spec, prior_spec):
        # over the benchmark's setups, each order's value is its terms summed
        # left to right from 0, clamped to [0, 1] and flagged when pulled back
        model, statistic, theta0 = cli._build_model(spec)
        prior = priors.parse_prior_spec(prior_spec)
        for alpha, n in GRID_SETUPS:
            if statistic == "mean_ump":
                cs = exp_family_coefficients(model, prior, theta0, alpha)
            else:
                cs = median_coefficients(model, prior, alpha, n)
            for order in (1, 2, 3):
                pair = rate_series(cs, n, order)
                for rate, k in ((pair.fdr, (cs.c1, cs.c2, cs.c3)), (pair.far, (cs.d1, cs.d2, cs.d3))):
                    total = 0.0
                    for term in (k[0] / math.sqrt(n), k[1] / n, k[2] / (n * math.sqrt(n)))[:order]:
                        total += term
                    assert rate.error_estimate is None
                    assert rate.method == f"series{order}"
                    assert rate.value.hex() == min(1.0, max(0.0, total)).hex()
                    assert rate.clamped is not (0.0 <= total <= 1.0)

    def test_median_coefficients_of_the_other_parity_rejected(self):
        # the n = 11 set at n = 10 would give fdr 0.01106 against 0.01963
        odd = median_coefficients(NLOC, priors.normal_prior(1.0), 0.05, 11)
        even = median_coefficients(NLOC, priors.normal_prior(1.0), 0.05, 10)
        with pytest.raises(models.ModelError, match="odd n"):
            rate_series(odd, 10, order=3)
        with pytest.raises(models.ModelError, match="even n"):
            rate_series(even, 11, order=3)
        assert rate_series(even, 10, order=3).fdr.value == pytest.approx(0.01963, abs=1e-5)
        assert rate_series(odd, 11, order=3).fdr.value == pytest.approx(0.01031, abs=1e-5)

    def test_bad_order_rejected(self):
        cs = compose_coefficient_set((0.1, 0.0, 0.0), (0.1, 0.0, 0.0), 0.5, "mean_ump")
        with pytest.raises(models.ModelError):
            rate_series(cs, 10, order=4)

    def test_degenerate_lambda_rejected(self):
        # the normal prior's CDF rounds to 1 at theta0 = 40: lambda would be 0
        with pytest.raises(priors.PriorError, match="degenerate alternative mass 0.0"):
            exp_family_coefficients(NORMAL, priors.normal_prior(1.0), 40.0, 0.05)
