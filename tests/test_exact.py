"""Quadrature ground truth for the rates, against MC and closed-form oracles.

The frozen Monte-Carlo reference for the n = 1 normal-normal joint
probability was generated once with numpy default_rng(777), 1e7 draws of
(theta, X) with theta ~ N(0,1), X | theta ~ N(theta, 1), counting
{theta <= 0, X > z_0.05}: estimate 0.0074767, binomial SE 0.0000272. The
bivariate-normal orthant value 0.0074905216 comes from
scipy.stats.multivariate_normal with cov [[1,1],[1,2]].
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfdr import exact, expansions, models, priors
from bfdr import numkernel as nk
from bfdr.exact import DegenerateDenominator, JointProbabilities, exact_joint, exact_rates
from bfdr.models import TestSetup
from bfdr.numkernel import IntegralValue, QuadratureConfig, QuadratureNonConvergence

from oracles import scalar_find_cut

NORMAL = models.normal_mean_model()
EXP = models.exponential_rate_model()
NLOC = models.normal_location_model()
CLOC = models.cauchy_location_model()

MC_A_N1 = 0.0074767
MC_A_N1_SE = 0.0000272
ORTHANT_A_N1 = 0.0074905216


# Independent high-precision (A, At): mpmath's own special functions and
# tanh-sinh quadrature on closed-form power functions and prior densities.
def _mp():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    return mp


def _mp_z(mp, alpha):
    return -mp.sqrt(2) * mp.erfinv(2 * mp.mpf(alpha) - 1)


def _mp_normal_mean(prior_pdf, alpha, n, scale=1):
    """N(theta, 1) data, reject when sqrt(n) Xbar > z_alpha; null theta <= 0.

    ``scale`` places the quadrature breakpoints at 1 and 5 prior scales.
    """
    mp = _mp()
    z = _mp_z(mp, alpha)
    power = lambda th: 1 - mp.ncdf(z - mp.sqrt(n) * th)
    g = prior_pdf(mp)
    A = mp.quad(lambda th: power(th) * g(th), [-mp.inf, -5 * scale, -scale, 0])
    At = mp.quad(lambda th: (1 - power(th)) * g(th), [0, scale, 5 * scale, mp.inf])
    return A, At


def _mp_normal_pdf(mp):
    return mp.npdf


def _mp_scaled_normal_pdf(tau):
    return lambda mp: lambda th: mp.npdf(th / tau) / tau


def _mp_cauchy_pdf(mp):
    return lambda th: 1 / (mp.pi * (1 + th * th))


def _mp_exp_rate_gamma2(alpha, n):
    """Exp(theta) data, reject for a large sum; theta ~ Gamma(2, 1); null theta >= 1."""
    mp = _mp()
    c0 = mp.findroot(lambda c: mp.gammainc(n, c, mp.inf, regularized=True) - alpha, n)
    power = lambda th: mp.gammainc(n, th * c0, mp.inf, regularized=True)
    g = lambda th: th * mp.exp(-th)
    A = mp.quad(lambda th: power(th) * g(th), [1, 3, 10, mp.inf])
    At = mp.quad(lambda th: (1 - power(th)) * g(th), [0, 0.5, 1])
    return A, At


def _mp_cauchy_median_n1(alpha):
    """One Cauchy(theta) observation, reject when X > z_alpha pi/2; Cauchy prior."""
    mp = _mp()
    c = _mp_z(mp, alpha) * mp.pi / 2
    power = lambda th: mp.mpf(1) / 2 - mp.atan(c - th) / mp.pi
    g = _mp_cauchy_pdf(mp)
    A = mp.quad(lambda th: power(th) * g(th), [-mp.inf, -10, -1, 0])
    At = mp.quad(lambda th: (1 - power(th)) * g(th), [0, 1, 10, mp.inf])
    return A, At


MPMATH_CASES = {
    "nn-5": (NORMAL, priors.normal_prior(1.0), TestSetup("mean_ump", 0.0, 0.05, 5), None,
             lambda: _mp_normal_mean(_mp_normal_pdf, 0.05, 5)),
    "nn-30": (NORMAL, priors.normal_prior(1.0), TestSetup("mean_ump", 0.0, 0.05, 30), None,
              lambda: _mp_normal_mean(_mp_normal_pdf, 0.05, 30)),
    "nc-5": (NORMAL, priors.cauchy_prior(1.0), TestSetup("mean_ump", 0.0, 0.05, 5), None,
             lambda: _mp_normal_mean(_mp_cauchy_pdf, 0.05, 5)),
    "nc-30": (NORMAL, priors.cauchy_prior(1.0), TestSetup("mean_ump", 0.0, 0.05, 30), None,
              lambda: _mp_normal_mean(_mp_cauchy_pdf, 0.05, 30)),
    "exp-gamma-5": (EXP, priors.gamma_mode1_prior(2.0), TestSetup("mean_ump", 1.0, 0.05, 5),
                    None, lambda: _mp_exp_rate_gamma2(0.05, 5)),
    "exp-gamma-30": (EXP, priors.gamma_mode1_prior(2.0), TestSetup("mean_ump", 1.0, 0.05, 30),
                     None, lambda: _mp_exp_rate_gamma2(0.05, 30)),
    # Romberg stops on one small diagonal gap only if the gap before it was
    # within 100 abs_tol: without that guard both of these break their bounds.
    "exp-gamma-4-alpha0.04": (EXP, priors.gamma_mode1_prior(2.0), TestSetup("mean_ump", 1.0, 0.04, 4),
                              None, lambda: _mp_exp_rate_gamma2(0.04, 4)),
    "exp-gamma-20-alpha0.3": (EXP, priors.gamma_mode1_prior(2.0), TestSetup("mean_ump", 1.0, 0.3, 20),
                              None, lambda: _mp_exp_rate_gamma2(0.3, 20)),
    "nn-10-tol1e-9": (NORMAL, priors.normal_prior(1.0), TestSetup("mean_ump", 0.0, 0.05, 10),
                      QuadratureConfig(abs_tol=1e-9),
                      lambda: _mp_normal_mean(_mp_normal_pdf, 0.05, 10)),
    # The trapezoid stop rule once stopped here on a chance agreement of two
    # levels: At error 1.6e-8 against a reported bound of 4.4e-9.
    "nn-10-alpha1e-6": (NORMAL, priors.normal_prior(1.0), TestSetup("mean_ump", 0.0, 1e-6, 10),
                        None, lambda: _mp_normal_mean(_mp_normal_pdf, 1e-6, 10)),
    "cc-median-1-tol1e-9": (CLOC, priors.cauchy_prior(1.0), TestSetup("median", 0.0, 0.05, 1),
                            QuadratureConfig(abs_tol=1e-9), lambda: _mp_cauchy_median_n1(0.05)),
    # The README `spiky` rows: a prior spiked at the boundary, and a flat one.
    "nn-10-tau1e-3": (NORMAL, priors.scale_prior(priors.normal_prior(1.0), 1e-3),
                      TestSetup("mean_ump", 0.0, 0.05, 10), None,
                      lambda: _mp_normal_mean(_mp_scaled_normal_pdf(1e-3), 0.05, 10, scale=1e-3)),
    "nn-10-tau1e3": (NORMAL, priors.scale_prior(priors.normal_prior(1.0), 1e3),
                     TestSetup("mean_ump", 0.0, 0.05, 10), None,
                     lambda: _mp_normal_mean(_mp_scaled_normal_pdf(1e3), 0.05, 10, scale=1e3)),
}


def _joint(A, At, lam):
    B = A + lam - At
    return JointProbabilities(
        A=IntegralValue(A, 1e-12),
        A_tilde=IntegralValue(At, 1e-12),
        lambda_alt=lam,
        B=B,
        B_tilde=1.0 - B,
    )


class TestExactJoint:
    def test_alpha_to_one_limit(self):
        # z_alpha -> -inf makes the test reject almost surely
        setup = TestSetup("mean_ump", 0.0, 1.0 - 1e-12, 5)
        joint = exact_joint(NORMAL, priors.normal_prior(1.0), setup)
        assert joint.A.value == pytest.approx(0.5, abs=0.01)
        assert joint.A_tilde.value <= 1e-3
        assert joint.B == pytest.approx(1.0, abs=0.01)

    def test_normal_normal_n1_against_oracles(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 1)
        joint = exact_joint(NORMAL, priors.normal_prior(1.0), setup)
        assert abs(joint.A.value - MC_A_N1) <= 3.0 * MC_A_N1_SE
        assert joint.A.value == pytest.approx(ORTHANT_A_N1, abs=1e-7)

    def test_spiky_prior_approaches_null_mass(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        spiky = priors.scale_prior(priors.normal_prior(1.0), 1e-4)
        rates = exact_rates(exact_joint(NORMAL, spiky, setup))
        assert rates.fdr.value == pytest.approx(0.5, abs=0.01)

    def test_joint_bounds_and_complement(self):
        for model, prior, setup in (
            (NORMAL, priors.normal_prior(1.0), TestSetup("mean_ump", 0.0, 0.05, 7)),
            (EXP, priors.gamma_mode1_prior(2.0), TestSetup("mean_ump", 1.0, 0.1, 12)),
            (NLOC, priors.normal_prior(1.0), TestSetup("median", 0.0, 0.05, 11)),
        ):
            joint = exact_joint(model, prior, setup)
            lam = joint.lambda_alt
            tol = 1e-6
            assert 0.0 <= joint.A.value <= 1.0 - lam + tol
            assert 0.0 <= joint.A_tilde.value <= lam + tol
            assert joint.B + joint.B_tilde == 1.0

    def test_non_convergence_propagates_best_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-14, max_refinements=5)
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        with pytest.raises(QuadratureNonConvergence) as excinfo:
            exact_joint(NORMAL, priors.normal_prior(1.0), setup, cfg)
        assert math.isfinite(excinfo.value.result.value)
        assert not excinfo.value.result.converged

    @pytest.mark.parametrize("case", sorted(MPMATH_CASES))
    def test_matches_mpmath_quadrature(self, case):
        model, prior, setup, cfg, oracle = MPMATH_CASES[case]
        joint = exact_joint(model, prior, setup, cfg)
        A_mp, At_mp = oracle()
        assert abs(joint.A.value - float(A_mp)) <= joint.A.error_bound
        assert abs(joint.A_tilde.value - float(At_mp)) <= joint.A_tilde.error_bound

    @settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @given(
        alpha=st.floats(math.log(1e-6), math.log(0.3)).map(math.exp),
        n=st.integers(1, 40),
        tau=st.floats(math.log(0.05), math.log(20.0)).map(math.exp),
    )
    def test_matches_mpmath_on_scaled_normal_priors(self, alpha, n, tau):
        prior = priors.scale_prior(priors.normal_prior(1.0), tau)
        joint = exact_joint(NORMAL, prior, TestSetup("mean_ump", 0.0, alpha, n))
        A_mp, At_mp = _mp_normal_mean(_mp_scaled_normal_pdf(tau), alpha, n, tau)
        assert abs(joint.A.value - float(A_mp)) <= joint.A.error_bound
        assert abs(joint.A_tilde.value - float(At_mp)) <= joint.A_tilde.error_bound


    @pytest.mark.parametrize("prior", [priors.normal_prior(1.0), priors.student_t_prior(3.0, 1.0)],
                             ids=["normal", "t"])
    def test_prior_mass_outside_the_parameter_interval_rejected(self, prior):
        # exp-rate lives on rates > 0; these priors put half their mass below 0
        with pytest.raises(models.ModelError, match="reaches outside"):
            exact_joint(EXP, prior, TestSetup("mean_ump", 1.0, 0.05, 10))


class TestExactRates:
    def test_zero_numerators(self):
        rates = exact_rates(_joint(0.0, 0.1, 0.5))
        assert rates.fdr.value == 0.0
        rates2 = exact_rates(_joint(0.01, 0.0, 0.5))
        assert rates2.far.value == 0.0

    def test_zero_denominators_reported_distinctly(self):
        with pytest.raises(DegenerateDenominator):
            exact_rates(_joint(0.0, 0.5, 0.5))  # B = 0
        with pytest.raises(DegenerateDenominator):
            exact_rates(_joint(0.5, 0.0, 0.5))  # B = 1

    def test_normal_normal_n10_matches_series(self):
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        rates = exact_rates(exact_joint(NORMAL, priors.normal_prior(1.0), setup))
        cs = expansions.exp_family_coefficients(NORMAL, priors.normal_prior(1.0), 0.0, 0.05)
        series = expansions.rate_series(cs, 10, 3)
        assert abs(rates.fdr.value - series.fdr.value) <= 1e-3
        assert rates.fdr.method == "quadrature"
        assert rates.fdr.error_estimate < 1e-6

    @pytest.mark.parametrize(
        "model,prior,setup_tpl,grid",
        [
            (NORMAL, priors.normal_prior(1.0), ("mean_ump", 0.0), (5, 10, 20, 40)),
            (NORMAL, priors.cauchy_prior(1.0), ("mean_ump", 0.0), (5, 10, 20, 40)),
            (EXP, priors.gamma_mode1_prior(2.0), ("mean_ump", 1.0), (5, 10, 20, 40)),
            (EXP, priors.f_mode1_prior(2.0, 2.0), ("mean_ump", 1.0), (5, 10, 20, 40)),
            # the even-n median is upward-biased, so the trend is monotone
            # within a parity class but not across (delta_5 < delta_10 here)
            (NLOC, priors.normal_prior(1.0), ("median", 0.0), (5, 11, 21, 41)),
            (NLOC, priors.normal_prior(1.0), ("median", 0.0), (6, 10, 20, 40)),
            (CLOC, priors.cauchy_prior(1.0), ("median", 0.0), (5, 11, 21, 41)),
            (CLOC, priors.cauchy_prior(1.0), ("median", 0.0), (6, 10, 20, 40)),
        ],
        ids=[
            "nn-mean", "nc-mean", "exp-gamma", "exp-F",
            "nn-median-odd", "nn-median-even", "cc-median-odd", "cc-median-even",
        ],
    )
    def test_rates_decrease_in_n(self, model, prior, setup_tpl, grid):
        statistic, th0 = setup_tpl
        fdr_vals, far_vals = [], []
        for n in grid:
            rates = exact_rates(exact_joint(model, prior, TestSetup(statistic, th0, 0.05, n)))
            fdr_vals.append(rates.fdr.value)
            far_vals.append(rates.far.value)
        assert all(a > b for a, b in zip(fdr_vals, fdr_vals[1:]))
        assert all(a > b for a, b in zip(far_vals, far_vals[1:]))

    def test_rates_within_unit_interval(self):
        for alpha in (0.01, 0.2, 0.8):
            setup = TestSetup("mean_ump", 1.0, alpha, 3)
            rates = exact_rates(exact_joint(EXP, priors.gamma_mode1_prior(2.0), setup))
            assert 0.0 <= rates.fdr.value <= 1.0
            assert 0.0 <= rates.far.value <= 1.0


# All seven built-in model/prior pairs as (model, prior, statistic, theta0).
BUILTIN_PAIRS = {
    "normal-mean/normal:1": (NORMAL, "normal:1", "mean_ump", 0.0),
    "normal-mean/t:4:1": (NORMAL, "t:4:1", "mean_ump", 0.0),
    "normal-mean/cauchy:1": (NORMAL, "cauchy:1", "mean_ump", 0.0),
    "exp-rate/gamma-mode1:2": (EXP, "gamma-mode1:2", "mean_ump", 1.0),
    "exp-rate/f-mode1:2:2": (EXP, "f-mode1:2:2", "mean_ump", 1.0),
    "normal-median/normal:1": (NLOC, "normal:1", "median", 0.0),
    "cauchy-median/cauchy:1": (CLOC, "cauchy:1", "median", 0.0),
}


def _scalar(h):
    """The array-valued bound ``h`` as a function of one float."""
    return lambda th: float(h(np.array([th]))[0])


class TestFindCut:
    @pytest.mark.parametrize("alpha,n", [(0.05, 10), (1e-4, 4), (0.3, 20)])
    @pytest.mark.parametrize("pair", sorted(BUILTIN_PAIRS))
    def test_equals_the_scalar_march_on_builtin_pairs(self, monkeypatch, pair, alpha, n):
        model, spec, statistic, theta0 = BUILTIN_PAIRS[pair]
        find_cut, cuts = exact._find_cut, []

        def checked(h, *args):
            cut = find_cut(h, *args)
            cuts.append((cut, scalar_find_cut(_scalar(h), *args)))
            return cut

        monkeypatch.setattr(exact, "_find_cut", checked)
        exact_joint(model, priors.parse_prior_spec(spec), TestSetup(statistic, theta0, alpha, n))
        assert len(cuts) == 2
        for cut, ref in cuts:
            assert cut == ref

    @pytest.mark.parametrize("k", [0, 1, 6, 7, 8, 9, 15, 16, 40])
    @pytest.mark.parametrize("away", [-1, 1])
    def test_hit_on_the_kth_doubling(self, k, away):
        # h crosses tol between the march distances 1e-3 * 2**(k-1) and 1e-3 * 2**k.
        width = 1e-3 * 2.0 ** (k - 0.5) / 20.0
        h = lambda th: np.exp(-np.abs(th - 0.5) / width)
        tol = math.exp(-20.0)
        cut = exact._find_cut(h, 0.5, away, away * math.inf, tol)
        assert cut == scalar_find_cut(_scalar(h), 0.5, away, away * math.inf, tol)
        assert cut == 0.5 + away * 1e-3 * 2.0**k

    @pytest.mark.parametrize(
        "h,theta0,away,limit,expect",
        [
            # a bound vanishing at the limit 0, like exp-rate's toward 0: the capped step hits
            (lambda th: th**4, 1.0, -1, 0.0, None),
            # the limit is closer than the first step of 1e-3
            (lambda th: np.exp(-(th - 1.0) * 1e5), 1.0, 1, 1.0005, None),
            # a bound that never drops below tol returns the cap
            (lambda th: np.ones_like(th), 1.0, -1, 0.0, 1.0 - 1.0 * (1.0 - 1e-9)),
            (lambda th: np.ones_like(th), 1.0, 1, 1.0005, 1.0 + 0.0005 * (1.0 - 1e-9)),
            (lambda th: np.ones_like(th), 0.0, 1, math.inf, 1e13),
            (lambda th: np.ones_like(th), 0.0, -1, -math.inf, -1e13),
        ],
        ids=["limit-hit", "tiny-smax", "never-limit", "never-tiny-smax", "never-up", "never-down"],
    )
    def test_edge_cases_equal_the_scalar_march(self, h, theta0, away, limit, expect):
        cut = exact._find_cut(h, theta0, away, limit, 1e-9)
        assert cut == scalar_find_cut(_scalar(h), theta0, away, limit, 1e-9)
        if expect is not None:
            assert cut == expect

    def test_block_march_adds_no_warnings(self):
        cases = [
            (model, priors.parse_prior_spec(spec), TestSetup(statistic, theta0, alpha, n))
            for model, spec, statistic, theta0 in BUILTIN_PAIRS.values()
            for alpha, n in ((1e-6, 4), (0.05, 10), (0.3, 20))
        ] + [
            (NORMAL, priors.scale_prior(priors.normal_prior(1.0), tau), TestSetup("mean_ump", 0.0, 0.05, 10))
            for tau in (1e-3, 1.0, 1e3)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model, prior, setup in cases:
                exact_joint(model, prior, setup)

    def test_cut_search_evaluates_the_prior_cdf_in_blocks(self):
        # One call for lambda_alt; per side, one block of all 55 march distances.
        prior = priors.normal_prior(1.0)
        calls = []
        counted = dataclasses.replace(prior, cdf=lambda th: calls.append(th) or prior.cdf(th))
        exact_joint(NORMAL, counted, TestSetup("mean_ump", 0.0, 0.05, 10))
        assert len(calls) == 3
