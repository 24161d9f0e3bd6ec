"""Quadrature ground truth for the rates, against MC and closed-form oracles.

The frozen Monte-Carlo reference for the n = 1 normal-normal joint
probability was generated once with numpy default_rng(777), 1e7 draws of
(theta, X) with theta ~ N(0,1), X | theta ~ N(theta, 1), counting
{theta <= 0, X > z_0.05}: estimate 0.0074767, binomial SE 0.0000272. The
bivariate-normal orthant value 0.0074905216 comes from
scipy.stats.multivariate_normal with cov [[1,1],[1,2]].
"""

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfdr import expansions, models, priors
from bfdr import numkernel as nk
from bfdr.exact import DegenerateDenominator, JointProbabilities, exact_joint, exact_rates
from bfdr.models import TestSetup
from bfdr.numkernel import IntegralValue, QuadratureNonConvergence

from oracles import scalar_de

NORMAL = models.normal_mean_model()
EXP = models.exponential_rate_model()
NLOC = models.normal_location_model()
CLOC = models.cauchy_location_model()

MC_A_N1 = 0.0074767
MC_A_N1_SE = 0.0000272
ORTHANT_A_N1 = 0.0074905216


# Independent high-precision (A, At): mpmath's own special functions and
# quadrature on closed-form power functions and prior densities. mpmath's
# default tanh-sinh is the family of rules the program uses, so each integral
# is also taken by Gauss-Legendre, which shares no algorithm with it, on
# geometric breakpoints; the two must agree to 1e-20 before either is trusted.
def _mp():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    return mp


def _mp_quad(mp, f, points):
    """tanh-sinh on every other breakpoint and Gauss-Legendre on all of them."""
    ts = mp.quad(f, points[:-1:2] + points[-1:])
    gl = mp.quad(f, points, method="gauss-legendre")
    assert abs(ts - gl) <= 1e-20, f"tanh-sinh {ts} and Gauss-Legendre {gl} disagree"
    return ts


def _ladder(mp, center, width, reach, away):
    """Breakpoints center + away * width * 4**k, k >= 0, out to ``reach`` from
    ``center``, in increasing order."""
    steps, x = [], mp.mpf(width)
    while x < reach:
        steps.append(center + away * x)
        x *= 4
    return steps if away > 0 else steps[::-1]


def _mp_z(mp, alpha):
    return -mp.sqrt(2) * mp.erfinv(2 * mp.mpf(alpha) - 1)


# Cached, with the scaled densities, since the README golden rows reuse cases.
@functools.lru_cache(maxsize=None)
def _mp_normal_mean(prior_pdf, alpha, n, scale=1):
    """N(theta, 1) data, reject when sqrt(n) Xbar > z_alpha; null theta <= 0.

    The breakpoints run geometrically from an eighth of the smaller of the
    prior ``scale`` and 1/sqrt(n) out past both the prior and the power's step.
    """
    mp = _mp()
    z = _mp_z(mp, alpha)
    a, b = z / mp.sqrt(2), mp.sqrt(mp.mpf(n) / 2)
    power = lambda th: mp.erfc(a - b * th) / 2
    g = prior_pdf(mp)
    width = min(scale, 1 / mp.sqrt(n)) / 8
    reach = max(16 * scale, (abs(z) + 10) / mp.sqrt(n))
    A = _mp_quad(mp, lambda th: power(th) * g(th),
                 [-mp.inf] + _ladder(mp, 0, width, reach, -1) + [0])
    At = _mp_quad(mp, lambda th: (1 - power(th)) * g(th),
                  [0] + _ladder(mp, 0, width, reach, 1) + [mp.inf])
    return A, At


def _mp_normal_pdf(mp):
    return _mp_scaled_normal_pdf(1)(mp)


@functools.lru_cache(maxsize=None)
def _mp_scaled_normal_pdf(tau):
    def pdf(mp):
        c, h = 1 / (tau * mp.sqrt(2 * mp.pi)), -1 / (2 * mp.mpf(tau) ** 2)
        return lambda th: c * mp.exp(h * th * th)

    return pdf


def _mp_cauchy_pdf(mp):
    return lambda th: 1 / (mp.pi * (1 + th * th))


def _mp_t_pdf(m):
    def pdf(mp):
        c = mp.gamma((m + 1) / mp.mpf(2)) / (mp.sqrt(m * mp.pi) * mp.gamma(m / mp.mpf(2)))
        return lambda th: c * (1 + th * th / m) ** (-(m + 1) / mp.mpf(2))

    return pdf


def _mp_exp_rate_gamma2(alpha, n):
    """Exp(theta) data, reject for a large sum; theta ~ Gamma(2, 1); null theta >= 1."""
    mp = _mp()
    c0 = mp.findroot(lambda c: mp.gammainc(n, c, mp.inf, regularized=True) - alpha, n)
    power = lambda th: mp.gammainc(n, th * c0, mp.inf, regularized=True)
    g = lambda th: th * mp.exp(-th)
    width = 1 / (8 * mp.sqrt(n))
    A = _mp_quad(mp, lambda th: power(th) * g(th), [1] + _ladder(mp, 1, width, 64, 1) + [mp.inf])
    At = _mp_quad(mp, lambda th: (1 - power(th)) * g(th), [0] + _ladder(mp, 1, width, 1, -1) + [1])
    return A, At


def _mp_cauchy_median_n1(alpha):
    """One Cauchy(theta) observation, reject when X > z_alpha pi/2; Cauchy prior."""
    mp = _mp()
    c = _mp_z(mp, alpha) * mp.pi / 2
    power = lambda th: mp.mpf(1) / 2 - mp.atan(c - th) / mp.pi
    g = _mp_cauchy_pdf(mp)
    A = _mp_quad(mp, lambda th: power(th) * g(th), [-mp.inf] + _ladder(mp, 0, 0.125, 1e12, -1) + [0])
    At = _mp_quad(mp, lambda th: (1 - power(th)) * g(th), [0] + _ladder(mp, 0, 0.125, 1e12, 1) + [mp.inf])
    return A, At


def _custom(prior):
    """``prior``'s callables passed through :func:`~bfdr.priors.make_prior`."""
    return priors.make_prior(prior.g, prior.g1, prior.g2, prior.support, prior.cdf, prior.ppf)


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
    # An earlier Romberg stop rule, without a guard on the gap before the
    # last, broke its bounds on both of these.
    "exp-gamma-4-alpha0.04": (EXP, priors.gamma_mode1_prior(2.0), TestSetup("mean_ump", 1.0, 0.04, 4),
                              None, lambda: _mp_exp_rate_gamma2(0.04, 4)),
    "exp-gamma-20-alpha0.3": (EXP, priors.gamma_mode1_prior(2.0), TestSetup("mean_ump", 1.0, 0.3, 20),
                              None, lambda: _mp_exp_rate_gamma2(0.3, 20)),
    "nn-10-tol1e-9": (NORMAL, priors.normal_prior(1.0), TestSetup("mean_ump", 0.0, 0.05, 10),
                      1e-9, lambda: _mp_normal_mean(_mp_normal_pdf, 0.05, 10)),
    # The trapezoid stop rule once stopped here on a chance agreement of two
    # levels: At error 1.6e-8 against a reported bound of 4.4e-9.
    "nn-10-alpha1e-6": (NORMAL, priors.normal_prior(1.0), TestSetup("mean_ump", 0.0, 1e-6, 10),
                        None, lambda: _mp_normal_mean(_mp_normal_pdf, 1e-6, 10)),
    "cc-median-1-tol1e-9": (CLOC, priors.cauchy_prior(1.0), TestSetup("median", 0.0, 0.05, 1),
                            1e-9, lambda: _mp_cauchy_median_n1(0.05)),
    # The README `spiky` rows: a prior spiked at the boundary, and a flat one.
    "nn-10-tau1e-3": (NORMAL, priors.scale_prior(priors.normal_prior(1.0), 1e-3),
                      TestSetup("mean_ump", 0.0, 0.05, 10), None,
                      lambda: _mp_normal_mean(_mp_scaled_normal_pdf(1e-3), 0.05, 10, scale=1e-3)),
    "nn-10-tau1e3": (NORMAL, priors.scale_prior(priors.normal_prior(1.0), 1e3),
                     TestSetup("mean_ump", 0.0, 0.05, 10), None,
                     lambda: _mp_normal_mean(_mp_scaled_normal_pdf(1e3), 0.05, 10, scale=1e3)),
    # A t prior with m = 0.5 has mass 1e-7 beyond 1e13, where the rule stops;
    # the bound's tail term must carry the weight there, not the mass alone.
    "nt0.5-10": (NORMAL, _custom(priors.student_t_prior(0.5, 1.0)), TestSetup("mean_ump", 0.0, 0.05, 10),
                 None, lambda: _mp_normal_mean(_mp_t_pdf(0.5), 0.05, 10)),
}
# normal:1 scaled by tau from spiky to flat, at two levels (the two README
# `spiky` rows above are not repeated).
MPMATH_CASES.update({
    f"nn-10-tau{tau:g}-alpha{alpha:g}": (
        NORMAL, priors.scale_prior(priors.normal_prior(1.0), tau), TestSetup("mean_ump", 0.0, alpha, 10),
        None, lambda tau=tau, alpha=alpha: _mp_normal_mean(_mp_scaled_normal_pdf(tau), alpha, 10, scale=tau))
    for tau in (1e-6, 1e-3, 1.0, 1e3, 1e6) for alpha in (0.05, 1e-6)
    if (tau, alpha) not in ((1e-3, 0.05), (1e3, 0.05))
})


def _joint(A, At, lam):
    B = A + lam - At
    return JointProbabilities(
        A=IntegralValue(A, 1e-12),
        A_tilde=IntegralValue(At, 1e-12),
        lambda_alt=lam,
        B=B,
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
            assert joint.B == joint.A.value + lam - joint.A_tilde.value
            assert 0.0 < joint.B < 1.0
            # the far rate divides by the complement 1 - B itself
            assert exact_rates(joint).far.value == joint.A_tilde.value / (1.0 - joint.B)

    def test_non_convergence_propagates_best_estimate(self, monkeypatch):
        # 1e-20 lies below the rounding floor 64 eps |A|: the first side runs
        # every level and its result reaches the caller unchanged
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        integrate, sides = nk.integrate, []

        def recorded(*args):
            try:
                return integrate(*args)
            except QuadratureNonConvergence as exc:
                sides.append(exc.result)
                raise

        monkeypatch.setattr(nk, "integrate", recorded)
        with pytest.raises(QuadratureNonConvergence) as excinfo:
            exact_joint(NORMAL, priors.normal_prior(1.0), setup, 1e-20)
        assert [excinfo.value.result] == sides
        assert excinfo.value.result.panels == nk._ENDS[-1]
        assert math.isfinite(excinfo.value.result.value)
        with pytest.raises(nk.DomainError, match="abs_tol must be positive"):
            exact_joint(NORMAL, priors.normal_prior(1.0), setup, 0.0)

    def test_nan_density_raises_rather_than_giving_nan_rates(self):
        # a prior built without validation, NaN beyond |theta| = 2
        base = priors.normal_prior(1.0)
        prior = dataclasses.replace(
            base, g=lambda x: np.where(np.abs(np.asarray(x, dtype=float)) > 2.0, np.nan, base.g(x)))
        with pytest.raises(QuadratureNonConvergence):
            exact_joint(NORMAL, prior, TestSetup("mean_ump", 0.0, 0.05, 10))

    @pytest.mark.parametrize("case", sorted(MPMATH_CASES))
    def test_matches_mpmath_quadrature(self, case):
        model, prior, setup, abs_tol, oracle = MPMATH_CASES[case]
        abs_tol = abs_tol or nk.ABS_TOL
        joint = exact_joint(model, prior, setup, abs_tol)
        A_mp, At_mp = oracle()
        assert abs(joint.A.value - float(A_mp)) <= joint.A.error_bound
        assert abs(joint.A_tilde.value - float(At_mp)) <= joint.A_tilde.error_bound
        # gap and floor within abs_tol, abs_tol / 10 more, and a tail term far smaller
        assert max(joint.A.error_bound, joint.A_tilde.error_bound) <= 2.0 * abs_tol

    def test_flat_prior_is_right_to_twelve_digits(self):
        # The README `spiky` row tau = 1000: an absolute stop once left A
        # wrong by 3.5e-4 relative, inside its bound.
        model, prior, setup, _, oracle = MPMATH_CASES["nn-10-tau1e3"]
        A_mp, _ = oracle()
        assert abs(exact_joint(model, prior, setup).A.value - float(A_mp)) <= 1e-12 * float(A_mp)

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


    def test_quartiles_are_solved_once_per_prior(self):
        # the quadrature scale depends on the prior alone: 20 calls solve its
        # quartiles once, and each copy solves its own from its own ppf
        base = priors.gamma_mode1_prior(2.0)
        levels = []

        def counted(u):
            levels.append(np.asarray(u).tolist())
            return base.ppf(u)

        prior = dataclasses.replace(base, ppf=counted)
        for alpha in np.linspace(0.01, 0.2, 20):
            setup = TestSetup("mean_ump", 1.0, float(alpha), 10)
            assert exact_joint(EXP, prior, setup) == exact_joint(EXP, base, setup)
        assert levels == [[0.25, 0.75]]
        q1, q3 = base.ppf(np.array([0.25, 0.75]))
        assert prior.quadrature_scale == min(0.5 * (q3 - q1), 1.0)

        wider = dataclasses.replace(prior, ppf=lambda u: 8.0 * counted(u))
        assert prior.quadrature_scale < 1.0
        assert wider.quadrature_scale == 1.0  # its own quartiles, capped
        scaled = priors.scale_prior(prior, 0.25)
        assert scaled.quadrature_scale == 0.5 * (0.25 * q3 - 0.25 * q1)
        assert levels == [[0.25, 0.75]] * 3

    @pytest.mark.parametrize("prior", [priors.normal_prior(1.0), priors.student_t_prior(3.0, 1.0)],
                             ids=["normal", "t"])
    def test_prior_mass_outside_the_parameter_interval_rejected(self, prior):
        # exp-rate lives on rates > 0; these priors put half their mass below 0
        with pytest.raises(models.ModelError, match="reaches outside"):
            exact_joint(EXP, prior, TestSetup("mean_ump", 1.0, 0.05, 10))

    def test_theta0_outside_the_open_support_rejected(self):
        # the gamma prior lives on (0, inf); lambda_alt makes the interior check
        with pytest.raises(priors.PriorError, match="outside the open support"):
            exact_joint(EXP, priors.gamma_mode1_prior(2.0), TestSetup("mean_ump", -1.0, 0.05, 10))


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


def _march(f, origin, end, abs_tol, scale=1.0, tail=None, integrate=nk.integrate):
    """``integrate`` on one side, beside the scalar level march
    (``oracles.scalar_de``) on the same side. Returns the result, the march's
    (value, level gap, nodes, converged), the march's node farthest from
    ``origin``, and the edges at which ``integrate`` asked for the tail."""
    edges, points = [], []

    def recorded(edge):
        edges.append(edge)
        return 0.0 if tail is None else tail(edge)

    def marched(x):
        points.extend(x.tolist())
        return f(x)

    try:
        res, raised = integrate(f, origin, end, abs_tol, scale, recorded), False
    except QuadratureNonConvergence as exc:
        res, raised = exc.result, True
    ref = scalar_de(marched, origin, end, abs_tol, scale)
    assert raised != ref[3]  # it raises where the march does not converge
    return res, ref, max(points, key=lambda x: abs(x - origin)), edges


class TestFindCut:
    """Where each side is cut: at the outermost node of the levels summed,
    where the caller's tail term is asked for. Checked against the scalar
    level march, one call per level."""

    @pytest.mark.parametrize("alpha,n", [(0.05, 10), (1e-4, 4), (0.3, 20)])
    @pytest.mark.parametrize("pair", sorted(BUILTIN_PAIRS))
    def test_equals_the_scalar_march_on_builtin_pairs(self, monkeypatch, pair, alpha, n):
        model, spec, statistic, theta0 = BUILTIN_PAIRS[pair]
        integrate, sides = nk.integrate, []

        def checked(f, origin, end, abs_tol, scale, tail):
            res, ref, farthest, edges = _march(f, origin, end, abs_tol, scale, tail, integrate)
            sides.append((res, ref, farthest, edges, tail))
            return res

        monkeypatch.setattr(nk, "integrate", checked)
        exact_joint(model, priors.parse_prior_spec(spec), TestSetup(statistic, theta0, alpha, n))
        assert len(sides) == 2
        for res, (value, gap, _, converged), farthest, edges, tail in sides:
            assert converged
            assert edges == [farthest]
            assert (res.value, res.error_bound) == (value, gap + tail(farthest))

    @pytest.mark.parametrize("k", [0, 1, 6, 7, 8, 9, 15, 16, 40])
    @pytest.mark.parametrize("away", [-1, 1])
    def test_hit_on_the_kth_doubling(self, k, away):
        # A kernel of width s = 1e-3 * 2**k, integrated with the scale s: the
        # same nodes in units of s at every k, so the rule stops on the same
        # level (4) and cuts at s times the same outermost E.
        s = 1e-3 * 2.0**k
        f = lambda th: np.exp(-np.abs(th) / s)
        res, (value, gap, nodes, converged), farthest, edges = _march(
            f, 0.0, away * math.inf, 1e-10 * s, s)
        assert converged and (res.value, res.error_bound) == (value, gap)
        assert abs(res.value - s) <= res.error_bound
        assert nodes == nk._ENDS[4]
        assert edges == [farthest] == [away * s * nk._EDGES[0][4]]

    @pytest.mark.parametrize(
        "f,origin,end,truth",
        [
            # an integrand vanishing at the limit 0, like exp-rate's toward 0
            (lambda th: th**4, 1.0, 0.0, 0.2),
            # a side far shorter than the infinite sides' scale of 1
            (lambda th: np.exp(-(th - 1.0) * 1e5), 1.0, 1.0005, -math.expm1(-50.0) / 1e5),
            # an integrand that never decays, on finite and infinite sides
            (lambda th: np.ones_like(th), 1.0, 0.0, 1.0),
            (lambda th: np.ones_like(th), 1.0, 1.0005, 1.0005 - 1.0),
            (lambda th: np.ones_like(th), 0.0, math.inf, None),
            (lambda th: np.ones_like(th), 0.0, -math.inf, None),
        ],
        ids=["limit-hit", "tiny-smax", "never-limit", "never-tiny-smax", "never-up", "never-down"],
    )
    def test_edge_cases_equal_the_scalar_march(self, f, origin, end, truth):
        res, (value, gap, nodes, converged), farthest, edges = _march(
            f, origin, end, 1e-9)
        assert (res.value, res.error_bound) == (value, gap)
        assert edges == [farthest]
        if truth is None:
            # no level agrees: the cut is the table's last node, inside E = 1e13
            assert not converged and nodes == nk._ENDS[-1]
            assert farthest == math.copysign(nk._EDGES[0][-1], end)
            assert 9e12 < nk._EDGES[0][-1] <= 1e13
        else:
            assert converged and abs(res.value - truth) <= res.error_bound
            assert min(origin, end) <= farthest <= max(origin, end)

    def test_block_march_adds_no_warnings(self):
        # The batched first call and each later level, on every built-in pair
        # and on scaled normal priors from 1e-6 to 1e6.
        cases = [
            (model, priors.parse_prior_spec(spec), TestSetup(statistic, theta0, alpha, n))
            for model, spec, statistic, theta0 in BUILTIN_PAIRS.values()
            for alpha, n in ((1e-6, 4), (0.05, 10), (0.3, 20))
        ] + [
            (NORMAL, priors.scale_prior(priors.normal_prior(1.0), tau), TestSetup("mean_ump", 0.0, 0.05, 10))
            for tau in (1e-6, 1e-3, 1.0, 1e3, 1e6)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model, prior, setup in cases:
                exact_joint(model, prior, setup)

    def test_cut_search_evaluates_the_prior_cdf_in_blocks(self):
        # One call for lambda_alt, then one block of one point per side: the cut.
        prior = priors.normal_prior(1.0)
        calls = []
        counted = dataclasses.replace(prior, cdf=lambda th: calls.append(th) or prior.cdf(th))
        exact_joint(NORMAL, counted, TestSetup("mean_ump", 0.0, 0.05, 10))
        assert [np.size(th) for th in calls] == [1, 1, 1]
        # the tails are taken at the outermost nodes, s * E(3.625) from theta0 = 0,
        # with s the prior's half-IQR
        edge = 0.5 * (prior.ppf(0.75) - prior.ppf(0.25)) * nk._EDGES[0][3]
        assert [float(th) for th in calls[1:]] == [-edge, edge]
