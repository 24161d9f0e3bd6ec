"""Built-in prior families: closed forms, normalization, scaling, tail masses."""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bfdr import numkernel as nk
from bfdr import priors
from bfdr._special import _sp
from bfdr.mtsim import uniform_block
from oracles import mp_unit_quantile

SQRT_2PI = math.sqrt(2.0 * math.pi)

ALL_BUILTINS = [
    priors.normal_prior(1.0),
    priors.normal_prior(0.5),
    priors.student_t_prior(3.0, 1.0),
    priors.student_t_prior(5.0, 2.0),
    priors.cauchy_prior(1.0),
    priors.cauchy_prior(0.7),
    priors.gamma_mode1_prior(2.0),
    priors.gamma_mode1_prior(3.5),
    priors.f_mode1_prior(2.0, 2.0),
    priors.f_mode1_prior(3.0, 4.0),
]


class TestBuiltinClosedForms:
    def test_normal_at_zero(self):
        p = priors.normal_prior(1.0)
        assert float(p.g(0.0)) == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)
        assert float(p.g1(0.0)) == 0.0
        assert float(p.g2(0.0)) == pytest.approx(-1.0 / SQRT_2PI, rel=1e-14)

    def test_normal_scale_family(self):
        tau = 2.5
        p = priors.normal_prior(tau)
        assert float(p.g(0.0)) == pytest.approx(1.0 / (SQRT_2PI * tau), rel=1e-14)
        assert float(p.g2(0.0)) == pytest.approx(-1.0 / (SQRT_2PI * tau**3), rel=1e-14)

    def test_cauchy_at_zero(self):
        p = priors.cauchy_prior(1.0)
        assert float(p.g(0.0)) == pytest.approx(1.0 / math.pi, rel=1e-14)
        assert float(p.g1(0.0)) == 0.0

    def test_cauchy_equals_t1(self):
        c = priors.cauchy_prior(1.3)
        t = priors.student_t_prior(1.0, 1.3)
        xs = np.linspace(-4.0, 4.0, 41)
        np.testing.assert_allclose(c.g(xs), t.g(xs), rtol=1e-12)
        np.testing.assert_allclose(c.g2(xs), t.g2(xs), rtol=1e-11, atol=1e-14)

    def test_student_t_center_density(self):
        m, tau = 3.0, 2.0
        p = priors.student_t_prior(m, tau)
        expected = math.gamma((m + 1) / 2) / (tau * math.sqrt(m * math.pi) * math.gamma(m / 2))
        assert float(p.g(0.0)) == pytest.approx(expected, rel=1e-13)

    def test_student_t_second_derivative_center(self):
        # -Gamma((m+3)/2) / (tau^3 sqrt(m pi) Gamma((m+2)/2)); the tau power
        # follows from the scale family.
        m, tau = 3.0, 2.0
        p = priors.student_t_prior(m, tau)
        expected = -math.gamma((m + 3) / 2) / (
            tau**3 * math.sqrt(m * math.pi) * math.gamma((m + 2) / 2)
        )
        assert float(p.g2(0.0)) == pytest.approx(expected, rel=1e-12)

    def test_gamma_mode1(self):
        p = priors.gamma_mode1_prior(2.0)
        assert float(p.g(1.0)) == pytest.approx(math.exp(-1.0), rel=1e-13)
        assert float(p.g1(1.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(p.g2(1.0)) == pytest.approx(-math.exp(-1.0), rel=1e-13)

    def test_gamma_mode1_general_r(self):
        r = 3.0
        p = priors.gamma_mode1_prior(r)
        expected = (r - 1) ** r * math.exp(-(r - 1)) / math.gamma(r)
        assert float(p.g(1.0)) == pytest.approx(expected, rel=1e-13)
        expected2 = -((r - 1) ** (r + 1)) * math.exp(-(r - 1)) / math.gamma(r)
        assert float(p.g2(1.0)) == pytest.approx(expected2, rel=1e-12)

    def test_f_mode1(self):
        r, s = 2.0, 2.0
        p = priors.f_mode1_prior(r, s)
        coef = math.gamma(r + s) / (math.gamma(r) * math.gamma(s))
        expected = coef * ((r - 1) / (s + 1)) ** r * (1 + (r - 1) / (s + 1)) ** (-(r + s))
        assert float(p.g(1.0)) == pytest.approx(expected, rel=1e-13)
        assert float(p.g1(1.0)) == pytest.approx(0.0, abs=1e-14)
        expected2 = (
            -coef
            * ((r - 1) / (s + 1)) ** (r + 1)
            * (r + s)
            * (1 + (r - 1) / (s + 1)) ** (-(r + s + 2))
        )
        assert float(p.g2(1.0)) == pytest.approx(expected2, rel=1e-12)

    def test_f_mode1_mode_at_one(self):
        p = priors.f_mode1_prior(3.0, 4.0)
        eps = 1e-4
        assert float(p.g(1.0)) > float(p.g(1.0 + eps))
        assert float(p.g(1.0)) > float(p.g(1.0 - eps))

    @pytest.mark.parametrize("x", [1e-8, 1e-150, 1e-160])
    def test_half_line_second_derivative_near_zero(self, x):
        # g'' -> -2 (gamma-mode1:2) and -16/9 (f-mode1:2:2) as x -> 0; the
        # bracket (log h)'^2 + (log h)'' of g'' = h bracket must not cancel
        y = x / 3.0  # f-mode1:2:2 is F(4, 4), density 6 y (1 + y)^-4, at tau = 3
        cases = [
            (priors.gamma_mode1_prior(2.0), (x - 2.0) * math.exp(-x)),
            (priors.f_mode1_prior(2.0, 2.0),
             6.0 * (20.0 * y / (1.0 + y) - 8.0) / (1.0 + y) ** 5 / 27.0),
        ]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            for prior, want in cases:
                got = [float(prior.g2(x)), float(prior.g2(np.array([x]))[0])]
                assert got == pytest.approx([want, want], rel=1e-13)

    @pytest.mark.parametrize("bad", [0.5, 1.0])
    def test_gamma_needs_interior_mode(self, bad):
        with pytest.raises(priors.PriorError):
            priors.gamma_mode1_prior(bad)

    @pytest.mark.parametrize(
        "factory, params",
        [
            (priors.normal_prior, (math.inf,)),
            (priors.cauchy_prior, (math.inf,)),
            (priors.student_t_prior, (math.inf, 1.0)),
            (priors.student_t_prior, (1.0, math.inf)),
            (priors.gamma_mode1_prior, (math.inf,)),
            (priors.f_mode1_prior, (math.inf, 2.0)),
            (priors.f_mode1_prior, (2.0, math.inf)),
            (priors.normal_prior, (math.nan,)),
            (priors.student_t_prior, (math.nan, 1.0)),
            (priors.gamma_mode1_prior, (math.nan,)),
            (priors.f_mode1_prior, (2.0, math.nan)),
        ],
        ids=["normal", "cauchy", "t-m", "t-tau", "gamma-mode1", "f-mode1-r", "f-mode1-s",
             "normal-nan", "t-m-nan", "gamma-mode1-nan", "f-mode1-s-nan"],
    )
    def test_infinite_parameters_rejected(self, factory, params):
        # one open-range comparison per parameter refuses inf and NaN alike
        with pytest.raises(priors.PriorError, match=r"finite.*got.*(inf|nan)"):
            factory(*params)

    def test_builtin_dispatch(self):
        p = priors.parse_prior_spec("normal:2")
        assert p.name == "normal:2"
        with pytest.raises(priors.PriorError, match="unknown prior kind"):
            priors.parse_prior_spec("bogus:1")
        with pytest.raises(priors.PriorError, match="takes 1 parameter"):
            priors.parse_prior_spec("normal:1:2")
        with pytest.raises(priors.PriorError, match="bad numeric parameter"):
            priors.parse_prior_spec("normal:x")


class TestValidation:
    @pytest.mark.parametrize("prior", ALL_BUILTINS, ids=lambda p: p.name)
    def test_builtin_passes_validation(self, prior):
        priors.validate_prior(prior)

    @pytest.mark.parametrize("prior", ALL_BUILTINS, ids=lambda p: p.name)
    def test_unit_mass(self, prior):
        anchor = float(prior.ppf(0.5))
        tol = 1e-8
        mass = sum(nk.integrate(prior.g, anchor, end, tol).value for end in prior.support)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_builtins_have_flat_center(self):
        for prior in (priors.normal_prior(1.0), priors.cauchy_prior(2.0),
                      priors.student_t_prior(4.0, 1.0)):
            assert float(prior.g1(0.0)) == 0.0

    def test_custom_prior_accepted(self):
        # triangular-ish smooth density: logistic
        def g(x):
            x = np.asarray(x, dtype=float)
            e = np.exp(-x)
            return e / (1 + e) ** 2

        def g1(x):
            x = np.asarray(x, dtype=float)
            e = np.exp(-x)
            return e * (e - 1) / (1 + e) ** 3

        def g2(x):
            x = np.asarray(x, dtype=float)
            e = np.exp(-x)
            return e * (e * e - 4 * e + 1) / (1 + e) ** 4

        p = priors.make_prior(
            g, g1, g2, (-math.inf, math.inf),
            cdf=lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float))),
            ppf=lambda u: np.log(u / (1.0 - u)),
            name="logistic",
        )
        assert float(p.g(0.0)) == pytest.approx(0.25, rel=1e-12)

    def test_unnormalized_custom_rejected(self):
        def g(x):
            x = np.asarray(x, dtype=float)
            return 2.0 * np.exp(-0.5 * x * x) / SQRT_2PI

        with pytest.raises(priors.PriorError, match="mass"):
            priors.make_prior(
                g,
                lambda x: -np.asarray(x, dtype=float) * g(x),
                lambda x: (np.asarray(x, dtype=float) ** 2 - 1) * g(x),
                (-math.inf, math.inf),
                cdf=_sp.ndtr,
                ppf=priors.normal_prior(1.0).ppf,
            )

    def test_density_nan_at_quadrature_nodes_rejected(self):
        # the mass integral meets NaN beyond |x| = 2 and cannot converge
        base = priors.normal_prior(1.0)

        def g(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) > 2.0, np.nan, base.g(x))

        with pytest.raises(nk.QuadratureNonConvergence):
            priors.make_prior(g, base.g1, base.g2, base.support, cdf=base.cdf, ppf=base.ppf)

    def test_cdf_nan_at_the_tail_points_rejected(self):
        # the round trip on [0.01, 0.99] holds, but the mass outside the
        # tail points ppf(1e-7) and ppf(1 - 1e-7) is NaN
        base = priors.normal_prior(1.0)

        def cdf(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) > 5.0, np.nan, base.cdf(x))

        with pytest.raises(priors.PriorError, match="mass"):
            priors.make_prior(base.g, base.g1, base.g2, base.support, cdf=cdf, ppf=base.ppf)

    def test_wrong_derivative_rejected(self):
        base = priors.normal_prior(1.0)
        with pytest.raises(priors.PriorError):
            priors.make_prior(
                base.g, lambda x: np.asarray(base.g1(x)) + 0.01, base.g2,
                base.support, cdf=base.cdf, ppf=base.ppf,
            )

    def test_quantile_must_invert_the_cdf(self):
        # a ppf of another prior would make the simulator draw from it silently
        base = priors.normal_prior(1.0)
        with pytest.raises(priors.PriorError, match=r"cdf\(ppf"):
            priors.make_prior(
                base.g, base.g1, base.g2, base.support,
                cdf=base.cdf, ppf=lambda u: 2.0 * base.ppf(u),
            )

    @pytest.mark.parametrize("tail", [np.nan, np.inf, "reversed"])
    def test_unusable_tail_quantiles_rejected(self, tail):
        # the ppf inverts the CDF on [0.01, 0.99] but not in the far tails,
        # where the mass check takes its truncation points; it is sound at
        # the quantile-range levels, 1e-10 and below and 1 - 1e-10 and above
        base = priors.normal_prior(1.0)

        def ppf(u):
            u = np.asarray(u, dtype=float)
            lo, hi = (5.0, -5.0) if tail == "reversed" else (tail, tail)
            far = (u <= 1e-10) | (u >= 1.0 - 1e-10)
            return np.where(far, base.ppf(u),
                            np.where(u < 0.005, lo, np.where(u > 0.995, hi, base.ppf(u))))

        with pytest.raises(priors.PriorError, match="tail points"):
            priors.make_prior(base.g, base.g1, base.g2, base.support, cdf=base.cdf, ppf=ppf)


class TestQuantileRange:
    """Every accepted prior has a finite, increasing quantile over the
    simulator's uniforms [2**-54, 1 - 2**-53]; a prior whose quantile leaves
    double range there is refused, naming the first level that fails."""

    LEVELS = [2.0**-54, 1e-16, 1e-13, 1e-10, 0.5, 1.0 - 1e-10, 1.0 - 1e-13,
              1.0 - 2.0**-52, 1.0 - 2.0**-53]

    @pytest.mark.parametrize("spec,level", [
        ("f-mode1:2:0.03", "1 - 1e-13"),  # fdtri's clamp, 4.63e307, from 1 - 1e-10 up
        ("f-mode1:1.01:0.03", "2**-54"),  # NaN there, inf above 1 - 1e-10
        ("t:0.05:1", "1e-16"),  # stdtrit flat at -+1.5e153 on all eight tail levels
        ("cauchy:1e300", "2**-54"),  # -inf
    ])
    def test_refused(self, spec, level):
        with pytest.raises(priors.PriorError, match=re.escape(f"ppf({level}) = ")):
            priors.parse_prior_spec(spec)

    @pytest.mark.parametrize("spec", [
        "normal:1", "normal:0.001", "t:4:1", "t:0.5:1", "cauchy:1", "gamma-mode1:2",
        "gamma-mode1:1.001", "f-mode1:2:2", "f-mode1:1.2:0.5", "f-mode1:1.01:2",
    ])
    def test_accepted(self, spec):
        q = priors.parse_prior_spec(spec).ppf(np.array(self.LEVELS))
        assert np.all(np.isfinite(q)) and np.all(np.diff(q) > 0.0)

    def test_custom_priors_are_checked_too(self):
        base = priors.cauchy_prior(1.0)

        def ppf(u):  # overflows above 1 - 1e-12
            u = np.asarray(u, dtype=float)
            return np.where(u > 1.0 - 1e-12, np.inf, base.ppf(u))

        with pytest.raises(priors.PriorError, match=re.escape("ppf(1 - 1e-13) = inf is not finite")):
            priors.make_prior(base.g, base.g1, base.g2, base.support, cdf=base.cdf, ppf=ppf)

    def test_scaling_is_checked(self):
        base = priors.make_prior(*(getattr(priors.cauchy_prior(1.0), f) for f in
                                   ("g", "g1", "g2", "support", "cdf", "ppf")))
        assert priors.scale_prior(base, 1e280).name == "custom*tau=1e+280"
        with pytest.raises(priors.PriorError, match=re.escape("ppf(2**-54) = -inf")):
            priors.scale_prior(base, 1e300)


class TestLambdaAlt:
    def test_symmetric_center(self):
        assert priors.lambda_alt(priors.normal_prior(1.0), 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_gamma_rate_tail(self):
        # P(Gamma(2, 1) > 1) = 2/e in the rate parameterization
        p = priors.gamma_mode1_prior(2.0)
        lam = priors.lambda_alt(p, 1.0)
        assert lam == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
        # the natural parameter negates the rate, flipping the alternative
        assert priors.lambda_alt(p, 1.0, -1) == pytest.approx(
            1.0 - 2.0 * math.exp(-1.0), rel=1e-12
        )

    def test_alternative_fills_up_near_lower_support(self):
        p = priors.gamma_mode1_prior(2.0)
        assert priors.lambda_alt(p, 1e-4) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_mass_rejected(self):
        p = priors.gamma_mode1_prior(2.0)
        with pytest.raises(priors.PriorError):
            priors.lambda_alt(p, 0.0)  # exactly at the boundary: mass 1
        with pytest.raises(priors.PriorError):
            priors.lambda_alt(p, math.inf)


class TestScalePrior:
    def test_identity_scale(self):
        base = priors.cauchy_prior(1.0)
        p = priors.scale_prior(base, 1.0)
        xs = np.linspace(-3.0, 3.0, 13)
        np.testing.assert_array_equal(p.g(xs), base.g(xs))

    def test_normal_halved_at_center(self):
        p = priors.scale_prior(priors.normal_prior(1.0), 2.0)
        assert float(p.g(0.0)) == pytest.approx(1.0 / SQRT_2PI / 2.0, rel=1e-14)

    @pytest.mark.parametrize("tau", [0.1, 10.0])
    def test_scaled_mass_is_one(self, tau):
        p = priors.scale_prior(priors.normal_prior(1.0), tau)
        tol = 1e-9
        mass = sum(nk.integrate(p.g, 0.0, end, tol).value for end in p.support)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_chain_rule_derivatives(self):
        tau = 3.0
        p = priors.scale_prior(priors.normal_prior(1.0), tau)
        xs = np.linspace(-2.0, 2.0, 9)
        h = 1e-5
        fd1 = (np.asarray(p.g(xs + h)) - np.asarray(p.g(xs - h))) / (2 * h)
        np.testing.assert_allclose(p.g1(xs), fd1, atol=1e-9)
        fd2 = (np.asarray(p.g(xs + h)) - 2 * np.asarray(p.g(xs)) + np.asarray(p.g(xs - h))) / h**2
        np.testing.assert_allclose(p.g2(xs), fd2, atol=1e-6)

    @pytest.mark.parametrize("tau", [1e-3, 1e3])
    def test_extreme_scales_vanish_pointwise(self, tau):
        p = priors.scale_prior(priors.normal_prior(1.0), tau)
        assert float(p.g(1.0)) < 1e-3

    def test_scaled_gamma_keeps_support(self):
        p = priors.scale_prior(priors.gamma_mode1_prior(2.0), 2.0)
        assert p.support == (0.0, math.inf)
        assert float(p.g(-1.0)) == 0.0

    @pytest.mark.parametrize("tau", [1e-3, 0.3, 2.5, 1e3])
    @pytest.mark.parametrize(
        "factory",
        [priors.normal_prior, priors.cauchy_prior, lambda tau: priors.student_t_prior(3.0, tau)],
        ids=["normal", "cauchy", "t3"],
    )
    def test_builtin_is_its_unit_member_scaled(self, factory, tau):
        # bit for bit: a scale enters a built-in only through scale_prior
        p, q = factory(tau), priors.scale_prior(factory(1.0), tau)
        th = tau * np.linspace(-8.0, 8.0, 161)
        for name in ("g", "g1", "g2", "cdf"):
            np.testing.assert_array_equal(getattr(p, name)(th), getattr(q, name)(th), err_msg=name)
        u = np.linspace(1e-6, 1.0 - 1e-6, 101)
        np.testing.assert_array_equal(p.ppf(u), q.ppf(u))

    @pytest.mark.parametrize(
        "prior",
        ALL_BUILTINS + [priors.scale_prior(p, 3.0) for p in ALL_BUILTINS[6:]],
        ids=lambda p: p.name,
    )
    def test_scalar_derivatives_match_the_array_path(self, prior):
        # the series evaluates g, g1, g2 at a scalar theta0, the quadrature and
        # the validation on arrays: both must give the same bits, and zero off
        # a half-line
        lo = prior.support[0]
        th = np.concatenate([[-2.5, -0.0, 0.0, 1e-9, 0.3, 1.0, 80.0, 1e4],
                             np.random.default_rng(3).uniform(-6.0, 6.0, 40)])
        for name in ("g", "g1", "g2"):
            fn = getattr(prior, name)
            for x in th:
                got = fn(float(x))
                assert isinstance(got, float)
                assert got.hex() == float(fn(np.array([x]))[0]).hex(), (name, x)
                if x <= lo:
                    assert got == 0.0

    def test_bad_tau_rejected(self):
        with pytest.raises(priors.PriorError):
            priors.scale_prior(priors.normal_prior(1.0), 0.0)
        with pytest.raises(priors.PriorError, match="tau must be positive and finite, got inf"):
            priors.scale_prior(priors.normal_prior(1.0), math.inf)


class TestSpecParsing:
    def test_round_trip_specs(self):
        for spec in ("normal:1", "t:3:2", "cauchy:0.5", "gamma-mode1:2", "f-mode1:2:2"):
            p = priors.parse_prior_spec(spec)
            assert p.name.startswith(spec.split(":")[0])

    def test_bad_numeric(self):
        with pytest.raises(priors.PriorError):
            priors.parse_prior_spec("normal:abc")


#: Relative error allowed in a gamma or F quantile against mpmath. The
#: forward functions a quantile is solved on carry up to about 50 eps (scipy's
#: gammaincc(1.5, x) is off by 1.2e-14 near x = 1.5), so scipy's inverses and
#: the table-seeded ones both reach some 10-40 eps on these grids.
_QUANTILE_RTOL = 64.0 * np.finfo(float).eps


def _assert_quantile_accuracy(prior, params, tau, u, library):
    """prior.ppf(u) and tau * library (the scipy inverse of the unit member)
    both within _QUANTILE_RTOL of the 40-digit quantile."""
    pytest.importorskip("mpmath")
    exact = tau * np.array([mp_unit_quantile(params, ui, x0) for ui, x0 in zip(u, library)])
    for name, got in (("ppf", prior.ppf(u)), ("library", tau * library)):
        worst = np.max(np.abs(got - exact) / exact)
        assert worst <= _QUANTILE_RTOL, f"{name}: relative error {worst:.3g}"


def _unit_library(params):
    """scipy's inverse of the Gamma(r, 1) or F(2r, 2s) unit member, and the scale."""
    if len(params) == 1:
        (r,) = params
        return (lambda u: _sp.gammaincinv(r, u)), 1.0 / (r - 1.0)
    r, s = params
    return (lambda u: _sp.fdtri(2.0 * r, 2.0 * s, u)), r * (s + 1.0) / (s * (r - 1.0))


TABLE_PRIORS = [(2.0, 2.0), (3.0, 4.0), (1.5, 0.5), (1.25, 1.5), (2.0,), (1.5,)]


def _table_prior(params):
    return priors.gamma_mode1_prior(*params) if len(params) == 1 else priors.f_mode1_prior(*params)


def _prior_id(params):
    return f"gamma:{params[0]:g}" if len(params) == 1 else f"f:{2 * params[0]:g}:{2 * params[1]:g}"


class TestTableQuantile:
    """The gamma and F priors' table-seeded quantile: accuracy, library tails, purity."""

    # both tails down to the band's edge, 1e-10, and the middle
    BAND = np.concatenate([np.geomspace(1e-10, 0.5, 50), 1.0 - np.geomspace(0.5, 1e-10, 50)])
    OUTSIDE = np.array([0.0, 5e-324, 1e-300, 1e-12, 9.9e-11, 1.0 - 9.9e-11, 1.0 - 1e-12,
                        1.0 - 2.0**-53, 1.0, np.nan, -0.5, 1.5])
    # straddles 1e-10, 0.5 and 1 - 1e-10
    STRADDLE = np.concatenate([
        OUTSIDE,
        np.geomspace(1e-11, 1e-9, 21),
        np.linspace(0.5 - 1e-9, 0.5 + 1e-9, 21),
        1.0 - np.geomspace(1e-9, 1e-11, 21),
    ])

    @pytest.mark.parametrize("params", TABLE_PRIORS, ids=_prior_id)
    def test_band_accuracy_against_mpmath(self, params):
        library, tau = _unit_library(params)
        _assert_quantile_accuracy(_table_prior(params), params, tau, self.BAND,
                                  library(self.BAND))

    @pytest.mark.parametrize("params", TABLE_PRIORS, ids=_prior_id)
    def test_outside_the_band_is_the_library(self, params):
        # the suite turns warnings into errors: no RuntimeWarning from these
        library, tau = _unit_library(params)
        got = _table_prior(params).ppf(self.OUTSIDE)
        np.testing.assert_array_equal(got, tau * library(self.OUTSIDE))

    def test_tail_beyond_double_range_keeps_the_library(self):
        # F(4, 0.106)'s quantile at 1 - ndtr(-8.5) is near 1e320: fdtri clamps
        # near 1.2e306 there, the table's top nodes miss their round trip and
        # fdtri serves every level; at the simulator's 1 - 2**-53 it is still
        # 3.0e301, so the prior is accepted
        library, tau = _unit_library((2.0, 0.053))
        u = np.concatenate([self.BAND, self.OUTSIDE])
        np.testing.assert_array_equal(priors.f_mode1_prior(2.0, 0.053).ppf(u), tau * library(u))

    @pytest.mark.parametrize("params", TABLE_PRIORS, ids=_prior_id)
    def test_each_draw_depends_only_on_its_own_level(self, params):
        # the simulator's stream is partition-free only if theta_i = ppf(u_i)
        # whatever else is in the array and however it is laid out
        ppf = _table_prior(params).ppf
        drawn = uniform_block(11, 0, 0, 2048, 11)[:, 0]
        laid_out = np.repeat(self.STRADDLE[:, None], 3, axis=1)[:, 0]
        for u in (self.STRADDLE, laid_out, drawn, np.ascontiguousarray(drawn)):
            whole = ppf(u)
            alone = np.array([ppf(u[i:i + 1])[0] for i in range(u.size)])
            np.testing.assert_array_equal(whole, alone)
            np.testing.assert_array_equal(whole[::-1], ppf(u[::-1]))
        assert float(ppf(0.3)) == ppf(np.array([0.3]))[0]


class TestSpecialFunctionBackends:
    """The t, gamma and F priors run on scipy.special; the oracles are
    scipy.stats and, for the gamma and F quantiles, mpmath."""

    @pytest.mark.parametrize("m,tau", [(1.0, 1.0), (4.0, 1.0), (2.5, 0.3), (30.0, 2.0)])
    def test_student_t_matches_scipy_stats(self, m, tau):
        stats = pytest.importorskip("scipy.stats")
        p = priors.student_t_prior(m, tau)
        th = np.linspace(-40.0, 40.0, 801)
        np.testing.assert_array_equal(p.cdf(th), stats.t.cdf(th / tau, df=m))
        u = np.linspace(1e-6, 1.0 - 1e-6, 501)
        np.testing.assert_array_equal(p.ppf(u), tau * stats.t.ppf(u, df=m))

    @pytest.mark.parametrize("r,s", [(2.0, 2.0), (3.0, 4.0), (1.5, 0.5)])
    def test_f_matches_scipy_stats(self, r, s):
        # the cdf is scipy's bit for bit; the quantile is table-seeded, so it
        # is held to mpmath with the bound scipy's own inverse meets
        stats = pytest.importorskip("scipy.stats")
        p = priors.f_mode1_prior(r, s)
        tau = r * (s + 1.0) / (s * (r - 1.0))
        th = np.linspace(-5.0, 60.0, 801)
        np.testing.assert_array_equal(p.cdf(th), stats.f.cdf(th / tau, 2.0 * r, 2.0 * s))
        u = np.linspace(0.0, 1.0 - 1e-6, 501)
        assert p.ppf(u)[0] == 0.0
        _assert_quantile_accuracy(p, (r, s), tau, u[1:], stats.f.ppf(u[1:], 2.0 * r, 2.0 * s))

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_gamma_quantile_matches_mpmath(self, r):
        stats = pytest.importorskip("scipy.stats")
        p = priors.gamma_mode1_prior(r)
        u = np.linspace(0.0, 1.0 - 1e-6, 501)
        assert p.ppf(u)[0] == 0.0
        _assert_quantile_accuracy(p, (r,), 1.0 / (r - 1.0), u[1:], stats.gamma.ppf(u[1:], r))

    def test_cli_import_loads_only_the_special_function_ufuncs(self):
        # scipy.special's __init__ pulls in scipy's array-API layer and with it
        # numpy.f2py: about 0.2 s of every CLI process that bfdr never uses
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        slow = ["scipy.stats", "scipy.optimize", "scipy.special", "scipy._lib._array_api",
                "numpy.f2py"]
        code = f"import sys, bfdr.cli; print([m for m in {slow!r} if m in sys.modules])"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "[]"
