"""Special functions and quadrature kernels against independent oracles.

Frozen reference values were computed with mpmath at 40 digits (erf/erfc,
root solves); combinatorial values use exact integer arithmetic.
"""

import math

import numpy as np
import pytest

from bfdr import numkernel as nk

from derivations import log_binomial
from oracles import bisect_quantile, scalar_romberg

SQRT_2PI = math.sqrt(2.0 * math.pi)

# mpmath (40 digits): exp(-x^2/2)/sqrt(2 pi) at 1.644854
PHI_1_644854 = 0.10313557709030024
# mpmath: erfc(-0.644854/sqrt(2))/2
NCDF_0_644854 = 0.7404890980450159


class TestStdNormalPdf:
    def test_at_zero(self):
        assert nk.std_normal_pdf(0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)

    def test_symmetry(self):
        xs = np.linspace(0.0, 6.0, 31)
        np.testing.assert_allclose(nk.std_normal_pdf(xs), nk.std_normal_pdf(-xs), rtol=1e-15)

    def test_high_precision_point(self):
        assert nk.std_normal_pdf(1.644854) == pytest.approx(PHI_1_644854, rel=1e-13)


class TestStdNormalCdf:
    def test_at_zero(self):
        assert nk.std_normal_cdf(0.0) == 0.5

    def test_upper_tail(self):
        assert nk.std_normal_cdf(8.0) >= 1.0 - 1e-14

    def test_high_precision_point(self):
        assert nk.std_normal_cdf(0.644854) == pytest.approx(NCDF_0_644854, abs=1e-14)

    def test_complement_sums_to_one(self):
        for x in np.linspace(-6.0, 6.0, 25):
            assert nk.std_normal_cdf(x) + nk.std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_derivative_matches_pdf(self):
        # |(Phi(x+h)-Phi(x-h))/2h - phi(x)| <= 1e-6 on [-5, 5]
        h = 1e-5
        xs = np.linspace(-5.0, 5.0, 101)
        fd = (nk.std_normal_cdf(xs + h) - nk.std_normal_cdf(xs - h)) / (2 * h)
        assert np.max(np.abs(fd - nk.std_normal_pdf(xs))) <= 1e-6


class TestStdNormalQuantile:
    def test_median(self):
        assert nk.std_normal_quantile(0.5) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("p", [0.95, 0.975])
    def test_against_bisection_oracle(self, p):
        ref = bisect_quantile(nk.std_normal_cdf, p, -10.0, 10.0)
        assert nk.std_normal_quantile(p) == pytest.approx(ref, abs=1e-10)

    def test_known_points(self):
        assert nk.std_normal_quantile(0.95) == pytest.approx(1.6448536269514722, rel=1e-12)
        assert nk.std_normal_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-12)

    def test_round_trip(self):
        ps = [1e-6, 1e-4, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-4, 1 - 1e-6]
        for p in ps:
            assert abs(nk.std_normal_cdf(nk.std_normal_quantile(p)) - p) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_rejects_bad_levels(self, p):
        with pytest.raises(nk.DomainError):
            nk.std_normal_quantile(p)


class TestLogBinomial:
    def test_two_choose_one(self):
        assert log_binomial(2, 1) == pytest.approx(math.log(2.0), abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_choose_zero(self, n):
        assert log_binomial(n, 0) == 0.0

    def test_exact_integer_oracle(self):
        assert log_binomial(20, 10) == pytest.approx(
            math.log(math.comb(20, 10)), abs=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(nk.DomainError):
            log_binomial(3, 5)
        with pytest.raises(nk.DomainError):
            log_binomial(-1, 0)


class TestIntegrate:
    def test_linear(self):
        res = nk.integrate(lambda x: x, 0.0, 1.0)
        assert res.value == pytest.approx(0.5, abs=max(1e-8, res.error_bound))

    @pytest.mark.parametrize(
        "a,b,truth",
        [
            (-1e8, 0.0, 0.15865525393145707),  # Phi(-1)
            (0.0, 1e8, 0.8413447460685429),  # Phi(1)
            (-1e8, 1e8, 1.0),
        ],
    )
    def test_wide_limits_of_shifted_gaussian(self, a, b, truth):
        # asymmetric about the anchor, so a flipped tail map would show
        res = nk.integrate_split(lambda x: nk.std_normal_pdf(x - 1.0), a, b, 0.0)
        assert res.value == pytest.approx(truth, abs=1e-7)

    @pytest.mark.parametrize(
        "a,b", [(-np.inf, 0.0), (0.0, np.inf), (2.0, 0.0), (np.nan, 1.0)]
    )
    def test_rejects_infinite_or_reversed_limits(self, a, b):
        with pytest.raises(nk.DomainError):
            nk.integrate(lambda x: x * x, a, b)

    def test_non_convergence_carries_best_estimate(self):
        cfg = nk.QuadratureConfig(abs_tol=1e-14, max_refinements=5)
        with pytest.raises(nk.QuadratureNonConvergence) as exc:
            nk.integrate(nk.std_normal_pdf, -30.0, 30.0, cfg)
        best = exc.value.result
        assert not best.converged
        assert best.value == pytest.approx(1.0, abs=0.1)

    def test_non_convergence_reports_the_trapezoid(self):
        # Under-resolved, the extrapolated diagonal (0.83) is worse than the
        # trapezoid, so the 32-panel trapezoid and its gap to 16 panels are kept.
        cfg = nk.QuadratureConfig(abs_tol=1e-14, max_refinements=5)
        with pytest.raises(nk.QuadratureNonConvergence) as exc:
            nk.integrate(nk.std_normal_pdf, -30.0, 30.0, cfg)
        best = exc.value.result
        assert (best.value, best.error_bound, best.panels) == (
            1.0072877454087963, 0.4913902737161582, 32)
        x = np.linspace(-30.0, 30.0, 33)
        assert best.value == pytest.approx(np.trapezoid(nk.std_normal_pdf(x), x), rel=1e-14)

    @pytest.mark.parametrize(
        "f,a,b,truth",
        [
            (lambda x: x, 0.0, 1.0, 0.5),
            (lambda x: x**3, 0.0, 1.0, 0.25),
            (np.exp, 0.0, 1.0, math.e - 1.0),
            (nk.std_normal_pdf, -8.0, 8.0, 1.0),
            (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        ],
    )
    def test_schemes_agree(self, f, a, b, truth):
        r1 = nk.integrate(f, a, b, nk.QuadratureConfig(abs_tol=1e-9))
        assert r1.value == pytest.approx(truth, abs=1e-7)


def _gauss(v):
    return math.exp(-0.5 * v * v) / SQRT_2PI


class TestRombergBatching:
    """The first integrand call covers the ends and levels 1..6; the result
    must equal the one-call-per-level loop bit for bit."""

    # (integrand of one float, lo, hi, abs_tol, level it stops at)
    CASES = [
        (math.exp, 0.0, 1.0, 1e-4, 4),
        (_gauss, -3.0, 3.0, 1e-4, 5),
        (lambda v: 1.0 / (1.0 + v * v), -3.0, 3.0, 1e-4, 6),
        (math.sqrt, 0.0, 1.0, 1e-4, 7),
        (_gauss, -3.0, 3.0, 1e-10, 8),
        (math.cos, -30.0, 30.0, 1e-4, 9),
    ]

    @pytest.mark.parametrize("max_refinements", [1, 2, 3, 4, 5, 6, 7, 20])
    @pytest.mark.parametrize("f,lo,hi,tol,stop", CASES, ids=[f"level{c[-1]}" for c in CASES])
    def test_matches_the_one_call_per_level_loop(self, f, lo, hi, tol, stop, max_refinements):
        points = []

        def w(x):
            # Elementwise math keeps each value independent of the array it sits in.
            points.append(x.tolist())
            return np.array([f(v) for v in x.tolist()])

        expected = scalar_romberg(w, lo, hi, tol, 20)
        assert expected[2:] == (2**stop, True)
        expected = scalar_romberg(w, lo, hi, tol, max_refinements)
        points.clear()
        cfg = nk.QuadratureConfig(abs_tol=tol, max_refinements=max_refinements)
        try:
            res = nk.integrate(w, lo, hi, cfg)
        except nk.QuadratureNonConvergence as exc:
            res = exc.result
        assert (res.value, res.error_bound, res.panels, res.converged) == expected

        # A piece stopping at level L <= 6 makes one call, one stopping later
        # L - 5; no node beyond level max_refinements is evaluated.
        last = max(min(6, max_refinements), min(stop, max_refinements))
        assert len(points) == 1 + max(0, last - 6)
        flat = [x for call in points for x in call]
        assert len(flat) == len(set(flat)) == 2**last + 1 <= 2**max_refinements + 1


class TestConfigValidation:
    def test_bad_tolerance(self):
        with pytest.raises(nk.DomainError):
            nk.QuadratureConfig(abs_tol=0.0)

    def test_bad_refinements(self):
        with pytest.raises(nk.DomainError):
            nk.QuadratureConfig(max_refinements=0)

    def test_negative_error_bound_rejected(self):
        with pytest.raises(nk.DomainError):
            nk.IntegralValue(1.0, -1e-3)
