"""Third-order coefficients and series for the Bayesian error rates.

Writing A_n = P(null and reject) and At_n = P(alternative and accept), both
probabilities expand in powers of n^(-1/2):

    A_n  = a1/sqrt(n) + a2/n + a3/n^(3/2) + O(n^-2)
    At_n = at1/sqrt(n) + at2/n + at3/n^(3/2) + O(n^-2)

With lam = P(theta > theta0) the rejection probability is
B_n = A_n + lam - At_n, and formal division produces the rate series

    delta_n = c1/sqrt(n) + c2/n + c3/n^(3/2) + O(n^-2)      (P(null | reject))
    eps_n   = d1/sqrt(n) + d2/n + d3/n^(3/2) + O(n^-2)      (P(alt | accept))

with b_i = at_i - a_i and

    c1 = a1/lam
    c2 = a1 b1/lam^2 + a2/lam
    c3 = a3/lam + (a1 b2 + a2 b1)/lam^2 + a1 b1^2/lam^3

Both rates are mirror images, and each mirror is written once:

* delta_n = A_n / (lam - (b1/sqrt(n) + ...)) and
  eps_n = At_n / ((1 - lam) - (-b1/sqrt(n) - ...)), so d is the c-series of
  (at, -b, 1 - lam).
* The a/at coefficients come from integrating the test's power expansion
  against the prior's Taylor expansion around theta0, over the null side for
  a and the alternative side for at. Every a_i is linear in the level weight
  s = alpha = P(reject at theta0); at_i is the same expression at
  s = -(1 - alpha) = -P(accept at theta0), with z = z_alpha held fixed.

For the exponential family the inner expansion is Edgeworth-with-Cornish-
Fisher, for the median it is the two-term expansion of the sample-median
CDF. The functions below hard-code the moments of those expansions; the
expansions themselves (the g1/g2 and f1/f2 polynomials, the Cornish-Fisher
critical value, the median CDF expansion) live with the tests in
``tests/derivations.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from . import numkernel as nk
from .models import (ExpFamilyModel, LocationModel, ModelError, _check_count, check_problem,
                     reiss_coefficients)
from .priors import Prior
from .results import RatePair, RateResult


@dataclass(frozen=True)
class CoefficientSet:
    """All series coefficients for one (model, prior, alpha, statistic) setup.

    ``lambda_alt`` is the alternative's prior mass in the *natural*
    parameterization of the test (for the exponential-rate family this is the
    mass of {rate < rate0}). b/c/d are derived from a/at and lambda_alt.
    """

    a1: float
    a2: float
    a3: float
    at1: float
    at2: float
    at3: float
    b1: float
    b2: float
    b3: float
    c1: float
    c2: float
    c3: float
    d1: float
    d2: float
    d3: float
    lambda_alt: float
    statistic: str
    parity: Optional[str] = None


def _quotient_series(
    a: Tuple[float, float, float], b: Tuple[float, float, float], lam: float
) -> Tuple[float, float, float]:
    """Coefficients of (a1 r + a2 r^2 + a3 r^3) / (lam - b1 r - b2 r^2 - ...)
    in powers of r = n^(-1/2), through r^3."""
    a1, a2, a3 = a
    b1, b2, _ = b
    lam2 = lam * lam
    return (
        a1 / lam,
        a1 * b1 / lam2 + a2 / lam,
        a3 / lam + (a1 * b2 + a2 * b1) / lam2 + a1 * b1 * b1 / (lam2 * lam),
    )


def compose_coefficient_set(
    a: Tuple[float, float, float],
    at: Tuple[float, float, float],
    lam: float,
    statistic: str,
    parity: Optional[str] = None,
) -> CoefficientSet:
    """Build the b/c/d coefficients from the joint-probability coefficients
    and lam in (0, 1), the ``lambda_alt`` of :func:`~bfdr.models.check_problem`."""
    b = (at[0] - a[0], at[1] - a[1], at[2] - a[2])
    c = _quotient_series(a, b, lam)
    d = _quotient_series(at, (-b[0], -b[1], -b[2]), 1.0 - lam)
    return CoefficientSet(*a, *at, *b, *c, *d, lam, statistic, parity)


# ---------------------------------------------------------------------------
# Coefficient builders
# ---------------------------------------------------------------------------


def exp_family_coefficients(
    model: ExpFamilyModel, prior: Prior, theta0: float, alpha: float
) -> CoefficientSet:
    """Series coefficients for the UMP mean test in an exponential family."""
    p = check_problem(model, prior, theta0, alpha)
    sigma0, rho30, rho40 = p.sigma0, p.rho30, p.rho40
    # natural coordinates: a falling mean negates the parameter and g1
    g0, g1, g2 = p.g0, model.natural_direction * p.g1, p.g2

    z = nk.upper_quantile_z(alpha)
    phi = nk.std_normal_pdf(z)
    z2, z3 = z * z, z**3
    r2 = rho30 * rho30

    h11 = z2 + 2.0
    h12 = -(z3 + 3.0 * z)
    h21 = -(rho30 / 3.0) * (z2 + 1.0)
    h22 = (rho30 / 3.0) * (z3 + 2.0 * z)
    # phi(z)-weighted moments of the g2 polynomial over the null side; the
    # level-weighted part h32 involves only the even g2 coefficients.
    h31 = r2 * (5.0 * z2 / 18.0 + 1.0 / 9.0) - rho40 * (z2 / 8.0 + 1.0 / 24.0)
    h32 = -5.0 * z3 * r2 / 18.0 - 11.0 * z * r2 / 36.0 + z3 * rho40 / 8.0 + z * rho40 / 8.0

    def joint(s: float) -> Tuple[float, float, float]:
        # (a1, a2, a3) at s = alpha; (at1, at2, at3) at s = -(1 - alpha)
        return (
            (g0 / sigma0) * (phi - s * z),
            (rho30 * g0 / (6.0 * sigma0)) * (s + 2.0 * s * z2 - 2.0 * z * phi)
            - (g1 / (2.0 * sigma0**2)) * (s * (z2 + 1.0) - z * phi),
            (h11 * phi + s * h12) * g2 / (6.0 * sigma0**3)
            + (h21 * phi + s * h22) * g1 / sigma0**2
            + (h31 * phi + s * h32) * g0 / sigma0,
        )

    return compose_coefficient_set(joint(alpha), joint(alpha - 1.0), p.lambda_alt, model.statistic)


def median_coefficients(
    model: LocationModel,
    prior: Prior,
    alpha: float,
    n: int,
) -> CoefficientSet:
    """Series coefficients for the median test; n enters only through parity."""
    p = check_problem(model, prior, 0.0, alpha)
    rc = reiss_coefficients(model, n)
    f0 = model.f0
    g0, g1, g2 = p.g0, p.g1, p.g2

    z = nk.upper_quantile_z(alpha)
    phi = nk.std_normal_pdf(z)
    z2, z3, z4 = z * z, z**3, z**4
    two_f0 = 2.0 * f0
    r2_quint = rc.f21 * (z4 + 4.0 * z2 + 8.0) + rc.f22 * (z2 + 2.0) + rc.f23

    def joint(s: float) -> Tuple[float, float, float]:
        # (a1, a2, a3) at s = alpha; (at1, at2, at3) at s = -(1 - alpha)
        return (
            (g0 / two_f0) * (phi - s * z),
            (g1 / (8.0 * f0 * f0)) * (z * phi - s * (z2 + 1.0))
            - (g0 / two_f0) * (rc.f11 * (z * phi + s) + rc.f12 * s),
            (g2 / (48.0 * f0**3)) * ((z2 + 2.0) * phi - s * (z3 + 3.0 * z))
            - (g1 / (4.0 * f0 * f0)) * (rc.f11 * (s * z - 2.0 * phi) + rc.f12 * (s * z - phi))
            - (g0 / two_f0) * r2_quint * phi,
        )

    return compose_coefficient_set(
        joint(alpha), joint(alpha - 1.0), p.lambda_alt, model.statistic, rc.parity
    )


def rate_series(coeffs: CoefficientSet, n: int, order: int = 3) -> RatePair:
    """Evaluate the truncated rate series at sample size n.

    Values are clamped to [0, 1] with an explicit flag; the reported
    error_estimate is the magnitude of the last retained term. Median
    coefficients apply only at sample sizes of their own parity.
    """
    if order not in (1, 2, 3):
        raise ModelError(f"order must be 1, 2 or 3, got {order}")
    n = _check_count("n", n)
    if coeffs.parity not in (None, ("even", "odd")[n % 2]):
        raise ModelError(f"coefficients for {coeffs.parity} n do not apply at n={n}")
    rn = math.sqrt(n)
    c_terms = [coeffs.c1 / rn, coeffs.c2 / n, coeffs.c3 / (n * rn)]
    d_terms = [coeffs.d1 / rn, coeffs.d2 / n, coeffs.d3 / (n * rn)]
    delta = sum(c_terms[:order])
    eps = sum(d_terms[:order])
    method = f"series{order}"

    def pack(value: float, last_term: float) -> RateResult:
        clamped = not (0.0 <= value <= 1.0)
        return RateResult(
            value=min(1.0, max(0.0, value)),
            method=method,
            error_estimate=abs(last_term),
            clamped=clamped,
        )

    return RatePair(
        fdr=pack(delta, c_terms[order - 1]), far=pack(eps, d_terms[order - 1])
    )
