"""The expansions the closed-form series coefficients were derived from.

bfdr's series route evaluates only the closed-form coefficients of
``bfdr.expansions`` (``exp_family_coefficients``, ``median_coefficients``).
They come from integrating Edgeworth expansions of the test statistic's CDF,
Cornish-Fisher expansions of its critical value and Taylor expansions of the
prior against each other. The building blocks of that derivation live here,
where the tests use them as oracles for the coefficients and for the exact
power functions:

* the local power and critical-value polynomials g1/g2 and f1/f2 of the
  exponential-family mean test, and the two-term local power expansion;
* the Cornish-Fisher critical value;
* the exact density of the standardized sample median and the two-term
  expansion of its CDF (the R1/R2 correction polynomials), with the
  matching approximate power of the median test;
* the spiky-prior limits of the rates.
"""

import math
from dataclasses import dataclass

import numpy as np

from bfdr import numkernel as nk
from bfdr._special import _sp
from bfdr.analysis import AnalysisError
from bfdr.models import ModelError, median_order_index, reiss_coefficients

# ---------------------------------------------------------------------------
# Exponential family: local power and critical-value polynomials
# ---------------------------------------------------------------------------


def g1_poly(x, rho30: float, z: float):
    """Order-1/sqrt(n) power-expansion polynomial; vanishes when rho30 = 0."""
    x = np.asarray(x, dtype=float)
    out = rho30 * (x * x / 6.0 + z * x / 2.0 + z * z / 3.0)
    return float(out) if out.ndim == 0 else out


def g2_poly(x, rho30: float, rho40: float, z: float):
    """Order-1/n power-expansion polynomial.

    Assembled by composing the quantile expansion of the critical value with
    the two-term CDF expansion of the standardized mean; it vanishes at
    x = -z because the test has exact size at the boundary, so the local
    power there is alpha up to the neglected order.
    """
    x = np.asarray(x, dtype=float)
    r2 = rho30 * rho30
    c5 = -r2 / 72.0
    c4 = -z * r2 / 12.0
    c3 = rho40 / 24.0 - 13.0 * z * z * r2 / 72.0 - r2 / 72.0
    c2 = z * rho40 / 6.0 - z**3 * r2 / 6.0 - z * r2 / 12.0
    c1 = (
        (z * z / 4.0 - 1.0 / 24.0) * rho40
        - z**4 * r2 / 18.0
        - 13.0 * z * z * r2 / 72.0
        + r2 / 36.0
    )
    c0 = (z**3 / 8.0 - z / 24.0) * rho40 - (z**3 / 9.0 - z / 36.0) * r2
    out = ((((c5 * x + c4) * x + c3) * x + c2) * x + c1) * x + c0
    return float(out) if out.ndim == 0 else out


def f1_poly(x, rho30: float, z: float):
    """Order-1/sqrt(n) polynomial of the local critical-value expansion."""
    x = np.asarray(x, dtype=float)
    f11 = -z * rho30 / 2.0
    f10 = -(2.0 * z * z + 1.0) * rho30 / 6.0
    out = f11 * x + f10
    return float(out) if out.ndim == 0 else out


def f2_poly(x, rho30: float, rho40: float, z: float):
    """Order-1/n polynomial of the local critical-value expansion."""
    x = np.asarray(x, dtype=float)
    r2 = rho30 * rho30
    f23 = rho40 / 12.0 - r2 / 8.0
    f22 = 0.0
    f21 = (7.0 * z * z / 24.0 + 1.0 / 12.0) * r2 - z * z * rho40 / 4.0
    f20 = (z**3 + 2.0 * z) * r2 / 9.0 - (z**3 + z) * rho40 / 8.0
    out = ((f23 * x + f22) * x + f21) * x + f20
    return float(out) if out.ndim == 0 else out


def power_mean_edgeworth(rho30: float, rho40: float, alpha: float, n: int, x):
    """Two-term local expansion of the UMP test's power at the scaled point x.

    Approximates the power at theta = theta0 + (x + z)/(sigma0 sqrt(n)) by
    Phi(x) + phi(x) g1(x)/sqrt(n) + phi(x) g2(x)/n.
    """
    z = nk.upper_quantile_z(alpha)
    x = np.asarray(x, dtype=float)
    phi = nk.std_normal_pdf(x)
    out = (
        _sp.ndtr(x)
        + phi * g1_poly(x, rho30, z) / math.sqrt(n)
        + phi * g2_poly(x, rho30, rho40, z) / n
    )
    return float(out) if np.ndim(out) == 0 else out


def cornish_fisher_critical(rho30: float, rho40: float, alpha: float, n: int) -> float:
    """Two-correction quantile expansion of the UMP critical value."""
    z = nk.upper_quantile_z(alpha)
    term1 = (z * z - 1.0) * rho30 / (6.0 * math.sqrt(n))
    term2 = (
        (z**3 - 3.0 * z) * rho40 / 24.0 - (2.0 * z**3 - 5.0 * z) * rho30**2 / 36.0
    ) / n
    return z + term1 + term2


# ---------------------------------------------------------------------------
# Sample median: exact density and the two-term CDF expansion
# ---------------------------------------------------------------------------


def log_binomial(n: int, k: int) -> float:
    """log of the binomial coefficient C(n, k)."""
    if k < 0 or n < 0 or k > n:
        raise nk.DomainError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0 or k == n:
        return 0.0
    return (
        math.lgamma(n + 1.0) - math.lgamma(k + 1.0) - math.lgamma(n - k + 1.0)
    )


def median_pdf_exact(model, pdf, n: int, t):
    """Exact density of 2 f(0) sqrt(n) (T_n - theta) at t; vectorized in t.

    ``pdf`` is the density f of the location model's standard member.
    """
    n = int(n)
    k = median_order_index(n)
    t = np.asarray(t, dtype=float)
    scale = 2.0 * model.f0 * math.sqrt(n)
    u = t / scale
    F = np.asarray(model.cdf(u), dtype=float)
    F = np.clip(F, 0.0, 1.0)
    f = np.asarray(pdf(u), dtype=float)
    log_comb = math.log(n) + log_binomial(n - 1, k - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        logF = np.where(F > 0.0, np.log(np.where(F > 0.0, F, 1.0)), -np.inf)
        logS = np.where(F < 1.0, np.log1p(-np.where(F < 1.0, F, 0.0)), -np.inf)
    # k = 1 or k = n make the corresponding exponent 0 even at the boundary,
    # so drop the term entirely rather than form 0 * (-inf).
    if n == 1:
        expo = np.zeros_like(F)
    elif k == 1:
        expo = (n - k) * logS
    elif k == n:
        expo = (k - 1) * logF
    else:
        expo = (k - 1) * logF + (n - k) * logS
    dens = np.where(np.isfinite(expo), np.exp(log_comb + expo) * f / scale, 0.0)
    return float(dens) if dens.ndim == 0 else dens


def reiss_r1(rc, t):
    """R1(t) = f11 t^2 + f12 of a ``ReissCoefficients``."""
    t = np.asarray(t, dtype=float)
    return rc.f11 * t * t + rc.f12


def reiss_r2(rc, t):
    """R2(t) = f21 t^5 + f22 t^3 + f23 t of a ``ReissCoefficients``."""
    t = np.asarray(t, dtype=float)
    return ((rc.f21 * t * t + rc.f22) * t * t + rc.f23) * t


def median_cdf_edgeworth(model, n: int, t):
    """Two-term expansion of the standardized sample-median CDF; vectorized."""
    n = int(n)
    rc = reiss_coefficients(model, n)
    t = np.asarray(t, dtype=float)
    phi = nk.std_normal_pdf(t)
    out = (
        _sp.ndtr(t)
        + phi * reiss_r1(rc, t) / math.sqrt(n)
        + phi * reiss_r2(rc, t) / n
    )
    return float(out) if np.ndim(out) == 0 else out


def power_median_edgeworth(model, theta, setup):
    """Power of the median test from the two-term CDF expansion; vectorized.

    The test rejects when sqrt(n) T_n > z_alpha/(2 f(0)); the exact power is
    ``bfdr.models.resolve_test(model, prior, setup).power``.
    """
    if setup.statistic != "median":
        raise ModelError("power_median_edgeworth applies to the median statistic")
    if setup.theta0 != 0.0:
        raise ModelError("the median test uses the location convention theta0 = 0")
    n = setup.n
    z = nk.upper_quantile_z(setup.alpha)
    theta = np.asarray(theta, dtype=float)
    # P_theta(2 f0 sqrt(n)(T_n - theta) > z - 2 f0 sqrt(n) theta)
    tcrit = z - 2.0 * model.f0 * math.sqrt(n) * theta
    out = 1.0 - np.asarray(median_cdf_edgeworth(model, n, tcrit), dtype=float)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Spiky-prior limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpikyLimits:
    """Limits of the rates along the scale family.

    tau -> 0: ratios of one-sided power limits weighted by the prior masses;
    tau -> infinity: both rates vanish (for tests consistent in the scale
    direction).
    """

    delta_limit_tau0: float
    eps_limit_tau0: float
    delta_limit_tauinf: float = 0.0
    eps_limit_tauinf: float = 0.0


def spiky_limits(p_minus: float, p_plus: float, lambda_null: float) -> SpikyLimits:
    """Spiky-prior limits from the one-sided power limits at the boundary.

    ``p_minus``/``p_plus`` are the left/right limits of the power function at
    theta0; ``lambda_null`` the prior null mass. The false-discovery limit is
    lambda_null p_minus / (lambda_null p_minus + (1 - lambda_null) p_plus);
    the false-acceptance limit is its mirror image in 1 - power.
    """
    if not (0.0 <= p_minus <= 1.0 and 0.0 <= p_plus <= 1.0):
        raise AnalysisError("power limits must lie in [0, 1]")
    if not (0.0 < lambda_null < 1.0):
        raise AnalysisError(f"lambda_null must lie in (0, 1), got {lambda_null}")
    lam = lambda_null
    denom_d = lam * p_minus + (1.0 - lam) * p_plus
    if denom_d <= 0.0:
        raise AnalysisError("power limits at the boundary must not both vanish")
    denom_e = lam * (1.0 - p_minus) + (1.0 - lam) * (1.0 - p_plus)
    if denom_e <= 0.0:
        raise AnalysisError("complementary power limits must not both vanish")
    return SpikyLimits(
        delta_limit_tau0=lam * p_minus / denom_d,
        eps_limit_tau0=(1.0 - lam) * (1.0 - p_plus) / denom_e,
    )
