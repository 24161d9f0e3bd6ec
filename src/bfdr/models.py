"""Statistical models, their one-sided level-alpha tests, and power functions.

Two sampling regimes are covered:

* a continuous one-parameter exponential family tested with the standardized
  sample mean (the UMP test), and
* a location family tested with the sample median ``X_((floor(n/2)+1))``
  against the asymptotic critical value ``z_alpha / (2 f(0))``.

Exponential-family models are expressed in a user-facing parameter; when the
natural parameter is the negative of that (the exponential-rate family),
``natural_direction = -1`` records the flip and the power function is
decreasing rather than increasing in the user parameter.

:func:`resolve_test` is the one notion of a test: critical value, exact
power, rejection rule and null region. :func:`reiss_coefficients` gives the
coefficients of the two-term sample-median CDF expansion that the median
series is built from; the expansion itself, like the Cornish-Fisher critical
value, is a test oracle (``tests/derivations.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkernel as nk
from ._special import _sp


class ModelError(ValueError):
    """Invalid model construction or test setup."""


@dataclass(frozen=True)
class ExpFamilyModel:
    """One-parameter exponential family in a user-facing parameterization.

    ``mu``, ``sigma``, ``rho3``, ``rho4`` are the natural-parameter mean,
    standard deviation and standardized third/fourth cumulant ratios of one
    observation, written as vectorized functions of the user parameter.
    ``mean_statistic_cdf(theta, n, t)`` is the exact CDF of
    sqrt(n)(Xbar - mu(theta))/sigma(theta), and ``sample_from_uniform(theta, u)``
    maps iid uniforms to observations of that law.
    """

    name: str
    theta_lo: float
    theta_hi: float
    mu: Callable
    sigma: Callable
    rho3: Callable
    rho4: Callable
    mean_statistic_cdf: Callable
    sample_from_uniform: Callable
    natural_direction: int = 1

    def __post_init__(self):
        if not self.theta_lo < self.theta_hi:
            raise ModelError(f"empty parameter interval ({self.theta_lo}, {self.theta_hi})")
        if self.natural_direction not in (1, -1):
            raise ModelError("natural_direction must be +1 or -1")
        grid = self._interior_grid()
        sig = np.asarray(self.sigma(grid), dtype=float)
        if np.any(sig <= 0.0):
            raise ModelError(f"model {self.name!r}: sigma must be positive")
        mu = np.asarray(self.mu(grid), dtype=float)
        natural_order = mu if self.natural_direction == 1 else mu[::-1]
        if np.any(np.diff(natural_order) < -1e-12):
            raise ModelError(f"model {self.name!r}: mean not non-decreasing in the natural parameter")
        # n = 1 round trip of the sampler; a decreasing sampler returns 1 - u
        th, u = grid[[8, 16, 24], None], np.linspace(0.01, 0.99, 41)
        x = np.asarray(self.sample_from_uniform(th, u), dtype=float)
        back = np.asarray(self.mean_statistic_cdf(th, 1, (x - self.mu(th)) / self.sigma(th)), dtype=float)
        if min(np.max(np.abs(back - u)), np.max(np.abs(back - (1.0 - u)))) > 1e-9:
            raise ModelError(f"model {self.name!r}: sample_from_uniform does not follow mean_statistic_cdf")

    def _interior_grid(self) -> np.ndarray:
        lo = self.theta_lo if math.isfinite(self.theta_lo) else -8.0
        hi = self.theta_hi if math.isfinite(self.theta_hi) else 8.0
        pad = 1e-3 * (hi - lo)
        return np.linspace(lo + pad, hi - pad, 33)


@dataclass(frozen=True)
class LocationModel:
    """Location family f(x - theta), standard member of median 0; ppf inverts cdf."""

    name: str
    f0: float
    f0p: float
    f0pp: float
    pdf: Callable
    cdf: Callable
    ppf: Callable

    def __post_init__(self):
        if not self.f0 > 0.0:
            raise ModelError(f"model {self.name!r}: f(0) must be positive")
        if abs(float(self.cdf(0.0)) - 0.5) > 1e-12:
            raise ModelError(f"model {self.name!r}: standard member must have median 0")
        u = np.linspace(0.01, 0.99, 41)
        if np.max(np.abs(np.asarray(self.cdf(self.ppf(u)), dtype=float) - u)) > 1e-9:
            raise ModelError(f"model {self.name!r}: cdf(ppf(u)) does not return u")

    def sample_from_uniform(self, theta, u):
        return np.asarray(theta, dtype=float) + np.asarray(self.ppf(u), dtype=float)


@dataclass(frozen=True)
class TestSetup:
    """One-sided testing configuration: statistic, boundary point, level, n."""

    __test__ = False  # not a pytest collectible despite the name

    statistic: str
    theta0: float
    alpha: float
    n: int

    def __post_init__(self):
        if self.statistic not in ("mean_ump", "median"):
            raise ModelError(f"unknown statistic {self.statistic!r}")
        if not math.isfinite(self.theta0):
            raise ModelError(f"theta0 must be finite, got {self.theta0}")
        if not (0.0 < self.alpha < 1.0):
            raise ModelError(f"alpha must lie in (0, 1), got {self.alpha}")
        if int(self.n) != self.n or self.n < 1:
            raise ModelError(f"n must be a positive integer, got {self.n}")


@dataclass(frozen=True)
class ReissCoefficients:
    """Polynomial coefficients of the two-term sample-median CDF expansion.

    The correction polynomials are R1(t) = f11 t^2 + f12 and
    R2(t) = f21 t^5 + f22 t^3 + f23 t; f12 and f23 depend on the parity of n.
    """

    f11: float
    f12: float
    f21: float
    f22: float
    f23: float
    parity: str

    def __post_init__(self):
        if self.parity not in ("even", "odd"):
            raise ModelError(f"parity must be 'even' or 'odd', got {self.parity}")
        expected_f12 = -1.0 if self.parity == "even" else 0.0
        if self.f12 != expected_f12:
            raise ModelError(f"f12 must be {expected_f12} for {self.parity} n")


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def normal_mean_model() -> ExpFamilyModel:
    """N(theta, 1): the pivot sqrt(n)(Xbar - theta) is exactly standard normal."""

    def _cdf(theta, n, t):
        return nk.std_normal_cdf(t)

    def _sample(theta, u):
        return np.asarray(theta, dtype=float) + _sp.ndtri(np.asarray(u, dtype=float))

    return ExpFamilyModel(
        name="normal-mean",
        theta_lo=-math.inf,
        theta_hi=math.inf,
        mu=lambda th: np.asarray(th, dtype=float),
        sigma=lambda th: np.ones_like(np.asarray(th, dtype=float)),
        rho3=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        rho4=lambda th: np.zeros_like(np.asarray(th, dtype=float)),
        mean_statistic_cdf=_cdf,
        sample_from_uniform=_sample,
        natural_direction=1,
    )


def exponential_rate_model() -> ExpFamilyModel:
    """Exp(theta) with rate theta > 0; natural parameter is -theta.

    The standardized mean pivot sqrt(n)(theta*Xbar - 1) has the fixed law of a
    standardized Gamma(n, n), so the exact mean-statistic CDF is free of theta.
    """

    def _cdf(theta, n, t):
        t = np.asarray(t, dtype=float)
        x = n + math.sqrt(n) * t
        return _sp.gammainc(n, np.maximum(x, 0.0))

    def _sample(theta, u):
        u = np.asarray(u, dtype=float)
        return -np.log(u) / np.asarray(theta, dtype=float)

    def _ones(th):
        return np.full_like(np.asarray(th, dtype=float), 1.0, dtype=float)

    return ExpFamilyModel(
        name="exp-rate",
        theta_lo=0.0,
        theta_hi=math.inf,
        mu=lambda th: 1.0 / np.asarray(th, dtype=float),
        sigma=lambda th: 1.0 / np.asarray(th, dtype=float),
        rho3=lambda th: 2.0 * _ones(th),
        rho4=lambda th: 6.0 * _ones(th),
        mean_statistic_cdf=_cdf,
        sample_from_uniform=_sample,
        natural_direction=-1,
    )


def normal_location_model() -> LocationModel:
    return LocationModel(
        name="normal-location",
        f0=1.0 / nk.SQRT_2PI,
        f0p=0.0,
        f0pp=-1.0 / nk.SQRT_2PI,
        pdf=nk.std_normal_pdf,
        cdf=nk.std_normal_cdf,
        ppf=lambda u: _sp.ndtri(np.asarray(u, dtype=float)),
    )


def cauchy_location_model() -> LocationModel:
    def pdf(x):
        x = np.asarray(x, dtype=float)
        return 1.0 / (math.pi * (1.0 + x * x))

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return 0.5 + np.arctan(x) / math.pi

    return LocationModel(
        name="cauchy-location",
        f0=1.0 / math.pi,
        f0p=0.0,
        f0pp=-2.0 / math.pi,
        pdf=pdf,
        cdf=cdf,
        ppf=lambda u: np.tan(math.pi * (np.asarray(u, dtype=float) - 0.5)),
    )


# ---------------------------------------------------------------------------
# Mean-statistic (UMP) test
# ---------------------------------------------------------------------------


def ump_critical_value(model: ExpFamilyModel, setup: TestSetup) -> float:
    """Critical value k with P_theta0(sqrt(n)(Xbar - mu0)/sigma0 > k) = alpha.

    Solved on the model's exact mean-statistic CDF by bisection to adjacent
    doubles: cdf(k) >= 1 - alpha > cdf(the double below k). Where the CDF is
    monotone to the last bit (normal-mean) k is the smallest double reaching
    the level; ``gammainc`` (exp-rate) is not, so a lower double can reach it
    too. Tends to z_alpha as n grows.
    """
    if setup.statistic != "mean_ump":
        raise ModelError("ump_critical_value applies to the mean_ump statistic")
    target = 1.0 - setup.alpha
    cdf = model.mean_statistic_cdf

    def below(k):
        return cdf(setup.theta0, setup.n, k) < target

    lo, hi = -1.0, 1.0
    while not below(lo):
        lo *= 2.0
        if lo < -1e6:
            raise ModelError("failed to bracket the critical value from below")
    while below(hi):
        hi *= 2.0
        if hi > 1e6:
            raise ModelError("failed to bracket the critical value from above")
    return nk.bisect(below, lo, hi)[1]


# ---------------------------------------------------------------------------
# Median statistic
# ---------------------------------------------------------------------------


def median_order_index(n: int) -> int:
    """1-based order-statistic index of the sample median, floor(n/2) + 1."""
    return n // 2 + 1


def median_cdf_exact(model: LocationModel, n: int, t):
    """Exact CDF of 2 f(0) sqrt(n) (T_n - theta) at t; vectorized in t.

    Regularized incomplete-beta form of the order-statistic CDF of
    ``X_(floor(n/2)+1)``; free of theta by location invariance.
    """
    n = int(n)
    k = median_order_index(n)
    t = np.asarray(t, dtype=float)
    u = np.asarray(model.cdf(t / (2.0 * model.f0 * math.sqrt(n))), dtype=float)
    out = _sp.betainc(k, n - k + 1, np.minimum(np.maximum(u, 0.0), 1.0))
    return float(out) if out.ndim == 0 else out


def reiss_coefficients(model: LocationModel, n: int) -> ReissCoefficients:
    """Correction-polynomial coefficients for the sample-median CDF at size n.

    f23 follows the general formula 1/4 - (1 - 2{n/2})^2 / 2; the worked-example
    variant 1/4 - (1/2 - {n/2})^2 differs from it for even n and tracks the
    exact CDF less closely.
    """
    n = int(n)
    frac = 0.0 if n % 2 == 0 else 0.5  # fractional part of n/2
    parity = "even" if n % 2 == 0 else "odd"
    f0, f0p, f0pp = model.f0, model.f0p, model.f0pp
    f11 = f0p / (4.0 * f0 * f0)
    f12 = -(1.0 - 2.0 * frac)
    f21 = -((f0p / (f0 * f0)) ** 2) / 32.0
    f22 = 0.25 + (0.5 - frac) * f0p / (2.0 * f0 * f0) + f0pp / (24.0 * f0**3)
    f23 = 0.25 - (1.0 - 2.0 * frac) ** 2 / 2.0
    return ReissCoefficients(f11, f12, f21, f22, f23, parity)


# ---------------------------------------------------------------------------
# The resolved test shared by the quadrature and simulation routes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedTest:
    """A level-alpha one-sided test resolved once from (model, setup).

    ``direction`` is +1 when the alternative is {theta > theta0} and -1 when
    the natural parameter is the negated user parameter. ``power(theta)`` is
    the exact power, vectorized; ``rejects(sample)`` applies the rejection
    rule to each row of an (experiments, n) sample; ``is_null(theta)`` marks
    parameters in the null region; ``sampler(theta, u)`` maps uniforms to
    observations.
    """

    __test__ = False  # not a pytest collectible despite the name

    theta0: float
    direction: int
    power: Callable
    rejects: Callable
    is_null: Callable
    sampler: Callable


def resolve_test(model, setup: TestSetup) -> ResolvedTest:
    """Critical value, power, rejection rule and null region of ``setup``.

    Raises :class:`ModelError` when the statistic does not fit the model.
    """
    n = setup.n
    rootn = math.sqrt(n)
    theta0 = float(setup.theta0)
    if setup.statistic == "mean_ump":
        if not isinstance(model, ExpFamilyModel):
            raise ModelError("mean_ump requires an ExpFamilyModel")
        k = ump_critical_value(model, setup)
        mu0 = float(model.mu(np.asarray(theta0, dtype=float)))
        sigma0 = float(model.sigma(np.asarray(theta0, dtype=float)))
        cdf = model.mean_statistic_cdf

        def power(theta):
            theta = np.asarray(theta, dtype=float)
            mu = np.asarray(model.mu(theta), dtype=float)
            sigma = np.asarray(model.sigma(theta), dtype=float)
            threshold = (rootn * (mu0 - mu) + k * sigma0) / sigma
            out = 1.0 - np.asarray(cdf(theta, n, threshold), dtype=float)
            return float(out) if out.ndim == 0 else out

        mean_threshold = mu0 + k * sigma0 / rootn

        def rejects(sample):
            return sample.mean(axis=1) > mean_threshold

        direction = model.natural_direction
        sampler = model.sample_from_uniform
    elif isinstance(model, LocationModel):
        if setup.theta0 != 0.0:
            raise ModelError("the median test uses the location convention theta0 = 0")
        z = nk.upper_quantile_z(setup.alpha)
        scale = 2.0 * model.f0 * rootn

        def power(theta):
            theta = np.asarray(theta, dtype=float)
            out = 1.0 - np.asarray(median_cdf_exact(model, n, z - scale * theta), dtype=float)
            return float(out) if out.ndim == 0 else out

        median_threshold = z / scale
        k_idx = median_order_index(n) - 1  # 0-based

        def rejects(sample):
            return np.partition(sample, k_idx, axis=1)[:, k_idx] > median_threshold

        direction = 1
        sampler = model.sample_from_uniform
    else:
        raise ModelError("median requires a LocationModel")

    def is_null(theta):
        return theta <= theta0 if direction == 1 else theta >= theta0

    return ResolvedTest(theta0, direction, power, rejects, is_null, sampler)
