"""Statistical models, their one-sided level-alpha tests, and power functions.

Two sampling regimes are covered:

* a continuous one-parameter exponential family tested with the standardized
  sample mean (the UMP test), and
* a location family tested with the sample median ``X_((floor(n/2)+1))``
  against the asymptotic critical value ``z_alpha / (2 f(0))``.

Each model class names its statistic as the class constant ``statistic``.
Exponential-family models are expressed in a user-facing parameter. The mean
of an exponential family rises with its natural parameter, so
``natural_direction`` is read from ``mu``: -1 when the mean falls in the user
parameter (the exponential-rate family), where the alternative is the lower
side and the power function decreases, else +1 (a location model's is the
class constant +1).

:func:`check_problem` is the one rule of which problems every route answers,
and :func:`resolve_test` the one notion of a test, built only for a problem
that rule accepts: alternative mass, critical value (for the mean test, a
halving seeded at the pivot's inverse survival function), exact power,
rejection rule and null region.
:func:`reiss_coefficients` gives the coefficients of the two-term sample-median
CDF expansion behind the median series; that expansion, like the Cornish-Fisher
critical value, is a test oracle (``tests/derivations.py``).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

from . import numkernel as nk
from ._special import _sp
from .priors import _STANDARD_CAUCHY, _STANDARD_NORMAL, Prior, PriorError, lambda_alt


class ModelError(ValueError):
    """Invalid model construction or test setup."""


@dataclass(frozen=True, eq=False)
class ExpFamilyModel:
    """One-parameter exponential family in a user-facing parameterization.

    ``mu``, ``sigma``, ``rho3``, ``rho4`` are the natural-parameter mean,
    standard deviation and standardized third/fourth cumulant ratios of one
    observation, written as vectorized functions of the user parameter.
    ``mean_statistic_cdf(theta, n, t)`` is the exact CDF of sqrt(n)(Xbar -
    mu(theta))/sigma(theta), ``mean_statistic_isf(theta, n, q)`` the t with
    1 - cdf(t) = q, and ``sample_from_uniform(theta, u)`` maps iid uniforms to
    observations of that law. ``natural_direction`` is read, not passed: -1
    when the monotone ``mu`` falls over the parameter interval, else +1.
    """

    statistic: ClassVar[str] = "mean_ump"

    name: str
    theta_lo: float
    theta_hi: float
    mu: Callable
    sigma: Callable
    rho3: Callable
    rho4: Callable
    mean_statistic_cdf: Callable
    mean_statistic_isf: Callable
    sample_from_uniform: Callable
    natural_direction: int = field(init=False)

    def __post_init__(self):
        if not self.theta_lo < self.theta_hi:
            raise ModelError(f"empty parameter interval ({self.theta_lo}, {self.theta_hi})")
        grid = self._interior_grid()
        sig = np.asarray(self.sigma(grid), dtype=float)
        if np.any(sig <= 0.0):
            raise ModelError(f"model {self.name!r}: sigma must be positive")
        mu = np.asarray(self.mu(grid), dtype=float)
        direction = -1 if mu[-1] < mu[0] else 1
        object.__setattr__(self, "natural_direction", direction)
        if np.any(np.diff(direction * mu) < -1e-12):
            raise ModelError(f"model {self.name!r}: mu must be monotone in theta")
        # n = 1 round trip of the sampler; a decreasing sampler returns 1 - u
        th, u = grid[[8, 16, 24], None], np.linspace(0.01, 0.99, 41)
        x = np.asarray(self.sample_from_uniform(th, u), dtype=float)
        back = np.asarray(self.mean_statistic_cdf(th, 1, (x - self.mu(th)) / self.sigma(th)), dtype=float)
        if min(np.max(np.abs(back - u)), np.max(np.abs(back - (1.0 - u)))) > 1e-9:
            raise ModelError(f"model {self.name!r}: sample_from_uniform does not follow mean_statistic_cdf")
        for n in (1, 10):
            back = np.asarray(self.mean_statistic_cdf(th, n, self.mean_statistic_isf(th, n, u)), dtype=float)
            if not np.max(np.abs(1.0 - back - u)) <= 1e-9:
                raise ModelError(f"model {self.name!r}: mean_statistic_isf does not invert 1 - mean_statistic_cdf")

    def _interior_grid(self) -> np.ndarray:
        lo = self.theta_lo if math.isfinite(self.theta_lo) else -8.0
        hi = self.theta_hi if math.isfinite(self.theta_hi) else 8.0
        pad = 1e-3 * (hi - lo)
        return np.linspace(lo + pad, hi - pad, 33)


@dataclass(frozen=True, eq=False)
class LocationModel:
    """Location family f(x - theta), standard member of median 0; ppf inverts cdf."""

    statistic: ClassVar[str] = "median"
    natural_direction: ClassVar[int] = 1

    name: str
    f0: float
    f0p: float
    f0pp: float
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


def _check_alpha(alpha: float) -> None:
    """The level rule of every route: 0 < alpha < 1 with 1 - alpha below 1."""
    if not (0.0 < alpha < 1.0):
        raise ModelError(f"alpha must lie in (0, 1), got {alpha}")
    if 1.0 - alpha == 1.0:
        raise ModelError(
            f"alpha must exceed 2**-54; at or below it 1 - alpha rounds to 1, got {alpha}"
        )


def _as_int(value) -> Optional[int]:
    """``value`` as an int when it is an integer, numpy's too (a bool or a float
    is not, not even an integral one), else None."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _check_count(name: str, value) -> int:
    """The count rule of every route: an integer (see :func:`_as_int`) >= 1, as an int."""
    count = _as_int(value)
    if count is None or count < 1:
        raise ModelError(f"{name} must be a positive integer, got {value!r}")
    return count


def _check_theta0(model, theta0: float) -> None:
    """The theta0 rule of every route: finite, and 0 for a :class:`LocationModel`."""
    if not math.isfinite(theta0):
        raise ModelError(f"theta0 must be finite, got {theta0}")
    if isinstance(model, LocationModel) and theta0 != 0.0:
        raise ModelError("the median test uses the location convention theta0 = 0")


@dataclass(frozen=True)
class TestSetup:
    """One-sided testing configuration: statistic, boundary point, level, n."""

    __test__ = False  # not a pytest collectible despite the name

    statistic: str
    theta0: float
    alpha: float
    n: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        object.__setattr__(self, "n", _check_count("n", self.n))


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


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------


def normal_mean_model() -> ExpFamilyModel:
    """N(theta, 1): the pivot sqrt(n)(Xbar - theta) is exactly standard normal."""

    def _cdf(theta, n, t):
        return _sp.ndtr(t)

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
        mean_statistic_isf=lambda theta, n, q: -_sp.ndtri(q),
        sample_from_uniform=_sample,
    )


def exponential_rate_model() -> ExpFamilyModel:
    """Exp(theta) with rate theta > 0; natural parameter is -theta.

    The standardized mean pivot sqrt(n)(theta*Xbar - 1) has the fixed law of a
    standardized Gamma(n, n), so the exact mean-statistic CDF is free of theta.
    """

    def _cdf(theta, n, t):
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
        mean_statistic_isf=lambda theta, n, q: (_sp.gammainccinv(n, q) - n) / math.sqrt(n),
        sample_from_uniform=_sample,
    )


def _location_model(name: str, member: Prior) -> LocationModel:
    """The location model whose standard member is the unit prior ``member``:
    its CDF and quantile, with f0, f0p and f0pp its g, g1, g2 at 0."""
    f0, f0p, f0pp = (float(d(0.0)) for d in (member.g, member.g1, member.g2))
    return LocationModel(name, f0, f0p, f0pp, member.cdf, member.ppf)


def normal_location_model() -> LocationModel:
    return _location_model("normal-location", _STANDARD_NORMAL)


def cauchy_location_model() -> LocationModel:
    return _location_model("cauchy-location", _STANDARD_CAUCHY)


# ---------------------------------------------------------------------------
# Mean-statistic (UMP) test
# ---------------------------------------------------------------------------


def ump_critical_value(model: ExpFamilyModel, setup: TestSetup) -> float:
    """Critical value k with cdf(k) >= 1 - alpha > cdf(the double below k),
    ``cdf`` being the model's exact mean-statistic CDF at (theta0, n).

    Seeded at z = ``mean_statistic_isf`` at 1 - (1 - alpha) (non-finite:
    :class:`ModelError`), a bracket of half-width 2**-52 (1 + |z|) grows
    fourfold, its other end moving to the last point tested, until it
    straddles the level (or passes +-1e6: :class:`ModelError`); halving then
    closes it to adjacent doubles.
    """
    target = 1.0 - setup.alpha
    cdf = model.mean_statistic_cdf

    def below(k):
        return cdf(setup.theta0, setup.n, k) < target

    z = float(model.mean_statistic_isf(setup.theta0, setup.n, 1.0 - target))
    if not math.isfinite(z):
        raise ModelError(f"mean_statistic_isf gave the non-finite seed {z}")
    w = 2.0**-52 * (1.0 + abs(z))
    lo, hi = z - w, z + w
    while not below(lo):
        hi, lo, w = lo, z - 4.0 * w, 4.0 * w
        if lo < -1e6:
            raise ModelError("failed to bracket the critical value from below")
    while below(hi):
        lo, hi, w = hi, z + 4.0 * w, 4.0 * w
        if hi > 1e6:
            raise ModelError("failed to bracket the critical value from above")
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return hi


# ---------------------------------------------------------------------------
# Median statistic
# ---------------------------------------------------------------------------


def median_order_index(n: int) -> int:
    """1-based order-statistic index of the sample median, floor(n/2) + 1."""
    return n // 2 + 1


def _median_cdf(model: LocationModel, n: int, scale: float, t):
    """Exact CDF of 2 f(0) sqrt(n) (T_n - theta) at the array t, given n and
    scale = 2 f(0) sqrt(n); free of theta by location invariance.

    Regularized incomplete-beta form of the order-statistic CDF of
    ``X_(floor(n/2)+1)``. The caller has checked n.
    """
    k = median_order_index(n)
    u = model.cdf(t / scale)
    return _sp.betainc(k, n - k + 1, np.minimum(np.maximum(u, 0.0), 1.0))


def reiss_coefficients(model: LocationModel, n: int) -> ReissCoefficients:
    """Correction-polynomial coefficients for the sample-median CDF at size n.

    f23 follows the general formula 1/4 - (1 - 2{n/2})^2 / 2; the worked-example
    variant 1/4 - (1/2 - {n/2})^2 differs from it for even n and tracks the
    exact CDF less closely.
    """
    n = _check_count("n", n)
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
class Problem:
    """A problem :func:`check_problem` accepted, with its terms at theta0.

    ``lambda_alt`` is the prior's alternative mass in the test's natural
    direction. ``mu0``, ``sigma0``, ``rho30`` and ``rho40`` are the model's
    mu, sigma, rho3 and rho4 at theta0 (None for a location model); ``g0``,
    ``g1`` and ``g2`` are the prior's density and its first two derivatives
    at theta0, in the user parameter.

    ``plan`` is the exact route's own record of the problem: only
    :func:`~bfdr.exact.exact_joint` fills and reads it, and its layout is
    that module's.
    """

    theta0: float
    lambda_alt: float
    mu0: Optional[float]
    sigma0: Optional[float]
    rho30: Optional[float]
    rho40: Optional[float]
    g0: float
    g1: float
    g2: float
    plan: dict = field(default_factory=dict, repr=False, compare=False)


@dataclass(frozen=True)
class ResolvedTest:
    """A level-alpha one-sided test resolved once from (model, prior, setup).

    ``direction`` is +1 when the alternative is {theta > theta0} and -1 when
    it is {theta < theta0} (the model's mean falls in theta). ``terms(theta)``
    are the model's terms the power reads, free of alpha and n (the mean
    test's mu0 - mu(theta) and sigma(theta); none for the median test), and
    ``power_at(theta, terms)`` the exact power from them, on arrays.
    ``rejects(theta, u)`` applies the rejection rule to each experiment,
    given its parameter and the (experiments, n) uniforms its sample is
    drawn from; ``is_null(theta)`` marks parameters in the null region.
    ``problem`` is what :func:`check_problem` accepted.
    """

    theta0: float
    direction: int
    terms: Callable
    power_at: Callable
    rejects: Callable
    is_null: Callable
    problem: Problem

    @property
    def lambda_alt(self) -> float:
        return self.problem.lambda_alt

    def power(self, theta):
        """The exact power at theta, vectorized."""
        theta = np.asarray(theta, dtype=float)
        out = np.asarray(self.power_at(theta, self.terms(theta)), dtype=float)
        return float(out) if out.ndim == 0 else out


def check_problem(model, prior: Prior, theta0: float, alpha: float) -> Problem:
    """The :class:`Problem` of ``model`` and ``prior`` at theta0, once the
    rules of every route hold. In order, no model function running before
    rule 5: (1) the level; (2) a supported model class and theta0 (finite;
    0 for a :class:`LocationModel`); (3) the prior's support inside the
    model's parameter interval; (4) theta0 inside the prior's open support and
    an alternative mass in (0, 1), else :class:`~bfdr.priors.PriorError`;
    (5) finite mu and finite, positive sigma at theta0; (6) finite g, g1 and
    g2 at theta0, else :class:`~bfdr.priors.PriorError`. Rules 1-3 and 5
    raise :class:`ModelError`.

    Rule 1 and the model's class are checked on every call. The problems
    accepted last are kept, up to 32, keyed by the model and prior objects
    themselves (not their fields) and the bits of theta0 (-0.0 is not 0.0);
    asked again, a kept problem is returned as it is. A refused problem is
    not kept. Custom priors and custom models must be pure functions of
    their arguments, because their values are reused.
    """
    _check_alpha(alpha)
    if not isinstance(model, (ExpFamilyModel, LocationModel)):
        raise ModelError(f"unsupported model type {type(model).__name__}")
    return _problem(model, prior, float(theta0).hex())


@functools.lru_cache(maxsize=32)
def _problem(model, prior: Prior, theta0_hex: str) -> Problem:
    """The rest of :func:`check_problem`: rules 2-6 and the terms at theta0."""
    theta0 = float.fromhex(theta0_hex)
    _check_theta0(model, theta0)
    th = np.asarray(theta0, dtype=float)
    mu0 = sigma0 = rho30 = rho40 = None
    if isinstance(model, ExpFamilyModel):
        lo, hi = prior.support
        if not (model.theta_lo <= lo and hi <= model.theta_hi):
            raise ModelError(
                f"prior support ({lo}, {hi}) reaches outside the parameter interval "
                f"({model.theta_lo}, {model.theta_hi}) of model {model.name!r}"
            )
    lam = lambda_alt(prior, theta0, model.natural_direction)
    if isinstance(model, ExpFamilyModel):
        with np.errstate(all="ignore"):
            mu0, sigma0 = float(model.mu(th)), float(model.sigma(th))
        if not (math.isfinite(mu0) and 0.0 < sigma0 < math.inf):
            raise ModelError(f"need finite mu, sigma > 0 at theta0={theta0}, got {mu0}, {sigma0}")
        rho30, rho40 = float(model.rho3(th)), float(model.rho4(th))
    with np.errstate(all="ignore"):
        g0, g1, g2 = (float(d(th)) for d in (prior.g, prior.g1, prior.g2))
    if not all(map(math.isfinite, (g0, g1, g2))):
        raise PriorError(f"need finite g, g1, g2 at theta0={theta0}, got {g0}, {g1}, {g2}")
    return Problem(theta0, lam, mu0, sigma0, rho30, rho40, g0, g1, g2)


def resolve_test(model, prior: Prior, setup: TestSetup) -> ResolvedTest:
    """Alternative mass, critical value, power, rejection rule and null region
    of ``setup`` under ``prior``.

    Runs :func:`check_problem` first and raises what it raises; then raises
    :class:`ModelError` when ``setup.statistic`` is not the model's.
    """
    problem = check_problem(model, prior, setup.theta0, setup.alpha)
    if setup.statistic != model.statistic:
        raise ModelError(f"model {model.name!r} takes {model.statistic}, not {setup.statistic}")
    n = setup.n
    rootn = math.sqrt(n)
    theta0 = float(setup.theta0)
    direction = model.natural_direction
    if isinstance(model, ExpFamilyModel):
        k = ump_critical_value(model, setup)
        mu0, sigma0 = problem.mu0, problem.sigma0
        cdf = model.mean_statistic_cdf

        def terms(theta):
            mu = np.asarray(model.mu(theta), dtype=float)
            return mu0 - mu, np.asarray(model.sigma(theta), dtype=float)

        def power_at(theta, terms):
            drop, sigma = terms
            return 1.0 - cdf(theta, n, (rootn * drop + k * sigma0) / sigma)

        mean_threshold = mu0 + k * sigma0 / rootn

        def rejects(theta, u):
            return model.sample_from_uniform(theta[:, None], u).mean(axis=1) > mean_threshold

    else:
        z = nk.upper_quantile_z(setup.alpha)
        scale = 2.0 * model.f0 * rootn

        def terms(theta):
            return ()

        def power_at(theta, terms):
            return 1.0 - _median_cdf(model, n, scale, z - scale * theta)

        median_threshold = z / scale
        k_idx = median_order_index(n) - 1  # 0-based

        # theta + ppf(.) does not decrease, so the sample median is theta +
        # ppf at the k-th smallest uniform: one quantile per experiment.
        def rejects(theta, u):
            return theta + model.ppf(np.partition(u, k_idx, axis=1)[:, k_idx]) > median_threshold

    def is_null(theta):
        return theta <= theta0 if direction == 1 else theta >= theta0

    return ResolvedTest(theta0, direction, terms, power_at, rejects, is_null, problem)
