"""Proper prior densities with two derivatives, tail masses, and scaling.

A :class:`Prior` bundles a density ``g`` with its first two derivatives, its
support, its CDF and its quantile function.
The CDF gives the quadrature bound's tail term, the quantile function its
scale and inverse-CDF sampling in the simulator.

Built-in families: centered normal and Student-t/Cauchy scale families for
location problems, and Gamma/F priors with mode pinned at 1 for the
exponential-rate problem. Each is written once as its standard member (the
scale-1 density, its two derivatives, CDF and quantile) and scaled by
:func:`scale_prior`, the transform g_tau(theta) = g(theta/tau)/tau that the
spiky-prior studies use, so a scale enters no other formula. The
rate-vs-natural-parameter sign flip for the Gamma/F priors is *not*
performed here; the expansion layer owns it. Each family's factory names
its prior ``name``, by default the spec of its parameters (``normal:TAU``);
:func:`parse_prior_spec` passes the spec as typed, so a refusal names it.

Quantiles: the normal, t and Cauchy members use the library inverse. The
Gamma and F members seed log x from a table over normal scores and take one
Newton step on their library CDF (survival function above u = 1/2), several
times faster than ``gammaincinv``/``fdtri`` and about as accurate; levels
outside [1e-10, 1 - 1e-10] keep the library inverse. A prior from
:func:`make_prior` uses its ``ppf`` as given. Every prior that
:func:`scale_prior` or :func:`validate_prior` returns has a finite,
increasing quantile over the simulator's uniforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from . import numkernel as nk
from ._special import _sp


class PriorError(ValueError):
    """Invalid prior specification or a failed construction-time check."""


@dataclass(frozen=True, eq=False)
class Prior:
    """Density g with derivatives g', g'', CDF and quantile function.

    All callables are vectorized over numpy arrays. ``support`` is an open
    interval; the density is zero outside it. A prior compares and hashes by
    identity, so :func:`~bfdr.models.check_problem` keeps its problems per
    object and a copy (``replace``, ``scale_prior``) starts without any.
    """

    name: str
    g: Callable
    g1: Callable
    g2: Callable
    support: Tuple[float, float]
    cdf: Callable
    ppf: Callable

    @cached_property
    def quadrature_scale(self) -> float:
        """min(half the IQR, 1): the exact route's scale on an infinite side,
        solved from ``ppf`` once; a copy (``replace``, ``scale_prior``) solves its own."""
        q1, q3 = np.asarray(self.ppf(np.array([0.25, 0.75])), dtype=float)
        return min(0.5 * (q3 - q1), 1.0)


#: Construction-time tolerances of :func:`validate_prior`: total mass, first
#: derivative (ten times this for the second), and the cdf/ppf round trip.
_NORM_TOL = 1e-6
_DERIV_TOL = 1e-5
_ROUND_TRIP_TOL = 1e-9


def _tail_points(prior: Prior, mass: float) -> Tuple[float, float]:
    """(L, U): the support's finite ends, else ppf(mass) and ppf(1 - mass)."""
    lo, hi = prior.support
    L = lo if math.isfinite(lo) else float(prior.ppf(mass))
    U = hi if math.isfinite(hi) else float(prior.ppf(1.0 - mass))
    if not (math.isfinite(L) and math.isfinite(U) and L < U):
        raise PriorError(f"prior {prior.name!r}: ppf gives tail points {L!r}, {U!r}")
    return L, U


def _validation_grid(prior: Prior) -> np.ndarray:
    L, U = _tail_points(prior, 0.02)
    pad = 1e-3 * (U - L)
    return np.linspace(L + pad, U - pad, 41)


#: Levels at which every prior's quantile must be finite and strictly
#: increasing: the simulator's extreme uniforms 2**-54 and 1 - 2**-53, levels
#: a few steps in from each end (where a library inverse can clamp, overflow
#: or turn back before the ends) and the median.
_RANGE_LEVELS = (
    ("2**-54", 2.0**-54), ("1e-16", 1e-16), ("1e-13", 1e-13), ("1e-10", 1e-10), ("0.5", 0.5),
    ("1 - 1e-10", 1.0 - 1e-10), ("1 - 1e-13", 1.0 - 1e-13), ("1 - 2**-52", 1.0 - 2.0**-52),
    ("1 - 2**-53", 1.0 - 2.0**-53),
)


def _check_quantile_range(prior: Prior) -> None:
    """Refuse a prior whose quantile leaves double range on the simulator's uniforms.

    ppf must be finite and strictly increasing over ``_RANGE_LEVELS``, which
    span the simulator's [2**-54, 1 - 2**-53]; where the true quantile lies
    beyond double range the library gives inf, NaN or a clamped constant.
    Raises :class:`PriorError` naming the first level that fails.
    """
    with np.errstate(all="ignore"):
        q = np.asarray(prior.ppf(np.array([u for _, u in _RANGE_LEVELS])), dtype=float).tolist()
    for i, (label, _) in enumerate(_RANGE_LEVELS):
        if not math.isfinite(q[i]):
            raise PriorError(f"prior {prior.name!r}: ppf({label}) = {q[i]!r} is not finite")
        if i and not q[i] > q[i - 1]:
            raise PriorError(f"prior {prior.name!r}: ppf({label}) = {q[i]!r} does not exceed "
                             f"ppf({_RANGE_LEVELS[i - 1][0]}) = {q[i - 1]!r}")


def validate_prior(prior: Prior):
    """Construction-time checks: the cdf/ppf round trip, the quantile's range,
    unit mass and derivatives.

    Raises :class:`PriorError` on failure. cdf(ppf(u)) must return u on a
    grid of levels in [0.01, 0.99], ppf must pass :func:`_check_quantile_range`,
    and derivatives are compared against central finite differences of ``g``
    on a support-spanning grid. The quantile is checked first, since the
    mass check takes its tail points and anchor from ``ppf``.
    """
    lo, hi = prior.support
    if not lo < hi:
        raise PriorError(f"empty support {prior.support!r}")
    u = np.linspace(0.01, 0.99, 41)
    gap = np.max(np.abs(np.asarray(prior.cdf(prior.ppf(u)), dtype=float) - u))
    if not gap <= _ROUND_TRIP_TOL:
        raise PriorError(f"prior {prior.name!r}: cdf(ppf(u)) misses u by {gap:.3g}")
    _check_quantile_range(prior)
    # Integrate g out from ppf(0.5) to ppf(cut) and to ppf(1 - cut), bounding
    # the mass between the outermost node and that point, and add the CDF's
    # mass outside: this checks both that g integrates to 1 and that it
    # matches its own CDF, whatever L < U the ppf gives.
    cut = _NORM_TOL / 10.0
    L, U = _tail_points(prior, cut)
    anchor = float(prior.ppf(0.5))
    halves = [nk.integrate(prior.g, anchor, end, cut, tail=lambda e, end=end: abs(prior.cdf(end) - prior.cdf(e)))
              for end in (L, U)]
    total = sum(h.value for h in halves) + float(prior.cdf(L)) + (1.0 - float(prior.cdf(U)))
    if not abs(total - 1.0) <= _NORM_TOL + sum(h.error_bound for h in halves):  # refuses NaN
        raise PriorError(f"prior {prior.name!r} mass {total:.8f} != 1")
    grid = _validation_grid(prior)
    g = prior.g
    h1 = 1e-6 * (1.0 + np.abs(grid))
    fd1 = (np.asarray(g(grid + h1)) - np.asarray(g(grid - h1))) / (2.0 * h1)
    if np.max(np.abs(fd1 - np.asarray(prior.g1(grid)))) > _DERIV_TOL:
        raise PriorError(f"prior {prior.name!r}: g1 disagrees with finite differences")
    h2 = 1e-4 * (1.0 + np.abs(grid))
    fd2 = (
        np.asarray(g(grid + h2)) - 2.0 * np.asarray(g(grid)) + np.asarray(g(grid - h2))
    ) / (h2 * h2)
    if np.max(np.abs(fd2 - np.asarray(prior.g2(grid)))) > _DERIV_TOL * 10.0:
        raise PriorError(f"prior {prior.name!r}: g2 disagrees with finite differences")


def make_prior(
    g: Callable,
    g1: Callable,
    g2: Callable,
    support: Tuple[float, float],
    cdf: Callable,
    ppf: Callable,
    name: str = "custom",
) -> Prior:
    """Assemble a prior from callables and check it with :func:`validate_prior`.

    Custom priors and custom models must be pure functions of their
    arguments, because :func:`~bfdr.models.check_problem` reuses their values."""
    prior = Prior(name, g, g1, g2, (float(support[0]), float(support[1])), cdf, ppf)
    validate_prior(prior)
    return prior


def lambda_alt(prior: Prior, theta0: float, direction: int = 1) -> float:
    """Prior mass of the alternative in the test's natural direction, from the CDF.

    ``direction = +1`` tests H1: theta > theta0 on the user scale;
    ``direction = -1`` (a negated natural parameter) flips the alternative to
    {theta < theta0}. Degenerate masses (0 or 1) are rejected since the rate
    expansions divide by both tails; a theta0 outside the open support has
    one of them.
    """
    lo, hi = prior.support
    if not (lo < theta0 < hi):
        raise PriorError(f"theta0={theta0} outside the open support {prior.support}")
    lam = 1.0 - float(prior.cdf(theta0))
    if not (0.0 < lam < 1.0):
        raise PriorError(
            f"degenerate alternative mass {lam} at theta0={theta0}; "
            "the null and alternative both need positive prior mass"
        )
    return lam if direction == 1 else 1.0 - lam


def _check_tau(tau: float) -> None:
    """The scale rule of :func:`scale_prior`: 0 < tau < inf."""
    if not 0.0 < tau < math.inf:
        raise PriorError(f"tau must be positive and finite, got {tau}")


def scale_prior(base: Prior, tau: float, name: Optional[str] = None) -> Prior:
    """Scale family g_tau(theta) = g(theta/tau)/tau with chain-rule derivatives,
    named ``name`` (default ``base.name*tau=TAU``) and refused by
    :func:`_check_quantile_range`, under that name, when its quantile leaves
    double range."""
    _check_tau(tau)
    tau = float(tau)
    lo, hi = base.support
    g, g1, g2 = base.g, base.g1, base.g2
    cdf, ppf = base.cdf, base.ppf
    scaled = Prior(
        name=name or f"{base.name}*tau={tau:g}",
        g=lambda th: g(np.asarray(th, dtype=float) / tau) / tau,
        g1=lambda th: g1(np.asarray(th, dtype=float) / tau) / tau**2,
        g2=lambda th: g2(np.asarray(th, dtype=float) / tau) / tau**3,
        support=(lo * tau if math.isfinite(lo) else lo, hi * tau if math.isfinite(hi) else hi),
        cdf=lambda th: cdf(np.asarray(th, dtype=float) / tau),
        ppf=lambda u: tau * np.asarray(ppf(u), dtype=float),
    )
    _check_quantile_range(scaled)
    return scaled


# ---------------------------------------------------------------------------
# Built-in families
# ---------------------------------------------------------------------------


def _on_positive(th, fn: Callable):
    """``fn`` applied to the positive entries of ``th``, zero elsewhere.

    A scalar ``th`` gives a float, from ``fn`` on the 0-d array if positive;
    an array gives an array, ``fn`` receiving its positive entries.
    """
    th = np.asarray(th, dtype=float)
    if th.ndim == 0:
        return float(fn(th)) if th > 0.0 else 0.0
    out = np.zeros_like(th)
    pos = th > 0.0
    out[pos] = fn(th[pos])
    return out


# The scale-1 members below take float arrays and scalars (the normal and
# Cauchy ones also serve models.py's location models). Powers go through numpy
# ufuncs, not a scalar's ``**`` (libm's pow), so a scalar gets an array's bits.


_STANDARD_NORMAL = Prior(
    name="N(0, 1)",
    g=nk.std_normal_pdf,
    g1=lambda y: -y * nk.std_normal_pdf(y),
    g2=lambda y: (y * y - 1.0) * nk.std_normal_pdf(y),
    support=(-math.inf, math.inf),
    cdf=_sp.ndtr,
    ppf=_sp.ndtri,
)


_STANDARD_CAUCHY = Prior(
    name="Cauchy(0, 1)",
    g=lambda y: 1.0 / (math.pi * (1.0 + y * y)),
    g1=lambda y: -2.0 * y / (math.pi * np.square(1.0 + y * y)),
    g2=lambda y: (2.0 / math.pi) * (4.0 * y * y / np.power(1.0 + y * y, 3) - 1.0 / np.square(1.0 + y * y)),
    support=(-math.inf, math.inf),
    cdf=lambda y: 0.5 + np.arctan(y) / math.pi,
    ppf=lambda u: np.tan(math.pi * (np.asarray(u, dtype=float) - 0.5)),
)


def normal_prior(tau: float = 1.0, name: Optional[str] = None) -> Prior:
    """theta ~ N(0, tau^2)."""
    return scale_prior(_STANDARD_NORMAL, tau, name or f"normal:{tau:g}")


def student_t_prior(m: float, tau: float = 1.0, name: Optional[str] = None) -> Prior:
    """theta/tau ~ t_m; m = 1 recovers the Cauchy prior."""
    if not 0.0 < m < math.inf:
        raise PriorError(f"need a positive finite m, got m={m}")
    m = float(m)
    c = math.exp(math.lgamma((m + 1.0) / 2.0) - math.lgamma(m / 2.0)) / math.sqrt(
        m * math.pi
    )

    def h(y):
        return c * np.power(1.0 + y * y / m, -(m + 1.0) / 2.0)

    def h1(y):
        return -c * (m + 1.0) * (y / m) * np.power(1.0 + y * y / m, -(m + 3.0) / 2.0)

    def h2(y):
        q = 1.0 + y * y / m
        return (
            -c
            * (m + 1.0)
            / m
            * (np.power(q, -(m + 3.0) / 2.0) - (m + 3.0) * (y * y / m) * np.power(q, -(m + 5.0) / 2.0))
        )

    standard = Prior(
        name=f"t_{m:g}",
        g=h,
        g1=h1,
        g2=h2,
        support=(-math.inf, math.inf),
        cdf=lambda y: _sp.stdtr(m, y),
        ppf=lambda u: _sp.stdtrit(m, u),
    )
    return scale_prior(standard, tau, name or f"t:{m:g}:{tau:g}")


def cauchy_prior(tau: float = 1.0, name: Optional[str] = None) -> Prior:
    """Cauchy scale-tau prior; closed forms rather than t_1 special-casing."""
    return scale_prior(_STANDARD_CAUCHY, tau, name or f"cauchy:{tau:g}")


#: The table-seeded quantile serves levels u with |ndtri(u)| <= _TABLE_Z, about
#: [1e-10, 1 - 1e-10]: the band where its accuracy is checked against mpmath.
#: Beyond it, and at 0, 1 and NaN, the library inverse stays.
_TABLE_Z = -float(_sp.ndtri(1e-10))
#: Seed nodes: 513 normal scores on [-8.5, 8.5], 17/512 apart (exact in binary).
_SEED_EDGE = 8.5
_SEED_Z = np.linspace(-_SEED_EDGE, _SEED_EDGE, 513)
_SEED_STEP = 2.0 * _SEED_EDGE / 512.0
_LOG_SQRT_2PI = math.log(nk.SQRT_2PI)


def _table_quantile(ppf, isf, cdf, sf, log_g) -> Callable:
    """Quantile function of a unit member on (0, inf): table seed, one Newton step.

    ``ppf``, ``isf``, ``cdf`` and ``sf`` are the library's inverse CDF,
    inverse survival function, CDF and survival function; ``log_g(x, log_x)``
    is the log density. At construction, y = log x
    and dy/dz = phi(z) / (x g(x)) are tabulated at the nodes z of ``_SEED_Z``,
    where x is the quantile at ndtr(z) (from ``isf`` at ndtr(-z) for z > 0,
    where ndtr(z) rounds toward 1). A level u with |z| <= _TABLE_Z, for
    z = ndtri(u), gets y by cubic Hermite interpolation at z
    and x = exp(y), then one Newton step on cdf(x) - u for u <= 1/2 and on
    (1 - u) - sf(x) above, where 1 - u is exact; from this seed a Halley
    term would change at most the last bit. Other levels keep ``ppf``.
    Each entry is a function of its own level alone, whatever the array's
    size or layout: the simulator's partition-free stream rests on it. A
    table whose nodes do not round-trip through ``cdf`` and ``sf`` to 1e-8
    (a tail too heavy for double range) is dropped for ``ppf`` alone.
    """
    z = _SEED_Z
    tail = _sp.ndtr(-np.abs(z))
    lower = z.size // 2 + 1  # the nodes z <= 0
    with np.errstate(all="ignore"):
        x = np.concatenate([ppf(tail[:lower]), isf(tail[lower:])])
        back = np.concatenate([cdf(x[:lower]), sf(x[lower:])])
        y = np.log(x)
        m = _SEED_STEP * np.exp(-0.5 * z * z - _LOG_SQRT_2PI - y - log_g(x, y))
    dy = np.diff(y)
    # y = c0 + c1 t + c2 t^2 + c3 t^3 on node interval i, t in [0, 1]
    coef = np.array([y[:-1], m[:-1], 3.0 * dy - 2.0 * m[:-1] - m[1:], m[:-1] + m[1:] - 2.0 * dy])
    # a library inverse clamped at the edge of double range fails the round trip
    if not (np.isfinite(coef).all() and np.all(np.abs(back - tail) <= 1e-8 * tail)):
        return ppf

    def newton(u, t):
        t += _SEED_EDGE
        t *= 1.0 / _SEED_STEP
        i = t.astype(np.intp)
        t -= i
        c0, c1, c2, c3 = coef.take(i, axis=1)
        y = c3 * t
        y += c2
        y *= t
        y += c1
        y *= t
        y += c0
        x = np.exp(y)
        # f = cdf(x) - u below 1/2 and (1 - u) - sf(x) above, with u - hi
        # exact either way, so f' = g
        hi = u > 0.5
        lo = ~hi
        f = np.empty_like(x)
        f[lo] = cdf(x[lo])
        f[hi] = -sf(x[hi])
        f -= u - hi
        f /= np.exp(log_g(x, y))
        return x - f

    def quantile(u):
        u = np.asarray(u, dtype=float)
        z = np.asarray(_sp.ndtri(u))
        outside = ~(np.abs(z) <= _TABLE_Z)  # true at NaN
        z[outside] = 0.0  # any level in the table: ppf overwrites these
        out = np.asarray(newton(u, z))  # newton gives a scalar at a 0-d u
        out[outside] = ppf(u[outside])
        return out

    return quantile


def _half_line(name, log_h, dlog_h, bracket, cdf, sf, ppf, isf) -> Prior:
    """Unit member on (0, inf) with density h = exp(log_h(x, log x)).

    ``dlog_h`` is (log h)' and ``bracket`` is (log h)'^2 + (log h)'', written
    so that it does not cancel as x -> 0; g1 = h (log h)' and g2 = h bracket,
    each from one exp. ``cdf``, ``sf``, ``ppf`` and ``isf`` are the
    library's; its CDF, NaN below 0, is clipped.
    """

    def h(x):
        return np.exp(log_h(x, np.log(x)))

    def h1(x):
        return h(x) * dlog_h(x)

    def h2(x):
        return h(x) * bracket(x)

    return Prior(
        name=name,
        g=lambda x: _on_positive(x, h),
        g1=lambda x: _on_positive(x, h1),
        g2=lambda x: _on_positive(x, h2),
        support=(0.0, math.inf),
        cdf=lambda x: cdf(np.maximum(x, 0.0)),
        ppf=_table_quantile(ppf, isf, cdf, sf, log_h),
    )


def gamma_mode1_prior(r: float, name: Optional[str] = None) -> Prior:
    """Gamma prior with shape r and mode pinned at 1 (rate s = r - 1, r > 1).

    Expressed in the data model's rate parameterization on (0, inf): the
    Gamma(r, 1) member scaled by 1/(r - 1).
    """
    if not 1.0 < r < math.inf:
        raise PriorError(f"gamma-mode1 needs a finite r > 1, got {r}")
    r = float(r)
    log_norm = -math.lgamma(r)
    a = r - 1.0
    standard = _half_line(
        f"Gamma({r:g}, 1)",
        log_h=lambda x, log_x: log_norm + a * log_x - x,
        dlog_h=lambda x: a / x - 1.0,
        bracket=lambda x: (a * (a - 1.0) / x - 2.0 * a) / x + 1.0,
        cdf=lambda x: _sp.gammainc(r, x),
        sf=lambda x: _sp.gammaincc(r, x),
        ppf=lambda u: _sp.gammaincinv(r, u),
        isf=lambda q: _sp.gammainccinv(r, q),
    )
    return scale_prior(standard, 1.0 / (r - 1.0), name or f"gamma-mode1:{r:g}")


def f_mode1_prior(r: float, s: float, name: Optional[str] = None) -> Prior:
    """theta/tau ~ F(2r, 2s) with tau chosen so the prior mode sits at 1.

    Requires r > 1 (so the F density has an interior mode); tau is then
    r(s+1)/[s(r-1)].
    """
    if not (1.0 < r < math.inf and 0.0 < s < math.inf):
        raise PriorError(f"f-mode1 needs finite r > 1 and s > 0, got r={r}, s={s}")
    r = float(r)
    s = float(s)
    b = r / s
    log_norm = (
        math.lgamma(r + s) - math.lgamma(r) - math.lgamma(s) + r * (math.log(r) - math.log(s))
    )

    a, B = r - 1.0, r + s

    def bracket(x):
        y = b / (1.0 + b * x)
        return (a * (a - 1.0) / x - 2.0 * a * B * y) / x + B * (B + 1.0) * y * y

    standard = _half_line(
        f"F({2.0 * r:g}, {2.0 * s:g})",
        log_h=lambda x, log_x: log_norm + a * log_x - B * np.log1p(b * x),
        dlog_h=lambda x: a / x - B * b / (1.0 + b * x),
        bracket=bracket,
        cdf=lambda x: _sp.fdtr(2.0 * r, 2.0 * s, x),
        sf=lambda x: _sp.fdtrc(2.0 * r, 2.0 * s, x),
        ppf=lambda u: _sp.fdtri(2.0 * r, 2.0 * s, u),
        # 1/X ~ F(2s, 2r): its lower quantile gives X's upper one
        isf=lambda q: 1.0 / _sp.fdtri(2.0 * s, 2.0 * r, q),
    )
    tau = r * (s + 1.0) / (s * (r - 1.0))
    return scale_prior(standard, tau, name or f"f-mode1:{r:g}:{s:g}")


_BUILTIN_FACTORIES = {
    "normal": (normal_prior, 1),
    "t": (student_t_prior, 2),
    "cauchy": (cauchy_prior, 1),
    "gamma-mode1": (gamma_mode1_prior, 1),
    "f-mode1": (f_mode1_prior, 2),
}


def parse_prior_spec(spec: str) -> Prior:
    """Built-in prior from a compact spec like ``normal:1``, ``t:3:2``, ``gamma-mode1:2``,
    named by the spec as given."""
    kind, *parts = spec.split(":")
    try:
        params = [float(p) for p in parts]
    except ValueError as exc:
        raise PriorError(f"bad numeric parameter in prior spec {spec!r}") from exc
    if kind not in _BUILTIN_FACTORIES:
        raise PriorError(f"unknown prior kind {kind!r}; known: {sorted(_BUILTIN_FACTORIES)}")
    factory, nargs = _BUILTIN_FACTORIES[kind]
    if len(params) != nargs:
        raise PriorError(f"prior kind {kind!r} takes {nargs} parameter(s), got {len(params)}")
    return factory(*params, name=spec)
