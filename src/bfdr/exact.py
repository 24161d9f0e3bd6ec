"""Ground-truth error rates by quadrature of power against the prior.

The joint probabilities

    A  = integral over the null of  power(theta) g(theta) dtheta
    At = integral over the alternative of  (1 - power(theta)) g(theta) dtheta

determine the rejection probability B = A + lambda_alt - At and the rates
delta = A / B and eps = At / (1 - B). Unbounded domains are truncated where
the product of a monotone power bound and the prior tail mass drops below a
tenth of the quadrature tolerance, at the first of the doubling distances
1e-3 * 2**k from theta0 where it does; fat-tailed priors get a logarithmic
change of variables on the far piece so the uniform-grid scheme stays
effective.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import numkernel as nk
from .models import ModelError, TestSetup, prior_support, resolve_test
# Bound here because perfbench/tracing.py rebinds ``exact.ump_critical_value``.
from .models import ump_critical_value  # noqa: F401
from .numkernel import IntegralValue, QuadratureConfig
from .priors import Prior, natural_lambda_alt
from .results import RatePair, RateResult


class DegenerateDenominator(ArithmeticError):
    """The conditioning event (rejection or acceptance) has no probability."""


@dataclass(frozen=True)
class JointProbabilities:
    """Joint null/alternative probabilities and the derived marginals.

    ``B_tilde`` is 1 - B by construction. ``A.value`` is bounded by the null
    mass and ``A_tilde.value`` by the alternative mass, up to quadrature
    error.
    """

    A: IntegralValue
    A_tilde: IntegralValue
    lambda_alt: float
    B: float
    B_tilde: float


#: The cut march's distances from theta0, 1e-3 * 2**k up to the 1e13 cap.
_MARCH = np.ldexp(1e-3, np.arange(54))


def _find_cut(
    h: Callable[[np.ndarray], np.ndarray],
    theta0: float,
    away: float,
    limit: float,
    tol: float,
) -> float:
    """Cut a tail at the first march distance where the monotone bound h is within tol.

    ``away`` is -1 or +1 (the direction of the tail), ``limit`` the domain
    endpoint in that direction. The march tries s = min(1e-3 * 2**k, smax),
    then smax itself, all in one call of the array-valued ``h``; the cut is at
    smax when no bound is within tol. smax stops just inside a finite limit,
    which is an open boundary (the sliver left out is far below the tolerance
    the caller budgets for truncation), and at 1e13 from theta0.
    """
    smax = min(abs(limit - theta0) * (1.0 - 1e-9), 1e13)
    s = np.append(np.minimum(_MARCH, smax), smax)
    above = h(theta0 + away * s) > tol
    return theta0 + away * (smax if above.all() else float(s[np.argmin(above)]))


def exact_joint(
    model,
    prior: Prior,
    setup: TestSetup,
    cfg: Optional[QuadratureConfig] = None,
) -> JointProbabilities:
    """Joint probabilities P(null, reject) and P(alt, accept) by quadrature.

    Both integrals run in the parameter itself, from theta0 out to the
    truncation point of each tail. Quadrature non-convergence is propagated
    as :class:`~bfdr.numkernel.QuadratureNonConvergence` carrying the partial
    result.
    """
    cfg = cfg or nk.DEFAULT_QUADRATURE
    test = resolve_test(model, setup)
    power, direction, theta0 = test.power, test.direction, test.theta0
    lo, hi = prior_support(model, prior)
    if not (lo < theta0 < hi):
        raise ModelError(f"theta0={theta0} must be interior to ({lo}, {hi})")
    lam = natural_lambda_alt(prior, theta0, direction)
    cut_tol = cfg.abs_tol / 10.0

    cdf, g = prior.cdf, prior.g

    def side(alt: bool) -> IntegralValue:
        # The null region runs from theta0 away against the power direction and
        # weighs rejection; the alternative runs with it and weighs acceptance.
        away = direction if alt else -direction
        limit = lo if away == -1 else hi

        def weight(p):
            return 1.0 - p if alt else p

        def tail_bound(th: np.ndarray) -> np.ndarray:
            p = weight(np.minimum(np.maximum(power(th), 0.0), 1.0))
            mass = cdf(th) if away == -1 else 1.0 - cdf(th)
            return p * mass

        def integrand(th):
            th = np.asarray(th, dtype=float)
            return weight(np.asarray(power(th), dtype=float)) * np.asarray(g(th), dtype=float)

        cut = _find_cut(tail_bound, theta0, away, limit, cut_tol)
        res = nk.integrate_split(integrand, min(theta0, cut), max(theta0, cut), theta0, cfg)
        return replace(res, error_bound=res.error_bound + cut_tol,
                       truncation_radius=abs(cut - theta0))

    A = side(alt=False)
    At = side(alt=True)
    B = A.value + lam - At.value
    return JointProbabilities(A=A, A_tilde=At, lambda_alt=lam, B=B, B_tilde=1.0 - B)


def exact_rates(joint: JointProbabilities) -> RatePair:
    """Rates delta = A/B and eps = At/(1-B) with propagated error bounds."""
    err_B = joint.A.error_bound + joint.A_tilde.error_bound
    if joint.B <= 0.0:
        raise DegenerateDenominator(
            f"rejection probability B={joint.B} is not positive"
        )
    if joint.B_tilde <= 0.0:
        raise DegenerateDenominator(
            f"acceptance probability 1-B={joint.B_tilde} is not positive"
        )
    delta = joint.A.value / joint.B
    eps = joint.A_tilde.value / joint.B_tilde
    delta_err = (joint.A.error_bound + abs(delta) * err_B) / joint.B
    eps_err = (joint.A_tilde.error_bound + abs(eps) * err_B) / joint.B_tilde
    return RatePair(
        fdr=RateResult(delta, "quadrature", delta_err),
        far=RateResult(eps, "quadrature", eps_err),
    )
