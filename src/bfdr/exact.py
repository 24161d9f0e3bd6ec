"""Ground-truth error rates by quadrature of power against the prior.

The joint probabilities

    A  = integral over the null of  power(theta) g(theta) dtheta
    At = integral over the alternative of  (1 - power(theta)) g(theta) dtheta

determine the rejection probability B = A + lambda_alt - At and the rates
delta = A / B and eps = At / (1 - B). Each integral runs from theta0 out to
the end of the prior's support by the double-exponential rule of
:func:`~bfdr.numkernel.integrate`, on an infinite side with the scale
s = min(prior half-IQR, 1), which the prior solves once. Its bound adds the
(monotone) weight at the outermost node times the prior mass beyond it.
The prior's density on a batch of nodes, and its CDF at a tail edge, are
evaluated once per problem: the :class:`~bfdr.models.Problem` that
:func:`~bfdr.models.check_problem` keeps holds them, the densities keyed by
the batch's node bytes and the CDF by the edge, and every setup of the
problem reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkernel as nk
from .models import TestSetup, resolve_test
# Bound here because perfbench/tracing.py rebinds ``exact.ump_critical_value``.
from .models import ump_critical_value  # noqa: F401
from .numkernel import ABS_TOL, IntegralValue
from .priors import Prior
from .results import RatePair, RateResult


class DegenerateDenominator(ArithmeticError):
    """The conditioning event (rejection or acceptance) has no probability."""


@dataclass(frozen=True)
class JointProbabilities:
    """Joint null/alternative probabilities and the rejection probability B.

    ``A.value`` is bounded by the null mass and ``A_tilde.value`` by the
    alternative mass, up to quadrature error.
    """

    A: IntegralValue
    A_tilde: IntegralValue
    lambda_alt: float
    B: float


def exact_joint(
    model,
    prior: Prior,
    setup: TestSetup,
    abs_tol: float = ABS_TOL,
) -> JointProbabilities:
    """Joint probabilities P(null, reject) and P(alt, accept) by quadrature.

    Both integrals run in the parameter itself, from theta0 out to each end
    of the support. Each bound is the rule's level gap and rounding floor,
    plus weight(edge) times the prior mass beyond the outermost node, plus
    ``abs_tol / 10`` for the level 1 - alpha rounded to a double. Quadrature
    non-convergence is propagated as
    :class:`~bfdr.numkernel.QuadratureNonConvergence` carrying the partial
    result.
    """
    test = resolve_test(model, prior, setup)
    power, direction, theta0, lam = test.power, test.direction, test.theta0, test.lambda_alt
    lo, hi = prior.support
    scale = prior.quadrature_scale
    edge_cdf = test.problem.edge_cdf

    def side(alt: bool) -> IntegralValue:
        # The null region runs from theta0 away against the power direction and
        # weighs rejection; the alternative runs with it and weighs acceptance.
        away = direction if alt else -direction
        densities = test.problem.densities.setdefault(away, {})  # node bytes -> g, per batch
        weights = []  # (nodes, weight) of this side's batches

        def integrand(th):
            p = np.asarray(power(th), dtype=float)
            w = 1.0 - p if alt else p
            weights.append((th, w))
            key = th.tobytes()
            g = densities.get(key)
            if g is None:
                g = densities[key] = np.asarray(prior.g(th), float)
            return w * g

        def tail(edge: float) -> float:
            # The edge is the outermost node evaluated: its weight is in the
            # first batch holding it. Power is monotone, so the weight at the
            # edge bounds it beyond.
            for nodes, w in weights:
                hit = w[nodes == edge]
                if hit.size:
                    break
            cdf = edge_cdf.get(edge)
            if cdf is None:
                cdf = edge_cdf[edge] = float(prior.cdf(edge))
            return min(max(float(hit[0]), 0.0), 1.0) * (cdf if away == -1 else 1.0 - cdf)

        res = nk.integrate(integrand, theta0, lo if away == -1 else hi, abs_tol, scale, tail)
        return IntegralValue(res.value, res.error_bound + abs_tol / 10.0, res.panels)

    A = side(alt=False)
    At = side(alt=True)
    B = A.value + lam - At.value
    return JointProbabilities(A=A, A_tilde=At, lambda_alt=lam, B=B)


def exact_rates(joint: JointProbabilities) -> RatePair:
    """Rates delta = A/B and eps = At/(1-B) with propagated error bounds."""
    err_B = joint.A.error_bound + joint.A_tilde.error_bound

    def quotient(part: IntegralValue, denominator: float, name: str) -> RateResult:
        if denominator <= 0.0:
            raise DegenerateDenominator(f"{name}={denominator} is not positive")
        value = part.value / denominator
        bound = (part.error_bound + abs(value) * err_B) / denominator
        return RateResult(value, "quadrature", bound)

    return RatePair(
        fdr=quotient(joint.A, joint.B, "rejection probability B"),
        far=quotient(joint.A_tilde, 1.0 - joint.B, "acceptance probability 1-B"),
    )
