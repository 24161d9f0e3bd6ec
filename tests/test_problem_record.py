"""A prior keeps the last problem ``check_problem`` accepted; no result depends on it.

The record (``Prior.last_problem``, a ``models.Problem``) holds lambda, the
model's and the prior's terms at theta0, and the prior's density on the
quadrature batches evaluated so far. Every number the exact and series
routes give on a warm prior must equal, as ``float.hex``, the number on a
fresh copy of the prior, whatever the prior was asked before; a refused
problem leaves the record as it was. The tail term of each side's bound,
whose power is read from the batch holding the outermost node, must equal
the same sum taken from scalar calls.
"""

import dataclasses

import numpy as np
import pytest

from bfdr import cli, exact, expansions, models, priors
from bfdr import numkernel as nk
from bfdr.models import TestSetup

from oracles import scalar_de
from test_routes import PAIRS

#: (alpha, n) asked in turn of each problem, then asked again.
SETUPS = [(0.05, 10), (1e-4, 4), (0.3, 11), (1e-6, 20)]


def _numbers(model, prior, setup):
    """Every number of the exact route and the series coefficients, as float.hex."""
    joint = exact.exact_joint(model, prior, setup)
    rates = exact.exact_rates(joint)
    if isinstance(model, models.ExpFamilyModel):
        coeffs = expansions.exp_family_coefficients(model, prior, setup.theta0, setup.alpha)
    else:
        coeffs = expansions.median_coefficients(model, prior, setup.alpha, setup.n)
    numbers = [joint.A.value, joint.A.error_bound, joint.A.panels, joint.A_tilde.value,
               joint.A_tilde.error_bound, joint.A_tilde.panels, joint.lambda_alt, joint.B,
               rates.fdr.value, rates.fdr.error_estimate, rates.far.value,
               rates.far.error_estimate]
    numbers += [v for v in dataclasses.astuple(coeffs) if isinstance(v, float)]
    return [float(v).hex() for v in numbers]


def _cold(model, prior, setup):
    """``_numbers`` on a copy of ``prior`` that has been asked nothing."""
    fresh = dataclasses.replace(prior)
    assert fresh.last_problem is None
    return _numbers(model, fresh, setup)


@pytest.mark.parametrize("spec, prior_spec", PAIRS)
def test_a_warm_prior_gives_the_cold_values(spec, prior_spec):
    model, statistic, theta0 = cli._build_model(spec)
    prior = priors.parse_prior_spec(prior_spec)
    for alpha, n in SETUPS * 2:
        setup = TestSetup(statistic, theta0, alpha, n)
        assert _numbers(model, prior, setup) == _cold(model, prior, setup), (alpha, n)
    assert prior.last_problem.model is model


def test_alternating_theta0_gives_the_cold_values():
    model, prior = models.normal_mean_model(), priors.normal_prior(1.0)
    for theta0 in (0.0, 0.5, 0.0, -0.3, 0.5):
        for alpha, n in SETUPS:
            setup = TestSetup("mean_ump", theta0, alpha, n)
            assert _numbers(model, prior, setup) == _cold(model, prior, setup), (theta0, alpha, n)
        assert prior.last_problem.theta0 == theta0


def test_alternating_models_give_the_cold_values():
    prior = priors.normal_prior(1.0)
    mean, median = models.normal_mean_model(), models.normal_location_model()
    for model in (mean, median, mean, median):
        for alpha, n in SETUPS:
            setup = TestSetup(model.statistic, 0.0, alpha, n)
            assert _numbers(model, prior, setup) == _cold(model, prior, setup), (model.name, alpha, n)
        assert prior.last_problem.model is model


def test_negative_zero_is_its_own_problem():
    model, prior = models.normal_mean_model(), priors.normal_prior(1.0)
    plus = models.check_problem(model, prior, 0.0, 0.05)
    minus = models.check_problem(model, prior, -0.0, 0.05)
    assert minus is not plus and minus.theta0.hex() == "-0x0.0p+0"
    assert models.check_problem(model, prior, 0.0, 0.05) is not minus
    setup = TestSetup("mean_ump", -0.0, 0.05, 10)
    assert _numbers(model, prior, setup) == _cold(model, prior, setup)


def test_a_refused_problem_is_refused_again_and_leaves_the_record():
    exp_rate, gamma = models.exponential_rate_model(), priors.gamma_mode1_prior(2.0)
    kept = models.check_problem(exp_rate, gamma, 1.0, 0.05)
    for _ in range(2):
        with pytest.raises(priors.PriorError, match="outside the open support"):
            models.check_problem(exp_rate, gamma, -1.0, 0.05)
        assert gamma.last_problem is kept
    location, normal = models.normal_location_model(), priors.normal_prior(1.0)
    kept_median = models.check_problem(location, normal, 0.0, 0.05)
    for _ in range(2):
        with pytest.raises(models.ModelError, match="location convention theta0 = 0"):
            models.check_problem(location, normal, 0.5, 0.05)
        assert normal.last_problem is kept_median
    # the level rule runs on every call, a kept problem's too
    with pytest.raises(models.ModelError, match="alpha must lie in"):
        models.check_problem(exp_rate, gamma, 1.0, 1.5)
    assert models.check_problem(exp_rate, gamma, 1.0, 0.3) is kept


def test_a_prior_asked_many_theta0_holds_one_record():
    model, prior = models.normal_mean_model(), priors.normal_prior(1.0)
    for theta0 in np.linspace(-2.0, 2.0, 41).tolist():
        exact.exact_joint(model, prior, TestSetup("mean_ump", theta0, 0.05, 10))
    records = [v for v in vars(prior).values() if isinstance(v, models.Problem)]
    assert records == [prior.last_problem] and prior.last_problem.theta0 == 2.0
    # its batches are theta0 = 2's alone: each side's nodes lie on that side of 2
    for away, batches in prior.last_problem.densities.items():
        assert 1 <= len(batches) <= nk._TOP_LEVEL - nk._FIRST_STOP + 1
        for nodes, _ in batches:
            assert np.all(away * (nodes - 2.0) >= 0.0)


@pytest.mark.parametrize("spec, prior_spec, alpha, n, levels", [
    # the one rate-grid side that stops at level 5: its outermost node is
    # in the level-5 batch, not the first
    ("cauchy-median", "cauchy:1", 1e-6, 4, 5),
    # exp-rate's alternative runs toward the finite end 0
    ("exp-rate", "gamma-mode1:2", 0.05, 10, None),
])
def test_the_tail_term_equals_its_scalar_sum(spec, prior_spec, alpha, n, levels):
    model, statistic, theta0 = cli._build_model(spec)
    prior = priors.parse_prior_spec(prior_spec)
    setup = TestSetup(statistic, theta0, alpha, n)
    side = exact.exact_joint(model, prior, setup).A_tilde
    test = models.resolve_test(model, dataclasses.replace(prior), setup)
    away = test.direction  # the alternative's side, weighing acceptance

    def weight(p):
        return 1.0 - p

    lo, hi = prior.support
    end = lo if away == -1 else hi
    infinite = np.isinf(end)
    length, col = (prior.quadrature_scale, 0) if infinite else (abs(end - theta0), 2)
    assert infinite == (levels is not None)
    value, err, nodes, converged = scalar_de(
        lambda x: weight(test.power(x)) * prior.g(x), theta0, end, nk.ABS_TOL,
        prior.quadrature_scale)
    level = nk._ENDS.index(nodes)
    assert converged and side.panels == nodes
    if levels is not None:
        assert level == levels and nk._EDGES[col][level] > nk._EDGES[col][nk._FIRST_STOP]
    edge = theta0 + away * length * nk._EDGES[col][level]
    p = weight(min(max(test.power(edge), 0.0), 1.0))
    mass = float(prior.cdf(edge)) if away == -1 else 1.0 - float(prior.cdf(edge))
    assert side.value.hex() == value.hex()
    assert side.error_bound.hex() == (err + p * mass + nk.ABS_TOL / 10.0).hex()
