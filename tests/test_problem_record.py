"""A prior keeps the last problem ``check_problem`` accepted; no result depends on it.

The record (``Prior.last_problem``, a ``models.Problem``) holds lambda and
the prior's mass above theta0, the model's and the prior's terms at theta0,
the prior's density on each quadrature batch evaluated so far (keyed by the
batch's node bytes) and its CDF at each tail edge. A problem asks the prior
for each of these once, and a new model at the same theta0 asks it for none
of them again. Every number the exact and series routes give on a warm prior
must equal, as ``float.hex``, the number on a fresh copy of the prior,
whatever the prior was asked before; a refused problem leaves the record as
it was. The tail term of each side's bound, whose power is read from the
batch holding the outermost node, must equal the same sum taken from scalar
calls.
"""

import dataclasses

import numpy as np
import pytest

from bfdr import cli, exact, expansions, models, priors
from bfdr import numkernel as nk
from bfdr.models import TestSetup

from oracles import scalar_de
from test_routes import PAIRS, _benchmark_inputs

#: (alpha, n) asked in turn of each problem, then asked again.
SETUPS = [(0.05, 10), (1e-4, 4), (0.3, 11), (1e-6, 20)]
#: The 132 (alpha, n) setups the benchmark asks of each problem.
_GRID = _benchmark_inputs()
GRID_SETUPS = [(alpha, n) for n in _GRID.NS for alpha in _GRID.ALPHAS]


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
    # its batches and edges are theta0 = 2's alone: each side's nodes lie on
    # that side of 2, and each edge is a node of a kept batch
    kept = prior.last_problem
    for away, batches in kept.densities.items():
        assert 1 <= len(batches) <= nk._TOP_LEVEL - nk._FIRST_STOP + 1
        for key in batches:
            assert np.all(away * (np.frombuffer(key) - 2.0) >= 0.0)
    assert len(kept.edge_cdf) >= 2
    for edge in kept.edge_cdf:
        assert any(edge in np.frombuffer(key) for key in kept.densities[1 if edge > 2.0 else -1])


def _counted(prior):
    """A copy of ``prior`` whose g, g1, g2 and cdf log a copy of each argument."""
    calls = {name: [] for name in ("g", "g1", "g2", "cdf")}

    def logged(name):
        fn = getattr(prior, name)

        def call(x):
            calls[name].append(np.array(x, dtype=float))
            return fn(x)

        return call

    return dataclasses.replace(prior, **{name: logged(name) for name in calls}), calls


def test_a_problem_asks_the_prior_once_per_batch_and_edge():
    prior, calls = _counted(priors.normal_prior(1.0))
    model = models.normal_mean_model()  # theta0 = 0, alternative above it
    levels = {-1: set(), 1: set()}  # the levels each side stops at
    for alpha, n in GRID_SETUPS:
        joint = exact.exact_joint(model, prior, TestSetup("mean_ump", 0.0, alpha, n))
        levels[-1].add(nk._ENDS.index(joint.A.panels))
        levels[1].add(nk._ENDS.index(joint.A_tilde.panels))
    # the CDF: once at theta0 for lambda, then once per distinct tail edge
    scale = prior.quadrature_scale
    edges = {0.0 + away * scale * nk._EDGES[0][k] for away, ks in levels.items() for k in ks}
    assert calls["cdf"][0].ndim == 0 and float(calls["cdf"][0]) == 0.0
    assert sorted(float(x) for x in calls["cdf"][1:]) == sorted(edges)
    # the density: once at theta0, then once per distinct batch: the first
    # (levels 0..2) and each later level a side reached
    batches = sum(1 + max(ks) - nk._FIRST_STOP for ks in levels.values())
    assert batches >= 3
    assert len(calls["g"]) == 1 + batches and calls["g"][0].ndim == 0
    assert len({x.tobytes() for x in calls["g"]}) == len(calls["g"])
    assert [len(calls["g1"]), len(calls["g2"])] == [1, 1]
    # another model at the same theta0 reuses every term the prior gave
    asked = {name: len(c) for name, c in calls.items()}
    median = models.normal_location_model()
    for alpha, n in GRID_SETUPS:
        exact.exact_joint(median, prior, TestSetup("median", 0.0, alpha, n))
        expansions.median_coefficients(median, prior, alpha, n)
    assert {name: len(c) for name, c in calls.items()} == asked
    assert prior.last_problem.model is median


def test_a_model_falling_in_theta_takes_its_lambda_from_the_kept_upper_mass():
    gamma = priors.gamma_mode1_prior(2.0)
    rising, falling = models.normal_mean_model(), models.exponential_rate_model()
    for first, second in ((rising, falling), (falling, rising)):
        prior = dataclasses.replace(gamma)
        kept = models.check_problem(first, prior, 0.7, 0.05)
        problem = models.check_problem(second, prior, 0.7, 0.05)
        cold = models.check_problem(second, dataclasses.replace(gamma), 0.7, 0.05)
        assert problem.upper.hex() == kept.upper.hex() == cold.upper.hex()
        assert problem.lambda_alt.hex() == cold.lambda_alt.hex()
        assert (problem.densities is kept.densities and problem.edge_cdf is kept.edge_cdf
                and (problem.g0, problem.g1, problem.g2) == (kept.g0, kept.g1, kept.g2))
    lam = priors.lambda_alt(gamma, 0.7, falling.natural_direction)
    assert models.check_problem(falling, prior, 0.7, 0.05).lambda_alt.hex() == lam.hex()


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
