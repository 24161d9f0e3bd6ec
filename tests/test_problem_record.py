"""``check_problem`` keeps the problems it accepted in one bounded memo; no result depends on it.

The memo (``models._problem``, an ``lru_cache`` of 32 entries) is keyed by
the model and prior objects themselves, which compare and hash by identity,
and by the bits of theta0. Each kept ``models.Problem`` holds lambda, the
model's and the prior's terms at theta0, the prior's density on each
quadrature batch evaluated so far (keyed by the batch's node bytes) and its
CDF at each tail edge. A problem asks the prior for each of these once.
Every number the exact and series routes give on a warm prior must equal, as
``float.hex``, the number on a fresh copy of the prior or after the memo is
cleared, whatever was asked before; a refused problem is not kept. The tail
term of each side's bound, whose power is read from the batch holding the
outermost node, must equal the same sum taken from scalar calls.
"""

import dataclasses
from typing import Callable

import numpy as np
import pytest

from bfdr import cli, exact, expansions, models, mtsim, priors
from bfdr import numkernel as nk
from bfdr.models import TestSetup

from oracles import scalar_de
from test_routes import PAIRS, _benchmark_inputs

#: (alpha, n) asked in turn of each problem, then asked again.
SETUPS = [(0.05, 10), (1e-4, 4), (0.3, 11), (1e-6, 20)]
#: The 132 (alpha, n) setups the benchmark asks of each problem.
_GRID = _benchmark_inputs()
GRID_SETUPS = [(alpha, n) for n in _GRID.NS for alpha in _GRID.ALPHAS]
MEMO_SIZE = models._problem.cache_info().maxsize


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
    """``_numbers`` on a copy of ``prior``, which the memo has never seen."""
    fresh = dataclasses.replace(prior)
    assert fresh != prior
    return _numbers(model, fresh, setup)


@pytest.mark.parametrize("spec, prior_spec", PAIRS)
def test_a_warm_prior_gives_the_cold_values(spec, prior_spec):
    model, statistic, theta0 = cli._build_model(spec)
    prior = priors.parse_prior_spec(prior_spec)
    warm = {}
    for alpha, n in SETUPS * 2:
        setup = TestSetup(statistic, theta0, alpha, n)
        warm[alpha, n] = _numbers(model, prior, setup)
        assert warm[alpha, n] == _cold(model, prior, setup), (alpha, n)
    kept = models.check_problem(model, prior, theta0, 0.05)
    assert models.check_problem(model, prior, theta0, 0.3) is kept
    models._problem.cache_clear()
    for alpha, n in SETUPS:
        assert _numbers(model, prior, TestSetup(statistic, theta0, alpha, n)) == warm[alpha, n]
    assert models.check_problem(model, prior, theta0, 0.05) is not kept


def test_alternating_theta0_gives_the_cold_values():
    model, prior = models.normal_mean_model(), priors.normal_prior(1.0)
    kept = {}
    for theta0 in (0.0, 0.5, 0.0, -0.3, 0.5):
        for alpha, n in SETUPS:
            setup = TestSetup("mean_ump", theta0, alpha, n)
            assert _numbers(model, prior, setup) == _cold(model, prior, setup), (theta0, alpha, n)
        # each theta0 keeps its own problem; asking another does not replace it
        problem = models.check_problem(model, prior, theta0, 0.05)
        assert kept.setdefault(theta0, problem) is problem and problem.theta0 == theta0


def test_alternating_models_give_the_cold_values():
    prior = priors.normal_prior(1.0)
    mean, median = models.normal_mean_model(), models.normal_location_model()
    kept = {}
    for model in (mean, median, mean, median):
        for alpha, n in SETUPS:
            setup = TestSetup(model.statistic, 0.0, alpha, n)
            assert _numbers(model, prior, setup) == _cold(model, prior, setup), (model.name, alpha, n)
        problem = models.check_problem(model, prior, 0.0, 0.05)
        assert kept.setdefault(model.name, problem) is problem
    assert kept["normal-mean"] is not kept["normal-location"]


def test_negative_zero_is_its_own_problem():
    model, prior = models.normal_mean_model(), priors.normal_prior(1.0)
    plus = models.check_problem(model, prior, 0.0, 0.05)
    minus = models.check_problem(model, prior, -0.0, 0.05)
    assert minus is not plus and minus.theta0.hex() == "-0x0.0p+0"
    assert models.check_problem(model, prior, 0.0, 0.05) is plus
    assert models.check_problem(model, prior, -0.0, 0.05) is minus
    setup = TestSetup("mean_ump", -0.0, 0.05, 10)
    assert _numbers(model, prior, setup) == _cold(model, prior, setup)


def test_a_refused_problem_is_refused_again_and_leaves_the_record():
    models._problem.cache_clear()
    exp_rate, gamma = models.exponential_rate_model(), priors.gamma_mode1_prior(2.0)
    kept = models.check_problem(exp_rate, gamma, 1.0, 0.05)
    location, normal = models.normal_location_model(), priors.normal_prior(1.0)
    kept_median = models.check_problem(location, normal, 0.0, 0.05)
    for _ in range(2):
        with pytest.raises(priors.PriorError, match="outside the open support"):
            models.check_problem(exp_rate, gamma, -1.0, 0.05)
        with pytest.raises(models.ModelError, match="location convention theta0 = 0"):
            models.check_problem(location, normal, 0.5, 0.05)
        with pytest.raises(models.ModelError, match="reaches outside the parameter interval"):
            models.check_problem(exp_rate, normal, 1.0, 0.05)
        assert models._problem.cache_info().currsize == 2
    assert models.check_problem(location, normal, 0.0, 0.05) is kept_median
    # the level rule runs on every call, a kept problem's too
    with pytest.raises(models.ModelError, match="alpha must lie in"):
        models.check_problem(exp_rate, gamma, 1.0, 1.5)
    assert models.check_problem(exp_rate, gamma, 1.0, 0.3) is kept
    assert models._problem.cache_info().currsize == 2


def test_the_memo_keeps_the_last_32_problems():
    models._problem.cache_clear()
    model, base = models.normal_mean_model(), priors.normal_prior(1.0)
    setup = TestSetup("mean_ump", 0.0, 0.05, 10)
    copies = [dataclasses.replace(base) for _ in range(MEMO_SIZE + 8)]
    first = [_numbers(model, prior, setup) for prior in copies]
    assert models._problem.cache_info().currsize == MEMO_SIZE == 32
    # the last 32 are kept; the first 8 were evicted and are solved again
    misses = models._problem.cache_info().misses
    kept = [models.check_problem(model, prior, 0.0, 0.05) for prior in copies[8:]]
    assert all(models.check_problem(model, prior, 0.0, 0.05) is problem
               for prior, problem in zip(copies[8:], kept))
    assert models._problem.cache_info().misses == misses
    again = [_numbers(model, prior, setup) for prior in copies[:8]]
    assert models._problem.cache_info().misses == misses + 8
    assert again == first[:8] and all(numbers == first[0] for numbers in first)


def test_each_theta0_keeps_its_own_batches_and_edges():
    model, prior = models.normal_mean_model(), priors.normal_prior(1.0)
    theta0s = np.linspace(-2.0, 2.0, 21).tolist()
    for theta0 in theta0s:
        exact.exact_joint(model, prior, TestSetup("mean_ump", theta0, 0.05, 10))
    assert not [v for v in vars(prior).values() if isinstance(v, models.Problem)]
    # each problem's batches and edges are its own theta0's: each side's
    # nodes lie on that side of it, and each edge is a node of a kept batch
    for theta0 in theta0s:
        kept = models.check_problem(model, prior, theta0, 0.05)
        assert sorted(kept.densities) == [-1, 1]
        for away, batches in kept.densities.items():
            assert 1 <= len(batches) <= nk._TOP_LEVEL - nk._FIRST_STOP + 1
            for key in batches:
                assert np.all(away * (np.frombuffer(key) - theta0) >= 0.0)
        assert len(kept.edge_cdf) >= 2
        for edge in kept.edge_cdf:
            side = 1 if edge > theta0 else -1
            assert any(edge in np.frombuffer(key) for key in kept.densities[side])


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


def _asked(calls):
    return {name: len(c) for name, c in calls.items()}


def test_a_problem_asks_the_prior_once_per_batch_and_edge():
    prior, calls = _counted(priors.normal_prior(1.0))
    scale = prior.quadrature_scale
    mean, median = models.normal_mean_model(), models.normal_location_model()  # theta0 = 0
    asked = {name: 0 for name in calls}
    for model in (mean, median):
        levels = {-1: set(), 1: set()}  # the levels each side stops at
        for alpha, n in GRID_SETUPS:
            joint = exact.exact_joint(model, prior, TestSetup(model.statistic, 0.0, alpha, n))
            levels[-1].add(nk._ENDS.index(joint.A.panels))
            levels[1].add(nk._ENDS.index(joint.A_tilde.panels))
        # the CDF: once at theta0 for lambda, then once per distinct tail edge
        edges = {0.0 + away * scale * nk._EDGES[0][k] for away, ks in levels.items() for k in ks}
        cdf = calls["cdf"][asked["cdf"]:]
        assert cdf[0].ndim == 0 and float(cdf[0]) == 0.0
        assert sorted(float(x) for x in cdf[1:]) == sorted(edges)
        # the density: once at theta0, then once per distinct batch: the first
        # (levels 0..2) and each later level a side reached
        batches = sum(1 + max(ks) - nk._FIRST_STOP for ks in levels.values())
        assert batches >= 3
        g = calls["g"][asked["g"]:]
        assert len(g) == 1 + batches and g[0].ndim == 0
        assert len({x.tobytes() for x in g}) == len(g)
        assert [len(calls["g1"]) - asked["g1"], len(calls["g2"]) - asked["g2"]] == [1, 1]
        asked = _asked(calls)
    # asked again, neither model's problem asks the prior anything
    for model in (mean, median, mean):
        for alpha, n in GRID_SETUPS:
            exact.exact_joint(model, prior, TestSetup(model.statistic, 0.0, alpha, n))
            if model is median:
                expansions.median_coefficients(median, prior, alpha, n)
            else:
                expansions.exp_family_coefficients(mean, prior, 0.0, alpha)
    assert _asked(calls) == asked


def test_a_second_model_at_the_same_theta0_gets_the_cold_values():
    gamma = priors.gamma_mode1_prior(2.0)
    rising, falling = models.normal_mean_model(), models.exponential_rate_model()
    setup = TestSetup("mean_ump", 0.7, 0.05, 10)
    for first, second in ((rising, falling), (falling, rising)):
        prior = dataclasses.replace(gamma)
        kept = models.check_problem(first, prior, 0.7, 0.05)
        exact.exact_joint(first, prior, setup)
        problem = models.check_problem(second, prior, 0.7, 0.05)
        cold = models.check_problem(second, dataclasses.replace(gamma), 0.7, 0.05)
        assert problem is not kept and problem is not cold
        assert problem.densities == {} and kept.densities != {}
        terms = [[float(v).hex() for v in dataclasses.astuple(p) if isinstance(v, float)]
                 for p in (problem, cold)]
        assert terms[0] == terms[1]
        assert _numbers(second, prior, setup) == _cold(second, prior, setup)
        lam = priors.lambda_alt(gamma, 0.7, second.natural_direction)
        assert problem.lambda_alt.hex() == lam.hex()
    assert (1.0 - problem.lambda_alt).hex() == kept.lambda_alt.hex()


@dataclasses.dataclass
class _Unhashable:
    """A callable in an unfrozen dataclass, whose ``eq`` leaves it unhashable."""

    fn: Callable

    def __call__(self, *args):
        return self.fn(*args)


def test_the_memo_keys_on_identity_not_fields():
    """A custom prior and model whose callables cannot be hashed run every
    route, give the built-ins' numbers, and a copy of either starts cold."""
    base_prior, base_model = priors.normal_prior(1.0), models.normal_mean_model()
    parts = ("g", "g1", "g2", "cdf", "ppf")
    prior = priors.make_prior(*(_Unhashable(getattr(base_prior, p)) for p in parts[:3]),
                              base_prior.support,
                              *(_Unhashable(getattr(base_prior, p)) for p in parts[3:]))
    fields = ("mu", "sigma", "rho3", "rho4", "mean_statistic_cdf", "mean_statistic_isf",
              "sample_from_uniform")
    model = models.ExpFamilyModel("unhashable-normal-mean", -np.inf, np.inf,
                                  *(_Unhashable(getattr(base_model, f)) for f in fields))
    with pytest.raises(TypeError, match="unhashable"):
        hash(prior.g)
    with pytest.raises(TypeError, match="unhashable"):
        hash(model.mu)
    setup = TestSetup("mean_ump", 0.0, 0.05, 10)
    # exact and series
    assert _numbers(model, prior, setup) == _numbers(base_model, base_prior, setup)
    series = expansions.rate_series(expansions.exp_family_coefficients(model, prior, 0.0, 0.05), 10)
    base = expansions.rate_series(expansions.exp_family_coefficients(base_model, base_prior, 0.0, 0.05), 10)
    assert repr(series) == repr(base)
    # the simulator
    runs = [mtsim.simulate(mtsim.SimConfig(m_, p_, setup, m=4000, seed=7, replications=2))
            for m_, p_ in ((model, prior), (base_model, base_prior))]
    tallies = [(r.V.tolist(), r.R.tolist(), r.fdr_hat.hex()) for r in runs]
    assert tallies[0] == tallies[1]
    # a copy has equal fields but is another key
    kept = models.check_problem(model, prior, 0.0, 0.05)
    assert models.check_problem(model, prior, 0.0, 0.3) is kept
    for other_model, other_prior in ((dataclasses.replace(model), prior),
                                     (model, dataclasses.replace(prior))):
        assert (other_model, other_prior) != (model, prior)
        assert models.check_problem(other_model, other_prior, 0.0, 0.05) is not kept


def test_an_unhashable_object_that_is_no_model_is_refused_by_the_model_rule():
    prior = priors.normal_prior(1.0)
    for model in ({"name": "normal-mean"}, [models.normal_mean_model()]):
        with pytest.raises(models.ModelError, match="unsupported model type"):
            models.check_problem(model, prior, 0.0, 0.05)


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
