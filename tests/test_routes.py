"""The three routes agree: on which problems they answer, and on the rates.

The series, exact and simulator routes each run ``models.check_problem``
first (the exact route and the simulator's tally through
``models.resolve_test``, which builds a test only for a checked problem), so
on every built-in model, prior and theta0 of the matrix below they and
``resolve_test`` alone all answer or all refuse with the same exception, and
no RuntimeWarning (an error under the suite's warning filter) escapes before
the refusal.
The simulator is then checked against the exact rates at inputs nobody
picked: a derandomized hypothesis draw over the seven benchmark pairs.
"""

import dataclasses
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bfdr import analysis, cli, exact, expansions, models, mtsim, priors
from bfdr.models import TestSetup

PRIOR_SPECS = ("normal:1", "t:4:1", "cauchy:1", "gamma-mode1:2", "f-mode1:2:2")
THETA0S = (-1.0, 0.0, 5e-324, 0.5, 1.0, 1e300)
#: Model spec -> the statistic its built model names.
STATISTICS = {spec: cli._build_model(spec)[0].statistic for spec in cli._MODELS}
MATRIX = [
    pytest.param(spec, prior, theta0, id=f"{spec}-{prior}-{theta0!r}")
    for spec, statistic in STATISTICS.items()
    for prior in PRIOR_SPECS
    for theta0 in (THETA0S if statistic == "mean_ump" else (0.0,))
]


def _outcome(route):
    """'ok', or the name of the exception class the route raised."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            route()
    except Exception as exc:
        return type(exc).__name__
    return "ok"


@pytest.mark.parametrize("spec, prior_spec, theta0", MATRIX)
def test_every_route_answers_or_refuses_alike(spec, prior_spec, theta0):
    model, statistic, _ = cli._build_model(spec)
    prior = priors.parse_prior_spec(prior_spec)
    alpha, n = 0.05, 10
    setup = TestSetup(statistic, theta0, alpha, n)

    def series():
        if statistic == "mean_ump":
            cs = expansions.exp_family_coefficients(model, prior, theta0, alpha)
        else:
            cs = expansions.median_coefficients(model, prior, alpha, n)
        expansions.rate_series(cs, n, 3)

    def exact_route():
        exact.exact_rates(exact.exact_joint(model, prior, setup))

    def simulator():
        mtsim.simulate(mtsim.SimConfig(model, prior, setup, m=200, seed=1))

    def resolve_alone():
        models.resolve_test(model, prior, setup)

    outcomes = {_outcome(route) for route in (series, exact_route, simulator, resolve_alone)}
    assert len(outcomes) == 1, outcomes
    assert outcomes == {_outcome(lambda: models.check_problem(model, prior, theta0, alpha))}


def test_exact_joint_and_the_sweep_check_once_through_resolve_test(monkeypatch):
    model, prior = models.normal_mean_model(), priors.normal_prior(1.0)
    location = models.normal_location_model()
    setup = TestSetup("mean_ump", 0.0, 0.05, 10)
    check, calls = models.check_problem, []
    # every module's binding, so a route calling its own import is counted too
    for module in (models, exact, mtsim, expansions, analysis):
        monkeypatch.setattr(module, "check_problem", lambda *a: calls.append(a) or check(*a),
                            raising=False)
    # each route checks its problem once; simulate's SimConfig, built inside
    # the count, adds no check of its own
    routes = {
        "exact_joint": (model, lambda: exact.exact_joint(model, prior, setup)),
        "simulate": (model, lambda: mtsim.simulate(
            mtsim.SimConfig(model, prior, setup, m=100, seed=1))),
        "convergence_sweep": (model, lambda: mtsim.convergence_sweep(
            mtsim.SimConfig(model, prior, setup, m=100, seed=1), [50, 100])),
        "exp_family_coefficients": (model, lambda: expansions.exp_family_coefficients(
            model, prior, 0.0, 0.05)),
        "median_coefficients": (location, lambda: expansions.median_coefficients(
            location, prior, 0.05, 10)),
    }
    for name, (checked, route) in routes.items():
        calls.clear()
        route()
        assert calls == [(checked, prior, 0.0, 0.05)], name


def test_an_overflow_at_theta0_is_refused_alike():
    # N(e^theta, 1): mu overflows past theta = 709.78, and the Cauchy prior
    # has alternative mass 3.2e-4 beyond theta0 = 1000
    normal = models.normal_mean_model()
    model = dataclasses.replace(
        normal, name="exp-mean", mu=lambda th: np.exp(np.asarray(th, dtype=float)),
        sample_from_uniform=lambda th, u: normal.sample_from_uniform(np.exp(th), u))
    prior = priors.cauchy_prior(1.0)
    setup = TestSetup("mean_ump", 1000.0, 0.05, 10)
    routes = (
        lambda: expansions.exp_family_coefficients(model, prior, 1000.0, 0.05),
        lambda: exact.exact_joint(model, prior, setup),
        lambda: mtsim.simulate(mtsim.SimConfig(model, prior, setup, m=200, seed=1)),
    )
    for route in routes:
        with pytest.raises(models.ModelError, match="need finite mu, sigma > 0 at theta0=1000.0, got inf"):
            route()


def _benchmark_inputs():
    """perfbench/inputs.py, which imports nothing, loaded without touching sys.path."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: The benchmark's seven (model, prior) pairs; tau scales the location-scale priors.
PAIRS = _benchmark_inputs().PAIRS
LOCATION_SCALE = ("normal", "t", "cauchy")


@pytest.mark.parametrize("spec, prior_spec", PAIRS)
def test_the_test_carries_the_checked_lambda(spec, prior_spec):
    model, statistic, theta0 = cli._build_model(spec)
    prior = priors.parse_prior_spec(prior_spec)
    setup = TestSetup(statistic, theta0, 0.05, 10)
    lam = models.check_problem(model, prior, theta0, 0.05).lambda_alt
    assert models.resolve_test(model, prior, setup).lambda_alt.hex() == lam.hex()
    assert exact.exact_joint(model, prior, setup).lambda_alt.hex() == lam.hex()


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    pair=st.sampled_from(PAIRS),
    tau=_log_uniform(0.25, 4.0),
    alpha=_log_uniform(1e-3, 0.3),
    n=st.integers(4, 50),
    seed=st.integers(0, 2**32 - 1),
)
def test_simulator_tracks_the_exact_rates(pair, tau, alpha, n, seed):
    # pooled V/R and W/(m - R) are binomial given R and m - R, so each lies
    # within 5 standard errors of the exact rate, widened by its bound
    spec, prior_spec = pair
    model, statistic, theta0 = cli._build_model(spec)
    prior = priors.parse_prior_spec(prior_spec)
    if prior_spec.split(":")[0] in LOCATION_SCALE:
        prior = priors.scale_prior(prior, tau)
    setup = TestSetup(statistic, theta0, alpha, n)
    m = 50_000
    rates = exact.exact_rates(exact.exact_joint(model, prior, setup))
    res = mtsim.simulate(mtsim.SimConfig(model, prior, setup, m=m, seed=seed))
    rejected = int(res.R.sum())
    assert 0 < rejected < m
    for hat, rate, count in ((res.delta_hat, rates.fdr, rejected),
                             (res.eps_hat, rates.far, m - rejected)):
        se = math.sqrt(rate.value * (1.0 - rate.value) / count)
        assert abs(hat - rate.value) <= 5.0 * se + rate.error_estimate, (hat, rate, count)

