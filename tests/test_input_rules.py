"""One rule per input, the same on every route.

Every count (a sample size n, the simulator's m, replications and workers,
``n_alpha``'s n_max) goes through ``models._check_count``: an integer of at
least 1, a numpy integer included, a float never, not even an integral one.
Every theta0 goes through ``models._check_theta0`` inside ``check_problem``,
so a non-finite one is the same ``ModelError`` on the exact, series,
honesty-threshold and simulation routes.
"""

import math
import re

import numpy as np
import pytest

from bfdr import exact, expansions, models, mtsim, priors
from bfdr.analysis import n_alpha
from bfdr.models import TestSetup

NORMAL = models.normal_mean_model()
NLOC = models.normal_location_model()
N01 = priors.normal_prior(1.0)
SETUP = TestSetup(NORMAL.statistic, 0.0, 0.05, 10)
COEFFS = expansions.exp_family_coefficients(NORMAL, N01, 0.0, 0.05)


def _sim(**counts):
    return mtsim.SimConfig(NORMAL, N01, SETUP, **{"m": 200, "seed": 3, **counts})


#: Every count entry point: (the argument's name in the error, a call taking the count).
COUNT_ENTRY_POINTS = {
    "TestSetup n": ("n", lambda v: TestSetup(NORMAL.statistic, 0.0, 0.05, v)),
    "rate_series n": ("n", lambda v: expansions.rate_series(COEFFS, v)),
    "median_coefficients n": ("n", lambda v: expansions.median_coefficients(NLOC, N01, 0.05, v)),
    "SimConfig m": ("m", lambda v: _sim(m=v)),
    "SimConfig replications": ("replications", lambda v: _sim(replications=v)),
    "SimConfig workers": ("workers", lambda v: _sim(workers=v)),
    "convergence_sweep first m": ("m", lambda v: mtsim.convergence_sweep(_sim(), [v, 100])),
    "convergence_sweep last m": ("m", lambda v: mtsim.convergence_sweep(_sim(), [100, v])),
    "n_alpha n_max": ("n_max", lambda v: n_alpha(NORMAL, N01, 1.0, 0.05, n_max=v)),
}


@pytest.mark.parametrize("value", [0, -1, 2.5, 3.0, math.nan], ids=repr)
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_a_bad_count_is_a_model_error_naming_the_argument(entry, value):
    # not a TypeError from range() or a comparison, and not truncated to an int
    name, call = COUNT_ENTRY_POINTS[entry]
    message = f"{name} must be a positive integer, got {value!r}"
    with pytest.raises(models.ModelError, match=f"^{re.escape(message)}$"):
        call(value)


def _hex(rates):
    """float.hex of a RatePair's values and error estimates, each a Python float."""
    values = [rates.fdr.value, rates.fdr.error_estimate, rates.far.value, rates.far.error_estimate]
    assert all(type(v) is float for v in values)
    return [v.hex() for v in values]


@pytest.mark.parametrize("model", [NORMAL, NLOC], ids=lambda m: m.name)
def test_a_numpy_sample_size_gives_the_int_results(model):
    def exact_rates(n):
        setup = TestSetup(model.statistic, 0.0, 0.05, n)
        assert type(setup.n) is int
        return _hex(exact.exact_rates(exact.exact_joint(model, N01, setup)))

    if model is NORMAL:
        coeffs = COEFFS
    else:
        coeffs = expansions.median_coefficients(NLOC, N01, 0.05, np.int64(10))
        assert coeffs == expansions.median_coefficients(NLOC, N01, 0.05, 10)
    assert exact_rates(np.int64(10)) == exact_rates(10)
    assert _hex(expansions.rate_series(coeffs, np.int64(10))) == _hex(
        expansions.rate_series(coeffs, 10))


def test_numpy_simulator_counts_give_the_int_results():
    def tallies(result):
        return [result.m, result.replications, result.V.tolist(), result.R.tolist(),
                result.fdr_hat.hex(), result.delta_hat.hex(), result.eps_hat.hex()]

    config = _sim(m=np.int64(300), replications=np.int64(2), workers=np.int64(2))
    assert (config.m, config.replications, config.workers) == (300, 2, 2)
    assert all(type(c) is int for c in (config.m, config.replications, config.workers))
    plain = _sim(m=300, replications=2, workers=2)
    assert tallies(mtsim.simulate(config)) == tallies(mtsim.simulate(plain))
    swept = mtsim.convergence_sweep(plain, [np.int64(100), np.int64(300)])
    assert [tallies(r) for r in swept] == [
        tallies(r) for r in mtsim.convergence_sweep(plain, [100, 300])]
    assert type(swept[0].m) is int


def test_a_numpy_n_max_gives_the_int_threshold():
    for method in ("exact", "series3"):
        found = n_alpha(NORMAL, N01, 1.0, 0.05, method=method, n_max=np.int64(30))
        assert found == n_alpha(NORMAL, N01, 1.0, 0.05, method=method, n_max=30)


#: Every route that takes a theta0, as a call of it.
THETA0_ROUTES = {
    "exact_joint": lambda t: exact.exact_joint(NORMAL, N01, TestSetup(NORMAL.statistic, t, 0.05, 10)),
    "exp_family_coefficients": lambda t: expansions.exp_family_coefficients(NORMAL, N01, t, 0.05),
    "n_alpha exact": lambda t: n_alpha(NORMAL, N01, 1.0, 0.05, theta0=t),
    "n_alpha series3": lambda t: n_alpha(NORMAL, N01, 1.0, 0.05, method="series3", theta0=t),
    "simulate": lambda t: mtsim.simulate(
        mtsim.SimConfig(NORMAL, N01, TestSetup(NORMAL.statistic, t, 0.05, 10), m=200, seed=3)),
}


@pytest.mark.parametrize("theta0", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("route", sorted(THETA0_ROUTES))
def test_a_non_finite_theta0_is_the_same_model_error_on_every_route(route, theta0):
    message = f"theta0 must be finite, got {theta0}"
    with pytest.raises(models.ModelError, match=f"^{re.escape(message)}$"):
        THETA0_ROUTES[route](theta0)
