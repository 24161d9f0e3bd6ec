"""One rule per input, the same on every route.

Every count (a sample size n, the simulator's m, replications and workers,
``n_alpha``'s n_max) goes through ``models._check_count``: an integer of at
least 1, a numpy integer included, a float or a bool never, not even an
integral one. The simulator's seed is any integer by the same reading
(``models._as_int``), 0 and negative ones included.
Every theta0 goes through ``models._check_theta0`` inside ``check_problem``,
so a non-finite one is the same ``ModelError`` on the exact, series,
honesty-threshold and simulation routes. Every prior scale tau goes through
``priors._check_tau`` inside ``scale_prior``: positive and finite, with tau**3
(the divisor of g2) a positive finite double.
"""

import math
import re

import numpy as np
import pytest

from bfdr import exact, expansions, models, mtsim, priors
from bfdr.analysis import empirical_spiky_check, n_alpha
from bfdr.models import TestSetup

NORMAL = models.normal_mean_model()
NLOC = models.normal_location_model()
N01 = priors.normal_prior(1.0)
SETUP = TestSetup(NORMAL.statistic, 0.0, 0.05, 10)
COEFFS = expansions.exp_family_coefficients(NORMAL, N01, 0.0, 0.05)


def _sim(**counts):
    return mtsim.SimConfig(NORMAL, N01, SETUP, **{"m": 200, "seed": 3, **counts})


#: What each integer rule refuses, and how its error words the rule.
RULES = {
    "count": ([0, -1, 2.5, 3.0, math.nan, True, False], "a positive integer"),
    "seed": ([1.5, 3.0, math.nan, True, False], "an integer"),  # 0 and -1 are seeds
}

#: Every integer entry point: (its rule, the argument's name in the error, a call taking it).
COUNT_ENTRY_POINTS = {
    "TestSetup n": ("count", "n", lambda v: TestSetup(NORMAL.statistic, 0.0, 0.05, v)),
    "rate_series n": ("count", "n", lambda v: expansions.rate_series(COEFFS, v)),
    "median_coefficients n": ("count", "n", lambda v: expansions.median_coefficients(NLOC, N01, 0.05, v)),
    "SimConfig m": ("count", "m", lambda v: _sim(m=v)),
    "SimConfig replications": ("count", "replications", lambda v: _sim(replications=v)),
    "SimConfig workers": ("count", "workers", lambda v: _sim(workers=v)),
    "SimConfig seed": ("seed", "seed", lambda v: _sim(seed=v)),
    "convergence_sweep first m": ("count", "m", lambda v: mtsim.convergence_sweep(_sim(), [v, 100])),
    "convergence_sweep last m": ("count", "m", lambda v: mtsim.convergence_sweep(_sim(), [100, v])),
    "n_alpha n_max": ("count", "n_max", lambda v: n_alpha(NORMAL, N01, 1.0, 0.05, n_max=v)),
}
ROWS = [(entry, value) for entry, (rule, _, _) in sorted(COUNT_ENTRY_POINTS.items())
        for value in RULES[rule][0]]


@pytest.mark.parametrize("entry, value", ROWS, ids=[f"{e}-{v!r}" for e, v in ROWS])
def test_a_bad_count_is_a_model_error_naming_the_argument(entry, value):
    # not a TypeError from range(), a comparison or the RNG's key, and not
    # truncated to an int
    rule, name, call = COUNT_ENTRY_POINTS[entry]
    message = f"{name} must be {RULES[rule][1]}, got {value!r}"
    with pytest.raises(models.ModelError, match=f"^{re.escape(message)}$"):
        call(value)


def _hex(rates):
    """float.hex of a RatePair's values and error estimates, each a Python float
    (a series value's estimate is None)."""
    values = [rates.fdr.value, rates.fdr.error_estimate, rates.far.value, rates.far.error_estimate]
    assert all(type(v) is float or v is None for v in values)
    assert (rates.fdr.error_estimate is None) is rates.fdr.method.startswith("series")
    return [v if v is None else v.hex() for v in values]


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

    config = _sim(m=np.int64(300), replications=np.int64(2), workers=np.int64(2),
                  seed=np.int64(11))
    assert (config.m, config.replications, config.workers, config.seed) == (300, 2, 2, 11)
    assert all(type(c) is int for c in (config.m, config.replications, config.workers, config.seed))
    plain = _sim(m=300, replications=2, workers=2, seed=11)
    assert tallies(mtsim.simulate(config)) == tallies(mtsim.simulate(plain))
    assert tallies(mtsim.simulate(_sim(seed=np.int64(-11)))) == tallies(mtsim.simulate(_sim(seed=-11)))
    swept = mtsim.convergence_sweep(plain, [np.int64(100), np.int64(300)])
    assert [tallies(r) for r in swept] == [
        tallies(r) for r in mtsim.convergence_sweep(plain, [100, 300])]
    assert type(swept[0].m) is int


def test_a_numpy_n_max_gives_the_int_threshold():
    assert n_alpha(NORMAL, N01, 1.0, 0.05, n_max=np.int64(30)) == n_alpha(NORMAL, N01, 1.0, 0.05, n_max=30)


#: Every route that takes a theta0, as a call of it.
THETA0_ROUTES = {
    "exact_joint": lambda t: exact.exact_joint(NORMAL, N01, TestSetup(NORMAL.statistic, t, 0.05, 10)),
    "exp_family_coefficients": lambda t: expansions.exp_family_coefficients(NORMAL, N01, t, 0.05),
    "n_alpha exact": lambda t: n_alpha(NORMAL, N01, 1.0, 0.05, theta0=t),
    "simulate": lambda t: mtsim.simulate(
        mtsim.SimConfig(NORMAL, N01, TestSetup(NORMAL.statistic, t, 0.05, 10), m=200, seed=3)),
}


@pytest.mark.parametrize("theta0", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("route", sorted(THETA0_ROUTES))
def test_a_non_finite_theta0_is_the_same_model_error_on_every_route(route, theta0):
    message = f"theta0 must be finite, got {theta0}"
    with pytest.raises(models.ModelError, match=f"^{re.escape(message)}$"):
        THETA0_ROUTES[route](theta0)


#: The ends of the tau rule: the largest tau whose cube is finite, the smallest
#: whose cube is not 0, and the doubles just beyond them.
TAU_MAX, TAU_MIN = 5.643803094122361e102, 1.351817985853457e-108
TAU_ROWS = {
    "accepted": [TAU_MAX, TAU_MIN, 1e-100, 1.0, 1e100],
    "refused by the cube": [math.nextafter(TAU_MAX, math.inf), 1e103, 1e300,
                            math.nextafter(TAU_MIN, 0.0), 1e-109, 5e-324],
    "refused as not positive and finite": [0.0, -0.0, -2.0, math.inf, math.nan],
}
#: Every route that takes a tau, as a call of it.
TAU_ROUTES = {
    "scale_prior": lambda t: priors.scale_prior(N01, t),
    "normal_prior": lambda t: priors.normal_prior(t),
    "n_alpha": lambda t: n_alpha(NORMAL, N01, t, 0.05, n_max=1),
    "empirical_spiky_check": lambda t: empirical_spiky_check(NORMAL, N01, SETUP, [t]),
}


@pytest.mark.parametrize("tau", [v for vs in TAU_ROWS.values() for v in vs], ids=repr)
def test_the_tau_rule_refuses_a_scale_whose_cube_leaves_double_range(tau):
    try:
        cube = tau**3
    except OverflowError:
        cube = math.inf
    assert (0.0 < cube < math.inf) is (tau in TAU_ROWS["accepted"])
    if tau in TAU_ROWS["accepted"]:
        priors._check_tau(tau)
        return
    if tau in TAU_ROWS["refused by the cube"]:
        message = f"tau**3 must be a positive finite double, got tau={tau}"
    else:
        message = f"tau must be positive and finite, got {tau}"
    with pytest.raises(priors.PriorError, match=f"^{re.escape(message)}$"):
        priors._check_tau(tau)


@pytest.mark.parametrize("tau", TAU_ROWS["refused by the cube"], ids=repr)
@pytest.mark.parametrize("route", sorted(TAU_ROUTES))
def test_a_tau_out_of_double_range_is_the_same_prior_error_on_every_route(route, tau):
    # not an OverflowError from tau**3, nor g2 = +-inf after a divide-by-zero warning
    message = f"tau**3 must be a positive finite double, got tau={tau}"
    with pytest.raises(priors.PriorError, match=f"^{re.escape(message)}$"):
        TAU_ROUTES[route](tau)


@pytest.mark.parametrize("tau", [TAU_MAX, 1e100, 0.3, 1e-100, TAU_MIN], ids=repr)
def test_a_scaled_prior_divides_by_the_same_powers_of_tau(tau):
    scaled = priors.scale_prior(N01, tau)
    th = tau * np.array([-3.0, -0.5, 0.25, 2.0, 40.0])
    x = th / tau
    assert scaled.g(th).tobytes() == (N01.g(x) / tau).tobytes()
    assert scaled.g1(th).tobytes() == (N01.g1(x) / tau**2).tobytes()
    if tau >= 1e-100:  # near TAU_MIN, the normal's g2 / tau**3 overflows
        assert scaled.g2(th).tobytes() == (N01.g2(x) / tau**3).tobytes()
