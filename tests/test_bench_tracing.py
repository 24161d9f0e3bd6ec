"""Smoke test of the benchmark's traced path (``perfbench/run.py --trace 1``).

``perfbench/tracing.py`` rebinds bfdr's module functions and wraps the
callables of models and priors by name. A change to ``src/`` that renames or
bypasses one of them leaves the traced run with empty layers, so one traced
round over every ``rate-grid`` pair and a small simulation must still fill the
exact, quadrature and simulator layers.
"""

import importlib.util
from pathlib import Path

from bfdr import cli, exact, expansions, mtsim, priors
from bfdr.models import TestSetup

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_round_fills_the_layers():
    tracing, inputs = _load("tracing"), _load("inputs")
    tracer = tracing.Tracer()
    pairs = []
    for mspec, pspec in inputs.PAIRS:
        model, statistic, theta0 = cli._build_model(mspec)
        pairs.append((tracing.traced_model(tracer, model), statistic, theta0,
                      tracing.traced_prior(tracer, priors.parse_prior_spec(pspec))))
    with tracing.rebound(tracer):
        tracer.op, tracer.active = 0, True
        for model, statistic, theta0, prior in pairs:
            exact.exact_rates(exact.exact_joint(model, prior, TestSetup(statistic, theta0, 0.05, 10)))
            if statistic == "mean_ump":
                coeffs = expansions.exp_family_coefficients(model, prior, theta0, 0.05)
            else:
                coeffs = expansions.median_coefficients(model, prior, 0.05, 10)
            expansions.rate_series(coeffs, 10, 3)
        model, statistic, theta0, prior = pairs[0]
        mtsim.simulate(mtsim.SimConfig(model=model, prior=prior, m=2000, seed=11,
                                       setup=TestSetup(statistic, theta0, 0.05, 10)))
        tracer.active = False
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["exact.calls"] == len(inputs.PAIRS)
    assert metrics["numkernel.integrate_calls"] > 0
    assert metrics["expansions.calls"] > 0
    assert metrics["mtsim.chunks"] > 0
