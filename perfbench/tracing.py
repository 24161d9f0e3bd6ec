"""Span tracing of bfdr's layers from outside the program.

A traced round rebinds the public module functions the workloads reach
(``exact_joint``, ``integrate``, ``ump_critical_value``, ``uniform_block``,
``simulate``, the ``expansions`` entry points and ``n_alpha``) and runs on
models and priors whose callables (``g``, ``cdf``, ``ppf``,
``mean_statistic_cdf``, the samplers) are wrapped through
``dataclasses.replace``. Every call then records a span: name, operation id,
parent span, start, end, and a size (array elements, quadrature panels or
uniforms). Spans stay in memory until the run writes them out.

Only the thread that owns the tracer records spans, so the per-layer split
is taken at workers=1; calls from pool threads pass straight through.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import threading
from time import perf_counter

import numpy as np

# Span record fields.
NAME, OP, PARENT, START, END, SIZE, AUX = range(7)


class Tracer:
    """Spans of one thread, kept in memory; ``active`` switches recording."""

    def __init__(self):
        self.spans = []
        self.active = False
        self.op = -1
        self._stack = []
        self._owner = threading.get_ident()

    def wrap(self, name, fn, size=None, aux=None):
        """``fn`` recording a span per call while the tracer is active.

        ``size(result)`` and ``aux(args)`` give the span's two measures.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active or threading.get_ident() != self._owner:
                return fn(*args, **kwargs)
            rec = [name, self.op, stack[-1] if stack else -1, perf_counter(), 0.0, 0,
                   aux(args) if aux else 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                partial = getattr(exc, "result", None)
                if size is not None and partial is not None:
                    rec[SIZE] = size(partial)
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if size is not None:
                rec[SIZE] = size(result)
            return result

        return traced

    def write(self, path):
        """Write every span as gzip'd CSV, one line per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,name,op,parent,start,end,size,aux\n")
            for i, s in enumerate(self.spans):
                fh.write(f"{i},{s[NAME]},{s[OP]},{s[PARENT]},{s[START]:.9f},{s[END]:.9f},"
                         f"{s[SIZE]},{s[AUX]}\n")


def _elements(result):
    return int(np.size(result))


def traced_prior(tracer, prior):
    """A copy of ``prior`` whose density, CDF and quantile record spans."""
    changes = {"g": tracer.wrap("priors.g", prior.g, _elements)}
    if prior.cdf is not None:
        changes["cdf"] = tracer.wrap("priors.cdf", prior.cdf, _elements)
    if prior.ppf is not None:
        changes["ppf"] = tracer.wrap("priors.ppf", prior.ppf, _elements)
    return dataclasses.replace(prior, **changes)


def traced_model(tracer, model):
    """A copy of ``model`` whose power CDF and sampler record spans.

    Exponential families expose ``mean_statistic_cdf`` and
    ``sample_from_uniform``; location models compute power through ``cdf``
    and sample through ``ppf``.
    """
    from bfdr.models import ExpFamilyModel

    if isinstance(model, ExpFamilyModel):
        return dataclasses.replace(
            model,
            mean_statistic_cdf=tracer.wrap("models.power_cdf", model.mean_statistic_cdf, _elements),
            sample_from_uniform=tracer.wrap("models.sampler", model.sample_from_uniform, _elements),
        )
    return dataclasses.replace(
        model,
        cdf=tracer.wrap("models.power_cdf", model.cdf, _elements),
        ppf=tracer.wrap("models.sampler", model.ppf, _elements),
    )


@contextlib.contextmanager
def rebound(tracer):
    """Rebind bfdr's public module functions to traced versions, then restore.

    Each name is rebound where its callers look it up: modules that import a
    function by name hold their own binding.
    """
    from bfdr import analysis, cli, exact, expansions, models, mtsim, numkernel, priors

    saved = []

    def rebind(module, attr, name, size=None, aux=None):
        orig = getattr(module, attr)
        saved.append((module, attr, orig))
        setattr(module, attr, tracer.wrap(name, orig, size, aux))

    for mod in (exact, analysis):
        rebind(mod, "exact_joint", "exact.exact_joint")
    rebind(numkernel, "integrate", "numkernel.integrate", lambda r: r.panels)
    for mod in (models, exact, mtsim):
        rebind(mod, "ump_critical_value", "models.ump_critical_value")
    rebind(mtsim, "uniform_block", "mtsim.uniform_block", _elements,
           lambda args: args[3] - args[2])
    rebind(mtsim, "simulate", "mtsim.simulate")
    for mod in (expansions, analysis):
        rebind(mod, "exp_family_coefficients", "expansions.coefficients")
        rebind(mod, "median_coefficients", "expansions.coefficients")
        rebind(mod, "rate_series", "expansions.rate_series")
    rebind(analysis, "n_alpha", "analysis.n_alpha", lambda r: r or 0)

    # The CLI builds its own models and priors from spec strings.
    build_model, parse_prior = cli._build_model, priors.parse_prior_spec
    saved += [(cli, "_build_model", build_model), (priors, "parse_prior_spec", parse_prior)]

    def traced_build_model(spec):
        model, statistic, theta0 = build_model(spec)
        return traced_model(tracer, model), statistic, theta0

    cli._build_model = traced_build_model
    priors.parse_prior_spec = lambda spec: traced_prior(tracer, parse_prior(spec))
    try:
        yield
    finally:
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)


LAYER_METRICS = (
    ("exact.calls", "count"),
    ("exact.self_s", "s"),
    ("exact.cut_evals", "count"),
    ("numkernel.integrate_calls", "count"),
    ("numkernel.integrate_s", "s"),
    ("numkernel.panels", "count"),
    ("numkernel.points", "count"),
    ("models.critical_value_s", "s"),
    ("models.power_points", "count"),
    ("priors.cdf_calls", "count"),
    ("priors.cdf_s", "s"),
    ("priors.ppf_points", "count"),
    ("priors.ppf_s", "s"),
    ("expansions.calls", "count"),
    ("expansions.coefficients_s", "s"),
    ("expansions.series_s", "s"),
    ("mtsim.uniforms", "count"),
    ("mtsim.rng_s", "s"),
    ("mtsim.sampler_s", "s"),
    ("mtsim.tally_s", "s"),
    ("mtsim.chunks", "count"),
    ("mtsim.experiments", "count"),
    ("analysis.n_alpha_s", "s"),
    ("analysis.exact_calls", "count"),
    ("cli.main_s", "s"),
)


def layer_metrics(spans):
    """Per-layer totals over ``spans`` (see LAYER_METRICS for the names).

    Self time is a span's duration less the durations of its direct
    children; spans of one thread never overlap, so that is the time no
    child covers.
    """
    n = len(spans)
    in_exact = [False] * n
    in_integrate = [False] * n
    in_ump = [False] * n
    in_nalpha = [False] * n
    child_s = [0.0] * n
    exact_child_s = [0.0] * n  # integrate and critical-value children only
    m = {k: (0.0 if unit == "s" else 0) for k, unit in LAYER_METRICS}

    for i, s in enumerate(spans):
        name, parent, dur, size = s[NAME], s[PARENT], s[END] - s[START], s[SIZE]
        if parent >= 0:
            in_exact[i] = in_exact[parent]
            in_integrate[i] = in_integrate[parent]
            in_ump[i] = in_ump[parent]
            in_nalpha[i] = in_nalpha[parent]
            child_s[parent] += dur
            if name in ("numkernel.integrate", "models.ump_critical_value"):
                exact_child_s[parent] += dur
        if name == "exact.exact_joint":
            m["exact.calls"] += 1
            if in_nalpha[i]:
                m["analysis.exact_calls"] += 1
            in_exact[i] = True
        elif name == "numkernel.integrate":
            if not in_integrate[i]:
                m["numkernel.integrate_calls"] += 1
                m["numkernel.integrate_s"] += dur
                m["numkernel.panels"] += size
            in_integrate[i] = True
        elif name == "models.ump_critical_value":
            if not in_ump[i]:
                m["models.critical_value_s"] += dur
            in_ump[i] = True
        elif name == "models.power_cdf":
            if in_exact[i] and not in_ump[i]:
                m["models.power_points"] += size
        elif name == "models.sampler":
            m["mtsim.sampler_s"] += dur
        elif name == "priors.g":
            if in_integrate[i]:
                m["numkernel.points"] += size
        elif name == "priors.cdf":
            m["priors.cdf_calls"] += 1
            m["priors.cdf_s"] += dur
            if in_exact[i] and not in_integrate[i]:
                m["exact.cut_evals"] += 1
        elif name == "priors.ppf":
            m["priors.ppf_points"] += size
            m["priors.ppf_s"] += dur
        elif name == "expansions.coefficients":
            m["expansions.calls"] += 1
            m["expansions.coefficients_s"] += dur
        elif name == "expansions.rate_series":
            m["expansions.calls"] += 1
            m["expansions.series_s"] += dur
        elif name == "mtsim.uniform_block":
            m["mtsim.uniforms"] += size
            m["mtsim.rng_s"] += dur
            m["mtsim.chunks"] += 1
            m["mtsim.experiments"] += s[AUX]
        elif name == "analysis.n_alpha":
            m["analysis.n_alpha_s"] += dur
            in_nalpha[i] = True
        elif name == "cli.main":
            m["cli.main_s"] += dur

    # Children always follow their parent, so the sums are complete here.
    for i, s in enumerate(spans):
        if s[NAME] == "exact.exact_joint":
            m["exact.self_s"] += s[END] - s[START] - exact_child_s[i]
        elif s[NAME] == "mtsim.simulate":
            m["mtsim.tally_s"] += s[END] - s[START] - child_s[i]
    return m
