"""bfdr benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload rate-grid --seed 1 --seconds 20 --trace 0

Workloads (see README.md): ``rate-grid`` (in-process exact and series rates
on 924 grid points), ``sim-tally`` (in-process simulator) and
``cli-session`` (fresh ``python -m bfdr.cli`` processes, one at a time). A
run repeats whole rounds of the workload's operations until ``--seconds``
have passed, checks every output against perfbench/reference.json and
closed forms, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are per-layer figures per round from
traced rounds, and the run also prints the tracing overhead. An operation
fails when it raises or its output fails a check; ``correct`` is false when
any operation other than the documented known fault gives a wrong output.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import inputs  # noqa: E402

SETUP_REPEATS = 3
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120
# The reference machine has 2 CPUs: numeric libraries stay single-threaded
# so the workers=2 simulation is the only parallelism.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
TRACE_DIR = ".bench_traces"

# CLI model spec -> (factory name in bfdr.models, statistic, theta0).
MODEL_SPECS = {
    "normal-mean": ("normal_mean_model", "mean_ump", 0.0),
    "exp-rate": ("exponential_rate_model", "mean_ump", 1.0),
    "normal-median": ("normal_location_model", "median", 0.0),
    "cauchy-median": ("cauchy_location_model", "median", 0.0),
}


def child_env(root):
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def build_model(spec):
    """(model, statistic, theta0) for a CLI model spec."""
    from bfdr import models

    factory, statistic, theta0 = MODEL_SPECS[spec]
    return getattr(models, factory)(), statistic, theta0


@dataclasses.dataclass
class Op:
    """One timed operation: ``fn`` is timed, ``check(output)`` lists problems."""

    label: str
    fn: object
    check: object
    traced: bool = True
    known_fault: bool = False


def within_digits(printed, ref, digits=10):
    """Whether ``printed`` is ``ref`` rounded to ``digits`` significant digits."""
    if ref == 0.0:
        return printed == 0.0
    half_unit = 0.5 * 10.0 ** (math.floor(math.log10(abs(ref))) - digits + 1)
    return abs(printed - ref) <= 1.01 * half_unit


# ---------------------------------------------------------------------------
# rate-grid
# ---------------------------------------------------------------------------


class RateGrid:
    """exact_rates(exact_joint(...)) plus the order-3 series on 924 points."""

    name = "rate-grid"

    def __init__(self, seed, ref=None, root=None):
        self.points = inputs.grid_points()
        random.Random(seed).shuffle(self.points)
        self.ref = ref

    def build(self):
        from bfdr import priors

        self.models = {m: build_model(m) for m, _ in inputs.PAIRS}
        self.priors = {p: priors.parse_prior_spec(p) for _, p in inputs.PAIRS}

    def ops(self, tracer=None):
        from tracing import traced_model, traced_prior

        models, priors = self.models, self.priors
        if tracer is not None:
            models = {k: (traced_model(tracer, m), s, t) for k, (m, s, t) in models.items()}
            priors = {k: traced_prior(tracer, p) for k, p in priors.items()}
        return [self._op(models[m], priors[p], m, p, a, n) for m, p, a, n in self.points]

    def _op(self, model_entry, prior, mspec, pspec, alpha, n):
        from bfdr import exact, expansions
        from bfdr.models import TestSetup

        model, statistic, theta0 = model_entry

        def fn():
            joint = exact.exact_joint(model, prior, TestSetup(statistic, theta0, alpha, n))
            rates = exact.exact_rates(joint)
            if statistic == "mean_ump":
                coeffs = expansions.exp_family_coefficients(model, prior, theta0, alpha)
            else:
                coeffs = expansions.median_coefficients(model, prior, alpha, n)
            return joint, rates, coeffs, expansions.rate_series(coeffs, n, 3)

        key = inputs.point_key(mspec, pspec, alpha, n)
        return Op(key, fn, lambda out: self.check(key, mspec, pspec, alpha, n, out),
                  known_fault=(mspec, pspec, alpha, n) == inputs.KNOWN_FAULT)

    def check(self, key, mspec, pspec, alpha, n, out):
        joint, rates, coeffs, series = out
        r = self.ref["points"][key]
        bad = []
        if not abs(joint.A.value - r["A"]) <= joint.A.error_bound:
            bad.append(f"|A - A_ref| = {abs(joint.A.value - r['A']):.3g} > "
                       f"bound {joint.A.error_bound:.3g}")
        if not abs(joint.A_tilde.value - r["At"]) <= joint.A_tilde.error_bound:
            bad.append(f"|At - At_ref| = {abs(joint.A_tilde.value - r['At']):.3g} > "
                       f"bound {joint.A_tilde.error_bound:.3g}")
        if not 0.0 <= joint.A.value <= r["null_mass"]:
            bad.append(f"A = {joint.A.value!r} outside [0, null mass]")
        if not 0.0 < joint.B < 1.0:
            bad.append(f"B = {joint.B!r} outside (0, 1)")
        for name, rate, exact_rate in (("fdr", rates.fdr, r["delta"]), ("far", rates.far, r["eps"])):
            if not abs(rate.value - exact_rate) <= rate.error_estimate:
                bad.append(f"|{name} - ref| = {abs(rate.value - exact_rate):.3g} > "
                           f"bound {rate.error_estimate:.3g}")
        if (mspec, pspec) == ("normal-mean", "normal:1"):
            forms = self.ref["closed_forms"][repr(alpha)]
            for name in ("c1", "d1"):
                if not abs(getattr(coeffs, name) - forms[name]) <= 1e-12 * abs(forms[name]):
                    bad.append(f"{name} = {getattr(coeffs, name)!r} != closed form {forms[name]!r}")
            limit = {4: 0.01, 20: 0.003}.get(n)
            gap = abs(series.fdr.value - rates.fdr.value)
            if limit is not None and not gap <= limit:
                bad.append(f"series-vs-exact fdr gap {gap:.3g} > {limit}")
        return bad

    def summary(self, medians):
        per_pair = {}
        for (m, p, a, n), t in zip(self.points, medians):
            per_pair.setdefault(f"{m}/{p}", []).append(t)
        lines = [("rate_points_per_s", len(medians) / sum(medians), "points/s")]
        lines += [(f"exact_plus_series_ms[{k}]", 1e3 * sum(v) / len(v), "ms")
                  for k, v in per_pair.items()]
        return lines


# ---------------------------------------------------------------------------
# sim-tally
# ---------------------------------------------------------------------------


class SimTally:
    """simulate() on three cases at workers=1, one at workers=2, and a sweep."""

    name = "sim-tally"

    def __init__(self, seed, ref=None, root=None):
        self.seed = seed
        self.ref = ref
        self._at_m = {}
        self._w1 = None

    def build(self):
        from bfdr import mtsim, priors
        from bfdr.models import TestSetup

        self.configs = []
        for mspec, pspec, alpha, n in inputs.SIM_CASES:
            model, statistic, theta0 = build_model(mspec)
            self.configs.append(mtsim.SimConfig(
                model=model, prior=priors.parse_prior_spec(pspec),
                setup=TestSetup(statistic, theta0, alpha, n), m=inputs.SIM_M,
                seed=self.seed, replications=inputs.SIM_REPLICATIONS, workers=1))

    def ops(self, tracer=None):
        from bfdr import mtsim
        from tracing import traced_model, traced_prior

        configs = self.configs
        if tracer is not None:
            configs = [dataclasses.replace(c, model=traced_model(tracer, c.model),
                                           prior=traced_prior(tracer, c.prior))
                       for c in configs]
        ops = []
        for case, cfg in zip(inputs.SIM_CASES, configs):
            ops.append(Op(f"simulate {case[0]}/{case[1]} n={case[3]}",
                          lambda cfg=cfg: mtsim.simulate(cfg),
                          lambda out, case=case: self.check_sim(case, out)))
        two = dataclasses.replace(self.configs[0], workers=2)
        ops.append(Op("simulate workers=2", lambda: mtsim.simulate(two), self.check_w2,
                      traced=False))
        ops.append(Op("convergence_sweep",
                      lambda: mtsim.convergence_sweep(configs[0], inputs.SWEEP_M_GRID),
                      self.check_sweep))
        return ops

    def check_sim(self, case, res):
        mspec, pspec, alpha, n = case
        r = self.ref["points"][inputs.point_key(mspec, pspec, alpha, n)]
        if case == inputs.SIM_CASES[0]:
            self._w1 = res
        bad = []
        if not all(0 <= v <= rr <= res.m for v, rr in zip(res.V, res.R)):
            bad.append("tallies violate 0 <= V <= R <= m")
        total_r = int(res.R.sum())
        accepts = res.m * res.replications - total_r
        se_d = math.sqrt(r["delta"] * (1.0 - r["delta"]) / max(total_r, 1))
        se_e = math.sqrt(r["eps"] * (1.0 - r["eps"]) / max(accepts, 1))
        if not abs(res.delta_hat - r["delta"]) <= 4.0 * se_d:
            bad.append(f"delta_hat {res.delta_hat:.6g} not within 4 se of {r['delta']:.6g}")
        if not abs(res.eps_hat - r["eps"]) <= 4.0 * se_e:
            bad.append(f"eps_hat {res.eps_hat:.6g} not within 4 se of {r['eps']:.6g}")
        return bad

    def check_w2(self, res):
        w1 = self._w1
        if w1 is None or not (list(res.V) == list(w1.V) and list(res.R) == list(w1.R)):
            return ["workers=2 tallies differ from workers=1"]
        return []

    def check_sweep(self, rows):
        from bfdr import mtsim

        if [row.m for row in rows] != list(inputs.SWEEP_M_GRID):
            return [f"sweep rows at m = {[row.m for row in rows]}"]
        bad = []
        for row in rows:
            if row.m not in self._at_m:
                cfg = dataclasses.replace(self.configs[0], m=row.m)
                self._at_m[row.m] = mtsim.simulate(cfg)
            res = self._at_m[row.m]
            if (row.fdr_hat, row.se_fdr) != (res.fdr_hat, res.se_fdr):
                bad.append(f"sweep row m={row.m} differs from simulate at that m")
        return bad

    def summary(self, medians):
        runs = inputs.SIM_M * inputs.SIM_REPLICATIONS
        w1 = medians[: len(inputs.SIM_CASES)]
        lines = [("sim_experiments_per_s", runs * len(w1) / sum(w1), "experiments/s"),
                 ("sim_experiments_per_s_2w", runs / medians[-2], "experiments/s"),
                 ("convergence_sweep_s", medians[-1], "s")]
        lines += [(f"sim_experiments_per_s[{c[0]}/{c[1]}]", runs / t, "experiments/s")
                  for c, t in zip(inputs.SIM_CASES, w1)]
        return lines


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

CLI_HEADERS = {
    "coeffs": ["alpha", "statistic", "parity", "lambda_alt", "a1", "a2", "a3", "at1", "at2",
               "at3", "b1", "b2", "b3", "c1", "c2", "c3", "d1", "d2", "d3"],
    "sweep": ["alpha", "n", "fdr_series3", "far_series3", "fdr_exact", "far_exact",
              "fdr_exact_err", "fdr_gap", "far_gap"],
    "sim": ["m", "replication", "V", "S", "R", "fdr_hat", "delta_hat", "se"],
    "nalpha": ["tau", "n_alpha"],
}
CLI_ROWS = {"coeffs": 1, "sweep": len(inputs.SWEEP_ALPHAS), "sim": 1,
            "nalpha": len(inputs.nalpha_taus())}


class CliSession:
    """The ROADMAP's four CLI commands, each a fresh interpreter."""

    name = "cli-session"

    def __init__(self, seed, ref=None, root=None):
        self.ref = ref
        self.root = root
        self.commands = [(name, [a.format(seed=seed) for a in argv])
                         for name, argv in inputs.CLI_COMMANDS]

    def build(self):
        import bfdr.cli  # noqa: F401  (what every CLI process pays before computing)

    def ops(self, tracer=None, in_process=False):
        """Subprocess operations; traced or ``in_process`` ones call cli.main."""
        if tracer is None and not in_process:
            return [Op(f"bfdr {name}", lambda argv=argv: self._spawn(argv),
                       lambda out, name=name: self.check(name, out))
                    for name, argv in self.commands]
        from bfdr import cli

        main = cli.main if tracer is None else tracer.wrap("cli.main", cli.main)

        def call(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            return code, buf.getvalue()

        return [Op(f"cli.main {name}", lambda argv=argv: call(argv),
                   lambda out, name=name: self.check(name, out))
                for name, argv in self.commands]

    def _spawn(self, argv):
        proc = subprocess.run([sys.executable, "-m", "bfdr.cli", *argv],
                              env=child_env(self.root), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def check(self, name, out):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        table = list(csv.reader(io.StringIO(text)))
        if not table or table[0] != CLI_HEADERS[name]:
            return [f"header {table[:1]} != {CLI_HEADERS[name]}"]
        rows = [dict(zip(table[0], row)) for row in table[1:]]
        if len(rows) != CLI_ROWS[name]:
            return [f"{len(rows)} rows, expected {CLI_ROWS[name]}"]
        return getattr(self, f"_check_{name}")(rows)

    def _check_coeffs(self, rows):
        forms = self.ref["closed_forms"][repr(inputs.CLI_COEFFS_ALPHA)]
        return [f"{k} = {rows[0][k]} != closed form {forms[k]!r} to 10 digits"
                for k in ("c1", "d1") if not within_digits(float(rows[0][k]), forms[k])]

    def _check_sweep(self, rows):
        bad = []
        for alpha, row in zip(inputs.SWEEP_ALPHAS, rows):
            ref = self.ref["points"][inputs.point_key("normal-mean", "normal:1", alpha,
                                                      inputs.CLI_SWEEP_N)]["delta"]
            fdr, err = float(row["fdr_exact"]), float(row["fdr_exact_err"])
            slack = 1e-9 * (abs(fdr) + err)  # 10-digit printing
            if not (within_digits(float(row["alpha"]), alpha)
                    and int(row["n"]) == inputs.CLI_SWEEP_N
                    and abs(fdr - ref) <= err + slack):
                bad.append(f"sweep row alpha={row['alpha']}: fdr_exact {fdr!r} +- {err!r} "
                           f"vs reference {ref!r}")
        return bad

    def _check_sim(self, rows):
        bad = []
        for row in rows:
            m, v, s, r = (int(row[k]) for k in ("m", "V", "S", "R"))
            if not (m == inputs.SIM_M and v + s == r <= m and min(v, s) >= 0):
                bad.append(f"sim row {row} violates V + S = R <= m")
        return bad

    def _check_nalpha(self, rows):
        alpha = inputs.NALPHA_CASE[2]
        bad = []
        for row, scan in zip(rows, self.ref["nalpha"]):
            deltas = scan["delta"]
            if not row["n_alpha"]:
                bad.append(f"tau={row['tau']}: no n_alpha reported")
                continue
            n = int(row["n_alpha"])
            ok = (1 <= n <= len(deltas) and deltas[n - 1] <= alpha
                  and (n == 1 or deltas[n - 2] > alpha))
            if not ok or not within_digits(float(row["tau"]), scan["tau"]):
                bad.append(f"tau={row['tau']}: n_alpha={n} disagrees with the reference scan")
        return bad

    def summary(self, medians):
        return [(f"cli_{name}_s", t, "s") for (name, _), t in zip(self.commands, medians)]


WORKLOADS = {w.name: w for w in (RateGrid, SimTally, CliSession)}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_round(ops, tracer=None):
    """Run every op once; returns [(seconds, raised, problems)] per op.

    Checks run after the timer stops and with tracing off.
    """
    out = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
            tracer.active = op.traced
        t0 = perf_counter()
        try:
            result, raised = op.fn(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, raised = None, exc
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        problems = [] if raised is not None else op.check(result)
        out.append((dt, raised, problems))
    return out


class Tally:
    """Counts of attempted and failed operations across rounds."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.wrong = 0  # failed checks outside the known fault

    def add(self, ops, results):
        for op, (_, raised, problems) in zip(ops, results):
            self.attempted += 1
            if raised is not None or problems:
                self.failed += 1
            if problems and not op.known_fault:
                self.wrong += 1
            if raised is not None:
                print(f"# FAILED {op.label}: raised {raised!r}", file=sys.stderr)

    def report(self, ops, results):
        for op, (_, raised, problems) in zip(ops, results):
            if problems:
                tag = "known fault" if op.known_fault else "WRONG"
                print(f"# {tag} {op.label}: {'; '.join(problems)}", file=sys.stderr)


def time_child(argv, env, cwd):
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    dt = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return dt, proc


def setup_seconds(workload, seed, root):
    """Median wall time of fresh interpreters that import bfdr and build the inputs."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
            f"run.WORKLOADS[{workload!r}]({seed}).build()")
    env = child_env(root)
    return statistics.median(
        time_child([sys.executable, "-c", code], env, root)[0] for _ in range(SETUP_REPEATS))


IMPORT_PACKAGES = {"numpy": "import.numpy_s", "scipy.special": "import.scipy_special_s",
                   "scipy.stats": "import.scipy_stats_s",
                   "scipy.optimize": "import.scipy_optimize_s"}


def package_of(module):
    """The listed package ``module`` belongs to, or None."""
    return next((p for p in IMPORT_PACKAGES if module == p or module.startswith(p + ".")), None)


def parse_importtime(stderr):
    """Per-package import seconds from ``python -X importtime`` output.

    A package's time is the summed cumulative time of its entries (the
    package or any of its submodules) that no entry of a listed package
    encloses, so the four figures never count one import twice; scipy loads
    subpackages lazily, so ``scipy.stats`` itself may have no line of its
    own. ``import.bfdr_s`` sums the self times of bfdr's modules.
    """
    found = dict.fromkeys(list(IMPORT_PACKAGES.values()) + ["import.bfdr_s"], 0.0)
    ancestors = []  # names of the entries enclosing the current one
    entries = []
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|") if line.startswith("import time:") else []
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].rstrip()
        entries.append(((len(name) - len(name.lstrip())) // 2, name.strip(),
                        int(fields[0]) * 1e-6, int(fields[1]) * 1e-6))
    # importtime prints children before their parent; walk it parent-first.
    for depth, name, self_s, cum_s in reversed(entries):
        del ancestors[depth:]
        pkg = package_of(name)
        if pkg and not any(package_of(a) for a in ancestors):
            found[IMPORT_PACKAGES[pkg]] += cum_s
        if name == "bfdr" or name.startswith("bfdr."):
            found["import.bfdr_s"] += self_s
        ancestors.append(name)
    return found


def import_breakdown(root):
    """Medians over fresh ``python -X importtime -c 'import bfdr.cli'`` runs."""
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        _, proc = time_child([sys.executable, "-X", "importtime", "-c", "import bfdr.cli"],
                             child_env(root), root)
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == CliSession.name else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def measure(wl, args, root):
    """End-to-end run: set-up, then whole untraced rounds for ``--seconds``."""
    wl.build()  # also compiles bytecode before the timed set-ups
    setup_s = setup_seconds(args.workload, args.seed, root)
    ops = wl.ops()
    tally = Tally()
    per_op = [[] for _ in ops]
    start = perf_counter()
    while True:
        results = run_round(ops)
        tally.add(ops, results)
        for times, (dt, _, _) in zip(per_op, results):
            times.append(dt)
        if perf_counter() - start >= args.seconds:
            break
    tally.report(ops, results)
    medians = [statistics.median(t) for t in per_op]
    round_s = sum(medians)
    print(f"# {wl.name}: {len(per_op[0])} rounds of {len(ops)} operations; "
          f"round_s = sum of per-operation medians = {round_s:.4f} s")
    for name, value, unit in wl.summary(medians):
        print(f"# {name} = {value:.6g} {unit}")
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "round_s": {"value": round_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(wl.name), "unit": "MB"},
    }
    return tally, metrics


def measure_traced(wl, args, root):
    """Per-layer run: untraced and traced rounds alternate for ``--seconds``."""
    import tracing

    wl.build()
    layer = import_breakdown(root)
    tracer = tracing.Tracer()
    if isinstance(wl, CliSession):
        plain, traced = wl.ops(in_process=True), wl.ops(tracer)
    else:
        plain, traced = wl.ops(), wl.ops(tracer)
    tally = Tally()
    plain_s = traced_s = 0.0
    rounds = 0
    start = perf_counter()
    while True:
        results = run_round(plain)
        tally.add(plain, results)
        plain_s += sum(r[0] for r in results)
        with tracing.rebound(tracer):
            results = run_round(traced, tracer)
        tally.add(traced, results)
        traced_s += sum(r[0] for r in results)
        rounds += 1
        if perf_counter() - start >= args.seconds:
            break
    tally.report(traced, results)
    overhead = (traced_s - plain_s) / rounds
    print(f"# {wl.name}: {rounds} traced and {rounds} untraced rounds; "
          f"{len(tracer.spans)} spans")
    print(f"# tracing overhead = {overhead:.4f} s per round "
          f"({100.0 * overhead / (plain_s / rounds):.1f}% of {plain_s / rounds:.4f} s untraced)")
    totals = tracing.layer_metrics(tracer.spans)
    for name, unit in tracing.LAYER_METRICS:
        per_round = totals[name] / rounds
        layer[name] = int(per_round) if unit == "count" and per_round.is_integer() else per_round
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"{wl.name}-seed{args.seed}.csv.gz")
    tracer.write(path)
    print(f"# spans written to {path}")
    units = dict(tracing.LAYER_METRICS)
    metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in layer.items()}
    return tally, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    ref_path = os.path.join(HERE, "reference.json")
    if not os.path.isfile(os.path.join(src, "bfdr", "__init__.py")):
        print(f"bfdr sources not found under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if not os.path.isfile(ref_path):
        print(f"{ref_path} missing; run python3 perfbench/reference.py", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)  # before numpy is first imported
    sys.path.insert(0, src)
    with open(ref_path) as fh:
        ref = json.load(fh)

    wl = WORKLOADS[args.workload](args.seed, ref, root)
    tally, metrics = (measure_traced if args.trace else measure)(wl, args, root)
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
