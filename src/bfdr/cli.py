"""Command-line front end emitting CSV or JSON tables.

Commands
--------
coeffs   series coefficients for a (model, prior, alpha) configuration
rates    exact and/or third-order-series rates on alpha/n values
sweep    grid variant of ``rates`` (requires --rates and a grid)
sim      multiple-testing simulation (per-replication tallies)
nalpha   honesty thresholds n_alpha over a tau grid
spiky    exact rates under scaled priors g_tau over a tau grid
compare  mean-vs-median first/second order coefficient gaps

Model specs: ``normal-mean``, ``exp-rate``, ``normal-median``,
``cauchy-median``. Prior specs: ``normal:TAU``, ``t:M:TAU``, ``cauchy:TAU``,
``gamma-mode1:R``, ``f-mode1:R:S``.

All numbers are serialized with 10 significant digits; JSON rows carry the
same values. Randomness requires an explicit ``--seed``. Output goes to
stdout unless ``--out`` is given; a relative ``--out`` is resolved against
``$BFDR_OUT_DIR`` when that variable is set. Exit codes: 0 success, 2
configuration error (all violations listed; an unwritable ``--out`` or a
start:stop grid of over 10,000 points is one), 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from . import analysis, exact, expansions, models, mtsim, priors
from .models import TestSetup
from .numkernel import QuadratureNonConvergence

_MODEL_SPECS = ("normal-mean", "exp-rate", "normal-median", "cauchy-median")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
#: Most points a start:stop ``--alpha-grid`` or ``--tau-grid`` may have.
_MAX_GRID_POINTS = 10_000


def _build_model(spec: str):
    """Returns (model, statistic, default theta0) for a model spec string."""
    if spec == "normal-mean":
        return models.normal_mean_model(), "mean_ump", 0.0
    if spec == "exp-rate":
        return models.exponential_rate_model(), "mean_ump", 1.0
    if spec == "normal-median":
        return models.normal_location_model(), "median", 0.0
    if spec == "cauchy-median":
        return models.cauchy_location_model(), "median", 0.0
    raise ValueError(f"unknown model spec {spec!r}; known: {_MODEL_SPECS}")


@dataclass
class RunConfig:
    """A validated command invocation."""

    command: str
    model_spec: Optional[str] = None
    prior_spec: Optional[str] = None
    alphas: List[float] = field(default_factory=list)
    ns: List[int] = field(default_factory=list)
    method: str = "both"
    order: int = 3
    theta0: Optional[float] = None
    m: int = 0
    seed: Optional[int] = None
    replications: int = 1
    workers: int = 1
    tau_grid: List[float] = field(default_factory=list)
    n_max: int = 100
    out: Optional[str] = None
    fmt: str = "csv"


def _fmt_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, (int, str)):
        return str(x)
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.10g}"


def _round10(x):
    """JSON value of a cell: floats carry the CSV cell's 10 digits."""
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return float(_fmt_cell(x))


def _emit(rows: List[dict], header: List[str], config: RunConfig) -> None:
    if config.fmt == "json":
        payload = [
            {k: _round10(row.get(k)) for k in header} for row in rows
        ]
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(row.get(k)) for k in header])
        text = buf.getvalue()
    if config.out:
        path = config.out
        if not os.path.isabs(path) and os.environ.get("BFDR_OUT_DIR"):
            path = os.path.join(os.environ["BFDR_OUT_DIR"], path)
        try:
            with open(path, "w", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out: {exc}") from exc
    else:
        sys.stdout.write(text)


def _parse_alpha_grid(spec: str) -> List[float]:
    """start:stop:step arithmetic grid, endpoints inclusive within rounding."""
    start_s, stop_s, step_s = spec.split(":")
    start, stop, step = float(start_s), float(stop_s), float(step_s)
    if step <= 0 or stop < start:
        raise ValueError(f"bad alpha grid {spec!r}")
    count = int(round((stop - start) / step))
    if count + (start + count * step <= stop + 1e-12) > _MAX_GRID_POINTS:
        raise ValueError(f"alpha grid {spec!r} has more than {_MAX_GRID_POINTS} points")
    return [start + i * step for i in range(count + 1) if start + i * step <= stop + 1e-12]


def _parse_tau_grid(spec: str) -> List[float]:
    """Comma-separated values, or start:stop:count geometric spacing."""
    if "," in spec or ":" not in spec:
        return [float(p) for p in spec.split(",")]
    start_s, stop_s, count_s = spec.split(":")
    start, stop, count = float(start_s), float(stop_s), int(count_s)
    if start <= 0 or stop <= start or count < 2:
        raise ValueError(f"bad tau grid {spec!r}")
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"tau grid {spec!r} has more than {_MAX_GRID_POINTS} points")
    ratio = (stop / start) ** (1.0 / (count - 1))
    return [start * ratio**i for i in range(count)]


def _parse_n_grid(spec: str) -> List[int]:
    return [int(p) for p in spec.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfdr",
        description="Bayesian false-discovery/false-acceptance rates of one-sided tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_model=True):
        if need_model:
            p.add_argument("--model", required=True, choices=_MODEL_SPECS)
        p.add_argument("--prior", required=True, help="prior spec, e.g. normal:1")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        p.add_argument("--theta0", type=float, help="boundary point (model default when omitted)")

    def add_alpha(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--alpha", type=float)
        grp.add_argument("--alpha-grid", help="start:stop:step")

    p = sub.add_parser("coeffs", help="series coefficients")
    add_common(p)
    add_alpha(p)
    p.add_argument("--n", type=int, help="sample size (median statistic: sets parity)")

    for name in ("rates", "sweep"):
        p = sub.add_parser(name, help="exact/series rates")
        add_common(p)
        add_alpha(p)
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--n", type=int)
        grp.add_argument("--n-grid", help="comma-separated sample sizes")
        p.add_argument("--method", choices=("exact", "series", "both"), default="both")
        p.add_argument("--order", type=int, choices=(1, 2, 3), default=3)
        if name == "sweep":
            p.add_argument("--rates", action="store_true", help="emit the rate sweep table")

    p = sub.add_parser("sim", help="multiple-testing simulation")
    add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--replications", type=int, default=1)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("nalpha", help="honesty thresholds over tau")
    add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--tau-grid", required=True, help="comma list or start:stop:count (geometric)")
    p.add_argument("--method", choices=("exact", "series3"), default="exact")
    p.add_argument("--n-max", type=int, default=100)

    p = sub.add_parser("spiky", help="rates under scaled priors")
    add_common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tau-grid", required=True, help="comma list or start:stop:count (geometric)")

    p = sub.add_parser("compare", help="mean-vs-median coefficient gaps")
    add_common(p, need_model=False)
    add_alpha(p)

    return parser


def _validate(args: argparse.Namespace) -> tuple:
    """Build a RunConfig, collecting every violation rather than the first."""
    violations: List[str] = []
    cfg = RunConfig(command=args.command, fmt=getattr(args, "fmt", "csv"),
                    out=getattr(args, "out", None))

    if getattr(args, "model", None) is not None:
        cfg.model_spec = args.model

    if getattr(args, "prior", None) is not None:
        cfg.prior_spec = args.prior
        try:
            priors.parse_prior_spec(args.prior)
        except Exception as exc:
            violations.append(f"prior: {exc}")

    alphas: List[float] = []
    if getattr(args, "alpha", None) is not None:
        alphas = [args.alpha]
    elif getattr(args, "alpha_grid", None):
        try:
            alphas = _parse_alpha_grid(args.alpha_grid)
        except Exception as exc:
            violations.append(f"alpha-grid: {exc}")
    cfg.alphas = alphas
    if getattr(args, "alpha", None) is not None or getattr(args, "alpha_grid", None):
        bad = [a for a in alphas if not (0.0 < a < 1.0)]
        if bad:
            violations.append(f"alpha values outside (0, 1): {bad}")
        if not alphas and not any(v.startswith("alpha-grid") for v in violations):
            violations.append("alpha grid is empty")

    ns: List[int] = []
    if getattr(args, "n", None) is not None:
        ns = [args.n]
    elif getattr(args, "n_grid", None):
        try:
            ns = _parse_n_grid(args.n_grid)
        except Exception as exc:
            violations.append(f"n-grid: {exc}")
    cfg.ns = ns
    if ns and any(n < 1 for n in ns):
        violations.append(f"sample sizes must be >= 1: {ns}")

    cfg.theta0 = getattr(args, "theta0", None)
    if cfg.model_spec in ("normal-median", "cauchy-median") and cfg.theta0 not in (None, 0.0):
        violations.append("the median test uses the location convention theta0 = 0")
    cfg.method = getattr(args, "method", "both")
    cfg.order = getattr(args, "order", 3)

    if args.command == "coeffs" and cfg.model_spec in ("normal-median", "cauchy-median"):
        if not ns:
            violations.append("coeffs with a median statistic needs --n (sets parity)")

    if args.command == "sweep":
        if not getattr(args, "rates", False):
            violations.append("sweep requires --rates (the only implemented sweep table)")
        if getattr(args, "alpha_grid", None) is None and getattr(args, "n_grid", None) is None:
            violations.append("sweep requires --alpha-grid or --n-grid")

    if args.command == "sim":
        cfg.m = args.m
        cfg.seed = args.seed
        cfg.replications = args.replications
        cfg.workers = args.workers
        if cfg.m < 1:
            violations.append(f"m must be >= 1, got {cfg.m}")
        if cfg.replications < 1:
            violations.append(f"replications must be >= 1, got {cfg.replications}")
        if cfg.workers < 1:
            violations.append(f"workers must be >= 1, got {cfg.workers}")

    if args.command in ("nalpha", "spiky"):
        try:
            cfg.tau_grid = _parse_tau_grid(args.tau_grid)
            if not cfg.tau_grid:
                violations.append("tau grid is empty")
            if any(t <= 0 for t in cfg.tau_grid):
                violations.append(f"tau values must be positive: {cfg.tau_grid}")
        except Exception as exc:
            violations.append(f"tau-grid: {exc}")
        cfg.n_max = getattr(args, "n_max", 100)
        if cfg.n_max < 1:
            violations.append(f"n-max must be >= 1, got {cfg.n_max}")

    return cfg, violations


def _resolve(cfg: RunConfig):
    model, statistic, default_theta0 = _build_model(cfg.model_spec)
    prior = priors.parse_prior_spec(cfg.prior_spec)
    theta0 = default_theta0 if cfg.theta0 is None else cfg.theta0
    return model, statistic, theta0, prior


def _coeff_row(alpha: float, n: Optional[int], cs: expansions.CoefficientSet) -> dict:
    row = {"alpha": alpha, "statistic": cs.statistic, "parity": cs.parity or "",
           "lambda_alt": cs.lambda_alt}
    if n is not None:
        row["n"] = n
    for name in ("a1", "a2", "a3", "at1", "at2", "at3", "b1", "b2", "b3",
                 "c1", "c2", "c3", "d1", "d2", "d3"):
        row[name] = getattr(cs, name)
    return row


def _coefficients_for(model, statistic, theta0, prior, alpha, n):
    if statistic == "mean_ump":
        return expansions.exp_family_coefficients(model, prior, theta0, alpha)
    return expansions.median_coefficients(model, prior, alpha, n)


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    if cfg.command == "coeffs":
        model, statistic, theta0, prior = _resolve(cfg)
        n = cfg.ns[0] if cfg.ns else None
        rows = []
        for alpha in cfg.alphas:
            cs = _coefficients_for(model, statistic, theta0, prior, alpha, n or 1)
            rows.append(_coeff_row(alpha, n, cs))
        header = list(rows[0].keys())
        _emit(rows, header, cfg)
        return EXIT_OK

    if cfg.command in ("rates", "sweep"):
        model, statistic, theta0, prior = _resolve(cfg)
        rows = []
        want_exact = cfg.method in ("exact", "both")
        want_series = cfg.method in ("series", "both")
        for n in cfg.ns:
            for alpha in cfg.alphas:
                row = {"alpha": alpha, "n": n}
                if want_series:
                    cs = _coefficients_for(model, statistic, theta0, prior, alpha, n)
                    pair = expansions.rate_series(cs, n, cfg.order)
                    row[f"fdr_series{cfg.order}"] = pair.fdr.value
                    row[f"far_series{cfg.order}"] = pair.far.value
                if want_exact:
                    setup = TestSetup(statistic, theta0, alpha, n)
                    rates = exact.exact_rates(exact.exact_joint(model, prior, setup))
                    row["fdr_exact"] = rates.fdr.value
                    row["far_exact"] = rates.far.value
                    row["fdr_exact_err"] = rates.fdr.error_estimate
                if want_exact and want_series:
                    row["fdr_gap"] = abs(row["fdr_exact"] - row[f"fdr_series{cfg.order}"])
                    row["far_gap"] = abs(row["far_exact"] - row[f"far_series{cfg.order}"])
                rows.append(row)
        header = list(rows[0].keys())
        _emit(rows, header, cfg)
        return EXIT_OK

    if cfg.command == "sim":
        model, statistic, theta0, prior = _resolve(cfg)
        setup = TestSetup(statistic, theta0, cfg.alphas[0], cfg.ns[0])
        sim_cfg = mtsim.SimConfig(
            model=model, prior=prior, setup=setup, m=cfg.m, seed=cfg.seed,
            replications=cfg.replications, workers=cfg.workers,
        )
        res = mtsim.simulate(sim_cfg)
        per_se = res.per_replication_se()
        rows = []
        for r in range(res.replications):
            rows.append({
                "m": res.m,
                "replication": r,
                "V": int(res.V[r]),
                "S": int(res.S[r]),
                "R": int(res.R[r]),
                "fdr_hat": float(res.fdr[r]),
                "delta_hat": res.delta_hat,
                "se": float(per_se[r]),
            })
        header = ["m", "replication", "V", "S", "R", "fdr_hat", "delta_hat", "se"]
        _emit(rows, header, cfg)
        return EXIT_OK

    if cfg.command == "nalpha":
        model, statistic, theta0, prior = _resolve(cfg)
        rows = []
        for tau in cfg.tau_grid:
            found = analysis.n_alpha(
                model, prior, tau, cfg.alphas[0],
                method=cfg.method, n_max=cfg.n_max, theta0=theta0,
            )
            rows.append({"tau": tau, "n_alpha": found if found is not None else ""})
        _emit(rows, ["tau", "n_alpha"], cfg)
        return EXIT_OK

    if cfg.command == "spiky":
        model, statistic, theta0, prior = _resolve(cfg)
        setup = TestSetup(statistic, theta0, cfg.alphas[0], cfg.ns[0])
        rows = [
            {"tau": row.tau, "fdr": row.fdr, "far": row.far}
            for row in analysis.empirical_spiky_check(model, prior, setup, cfg.tau_grid)
        ]
        _emit(rows, ["tau", "fdr", "far"], cfg)
        return EXIT_OK

    if cfg.command == "compare":
        prior = priors.parse_prior_spec(cfg.prior_spec)
        g0 = float(prior.g(0.0))
        rows = []
        for alpha in cfg.alphas:
            gap = analysis.statistic_gap(g0, alpha)
            rows.append({
                "alpha": alpha, "g0": g0,
                "c1_gap": gap.c1_gap, "c2_gap_lower": gap.c2_gap_lower,
            })
        _emit(rows, ["alpha", "g0", "c1_gap", "c2_gap_lower"], cfg)
        return EXIT_OK

    raise ValueError(f"unhandled command {cfg.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg, violations = _validate(args)
    if violations:
        sys.stderr.write(json.dumps({"error": "config", "violations": violations}) + "\n")
        return EXIT_CONFIG
    try:
        return run(cfg)
    except QuadratureNonConvergence as exc:
        sys.stderr.write(json.dumps({
            "error": "numerical",
            "detail": str(exc),
            "best_estimate": exc.result.value,
            "error_bound": exc.result.error_bound,
        }) + "\n")
        return EXIT_NUMERICAL
    except (priors.PriorError, models.ModelError, exact.DegenerateDenominator,
            analysis.AnalysisError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": "config", "violations": [str(exc)]}) + "\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
