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
configuration error, 3 numerical non-convergence. An exit-2 record lists
every violation. Each value meets the library's own rule (alpha, sample
sizes, theta0, tau, m, replications, workers, n-max), and a grid's refused
values are one violation: their count, the first five and the reason for the
first. Flag rules, an unwritable ``--out`` and a start:stop grid of over
10,000 points are the CLI's.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import List, Optional, Sequence

from . import analysis, exact, expansions, models, mtsim, priors
from .models import TestSetup
from .numkernel import QuadratureNonConvergence

#: Model spec -> (factory in ``models``, default theta0).
_MODELS = {
    "normal-mean": (models.normal_mean_model, 0.0),
    "exp-rate": (models.exponential_rate_model, 1.0),
    "normal-median": (models.normal_location_model, 0.0),
    "cauchy-median": (models.cauchy_location_model, 0.0),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
#: Most points a start:stop ``--alpha-grid`` or ``--tau-grid`` may have.
_MAX_GRID_POINTS = 10_000


def _build_model(spec: str):
    """Returns (model, its statistic, default theta0) for a model spec string."""
    factory, theta0 = _MODELS[spec]
    model = factory()
    return model, model.statistic, theta0


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


def _emit(rows: List[dict], args: argparse.Namespace) -> None:
    """Write ``rows`` as a table whose header is the first row's keys."""
    header = list(rows[0])
    if args.fmt == "json":
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
    if args.out:
        path = args.out
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
    priors._check_tau(start)
    if stop <= start or count < 2:
        raise ValueError(f"bad tau grid {spec!r}")
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"tau grid {spec!r} has more than {_MAX_GRID_POINTS} points")
    ratio = (stop / start) ** (1.0 / (count - 1))
    return [start * ratio**i for i in range(count)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfdr",
        description="Bayesian false-discovery/false-acceptance rates of one-sided tests",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_model=True):
        if need_model:
            p.add_argument("--model", required=True, choices=list(_MODELS))
        p.add_argument("--prior", required=True, help="prior spec, e.g. normal:1")
        p.add_argument("--out", help="output path (stdout when omitted)")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
        if need_model:
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


def _refusal(check, *args) -> List[str]:
    """Why the library rule ``check`` refuses ``args``: [] when it accepts."""
    try:
        check(*args)
    except (models.ModelError, priors.PriorError) as exc:
        return [str(exc)]
    return []


def _check_all(violations: List[str], values: list, check, what: str) -> None:
    """Report the values ``check`` refuses as one violation: their count, the
    first five, and the reason for the first."""
    refused = [(v, why) for v in values for why in _refusal(check, v)]
    if refused:
        first = [v for v, _ in refused[:5]]
        violations.append(f"{len(refused)} {what} refused, first: {first}: {refused[0][1]}")


def _validate(args: argparse.Namespace) -> tuple:
    """Put the built ``model``, the parsed ``prior``, ``alphas``, ``ns``, ``taus`` on ``args``.

    Returns ``(args, violations)``, every violation rather than the first.
    """
    violations: List[str] = []
    get = vars(args).get
    try:
        args.prior = priors.parse_prior_spec(args.prior)
    except Exception as exc:
        violations.append(f"prior: {exc}")

    args.alphas = [args.alpha] if get("alpha") is not None else []
    args.ns = [args.n] if get("n") is not None else []
    args.taus = []
    for flag, parse, dest, check, what in (
        ("alpha_grid", _parse_alpha_grid, "alphas", models._check_alpha, "alpha values"),
        ("n_grid", lambda spec: [int(p) for p in spec.split(",")], "ns",
         functools.partial(models._check_count, "n"), "sample sizes"),
        ("tau_grid", _parse_tau_grid, "taus", priors._check_tau, "tau values"),
    ):
        try:
            if get(flag) is not None:
                setattr(args, dest, parse(get(flag)))
        except Exception as exc:
            violations.append(f"{flag.replace('_', '-')}: {exc}")
        _check_all(violations, getattr(args, dest), check, what)

    if get("model") is not None:
        args.model = _build_model(args.model)
        if args.theta0 is not None:
            violations += _refusal(models._check_theta0, args.model[0], args.theta0)
        if (args.command == "coeffs" and isinstance(args.model[0], models.LocationModel)
                and not args.ns):
            violations.append("coeffs with a median statistic needs --n (sets parity)")

    if args.command == "sweep":
        if not args.rates:
            violations.append("sweep requires --rates (the only implemented sweep table)")
        if args.alpha_grid is None and args.n_grid is None:
            violations.append("sweep requires --alpha-grid or --n-grid")

    for name in ("m", "replications", "workers", "n_max"):
        if get(name) is not None:
            violations += _refusal(models._check_count, name.replace("_", "-"), get(name))
    return args, violations


def _coefficients_for(model, theta0, prior, alpha, n):
    if isinstance(model, models.ExpFamilyModel):
        return expansions.exp_family_coefficients(model, prior, theta0, alpha)
    return expansions.median_coefficients(model, prior, alpha, n)


def run(args: argparse.Namespace) -> int:
    """Execute a validated invocation; returns the process exit code."""
    prior = args.prior
    if vars(args).get("model"):
        model, statistic, theta0 = args.model
        theta0 = theta0 if args.theta0 is None else args.theta0
    alpha = args.alphas[0] if args.alphas else None
    n = args.ns[0] if args.ns else None
    rows = []
    if args.command == "coeffs":
        for alpha in args.alphas:
            cs = _coefficients_for(model, theta0, prior, alpha, n or 1)
            row = {"alpha": alpha, "statistic": cs.statistic, "parity": cs.parity or "",
                   "lambda_alt": cs.lambda_alt}
            if n is not None:
                row["n"] = n
            for name in ("a1", "a2", "a3", "at1", "at2", "at3", "b1", "b2", "b3",
                         "c1", "c2", "c3", "d1", "d2", "d3"):
                row[name] = getattr(cs, name)
            rows.append(row)

    elif args.command in ("rates", "sweep"):
        want_exact = args.method in ("exact", "both")
        want_series = args.method in ("series", "both")
        series = f"series{args.order}"
        for n in args.ns:
            for alpha in args.alphas:
                row = {"alpha": alpha, "n": n}
                if want_series:
                    cs = _coefficients_for(model, theta0, prior, alpha, n)
                    pair = expansions.rate_series(cs, n, args.order)
                    row[f"fdr_{series}"] = pair.fdr.value
                    row[f"far_{series}"] = pair.far.value
                if want_exact:
                    setup = TestSetup(statistic, theta0, alpha, n)
                    rates = exact.exact_rates(exact.exact_joint(model, prior, setup))
                    row["fdr_exact"] = rates.fdr.value
                    row["far_exact"] = rates.far.value
                    row["fdr_exact_err"] = rates.fdr.error_estimate
                if want_exact and want_series:
                    row["fdr_gap"] = abs(row["fdr_exact"] - row[f"fdr_{series}"])
                    row["far_gap"] = abs(row["far_exact"] - row[f"far_{series}"])
                rows.append(row)

    elif args.command == "sim":
        res = mtsim.simulate(mtsim.SimConfig(
            model=model, prior=prior, setup=TestSetup(statistic, theta0, alpha, n), m=args.m,
            seed=args.seed, replications=args.replications, workers=args.workers,
        ))
        per_se = res.per_replication_se()
        for r in range(res.replications):
            rows.append({"m": res.m, "replication": r, "V": int(res.V[r]), "S": int(res.S[r]),
                         "R": int(res.R[r]), "fdr_hat": float(res.fdr[r]),
                         "delta_hat": res.delta_hat, "se": float(per_se[r])})

    elif args.command == "nalpha":
        for tau in args.taus:
            found = analysis.n_alpha(model, prior, tau, alpha, method=args.method,
                                     n_max=args.n_max, theta0=theta0)
            rows.append({"tau": tau, "n_alpha": found if found is not None else ""})

    elif args.command == "spiky":
        setup = TestSetup(statistic, theta0, alpha, n)
        for row in analysis.empirical_spiky_check(model, prior, setup, args.taus):
            rows.append({"tau": row.tau, "fdr": row.fdr, "far": row.far})

    elif args.command == "compare":
        g0 = float(prior.g(0.0))
        for alpha in args.alphas:
            gap = analysis.statistic_gap(g0, alpha)
            rows.append({"alpha": alpha, "g0": g0,
                         "c1_gap": gap.c1_gap, "c2_gap_lower": gap.c2_gap_lower})

    else:
        raise ValueError(f"unhandled command {args.command!r}")
    _emit(rows, args)
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    args, violations = _validate(_build_parser().parse_args(argv))
    if violations:
        sys.stderr.write(json.dumps({"error": "config", "violations": violations}) + "\n")
        return EXIT_CONFIG
    try:
        return run(args)
    except QuadratureNonConvergence as exc:
        sys.stderr.write(json.dumps({
            "error": "numerical",
            "detail": str(exc),
            "best_estimate": exc.result.value,
            "error_bound": exc.result.error_bound,
        }) + "\n")
        return EXIT_NUMERICAL
    except (ValueError, exact.DegenerateDenominator) as exc:
        sys.stderr.write(json.dumps({"error": "config", "violations": [str(exc)]}) + "\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
