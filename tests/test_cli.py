"""Command-line interface: schemas, round-trips, determinism, exit codes."""

import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from bfdr import cli, models, priors
from bfdr.numkernel import IntegralValue, QuadratureNonConvergence

from test_layout import perfbench_model_specs


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _validates(argv):
    """Whether ``cli._validate`` finds no violation in ``argv``."""
    return cli._validate(cli._build_parser().parse_args(argv))[1] == []


def _accepts(check, *args):
    """Whether ``check(*args)`` returns rather than raising ``ModelError``."""
    try:
        check(*args)
    except models.ModelError:
        return False
    return True


_NORMAL_MEAN = ["--model", "normal-mean", "--prior", "normal:1"]
_SIM = ["sim", *_NORMAL_MEAN, "--alpha", "0.05", "--n", "10", "--seed", "1"]

#: Every rule the CLI applies to a value: an invocation that breaks no other
#: rule and takes the value's repr in place of ``{}``, the library's rule, and
#: values on both sides of it.
CLI_RULES = {
    "alpha": (["rates", *_NORMAL_MEAN, "--alpha={}", "--n", "10"], models._check_alpha,
              [0.0, -0.0, 5e-324, 1e-17, 2.0**-54, math.nextafter(2.0**-54, 1.0), 0.5,
               math.nextafter(1.0, 0.0), 1.0, math.nan, math.inf]),
    "n": (["rates", *_NORMAL_MEAN, "--alpha", "0.05", "--n={}"],
          functools.partial(models._check_count, "n"), [1, 10, 0, -1]),
    "theta0": (["rates", *_NORMAL_MEAN, "--alpha", "0.05", "--n", "10", "--theta0={}"],
               functools.partial(models._check_theta0, models.normal_mean_model()),
               [0.5, -1e308, math.nan, math.inf, -math.inf]),
    "median theta0": (["rates", "--model", "normal-median", "--prior", "normal:1", "--alpha",
                       "0.05", "--n", "10", "--theta0={}"],
                      functools.partial(models._check_theta0, models.normal_location_model()),
                      [0.0, -0.0, 5e-324, 0.5, math.nan]),
    "tau": (["nalpha", *_NORMAL_MEAN, "--alpha", "0.05", "--tau-grid={}"], priors._check_tau,
            [1.0, 1e-300, 0.0, -2.0, math.inf, math.nan]),
    "m": ([*_SIM, "--m={}"], functools.partial(models._check_count, "m"), [1, 0, -3]),
    "replications": ([*_SIM, "--m", "100", "--replications={}"],
                     functools.partial(models._check_count, "replications"), [1, 2, 0, -1]),
    "workers": ([*_SIM, "--m", "100", "--workers={}"],
                functools.partial(models._check_count, "workers"), [1, 2, 0, -1]),
    "n-max": (["nalpha", *_NORMAL_MEAN, "--alpha", "0.05", "--tau-grid", "1", "--n-max={}"],
              functools.partial(models._check_count, "n-max"), [1, 0, -1]),
}


def _cli_refuses_as_the_library(rule, value):
    """Whether the CLI refuses ``value`` under ``rule`` exactly when the library
    rule does, and then in the library's words."""
    argv, check, _ = CLI_RULES[rule]
    violations = cli._validate(cli._build_parser().parse_args(
        [a.format(repr(value)) for a in argv]))[1]
    try:
        check(value)
    except (models.ModelError, priors.PriorError) as exc:
        return len(violations) == 1 and violations[0].endswith(str(exc))
    return violations == []


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return header, [dict(zip(header, row)) for row in body]


class TestCoeffs:
    def test_normal_normal_row(self, capsys):
        code, out, err = run_cli(
            ["coeffs", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["c1"]) == pytest.approx(0.016670169437766601, abs=1e-9)
        assert float(rows[0]["d1"]) == pytest.approx(1.3290734831629425, abs=1e-8)

    def test_median_requires_n(self, capsys):
        code, out, err = run_cli(
            ["coeffs", "--model", "normal-median", "--prior", "normal:1", "--alpha", "0.05"],
            capsys,
        )
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "config"
        assert any("parity" in v for v in record["violations"])


class TestRatesAndSweep:
    def test_sweep_reproduces_expansion_accuracy(self, capsys):
        code, out, err = run_cli(
            [
                "sweep", "--rates",
                "--model", "normal-mean", "--prior", "normal:1",
                "--alpha-grid", "0.05:0.15:0.05", "--n", "10", "--method", "both",
            ],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 3
        assert {"alpha", "n", "fdr_exact", "far_exact", "fdr_series3", "far_series3",
                "fdr_gap", "far_gap"} <= set(header)
        assert all(float(r["fdr_gap"]) <= 0.01 for r in rows)

    def test_sweep_requires_rates_flag_and_grid(self, capsys):
        code, out, err = run_cli(
            ["sweep", "--model", "normal-mean", "--prior", "normal:1",
             "--alpha", "0.05", "--n", "10"],
            capsys,
        )
        assert code == 2
        record = json.loads(err)
        assert len(record["violations"]) == 2

    def test_json_carries_identical_values(self, capsys):
        args = ["rates", "--model", "exp-rate", "--prior", "gamma-mode1:2",
                "--alpha", "0.05", "--n", "10", "--method", "both"]
        code1, out_csv, _ = run_cli(args, capsys)
        code2, out_json, _ = run_cli(args + ["--format", "json"], capsys)
        assert code1 == code2 == 0
        header, rows = parse_csv(out_csv)
        jrows = json.loads(out_json)
        assert len(jrows) == len(rows)
        for crow, jrow in zip(rows, jrows):
            for key in header:
                assert float(crow[key]) == jrow[key]

    def test_round_trip_all_cells_numeric(self, capsys):
        code, out, _ = run_cli(
            ["rates", "--model", "cauchy-median", "--prior", "cauchy:1",
             "--alpha", "0.05", "--n-grid", "5,10", "--method", "series"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert len(rows) == 2
        for row in rows:
            for key in header:
                float(row[key])  # parses

    def test_theta0_override(self, capsys):
        # H0: theta >= 2 for the rate family; the alternative mass follows
        code, out, _ = run_cli(
            ["coeffs", "--model", "exp-rate", "--prior", "gamma-mode1:2",
             "--alpha", "0.05", "--theta0", "2.0"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        lam = float(rows[0]["lambda_alt"])
        assert lam == pytest.approx(1.0 - 3.0 * math.exp(-2.0), rel=1e-9)

    @pytest.mark.parametrize("method", ["exact", "series", "both"])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_rates_header(self, method, order, capsys):
        code, out, _ = run_cli(
            ["rates", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
             "--n", "10", "--method", method, "--order", str(order)],
            capsys,
        )
        assert code == 0
        series = [f"fdr_series{order}", f"far_series{order}"]
        exact = ["fdr_exact", "far_exact", "fdr_exact_err"]
        expected = {"exact": exact, "series": series,
                    "both": series + exact + ["fdr_gap", "far_gap"]}[method]
        assert parse_csv(out)[0] == ["alpha", "n"] + expected


class TestSim:
    def test_deterministic_across_runs_and_workers(self, tmp_path, capsys):
        base = ["sim", "--model", "normal-mean", "--prior", "normal:1",
                "--alpha", "0.05", "--n", "10", "--m", "5000",
                "--seed", "42", "--replications", "3"]
        outs = []
        for extra in ([], [], ["--workers", "3"]):
            path = tmp_path / f"sim{len(outs)}.csv"
            code, _, _ = run_cli(base + ["--out", str(path)] + extra, capsys)
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]

    def test_schema(self, capsys):
        code, out, _ = run_cli(
            ["sim", "--model", "normal-mean", "--prior", "normal:1",
             "--alpha", "0.05", "--n", "10", "--m", "2000", "--seed", "7",
             "--replications", "2"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["m", "replication", "V", "S", "R", "fdr_hat", "delta_hat", "se"]
        assert len(rows) == 2
        assert int(rows[0]["V"]) + int(rows[0]["S"]) == int(rows[0]["R"])

    def test_seed_is_mandatory(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sim", "--model", "normal-mean", "--prior", "normal:1",
                      "--alpha", "0.05", "--n", "10", "--m", "100"])
        assert exc.value.code == 2


class TestOtherCommands:
    def test_nalpha_table(self, capsys):
        code, out, _ = run_cli(
            ["nalpha", "--model", "normal-mean", "--prior", "normal:1",
             "--alpha", "0.05", "--tau-grid", "0.5,1,2"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["tau", "n_alpha"]
        values = [int(r["n_alpha"]) for r in rows]
        assert values[0] >= values[1] >= values[2]

    def test_spiky_table(self, capsys):
        code, out, _ = run_cli(
            ["spiky", "--model", "normal-mean", "--prior", "normal:1",
             "--alpha", "0.05", "--n", "10", "--tau-grid", "0.001,1000"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert abs(float(rows[0]["fdr"]) - 0.5) <= 0.05
        assert float(rows[1]["fdr"]) <= 0.01

    def test_compare_table(self, capsys):
        code, out, _ = run_cli(
            ["compare", "--prior", "normal:1", "--alpha", "0.05"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert float(rows[0]["c1_gap"]) == pytest.approx(0.004222789590031064, abs=1e-9)

    def test_compare_takes_no_theta0(self, capsys):
        # the gaps are taken at theta0 = 0 and no model is named, so a
        # --theta0 there would be ignored: argparse refuses it instead
        with pytest.raises(SystemExit) as exc:
            cli.main(["compare", "--prior", "normal:1", "--alpha", "0.05", "--theta0", "5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --theta0 5" in err

    def test_geometric_tau_grid(self, capsys):
        code, out, _ = run_cli(
            ["spiky", "--model", "normal-mean", "--prior", "normal:1",
             "--alpha", "0.05", "--n", "5", "--tau-grid", "0.5:2:3"],
            capsys,
        )
        assert code == 0
        header, rows = parse_csv(out)
        taus = [float(r["tau"]) for r in rows]
        assert taus == pytest.approx([0.5, 1.0, 2.0], rel=1e-12)


class TestModelAndPriorSpecs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--model", "exp-rate", "--prior", "gamma-mode1:2", "--alpha", "0.05"],
            ["rates", "--model", "exp-rate", "--prior", "f-mode1:2:2", "--alpha-grid",
             "0.05:0.1:0.05", "--n", "10"],
            ["sim", "--model", "cauchy-median", "--prior", "cauchy:1", "--alpha", "0.05",
             "--n", "5", "--m", "200", "--seed", "3"],
            ["spiky", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
             "--n", "10", "--tau-grid", "0.5,2"],
            ["compare", "--prior", "t:4:1", "--alpha", "0.05"],
        ],
        ids=["coeffs", "rates", "sim", "spiky", "compare"],
    )
    def test_prior_is_parsed_once_per_run(self, capsys, monkeypatch, argv):
        parse, specs = priors.parse_prior_spec, []

        def counted(spec):
            specs.append(spec)
            return parse(spec)

        monkeypatch.setattr(priors, "parse_prior_spec", counted)
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert out
        assert specs == [argv[argv.index("--prior") + 1]]

    @pytest.mark.parametrize("spec", sorted(cli._MODELS))
    def test_each_model_spec_builds_its_table_entry(self, spec):
        factory, theta0 = cli._MODELS[spec]
        model, statistic, got_theta0 = cli._build_model(spec)
        assert model.name == factory().name
        assert (statistic, got_theta0) == (model.statistic, theta0)
        assert (factory.__name__, statistic, theta0) == perfbench_model_specs()[spec]
        # the median rule follows the built model's statistic
        argv = ["coeffs", "--model", spec, "--prior", "normal:1", "--alpha", "0.05",
                "--theta0", "1"]
        median_rules = ["the median test uses the location convention theta0 = 0",
                        "coeffs with a median statistic needs --n (sets parity)"]
        assert cli._validate(cli._build_parser().parse_args(argv))[1] == (
            median_rules if statistic == "median" else [])


class TestValidationAndErrors:
    def test_all_violations_listed(self, capsys):
        code, out, err = run_cli(
            ["coeffs", "--model", "normal-mean", "--prior", "bogus:1",
             "--alpha", "2.0"],
            capsys,
        )
        assert code == 2
        record = json.loads(err)
        assert record["error"] == "config"
        assert len(record["violations"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["nalpha", "--model", "cauchy-median", "--prior", "cauchy:1", "--alpha", "0.05",
             "--tau-grid", "1"],
            ["rates", "--model", "normal-median", "--prior", "normal:1", "--alpha", "0.05",
             "--n", "11", "--method", "series"],
        ],
        ids=["nalpha", "rates-series"],
    )
    def test_median_rejects_nonzero_theta0(self, argv, capsys):
        code, out, err = run_cli(argv + ["--theta0", "0.5"], capsys)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["violations"] == ["the median test uses the location convention theta0 = 0"]
        # the location convention itself stays accepted
        assert run_cli(argv + ["--theta0", "0"], capsys)[0] == 0

    def test_a_prior_whose_quantile_leaves_double_range_is_a_config_error(self, capsys):
        code, out, err = run_cli(
            ["sim", "--model", "exp-rate", "--prior", "f-mode1:2:0.03", "--alpha", "0.05",
             "--n", "10", "--m", "200", "--seed", "3"], capsys)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "config"
        [violation] = record["violations"]
        assert violation.startswith("prior: ") and "ppf(1 - 1e-13) = " in violation

    @pytest.mark.parametrize("spec", ["f-mode1:2:0.03", "cauchy:1e300"])
    def test_a_refused_prior_is_named_by_the_spec_as_typed(self, spec, capsys):
        code, _, err = run_cli(
            ["sim", "--model", "exp-rate", "--prior", spec, "--alpha", "0.05",
             "--n", "10", "--m", "200", "--seed", "3"], capsys)
        assert code == 2
        [violation] = json.loads(err)["violations"]
        assert violation.startswith(f"prior: prior {spec!r}: ppf(")

    def test_oversized_alpha_grid_is_a_config_error(self, capsys):
        # 29,001 points: refused before the list is built
        code, out, err = run_cli(
            ["compare", "--prior", "normal:1", "--alpha-grid", "0.01:0.3:1e-5"], capsys
        )
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "config"
        assert record["violations"] == [
            "alpha-grid: alpha grid '0.01:0.3:1e-5' has more than 10000 points"]

    def test_oversized_tau_grid_is_a_config_error(self):
        def violations(tau_grid):
            args = cli._build_parser().parse_args(
                ["nalpha", "--model", "normal-mean", "--prior", "normal:1",
                 "--alpha", "0.05", "--tau-grid", tau_grid])
            return cli._validate(args)[1]

        assert violations("0.2:5:10001") == [
            "tau-grid: tau grid '0.2:5:10001' has more than 10000 points"]
        assert violations("0.2:5:10000") == []

    def test_out_of_range_values_give_a_short_record(self, capsys):
        # 9,951 alphas, 9,901 of them at or above 1: a count and five values
        code, out, err = run_cli(
            ["compare", "--prior", "normal:1", "--alpha-grid", "0.5:100:0.01"], capsys
        )
        assert code == 2
        assert out == ""
        assert len(err.encode()) < 1024
        assert json.loads(err)["violations"] == [
            "9901 alpha values refused, first: [1.0, 1.01, 1.02, 1.03, 1.04]: "
            "alpha must lie in (0, 1), got 1.0"]

    def test_bad_sizes_and_taus_are_counted(self):
        def violations(argv):
            return cli._validate(cli._build_parser().parse_args(argv))[1]

        common = ["--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05"]
        assert violations(["rates", *common, "--n-grid", "3,0,-1,-2,-3,-4,-5"]) == [
            "6 sample sizes refused, first: [0, -1, -2, -3, -4]: "
            "n must be a positive integer, got 0"]
        assert violations(["nalpha", *common, "--tau-grid=1,-2,0"]) == [
            "2 tau values refused, first: [-2.0, 0.0]: tau must be positive and finite, got -2.0"]
        assert violations(["spiky", *common, "--n", "10", "--tau-grid=inf,1,-inf"]) == [
            "2 tau values refused, first: [inf, -inf]: tau must be positive and finite, got inf"]

    def test_sim_counts_are_checked_in_order(self):
        argv = ["sim", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
                "--n", "10", "--m", "0", "--seed", "1", "--replications", "0", "--workers", "0"]
        assert cli._validate(cli._build_parser().parse_args(argv))[1] == [
            "m must be a positive integer, got 0",
            "replications must be a positive integer, got 0",
            "workers must be a positive integer, got 0",
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--model", "normal-mean", "--prior", "normal:inf", "--alpha", "0.05",
             "--n", "10"],
            ["rates", "--model", "normal-mean", "--prior", "cauchy:inf", "--alpha", "0.05",
             "--n", "10"],
            ["rates", "--model", "normal-mean", "--prior", "t:1:inf", "--alpha", "0.05",
             "--n", "10"],
            ["coeffs", "--model", "exp-rate", "--prior", "f-mode1:inf:2", "--alpha", "0.05"],
            ["spiky", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
             "--n", "10", "--tau-grid", "inf"],
            ["nalpha", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
             "--tau-grid", "0.5:inf:3"],
            ["coeffs", "--model", "normal-mean", "--prior", "normal:1", "--alpha-grid="],
            ["rates", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
             "--n-grid="],
        ],
        ids=["normal-inf", "cauchy-inf", "t-tau-inf", "f-r-inf", "spiky-tau-inf",
             "nalpha-tau-inf", "empty-alpha-grid", "empty-n-grid"],
    )
    def test_infinite_or_empty_inputs_are_config_errors(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "config" and len(record["violations"]) == 1

    @pytest.mark.parametrize("theta0", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sim", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
             "--n", "10", "--m", "1000", "--seed", "1"],
            ["rates", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
             "--n", "10"],
        ],
        ids=["sim", "rates"],
    )
    def test_non_finite_theta0_is_a_config_error(self, argv, theta0, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(argv + [f"--theta0={theta0}"], capsys)
        assert caught == []
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": "config", "violations": [f"theta0 must be finite, got {float(theta0)}"]}

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--model", "normal-mean", "--prior", "normal:1", "--n", "10",
             "--method", "exact"],
            ["sim", "--model", "normal-mean", "--prior", "normal:1", "--n", "10",
             "--m", "1000", "--seed", "1"],
            ["coeffs", "--model", "normal-mean", "--prior", "normal:1"],
        ],
        ids=["rates", "sim", "coeffs"],
    )
    @pytest.mark.parametrize("alpha", ["1e-17", repr(2.0**-54)])
    def test_alpha_where_one_minus_alpha_rounds_to_one(self, argv, alpha, capsys):
        code, out, err = run_cli(argv + ["--alpha", alpha], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {"error": "config", "violations": [
            f"1 alpha values refused, first: [{float(alpha)!r}]: alpha must exceed 2**-54; "
            f"at or below it 1 - alpha rounds to 1, got {float(alpha)!r}"]}

    @pytest.mark.parametrize(
        "argv",
        [
            ["rates", "--model", "exp-rate", "--prior", "normal:1", "--alpha", "0.05", "--n", "10"],
            ["sim", "--model", "exp-rate", "--prior", "normal:1", "--alpha", "0.05", "--n", "10",
             "--m", "1000", "--seed", "1"],
            ["coeffs", "--model", "exp-rate", "--prior", "t:3:1", "--alpha", "0.05"],
        ],
        ids=["rates", "sim", "coeffs"],
    )
    def test_prior_with_mass_outside_the_model_is_a_config_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        [violation] = json.loads(err)["violations"]
        assert violation.startswith("prior support (-inf, inf) reaches outside the parameter "
                                    "interval (0.0, inf) of model 'exp-rate'")

    def test_sim_refuses_theta0_outside_the_prior_as_rates_does(self, capsys):
        # the gamma prior lives on (0, inf), so the null theta >= -1 would hold all its mass
        flags = ["--model", "exp-rate", "--prior", "gamma-mode1:2", "--theta0", "-1",
                 "--alpha", "0.05", "--n", "10"]
        sim = run_cli(["sim", *flags, "--m", "1000", "--seed", "1"], capsys)
        rates = run_cli(["rates", *flags], capsys)
        violation = {"error": "config",
                     "violations": ["theta0=-1.0 outside the open support (0.0, inf)"]}
        assert (sim[0], sim[1], json.loads(sim[2])) == (2, "", violation)
        assert (rates[0], rates[1], json.loads(rates[2])) == (2, "", violation)

    @pytest.mark.parametrize("command", [["sim", "--m", "1000", "--seed", "1"], ["rates"]],
                             ids=["sim", "rates"])
    def test_theta0_on_the_support_edge_writes_no_runtime_warning(self, command):
        # exp-rate's mu and sigma divide by theta0 = 0; the refusal comes first
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = [*command, "--model", "exp-rate", "--prior", "gamma-mode1:2", "--theta0", "0",
                "--alpha", "0.05", "--n", "10"]
        proc = subprocess.run([sys.executable, "-m", "bfdr.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert json.loads(proc.stderr)["violations"] == [
            "theta0=0.0 outside the open support (0.0, inf)"]

    @pytest.mark.parametrize("alpha", CLI_RULES["alpha"][2], ids=repr)
    def test_the_cli_alpha_rule_is_the_models(self, alpha):
        assert _cli_refuses_as_the_library("alpha", alpha)

    @pytest.mark.parametrize("theta0", CLI_RULES["median theta0"][2], ids=repr)
    def test_the_cli_median_theta0_rule_is_check_problems(self, theta0):
        assert _cli_refuses_as_the_library("median theta0", theta0)
        argv = CLI_RULES["median theta0"][0]
        assert _validates([a.format(repr(theta0)) for a in argv]) is _accepts(
            models.check_problem, models.normal_location_model(), priors.normal_prior(1.0),
            theta0, 0.05)

    @pytest.mark.parametrize("rule, value", [
        pytest.param(rule, value, id=f"{rule}={value!r}")
        for rule, (_, _, values) in CLI_RULES.items() if rule not in ("alpha", "median theta0")
        for value in values])
    def test_every_cli_value_rule_is_the_librarys(self, rule, value):
        # the alpha and median-theta0 rows run in the two tests above
        assert _cli_refuses_as_the_library(rule, value)

    def test_alpha_grid_limit_is_10000_points(self):
        assert len(cli._parse_alpha_grid("0.0001:1:0.0001")) == 10000
        with pytest.raises(ValueError):
            cli._parse_alpha_grid("0.0001:1.0001:0.0001")

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["coeffs", "--model", "normal-mean", "--prior", "normal:1",
                      "--alpha", "0.05", "--frobnicate"])
        assert exc.value.code == 2

    def test_help_enumerates_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in ("coeffs", "rates", "sweep", "sim", "nalpha", "spiky", "compare"):
            assert command in out

    def test_numerical_failure_exit_code(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise QuadratureNonConvergence(IntegralValue(0.1, 0.05))

        monkeypatch.setattr(cli.exact, "exact_joint", explode)
        code, out, err = run_cli(
            ["rates", "--model", "normal-mean", "--prior", "normal:1",
             "--alpha", "0.05", "--n", "10", "--method", "exact"],
            capsys,
        )
        assert code == 3
        record = json.loads(err)
        assert record["error"] == "numerical"
        assert record["best_estimate"] == 0.1

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BFDR_OUT_DIR", str(tmp_path))
        code, _, _ = run_cli(
            ["compare", "--prior", "normal:1", "--alpha", "0.05",
             "--out", "gaps.csv"],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "gaps.csv").exists()

    def test_unwritable_out_is_a_config_error(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code, out, err = run_cli(
            ["coeffs", "--model", "normal-mean", "--prior", "normal:1",
             "--alpha", "0.05", "--out", str(target)],
            capsys,
        )
        assert code == 2
        assert out == ""
        record = json.loads(err)
        assert record["error"] == "config"
        assert len(record["violations"]) == 1 and str(target) in record["violations"][0]
        assert not target.exists()
