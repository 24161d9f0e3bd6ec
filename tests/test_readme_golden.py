"""Byte-for-byte golden output of the six CLI examples in README.md.

Each file under ``tests/data/readme_<name>.csv`` is the output of

    bfdr coeffs --model normal-mean --prior normal:1 --alpha 0.05
    bfdr sweep --rates --model normal-mean --prior normal:1 \\
         --alpha-grid 0.01:0.30:0.01 --n 10 --method both
    bfdr sim --model normal-mean --prior normal:1 --alpha 0.05 --n 10 \\
         --m 20000 --seed 42 --replications 50 --workers 4
    bfdr nalpha --model cauchy-median --prior cauchy:1 --alpha 0.05 --tau-grid 0.2:5:25
    bfdr spiky --model normal-mean --prior normal:1 --alpha 0.05 --n 10 --tau-grid 0.001,1,1000
    bfdr compare --prior normal:1 --alpha-grid 0.01:0.30:0.01

with ``--out tests/data/readme_<name>.csv`` appended. Regenerate them all
with ``PYTHONPATH=src python tests/test_readme_golden.py`` -- only when a
change of numbers is intended, since these files pin the CLI's behaviour.
The exact rates in the ``spiky`` rows and in every fifth ``sweep`` row are
checked against mpmath, so a regeneration that moves them is checked too.
"""

import csv
import math
import os
import sys

import pytest

from bfdr import cli

from test_exact import _mp_normal_mean, _mp_scaled_normal_pdf

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

README_COMMANDS = {
    "coeffs": ["coeffs", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05"],
    "sweep": ["sweep", "--rates", "--model", "normal-mean", "--prior", "normal:1",
              "--alpha-grid", "0.01:0.30:0.01", "--n", "10", "--method", "both"],
    "sim": ["sim", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
            "--n", "10", "--m", "20000", "--seed", "42", "--replications", "50",
            "--workers", "4"],
    "nalpha": ["nalpha", "--model", "cauchy-median", "--prior", "cauchy:1", "--alpha", "0.05",
               "--tau-grid", "0.2:5:25"],
    "spiky": ["spiky", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
              "--n", "10", "--tau-grid", "0.001,1,1000"],
    "compare": ["compare", "--prior", "normal:1", "--alpha-grid", "0.01:0.30:0.01"],
}


def _golden_path(name):
    return os.path.join(DATA, f"readme_{name}.csv")


@pytest.mark.parametrize("name", sorted(README_COMMANDS))
def test_readme_example_output_is_unchanged(name, tmp_path, monkeypatch):
    monkeypatch.delenv("BFDR_OUT_DIR", raising=False)
    out = tmp_path / f"{name}.csv"
    assert cli.main(README_COMMANDS[name] + ["--out", str(out)]) == 0
    with open(_golden_path(name), "rb") as fh:
        expected = fh.read()
    assert out.read_bytes() == expected


def _mp_rates(tau, alpha, n):
    """(fdr, far) of normal-mean under normal:1 scaled by tau, by mpmath."""
    A, At = _mp_normal_mean(_mp_scaled_normal_pdf(tau), alpha, n, scale=tau)
    B = A + 0.5 - At  # the alternative theta > 0 has prior mass 1/2
    return float(A / B), float(At / (1 - B))


def _rows(name):
    with open(_golden_path(name), newline="") as fh:
        return list(csv.DictReader(fh))


def test_spiky_rates_are_mpmath_to_ten_digits():
    # the `spiky` command: alpha 0.05, n 10
    bad = []
    for row in _rows("spiky"):
        fdr, far = _mp_rates(float(row["tau"]), 0.05, 10)
        if (row["fdr"], row["far"]) != (f"{fdr:.10g}", f"{far:.10g}"):
            bad.append((row, fdr, far))
    assert not bad


def test_sweep_exact_fdr_lies_within_its_bound_of_mpmath():
    bad = []
    for row in _rows("sweep")[::5]:
        fdr, _ = _mp_rates(1.0, float(row["alpha"]), int(row["n"]))
        # the bound, plus half a unit in the 10th printed digit
        slack = float(row["fdr_exact_err"]) + 0.5 * 10.0 ** (math.floor(math.log10(fdr)) - 9)
        if not abs(float(row["fdr_exact"]) - fdr) <= slack:
            bad.append((row, fdr))
    assert not bad


if __name__ == "__main__":
    os.environ.pop("BFDR_OUT_DIR", None)
    os.makedirs(DATA, exist_ok=True)
    for name, argv in README_COMMANDS.items():
        code = cli.main(argv + ["--out", _golden_path(name)])
        if code != 0:
            sys.exit(code)
