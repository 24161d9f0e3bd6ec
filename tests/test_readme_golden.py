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
"""

import os
import sys

import pytest

from bfdr import cli

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


if __name__ == "__main__":
    os.environ.pop("BFDR_OUT_DIR", None)
    os.makedirs(DATA, exist_ok=True)
    for name, argv in README_COMMANDS.items():
        code = cli.main(argv + ["--out", _golden_path(name)])
        if code != 0:
            sys.exit(code)
