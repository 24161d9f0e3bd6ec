"""The fixed inputs of the three workloads, shared by the runner and the reference.

Nothing here imports bfdr, numpy or mpmath: these are plain descriptions of
what is run, so the reference generator and the runner agree on every key.
"""

# (model spec, prior spec) as the CLI spells them: all seven built-in pairs.
PAIRS = (
    ("normal-mean", "normal:1"),
    ("normal-mean", "t:4:1"),
    ("normal-mean", "cauchy:1"),
    ("exp-rate", "gamma-mode1:2"),
    ("exp-rate", "f-mode1:2:2"),
    ("normal-median", "normal:1"),
    ("cauchy-median", "cauchy:1"),
)

# The CLI's 0.01:0.30:0.01 alpha grid, built the way the CLI builds it so the
# floats (0.060000000000000005, ...) match the `sweep` rows bit for bit, plus
# three tiny levels.
SWEEP_ALPHAS = tuple(0.01 + i * 0.01 for i in range(30))
ALPHAS = SWEEP_ALPHAS + (1e-6, 1e-4, 1e-3)
NS = (4, 10, 11, 20)

# The one rate-grid point whose reported A_tilde error bound is smaller than
# its true error (numkernel._riemann_avg stops on a chance agreement).
KNOWN_FAULT = ("normal-mean", "normal:1", 1e-6, 10)

# Simulator cases: (model, prior, alpha, n). All run at m = SIM_M with
# SIM_REPLICATIONS replications; the first also runs at workers=2 and is the
# configuration of the convergence sweep.
SIM_CASES = (
    ("normal-mean", "normal:1", 0.05, 10),
    ("cauchy-median", "cauchy:1", 0.05, 11),
    ("exp-rate", "f-mode1:2:2", 0.05, 10),
)
SIM_M = 200_000
SIM_REPLICATIONS = 2
SWEEP_M_GRID = (25_000, 50_000, 100_000, 200_000)

# The ROADMAP's CLI commands. `{seed}` is filled from the benchmark seed.
CLI_COMMANDS = (
    ("coeffs", ["coeffs", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05"]),
    ("sweep", ["sweep", "--rates", "--model", "normal-mean", "--prior", "normal:1",
               "--alpha-grid", "0.01:0.30:0.01", "--n", "10", "--method", "both"]),
    ("sim", ["sim", "--model", "normal-mean", "--prior", "normal:1", "--alpha", "0.05",
             "--n", "10", "--m", "200000", "--seed", "{seed}"]),
    ("nalpha", ["nalpha", "--model", "cauchy-median", "--prior", "cauchy:1",
                "--alpha", "0.05", "--tau-grid", "0.2:5:25"]),
)
CLI_COEFFS_ALPHA = 0.05
CLI_SWEEP_N = 10
NALPHA_CASE = ("cauchy-median", "cauchy:1", 0.05)
NALPHA_N_MAX = 100


def nalpha_taus():
    """The CLI's geometric 0.2:5:25 tau grid, computed as the CLI computes it."""
    start, stop, count = 0.2, 5.0, 25
    ratio = (stop / start) ** (1.0 / (count - 1))
    return [start * ratio**i for i in range(count)]


def point_key(model, prior, alpha, n):
    """Reference-table key of one rate-grid point."""
    return f"{model}|{prior}|{alpha!r}|{n}"


def grid_points():
    """All 924 rate-grid points as (model, prior, alpha, n), in a fixed order."""
    return [(m, p, a, n) for m, p in PAIRS for n in NS for a in ALPHAS]
