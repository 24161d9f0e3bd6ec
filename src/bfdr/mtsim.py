"""Monte-Carlo simulator of m simultaneous experiments.

Each experiment i of replication r draws its parameter from the prior and an
iid sample from the model, applies the level-alpha test, and contributes to
the groupwise tallies

    V = #{rejections with a true null}      R = #{rejections}
    W = #{acceptances with a true alternative}

The replication-level false discovery proportion is V/(R v 1); its mean over
replications estimates the groupwise FDR, which converges to the Bayesian
rate delta_n as m grows. The pooled ratios sum(V)/sum(R) and
sum(W)/sum(m - R) estimate delta_n and eps_n directly.

Randomness is counter-based: every uniform variate is a pure function of
(seed, replication, experiment, draw index) through the Philox-4x64-10 block
cipher (numpy's C implementation, addressed by key and counter), so
partitioning experiments across workers can never change any value and
equal seeds reproduce results bit for bit.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .models import ModelError, ResolvedTest, TestSetup, resolve_test
# Bound here because perfbench/tracing.py rebinds ``mtsim.ump_critical_value``.
from .models import ump_critical_value  # noqa: F401
from .priors import Prior

# Experiments are processed in fixed-size chunks; the chunk size is a stream
# constant, not a tuning knob, so worker counts cannot influence results.
_CHUNK = 8192


def uniform_block(
    seed: int, replication: int, start: int, stop: int, cols: int
) -> np.ndarray:
    """Uniforms in (0, 1) for experiments [start, stop), ``cols`` per row.

    Philox-4x64-10 is keyed by (seed mod 2**64, replication) and its counter
    runs row-major over (experiment, block of four columns). Entry (i, j)
    depends only on (seed, replication, start + i, j, cols); for a fixed
    ``cols`` (the simulator always asks for 1 + n) callers may therefore
    split the experiment range arbitrarily. Each call builds its own
    generator, so worker threads never share one.
    """
    rows = stop - start
    nblk = (cols + 3) // 4
    key = (seed & 0xFFFFFFFFFFFFFFFF) | (replication << 64)
    # numpy advances the counter before each block, so start one behind.
    bitgen = np.random.Philox(counter=(start * nblk - 1) % 2**256, key=key)
    x = bitgen.random_raw(rows * nblk * 4)
    u = ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return u.reshape(rows, 4 * nblk)[:, :cols]


@dataclass(frozen=True)
class SimConfig:
    """A multiple-testing simulation: m experiments per replication."""

    model: object
    prior: Prior
    setup: TestSetup
    m: int
    seed: int
    replications: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ModelError(f"m must be >= 1, got {self.m}")
        if self.replications < 1:
            raise ModelError(f"replications must be >= 1, got {self.replications}")
        if self.workers < 1:
            raise ModelError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SimResult:
    """Groupwise tallies and the derived rate estimators.

    ``fdr_hat`` is the mean over replications of V/(R v 1) (the groupwise
    FDR); ``delta_hat`` and ``eps_hat`` are the pooled conditional
    frequencies across all replications. Per-replication tallies are kept so
    callers can serialize them.
    """

    m: int
    replications: int
    seed: int
    V: np.ndarray
    S: np.ndarray
    R: np.ndarray
    fdr: np.ndarray
    fdr_hat: float
    se_fdr: float
    delta_hat: float
    eps_hat: float
    se_delta: float
    rejections: int

    def per_replication_se(self) -> np.ndarray:
        """Binomial-approximation standard error of each replication's FDR."""
        R = np.maximum(self.R, 1)
        f = self.fdr
        return np.sqrt(np.clip(f * (1.0 - f), 0.0, None) / R)


def _chunk_tallies(config: SimConfig, test: ResolvedTest, job: Tuple[int, int, int]):
    """(V, R, W) over experiments [start, stop) of one replication."""
    replication, start, stop = job
    n = config.setup.n
    u = uniform_block(config.seed, replication, start, stop, 1 + n)
    theta = np.asarray(config.prior.ppf(u[:, 0]), dtype=float)
    sample = np.asarray(test.sampler(theta[:, None], u[:, 1:]), dtype=float)
    rej = test.rejects(sample)
    is_null = test.is_null(theta)
    v = int(np.sum(rej & is_null))
    r = int(np.sum(rej))
    w = int(np.sum(~rej & ~is_null))
    return v, r, w


def _prefix_tallies(config: SimConfig, test: ResolvedTest, stops: Sequence[int]) -> dict:
    """Per-replication (V, R, W) over experiments [0, m) for every m in ``stops``.

    One pass over [0, max(stops)) in chunks that end at the multiples of
    ``_CHUNK`` and at every stop, so each prefix is a sum of whole chunks.
    """
    bounds = sorted(set(range(0, max(stops), _CHUNK)) | set(stops))
    reps = config.replications
    jobs = [(r, a, b) for r in range(reps) for a, b in zip(bounds, bounds[1:])]

    run_job = functools.partial(_chunk_tallies, config, test)
    workers = min(config.workers, len(jobs), os.cpu_count() or 1)
    if workers == 1:
        partials = list(map(run_job, jobs))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_job, jobs))
    # Jobs are replication-major, so the (reps, chunks, 3) reshape is exact.
    counts = np.asarray(partials, dtype=np.int64).reshape(reps, len(bounds) - 1, 3)
    prefix = np.cumsum(counts, axis=1)
    return {m: prefix[:, bounds.index(m) - 1].T for m in stops}


def _result(config: SimConfig, V: np.ndarray, R: np.ndarray, W: np.ndarray) -> SimResult:
    """Rate estimators from the per-replication tallies of ``config``."""
    m, reps = config.m, config.replications
    S = R - V
    fdr = V / np.maximum(R, 1)
    fdr_hat = float(fdr.mean())
    total_R = int(R.sum())
    total_acc = m * reps - total_R
    delta_hat = float(V.sum() / total_R) if total_R > 0 else 0.0
    eps_hat = float(W.sum() / total_acc) if total_acc > 0 else 0.0
    if reps > 1:
        se_fdr = float(fdr.std(ddof=1) / math.sqrt(reps))
    else:
        se_fdr = float(
            math.sqrt(max(fdr_hat * (1.0 - fdr_hat), 0.0) / max(total_R, 1))
        )
    se_delta = (
        float(math.sqrt(max(delta_hat * (1.0 - delta_hat), 0.0) / total_R))
        if total_R > 0
        else 0.0
    )
    return SimResult(
        m=m,
        replications=reps,
        seed=config.seed,
        V=V,
        S=S,
        R=R,
        fdr=fdr,
        fdr_hat=fdr_hat,
        se_fdr=se_fdr,
        delta_hat=delta_hat,
        eps_hat=eps_hat,
        se_delta=se_delta,
        rejections=total_R,
    )


def simulate(config: SimConfig) -> SimResult:
    """Run the simulation; identical seeds give bit-identical results.

    The (replication, chunk) jobs run in order on the calling thread at one
    worker, and on min(workers, jobs, CPUs) threads otherwise; the stream is
    partition-free, so the tallies are the same either way.
    """
    test = resolve_test(config.model, config.setup)
    tallies = _prefix_tallies(config, test, [config.m])
    return _result(config, *tallies[config.m])


@dataclass(frozen=True)
class SweepRow:
    m: int
    fdr_hat: float
    se_fdr: float


def convergence_sweep(
    config: SimConfig,
    m_grid: Sequence[int],
) -> list:
    """Rows for every m in ``m_grid``, read off one simulation pass.

    Experiment i draws the same data in every row that includes it, so each
    row equals :func:`simulate` at that m and growing m extends the
    experiment set rather than reshuffling it. One pass to max(m) tallies
    every prefix. Rows keep the grid's order.
    """
    if not m_grid:
        raise ModelError("m_grid must be non-empty")
    configs = [dataclasses.replace(config, m=int(m)) for m in m_grid]
    test = resolve_test(config.model, config.setup)
    tallies = _prefix_tallies(config, test, [c.m for c in configs])
    rows = []
    for c in configs:
        res = _result(c, *tallies[c.m])
        rows.append(SweepRow(m=c.m, fdr_hat=res.fdr_hat, se_fdr=res.se_fdr))
    return rows
