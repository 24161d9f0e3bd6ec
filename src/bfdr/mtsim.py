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

Importing this module loads neither ``numpy.random`` nor
``concurrent.futures``: the first :func:`uniform_block` call loads numpy's
Philox alone (``_special.philox``), and a thread pool is imported only when
a simulation runs on more than one worker.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ._special import philox
from .models import ModelError, ResolvedTest, TestSetup, _check_count, resolve_test
# Bound here because perfbench/tracing.py rebinds ``mtsim.ump_critical_value``.
from .models import ump_critical_value  # noqa: F401
from .priors import Prior

# Uniforms per chunk. A chunk takes max(1, _CHUNK_UNIFORMS // width) rows of
# uniform_block's padded width 4 ceil((1 + n)/4), so each per-chunk array stays
# under glibc's default 128 KiB mmap threshold and is served from the heap
# rather than mapped and faulted in afresh. No value depends on it: every
# uniform has its own counter and the tallies are integer sums.
_CHUNK_UNIFORMS = 2**14 - 64


def uniform_block(
    seed: int, replication: int, start: int, stop: int, cols: int
) -> np.ndarray:
    """Uniforms in (0, 1) for experiments [start, stop), ``cols`` per row.

    Philox-4x64-10 is keyed by (seed mod 2**64, replication) and its counter
    runs row-major over (experiment, block of four columns). Entry (i, j)
    depends only on (seed, replication, start + i, j, cols); for a fixed
    ``cols`` (the simulator always asks for 1 + n) callers may therefore
    split the experiment range arbitrarily. Each call builds its own
    generator, so worker threads never share one; its class is numpy's
    ``Philox``, whether loaded alone or with ``numpy.random``.
    """
    rows = stop - start
    nblk = (cols + 3) // 4
    key = (seed & 0xFFFFFFFFFFFFFFFF) | (replication << 64)
    # numpy advances the counter before each block, so start one behind.
    bitgen = philox()(counter=(start * nblk - 1) % 2**256, key=key)
    x = bitgen.random_raw(rows * nblk * 4)
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u += 0.5  # (2**53 - 1) + 0.5 rounds to 2**53 (ties to even): clamp below 1
    u *= 2.0**-53
    return np.minimum(u, 1.0 - 2.0**-53, out=u).reshape(rows, 4 * nblk)[:, :cols]


@dataclass(frozen=True)
class SimConfig:
    """A multiple-testing simulation: m experiments per replication. Its
    problem is checked where :func:`convergence_sweep` builds the test."""

    model: object
    prior: Prior
    setup: TestSetup
    m: int
    seed: int
    replications: int = 1
    workers: int = 1

    def __post_init__(self):
        for name in ("m", "replications", "workers"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))


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
    rej = test.rejects(theta, u[:, 1:])
    is_null = test.is_null(theta)
    return (np.count_nonzero(rej & is_null), np.count_nonzero(rej),
            np.count_nonzero(~(rej | is_null)))


def _prefix_tallies(config: SimConfig, test: ResolvedTest, stops: Sequence[int]) -> dict:
    """Per-replication (V, R, W) over experiments [0, m) for every m in ``stops``.

    One pass over [0, max(stops)) in chunks that end at the multiples of the
    chunk's row count and at every stop, so each prefix is a sum of whole chunks.
    """
    rows = max(1, _CHUNK_UNIFORMS // (4 * ((config.setup.n + 4) // 4)))
    bounds = sorted(set(range(0, max(stops), rows)) | set(stops))
    reps = config.replications
    jobs = [(r, a, b) for r in range(reps) for a, b in zip(bounds, bounds[1:])]

    run_job = functools.partial(_chunk_tallies, config, test)
    workers = min(config.workers, len(jobs), os.cpu_count() or 1)
    if workers == 1:
        partials = list(map(run_job, jobs))
    else:
        from concurrent.futures import ThreadPoolExecutor

        # glibc gives each pool thread its own malloc arena and returns the
        # arena's free top to the OS above its trim threshold: 128 KiB, until
        # freeing a mapped block raises it to twice that block's size. A
        # chunk's arrays take some 350 KB, so at the default every chunk is
        # faulted in afresh (a two-worker `bfdr sim` made 4.5 times the page
        # faults). Freeing one 1 MiB block first raises the threshold to 2 MiB.
        np.empty(2**17)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run_job, jobs))
    # Jobs are replication-major, so the (reps, chunks, 3) reshape is exact.
    counts = np.asarray(partials, dtype=np.int64).reshape(reps, len(bounds) - 1, 3)
    prefix = np.cumsum(counts, axis=1)
    return {m: prefix[:, bounds.index(m) - 1].T for m in stops}


def _result(config: SimConfig, m: int, V: np.ndarray, R: np.ndarray, W: np.ndarray) -> SimResult:
    """Rate estimators from the per-replication tallies of ``config``'s first m experiments."""
    reps = config.replications
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
        se_fdr = math.sqrt(max(fdr_hat * (1.0 - fdr_hat), 0.0) / max(total_R, 1))
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
    )


def simulate(config: SimConfig) -> SimResult:
    """Run the simulation; identical seeds give bit-identical results.

    The (replication, chunk) jobs run in order on the calling thread at one
    worker, and on min(workers, jobs, CPUs) threads otherwise; the stream is
    partition-free, so the tallies are the same either way.
    """
    return convergence_sweep(config, [config.m])[0]


def convergence_sweep(config: SimConfig, m_grid: Sequence[int]) -> List[SimResult]:
    """The :func:`simulate` result at every m in ``m_grid``, read off one pass.

    Experiment i draws the same data at every m that includes it, so each
    result equals :func:`simulate` at that m and growing m extends the
    experiment set rather than reshuffling it. One pass to max(m) tallies
    every prefix; ``config.m`` is not used. Results keep the grid's order.
    """
    ms = [_check_count("m", m) for m in m_grid]
    if not ms:
        raise ModelError("m_grid must be non-empty")
    tallies = _prefix_tallies(config, resolve_test(config.model, config.prior, config.setup), ms)
    return [_result(config, m, *tallies[m]) for m in ms]
