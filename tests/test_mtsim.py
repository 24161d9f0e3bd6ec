"""Multiple-testing simulator: tallies, convergence, determinism, parallelism."""

import concurrent.futures
import dataclasses
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from bfdr import exact, models, mtsim, priors
from bfdr.models import TestSetup
from bfdr.mtsim import SimConfig, convergence_sweep, simulate, uniform_block

NORMAL = models.normal_mean_model()
EXP = models.exponential_rate_model()
NLOC = models.normal_location_model()
CLOC = models.cauchy_location_model()
# Rows per simulator chunk at n = 10 and 11, whose rows are 12 uniforms wide.
CHUNK_ROWS_N10 = mtsim._CHUNK_UNIFORMS // 12


def _config(**kw):
    base = dict(
        model=NORMAL,
        prior=priors.normal_prior(1.0),
        setup=TestSetup("mean_ump", 0.0, 0.05, 10),
        m=20000,
        seed=42,
        replications=1,
    )
    base.update(kw)
    return SimConfig(**base)


class TestUniformBlock:
    # splits that are multiples of neither 4 nor the chunk rows, one at a large
    # offset and one crossing the simulator's chunk boundary at n = 10 and 11
    @pytest.mark.parametrize("cols", [1, 3, 4, 5, 11, 12])
    @pytest.mark.parametrize(
        "a,b,c",
        [(0, 50, 101), (7, 13, 30), (8190, 8195, 8203),
         (CHUNK_ROWS_N10 - 2, CHUNK_ROWS_N10 + 3, CHUNK_ROWS_N10 + 11)],
    )
    def test_counter_addressing_is_partition_free(self, cols, a, b, c):
        whole = uniform_block(7, 3, a, c, cols)
        parts = np.vstack([uniform_block(7, 3, a, b, cols), uniform_block(7, 3, b, c, cols)])
        assert whole.shape == (c - a, cols)
        np.testing.assert_array_equal(whole, parts)

    def test_deterministic(self):
        np.testing.assert_array_equal(uniform_block(1, 0, 0, 64, 3), uniform_block(1, 0, 0, 64, 3))

    def test_streams_differ_by_seed_and_replication(self):
        a = uniform_block(1, 0, 0, 64, 3)
        b = uniform_block(2, 0, 0, 64, 3)
        c = uniform_block(1, 1, 0, 64, 3)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_open_unit_interval(self):
        u = uniform_block(5, 0, 0, 10000, 8)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_top_words_stay_below_one(self, monkeypatch):
        # (2**53 - 1 + 0.5) 2**-53 rounds to 1.0, where ndtri gives inf
        words = np.array([2**64 - 1, 2**64 - 2048, 2**63, 0], dtype=np.uint64)

        class RawWords:
            def __init__(self, counter, key):
                pass

            def random_raw(self, size):
                return words.copy()

        monkeypatch.setattr(mtsim, "philox", lambda: RawWords)
        u = uniform_block(0, 0, 0, 1, 4)[0]
        assert u.tolist() == [1.0 - 2.0**-53, 1.0 - 2.0**-53, 0.5, 2.0**-54]

    def test_moments(self):
        u = uniform_block(11, 0, 0, 100000, 4).ravel()
        assert u.mean() == pytest.approx(0.5, abs=0.002)
        assert u.var() == pytest.approx(1.0 / 12.0, abs=0.001)
        lag = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(lag) < 0.01

    def test_uniformity_chi_square(self):
        # 100 equal bins over 4e5 draws; chi-square_99 3-sigma band
        u = uniform_block(13, 2, 0, 100000, 4).ravel()
        counts, _ = np.histogram(u, bins=100, range=(0.0, 1.0))
        expected = u.size / 100.0
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert 99.0 - 3.0 * math.sqrt(198.0) <= chi2 <= 99.0 + 3.0 * math.sqrt(198.0)


def _words(*words):
    """The integer whose 64-bit words, lowest first, are ``words``."""
    return sum(w << (64 * i) for i, w in enumerate(words))


class TestPhiloxKnownAnswers:
    """Philox-4x64-10 against the Random123 known-answer vectors (Salmon et al., SC'11).

    Each vector runs through bfdr's own addressing: the seed and replication
    are the two key words, and experiment c of a four-column block sits at
    counter c.
    """

    @pytest.mark.parametrize(
        "ctr,key,expected",
        [
            (
                _words(0, 0, 0, 0),
                (0, 0),
                (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B),
            ),
            (
                _words(*[2**64 - 1] * 4),
                (2**64 - 1, 2**64 - 1),
                (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0),
            ),
            (
                _words(0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89),
                (0x452821E638D01377, 0xBE5466CF34E90C6C),
                (0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6),
            ),
        ],
        ids=["zeros", "ones", "pi"],
    )
    def test_random123_vector(self, ctr, key, expected):
        u = uniform_block(key[0], key[1], ctr, ctr + 1, 4)[0]
        want = [((x >> 11) + 0.5) * 2.0**-53 for x in expected]
        assert u.tolist() == want


# Minor page faults of simulate at one worker (warm) and then at two.
POOL_FAULTS = """
import dataclasses, json, os, resource
os.cpu_count = lambda: 2  # run the pool even on a one-CPU machine
from bfdr import models, mtsim, priors
config = mtsim.SimConfig(models.normal_mean_model(), priors.normal_prior(1.0),
                         models.TestSetup("mean_ump", 0.0, 0.05, 10), m=200000, seed=1,
                         replications=2, workers=1)

def faults(config):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    mtsim.simulate(config)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

mtsim.simulate(config)
print(json.dumps([faults(config), faults(dataclasses.replace(config, workers=2))]))
"""


class TestSimulate:
    def test_no_true_nulls_gives_zero_fdr(self):
        # the gamma prior puts mass 5e-13 below theta0 = 1e-6, so no draw is
        # null (theta0 on the support's edge, 0, is refused: lambda would be 1)
        prior = priors.gamma_mode1_prior(2.0)
        cfg = _config(prior=prior, setup=TestSetup("mean_ump", 1e-6, 0.05, 10), m=2000)
        assert float(prior.cdf(1e-6)) < 1e-12
        res = simulate(cfg)
        assert res.R.sum() > 0
        assert res.fdr_hat == 0.0
        assert np.all(res.V == 0)

    @pytest.mark.parametrize("prior", [priors.normal_prior(1.0), priors.student_t_prior(3.0, 1.0)],
                             ids=["normal", "t"])
    def test_prior_mass_outside_the_parameter_interval_rejected(self, prior):
        # exp-rate lives on rates > 0; these priors draw negative rates half the time
        cfg = _config(model=EXP, prior=prior, setup=TestSetup("mean_ump", 1.0, 0.05, 10), m=1000)
        with pytest.raises(models.ModelError, match="reaches outside"):
            simulate(cfg)

    def test_alpha_near_one_approaches_null_mass(self):
        setup = TestSetup("mean_ump", 0.0, 1.0 - 1e-9, 5)
        cfg = _config(setup=setup, m=20000, replications=4)
        res = simulate(cfg)
        delta = exact.exact_rates(
            exact.exact_joint(NORMAL, priors.normal_prior(1.0), setup)
        ).fdr.value
        assert delta == pytest.approx(0.5, abs=0.02)  # lambda_null
        assert abs(res.fdr_hat - delta) <= 4.0 * max(res.se_fdr, 1e-4)

    def test_matches_exact_rate_within_three_se(self):
        cfg = _config(replications=10)
        res = simulate(cfg)
        delta = exact.exact_rates(
            exact.exact_joint(NORMAL, priors.normal_prior(1.0), cfg.setup)
        ).fdr.value
        assert abs(res.fdr_hat - delta) <= 3.0 * res.se_fdr

    def test_exp_rate_null_side(self):
        setup = TestSetup("mean_ump", 1.0, 0.05, 8)
        # se_fdr is a standard deviation over replications: 20 of them keep
        # the 3-SE band honest where 5 (4 degrees of freedom) do not
        cfg = _config(model=EXP, prior=priors.gamma_mode1_prior(2.0), setup=setup,
                      m=10000, replications=20, seed=9)
        res = simulate(cfg)
        delta = exact.exact_rates(
            exact.exact_joint(EXP, priors.gamma_mode1_prior(2.0), setup)
        ).fdr.value
        assert abs(res.fdr_hat - delta) <= 3.0 * res.se_fdr

    def test_exp_rate_f_prior(self):
        setup = TestSetup("mean_ump", 1.0, 0.05, 8)
        prior = priors.f_mode1_prior(2.0, 2.0)
        # the 20-replication design of the gamma case; the seed was fixed
        # before the F quantile changed from fdtri to the table-seeded step
        cfg = _config(model=EXP, prior=prior, setup=setup, m=10000, replications=20, seed=9)
        res = simulate(cfg)
        delta = exact.exact_rates(exact.exact_joint(EXP, prior, setup)).fdr.value
        assert abs(res.fdr_hat - delta) <= 3.0 * res.se_fdr

    def test_median_statistic(self):
        setup = TestSetup("median", 0.0, 0.05, 11)
        # se_fdr is a standard deviation over replications: 20 of them keep
        # the 3-SE band honest where 5 (4 degrees of freedom) do not
        cfg = _config(model=NLOC, setup=setup, m=10000, replications=20, seed=3)
        res = simulate(cfg)
        delta = exact.exact_rates(
            exact.exact_joint(NLOC, priors.normal_prior(1.0), setup)
        ).fdr.value
        assert abs(res.fdr_hat - delta) <= 3.0 * res.se_fdr

    def test_fdr_bounded_by_construction(self):
        cfg = _config(m=3, replications=200, seed=1)
        res = simulate(cfg)
        assert np.all(res.fdr >= 0.0)
        assert np.all(res.fdr <= 1.0)

    def test_bit_for_bit_determinism(self):
        cfg = _config(m=5000, replications=3)
        r1, r2 = simulate(cfg), simulate(cfg)
        np.testing.assert_array_equal(r1.V, r2.V)
        np.testing.assert_array_equal(r1.R, r2.R)
        np.testing.assert_array_equal(r1.fdr, r2.fdr)
        assert r1.fdr_hat == r2.fdr_hat
        assert r1.delta_hat == r2.delta_hat
        assert r1.eps_hat == r2.eps_hat

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_worker_partitioning_is_invisible(self, workers):
        serial = simulate(_config(m=20000, replications=2))
        parallel = simulate(_config(m=20000, replications=2, workers=workers))
        np.testing.assert_array_equal(serial.V, parallel.V)
        np.testing.assert_array_equal(serial.S, parallel.S)
        np.testing.assert_array_equal(serial.R, parallel.R)
        assert serial.fdr_hat == parallel.fdr_hat

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's per-thread arenas")
    def test_pool_threads_keep_their_memory(self):
        # In a fresh interpreter (this one's allocation history differs), a
        # two-worker run at m = 2e5 after a one-worker one: 19,516 minor
        # faults when each chunk's arrays were faulted in afresh, 426 with a
        # 1 MiB block freed before the pool starts.
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", POOL_FAULTS], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        one, two = json.loads(proc.stdout)
        assert two < 4000, (one, two)

    def test_worker_count_clamped_to_jobs(self, monkeypatch):
        # 3 replications of one chunk each: 3 jobs, whatever the worker count
        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # _prefix_tallies imports the pool class only when it starts one
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(mtsim.os, "cpu_count", lambda: 64)
        serial = simulate(_config(m=500, replications=3))
        wide = simulate(_config(m=500, replications=3, workers=10**6))
        assert seen == [3]
        np.testing.assert_array_equal(serial.V, wide.V)
        np.testing.assert_array_equal(serial.R, wide.R)
        assert serial.eps_hat == wide.eps_hat

    def test_pooled_and_per_replication_estimators(self):
        cfg = _config(m=8000, replications=6)
        res = simulate(cfg)
        assert res.delta_hat == pytest.approx(res.V.sum() / res.R.sum(), rel=1e-15)
        accept = res.m * res.replications - res.R.sum()
        # eps pooled: false acceptances over acceptances
        assert 0.0 <= res.eps_hat <= 1.0
        np.testing.assert_allclose(res.fdr, res.V / np.maximum(res.R, 1))
        assert accept > 0

    def test_pooled_eps_tracks_exact_far(self):
        cfg = _config(m=40000, replications=5, seed=17)
        res = simulate(cfg)
        far = exact.exact_rates(
            exact.exact_joint(NORMAL, priors.normal_prior(1.0), cfg.setup)
        ).far.value
        accept = cfg.m * cfg.replications - int(res.R.sum())
        se = math.sqrt(far * (1.0 - far) / accept)
        assert abs(res.eps_hat - far) <= 4.0 * se

    def test_config_validation(self):
        with pytest.raises(models.ModelError):
            _config(m=0)
        with pytest.raises(models.ModelError):
            _config(replications=0)
        with pytest.raises(models.ModelError):
            _config(workers=0)


class TestConvergenceSweep:
    def test_single_experiment_row(self):
        rows = convergence_sweep(_config(m=1), [1])
        assert len(rows) == 1
        assert 0.0 <= rows[0].fdr_hat <= 1.0

    def test_rows_share_stream_prefix(self):
        # growing m extends the experiment set; the shared prefix makes rows
        # comparable (same draws for experiments 0..m1-1)
        cfg = _config(m=1)
        r_small = simulate(_config(m=1000))
        r_large = simulate(_config(m=2000))
        u_small = uniform_block(42, 0, 0, 1000, 11)
        u_large = uniform_block(42, 0, 0, 2000, 11)
        np.testing.assert_array_equal(u_small, u_large[:1000])
        assert r_small.m == 1000 and r_large.m == 2000

    def test_se_shrinks_like_root_two_under_m_doubling(self):
        r1 = simulate(_config(m=1000, replications=200, seed=5))
        r2 = simulate(_config(m=2000, replications=200, seed=5))
        ratio = r1.se_fdr / r2.se_fdr
        assert math.sqrt(2.0) * 0.8 <= ratio <= math.sqrt(2.0) * 1.2

    def test_gap_shrinks_with_m_for_most_seeds(self):
        # fixed-seed experiment (deterministic): 8/10 seeds improve
        setup = TestSetup("mean_ump", 0.0, 0.05, 10)
        delta = exact.exact_rates(
            exact.exact_joint(NORMAL, priors.normal_prior(1.0), setup)
        ).fdr.value
        wins = 0
        for seed in range(10):
            rows = convergence_sweep(_config(m=1, seed=seed), [10**4, 10**5])
            if abs(rows[1].fdr_hat - delta) <= abs(rows[0].fdr_hat - delta):
                wins += 1
        assert wins >= 8

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_equal_simulate_at_each_m(self, workers):
        # unsorted grid, a repeated m, a stop on a chunk boundary and one inside
        grid = [20000, CHUNK_ROWS_N10, CHUNK_ROWS_N10 + 808, 20000]
        cfg = _config(replications=3, workers=workers)
        rows = convergence_sweep(cfg, grid)
        assert [row.m for row in rows] == grid
        for row in rows:
            _assert_same_result(row, simulate(_config(m=row.m, replications=3, workers=workers)))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_f_prior_rows_equal_simulate_at_each_m(self, workers):
        # the F prior's quantile runs on the table-seeded path, so each draw
        # must be a function of its own level whatever the chunking
        grid = [20000, CHUNK_ROWS_N10, CHUNK_ROWS_N10 + 808]
        kw = dict(model=EXP, prior=priors.f_mode1_prior(2.0, 2.0),
                  setup=TestSetup("mean_ump", 1.0, 0.05, 10), replications=2, workers=workers)
        rows = convergence_sweep(_config(m=1, **kw), grid)
        for row in rows:
            _assert_same_result(row, simulate(_config(m=row.m, **kw)))

    def test_empty_grid_rejected(self):
        with pytest.raises(models.ModelError, match="non-empty"):
            convergence_sweep(_config(m=1), [])
        with pytest.raises(models.ModelError, match="m must be a positive integer, got 0"):
            convergence_sweep(_config(m=1), [5, 0])


def _assert_same_result(a, b):
    for field in dataclasses.fields(a):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                      err_msg=field.name)


CHUNK_CASES = {
    "normal-mean": dict(setup=TestSetup("mean_ump", 0.0, 0.05, 10)),
    "cauchy-median-odd": dict(model=CLOC, prior=priors.cauchy_prior(1.0),
                              setup=TestSetup("median", 0.0, 0.05, 11)),
    "cauchy-median-even": dict(model=CLOC, prior=priors.cauchy_prior(1.0),
                               setup=TestSetup("median", 0.0, 0.05, 10)),
    "exp-rate-f": dict(model=EXP, prior=priors.f_mode1_prior(2.0, 2.0),
                       setup=TestSetup("mean_ump", 1.0, 0.05, 10)),
}


class TestChunking:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_chunk_budget_changes_nothing(self, monkeypatch, case, workers):
        default = mtsim._CHUNK_UNIFORMS

        def run(m, budget):
            monkeypatch.setattr(mtsim, "_CHUNK_UNIFORMS", budget)
            cfg = _config(m=m, replications=2, workers=workers, **CHUNK_CASES[case])
            return simulate(cfg), convergence_sweep(cfg, [m // 3, m, m // 2])

        # one row per chunk on a small m; the default, three chunks at n = 10
        # and 11, against one chunk on a larger m
        for m, budgets in ((300, (1, default, 10**9)), (4000, (default, 10**9))):
            (res, rows), *others = [run(m, budget) for budget in budgets]
            for other_res, other_rows in others:
                for a, b in zip([res, *rows], [other_res, *other_rows], strict=True):
                    _assert_same_result(a, b)

    @pytest.mark.parametrize("n", [*range(1, 65), 10_000])
    def test_chunk_uniforms_stay_under_the_mmap_threshold(self, monkeypatch, n):
        # n = 10,000 has rows of 10,004 uniforms: one row per chunk
        blocks = []

        def recording_block(*args):
            u = uniform_block(*args)
            blocks.append(u.shape[0] * u.strides[0])  # bytes of the whole allocation
            return u

        monkeypatch.setattr(mtsim, "uniform_block", recording_block)
        simulate(_config(m=5000 if n <= 64 else 3, setup=TestSetup("mean_ump", 0.0, 0.05, n)))
        width = 4 * ((n + 4) // 4)  # uniform_block's row width for 1 + n columns
        assert max(blocks) < 131_072
        # the chunk is full: one more row would overrun the budget
        assert (max(blocks) // (8 * width) + 1) * width > mtsim._CHUNK_UNIFORMS

    @pytest.mark.parametrize("n", [4, 10, 11])
    @pytest.mark.parametrize(
        "model,prior", [(NLOC, priors.normal_prior(1.0)), (CLOC, priors.cauchy_prior(1.0))],
        ids=["normal", "cauchy"],
    )
    def test_median_is_read_at_the_middle_uniform(self, model, prior, n):
        u = uniform_block(21, 0, 0, 20000, 1 + n)
        theta = np.asarray(prior.ppf(u[:, 0]), dtype=float)
        cols = u[:, 1:]  # a strided view, as the simulator passes it
        k = models.median_order_index(n) - 1
        median = np.sort(theta[:, None] + model.ppf(cols), axis=1)[:, k]
        via_order = theta + model.ppf(np.partition(cols, k, axis=1)[:, k])
        np.testing.assert_array_equal(via_order, median)
