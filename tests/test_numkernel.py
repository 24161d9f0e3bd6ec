"""Special functions and quadrature kernels against independent oracles.

Frozen reference values were computed with mpmath at 40 digits (erf/erfc,
root solves); combinatorial values use exact integer arithmetic.
"""

import math

import numpy as np
import pytest

from bfdr import numkernel as nk
from bfdr._special import _sp

from derivations import log_binomial
from oracles import bisect_quantile, scalar_de

SQRT_2PI = math.sqrt(2.0 * math.pi)

# mpmath (40 digits): exp(-x^2/2)/sqrt(2 pi) at 1.644854
PHI_1_644854 = 0.10313557709030024
# mpmath: erfc(-0.644854/sqrt(2))/2
NCDF_0_644854 = 0.7404890980450159


class TestStdNormalPdf:
    def test_at_zero(self):
        assert nk.std_normal_pdf(0.0) == pytest.approx(1.0 / SQRT_2PI, rel=1e-15)

    def test_symmetry(self):
        xs = np.linspace(0.0, 6.0, 31)
        np.testing.assert_allclose(nk.std_normal_pdf(xs), nk.std_normal_pdf(-xs), rtol=1e-15)

    def test_high_precision_point(self):
        assert nk.std_normal_pdf(1.644854) == pytest.approx(PHI_1_644854, rel=1e-13)


class TestStdNormalCdf:
    def test_at_zero(self):
        assert _sp.ndtr(0.0) == 0.5

    def test_upper_tail(self):
        assert _sp.ndtr(8.0) >= 1.0 - 1e-14

    def test_high_precision_point(self):
        assert _sp.ndtr(0.644854) == pytest.approx(NCDF_0_644854, abs=1e-14)

    def test_complement_sums_to_one(self):
        for x in np.linspace(-6.0, 6.0, 25):
            assert _sp.ndtr(x) + _sp.ndtr(-x) == pytest.approx(1.0, abs=1e-14)

    def test_derivative_matches_pdf(self):
        # |(Phi(x+h)-Phi(x-h))/2h - phi(x)| <= 1e-6 on [-5, 5]
        h = 1e-5
        xs = np.linspace(-5.0, 5.0, 101)
        fd = (_sp.ndtr(xs + h) - _sp.ndtr(xs - h)) / (2 * h)
        assert np.max(np.abs(fd - nk.std_normal_pdf(xs))) <= 1e-6


class TestStdNormalQuantile:
    """The standard normal quantile as the library takes it: ``upper_quantile_z``
    at the level p = 1 - alpha."""

    def test_median(self):
        assert nk.upper_quantile_z(0.5) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("p", [0.95, 0.975])
    def test_against_bisection_oracle(self, p):
        ref = bisect_quantile(_sp.ndtr, p, -10.0, 10.0)
        assert nk.upper_quantile_z(1.0 - p) == pytest.approx(ref, abs=1e-10)

    def test_known_points(self):
        assert nk.upper_quantile_z(0.05) == pytest.approx(1.6448536269514722, rel=1e-12)
        assert nk.upper_quantile_z(0.025) == pytest.approx(1.959963984540054, rel=1e-12)

    def test_round_trip(self):
        alphas = [1e-6, 1e-4, 0.01, 0.2, 0.5, 0.8, 0.99, 1 - 1e-4, 1 - 1e-6]
        for alpha in alphas:
            assert abs(1.0 - _sp.ndtr(nk.upper_quantile_z(alpha)) - alpha) <= 1e-12

    def test_is_a_float_equal_to_ndtri(self):
        for alpha in (1e-6, 0.05, 0.15, 0.5, 0.99):
            z = nk.upper_quantile_z(alpha)
            assert type(z) is float
            assert z == float(_sp.ndtri(1.0 - alpha))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, float("nan")])
    def test_rejects_bad_levels(self, p):
        with pytest.raises(nk.DomainError, match=r"quantile level must lie in \(0, 1\)"):
            nk.upper_quantile_z(1.0 - p)


class TestLogBinomial:
    def test_two_choose_one(self):
        assert log_binomial(2, 1) == pytest.approx(math.log(2.0), abs=1e-14)

    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_choose_zero(self, n):
        assert log_binomial(n, 0) == 0.0

    def test_exact_integer_oracle(self):
        assert log_binomial(20, 10) == pytest.approx(
            math.log(math.comb(20, 10)), abs=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(nk.DomainError):
            log_binomial(3, 5)
        with pytest.raises(nk.DomainError):
            log_binomial(-1, 0)


class TestIntegrate:
    def test_linear(self):
        res = nk.integrate(lambda x: x, 0.0, 1.0)
        assert res.value == pytest.approx(0.5, abs=max(1e-8, res.error_bound))

    @pytest.mark.parametrize(
        "a,b,truth",
        [
            (-1e8, 0.0, 0.15865525393145707),  # Phi(-1)
            (0.0, 1e8, 0.8413447460685429),  # Phi(1)
            (-1e8, 1e8, 1.0),
        ],
    )
    def test_wide_limits_of_shifted_gaussian(self, a, b, truth):
        # out from 0 to each limit; asymmetric about 0, so a flipped side would show
        f = lambda x: nk.std_normal_pdf(x - 1.0)
        res = [nk.integrate(f, 0.0, end) for end in (a, b)]
        assert sum(r.value for r in res) == pytest.approx(truth, abs=1e-7)

    @pytest.mark.parametrize(
        "end,truth", [(math.inf, 0.8413447460685429), (-math.inf, 0.15865525393145707)]
    )
    def test_infinite_end(self, end, truth):
        res = nk.integrate(lambda x: nk.std_normal_pdf(x - 1.0), 0.0, end)
        assert res.value == pytest.approx(truth, abs=1e-8)
        assert abs(res.value - truth) <= res.error_bound

    def test_tail_bound_is_taken_at_the_outermost_node(self):
        edges = []
        res = nk.integrate(nk.std_normal_pdf, 2.0, -math.inf, scale=0.5,
                           tail=lambda edge: edges.append(edge) or 1e-3)
        plain = nk.integrate(nk.std_normal_pdf, 2.0, -math.inf, scale=0.5)
        assert (res.value, res.error_bound) == (plain.value, plain.error_bound + 1e-3)
        # the farthest node of the levels used (2 or 3 here): 0.5 * E(3.625) below 2
        assert edges == [2.0 - 0.5 * nk._EDGES[0][2]] == [2.0 - 0.5 * nk._EDGES[0][3]]
        assert edges[0] == pytest.approx(2.0 - 0.5 * math.exp(0.5 * math.pi * math.sinh(3.625)))

    def test_finite_side_with_its_tail_meets_the_bound(self):
        # the sliver beyond the outermost node is what a tail-free bound leaves out
        res = nk.integrate(np.exp, 0.0, 1.0, tail=lambda edge: math.e * (1.0 - edge))
        assert abs(res.value - (math.e - 1.0)) <= res.error_bound

    @pytest.mark.parametrize(
        "origin,end,scale",
        [(-np.inf, 0.0, 1.0), (np.inf, 0.0, 1.0), (np.nan, 1.0, 1.0), (0.0, np.nan, 1.0),
         (0.0, np.inf, 0.0), (0.0, -np.inf, np.inf), (0.0, np.inf, np.nan)],
    )
    def test_rejects_bad_limits(self, origin, end, scale):
        with pytest.raises(nk.DomainError):
            nk.integrate(lambda x: x * x, origin, end, scale=scale)

    def test_empty_interval(self):
        assert nk.integrate(np.exp, 1.5, 1.5) == nk.IntegralValue(0.0, 0.0)

    def test_non_convergence_carries_best_estimate(self):
        # 1e-20 lies below the rounding floor 64 eps |I| (1.4e-14 here): no level stops
        with pytest.raises(nk.QuadratureNonConvergence) as exc:
            nk.integrate(nk.std_normal_pdf, -30.0, 30.0, 1e-20)
        best = exc.value.result
        assert best.panels == nk._ENDS[-1]
        assert best.value == pytest.approx(1.0, abs=1e-13)
        assert abs(best.value - 1.0) <= best.error_bound

    def test_non_convergence_reports_the_trapezoid(self):
        # The last level's trapezoid sum in t, its gap to the level before and
        # the nodes evaluated, as the one-call-per-level loop gives them: all
        # levels run, in one call for levels 0..2 and one for each later level.
        calls = []

        def w(x):
            calls.append(x.size)
            return nk.std_normal_pdf(x)

        with pytest.raises(nk.QuadratureNonConvergence) as exc:
            nk.integrate(w, -30.0, 30.0, 1e-20)
        best = exc.value.result
        assert len(calls) == 1 + nk._TOP_LEVEL - 2
        assert (best.value, best.error_bound, best.panels, False) == scalar_de(
            nk.std_normal_pdf, -30.0, 30.0, 1e-20)
        assert best.panels == sum(calls) == nk._ENDS[-1] == nk._ENDS[8]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("end", [1.0, math.inf])
    def test_non_finite_values_never_converge(self, bad, end):
        # NaN at some nodes gives a NaN gap, and inf at two levels gives
        # inf - inf = NaN: neither may pass as a value within the tolerance
        def f(x):
            return np.where(x > 0.5, bad, np.exp(-x))

        with pytest.raises(nk.QuadratureNonConvergence) as exc:
            nk.integrate(f, 0.0, end)
        assert exc.value.result.panels == nk._ENDS[-1]
        assert math.isnan(exc.value.result.error_bound)

    @pytest.mark.parametrize(
        "f,a,b,truth",
        [
            (lambda x: x, 0.0, 1.0, 0.5),
            (lambda x: x**3, 0.0, 1.0, 0.25),
            (np.exp, 0.0, 1.0, math.e - 1.0),
            (nk.std_normal_pdf, -8.0, 8.0, 1.0),
            (lambda x: np.sin(x), 0.0, math.pi, 2.0),
        ],
    )
    def test_schemes_agree(self, f, a, b, truth):
        r1 = nk.integrate(f, a, b, 1e-9)
        assert r1.value == pytest.approx(truth, abs=1e-7)


def _gauss(v):
    return math.exp(-0.5 * v * v) / SQRT_2PI


class TestRombergBatching:
    """The first integrand call covers levels 0..2; the result must equal the
    one-call-per-level loop bit for bit. The class and its case ids keep the
    names they had when the integrator was a Romberg rule."""

    # (id, integrand of one float, origin, end, abs_tol, DE level it stops at)
    CASES = [
        ("level4", math.exp, 0.0, 1.0, 1e-4, 2),
        ("level5", math.cos, 0.0, 30.0, 1e-10, 3),
        ("level6", _gauss, 0.0, math.inf, 1e-10, 4),
        ("level7", lambda v: _gauss(v + 5.0), 0.0, -math.inf, 1e-10, 5),
        ("level8", lambda v: _gauss(v - 10.0), 0.0, math.inf, 1e-10, 6),
        ("level9", lambda v: _gauss(v - 20.0), 0.0, math.inf, 1e-10, 7),
    ]

    # The case's abs_tol divided by 10**tighten: the rule stops on the same
    # level or a later one, or on none, as at 10**-20, below the rounding floor.
    @pytest.mark.parametrize("tighten", [1, 2, 3, 4, 5, 6, 7, 20])
    @pytest.mark.parametrize("f,origin,end,tol,stop", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_matches_the_one_call_per_level_loop(self, f, origin, end, tol, stop, tighten):
        points = []

        def w(x):
            # Elementwise math keeps each value independent of the array it sits in.
            points.append(x.tolist())
            return np.array([f(v) for v in x.tolist()])

        assert scalar_de(w, origin, end, tol)[3]
        assert sum(map(len, points)) == nk._ENDS[stop]
        tol *= 10.0**-tighten
        value, bound, nodes, converged = scalar_de(w, origin, end, tol)
        points.clear()
        try:
            res = nk.integrate(w, origin, end, tol)
        except nk.QuadratureNonConvergence as exc:
            res = exc.result
            assert not converged
        assert (res.value, res.error_bound) == (value, bound)
        assert converged or tighten >= 4  # the looser tolerances all stop
        assert not (converged and tighten == 20)

        # A side stopping at level L <= 2 makes one call, one stopping later
        # L - 1; no node beyond level L is evaluated.
        last = nk._ENDS.index(nodes)
        assert last >= stop
        assert len(points) == 1 + max(0, last - 2)
        flat = [x for call in points for x in call]
        assert res.panels == len(flat) == nodes


def _level(k):
    """Slice of level k's nodes in the node table."""
    return slice(nk._ENDS[k - 1] if k else 0, nk._ENDS[k])


class TestNodeTable:
    def test_equals_direct_evaluation_of_both_maps(self):
        # Node by node: u = E(t) with du/dt = (pi/2) cosh(t) E(t) per unit
        # scale, and u = E/(1 + E) with du/dt = (pi/2) cosh(t) E/(1 + E)**2 per
        # unit length, for every t = j * 2**-(level+1) whose E lies in range.
        for level in range(len(nk._ENDS)):
            h = 2.0 ** -(level + 1)
            rows = []
            for j in range(round(-7.0 / h), round(4.0 / h) + 1):
                if level and j % 2 == 0:
                    continue
                t = j * h
                v = 0.5 * math.pi * math.sinh(t)
                if not math.log(nk._E_MIN) <= v <= math.log(nk._E_MAX):
                    continue
                e = math.exp(v)
                de = 0.5 * math.pi * math.cosh(t) * e
                rows.append((e, de, e / (1.0 + e), de / (1.0 + e) ** 2))
            table = np.array([col[_level(level)] for col in nk._TABLE]).T
            # E carries the rounding of (pi/2) sinh t, up to 690 eps relative
            np.testing.assert_allclose(table, np.array(rows), rtol=2e-13, atol=0.0)

    def test_builds_without_floating_point_warnings(self):
        with np.errstate(all="raise"):
            table, ends = nk._node_table()
        assert ends == nk._ENDS
        for got, col in zip(table, nk._TABLE):
            np.testing.assert_array_equal(got, col)
            assert np.all(np.isfinite(got)) and np.all(got > 0.0)

    def test_level_sizes_and_edges(self):
        # 84 nodes in the first call; each later level about doubles the one before
        assert nk._ENDS[:5] == [21, 42, 84, 167, 333]
        assert np.diff(nk._ENDS).tolist()[2:] == [83, 166, 334, 667, 1334, 2668]
        for col, edges in nk._EDGES.items():
            assert edges == [float(nk._TABLE[col][: nk._ENDS[k]].max()) for k in range(len(nk._ENDS))]
        assert nk._EDGES[0][2] == pytest.approx(math.exp(0.5 * math.pi * math.sinh(3.625)))

    def test_batches_tile_the_table_and_hold_each_edge(self):
        # batch 0 is levels 0-2 and batch j level 2 + j; the farthest node of
        # batches 0..j is the last node of the batch _EDGE_BATCH names, on
        # both columns: the first batch up to level 4, the level-5 batch after
        assert nk._EDGE_BATCH == [0, 0, 0, 3, 3, 3, 3]
        for col, batches in nk._BATCH_TABLES.items():
            assert len(batches) == nk._BATCHES
            assert [u.size for u, _ in batches] == np.diff([0] + nk._ENDS[nk._FIRST_STOP:]).tolist()
            for i in (0, 1):
                np.testing.assert_array_equal(np.concatenate([b[i] for b in batches]), nk._TABLE[col + i])
            for j, b in enumerate(nk._EDGE_BATCH):
                farthest = max(u.max() for u, _ in batches[: j + 1])
                assert batches[b][0][-1] == farthest == nk._EDGES[col][nk._FIRST_STOP + j]


class TestConfigValidation:
    def test_bad_tolerance(self):
        # refused before any work, on an empty interval too
        for end in (1.0, 0.0):
            for abs_tol in (0.0, -1e-8, math.nan):
                with pytest.raises(nk.DomainError, match="abs_tol must be positive"):
                    nk.integrate(np.exp, 0.0, end, abs_tol)

    def test_negative_error_bound_rejected(self):
        with pytest.raises(nk.DomainError):
            nk.IntegralValue(1.0, -1e-3)
