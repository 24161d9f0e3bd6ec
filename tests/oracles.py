"""Independent numerical oracles used by the test suite.

Deliberately written against different algorithms than the library (series
and continued fractions in pure Python, binomial sums, bisection) so the
tests cross two implementation routes rather than re-checking one.
"""

import math

import numpy as np

_EPS = 1e-15
_MAX_ITER = 500


def reg_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x): series for x < a+1,
    continued fraction otherwise (Numerical Recipes style)."""
    if x < 0 or a <= 0:
        raise ValueError("need x >= 0 and a > 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        ap = a
        term = 1.0 / a
        total = term
        for _ in range(_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    return 1.0 - reg_gamma_q_cf(a, x)


def reg_gamma_q_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def reg_gamma_q(a: float, x: float) -> float:
    return 1.0 - reg_gamma_p(a, x) if x < a + 1.0 else reg_gamma_q_cf(a, x)


def gamma_upper_quantile_oracle(shape: float, rate: float, alpha: float) -> float:
    """Bisection on the series/CF incomplete gamma for the upper quantile."""
    lo, hi = 0.0, 1.0
    while reg_gamma_q(shape, hi) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if reg_gamma_q(shape, mid) > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) / rate


def bisect_quantile(cdf, p: float, lo: float, hi: float, iters: int = 200) -> float:
    """Plain bisection solve of cdf(x) = p on [lo, hi]."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def order_stat_cdf(F: float, k: int, n: int) -> float:
    """P(X_(k) <= x) = P(Binomial(n, F(x)) >= k) by an explicit binomial sum."""
    if not 0.0 <= F <= 1.0:
        raise ValueError("F must be a probability")
    total = 0.0
    for j in range(k, n + 1):
        total += math.comb(n, j) * F**j * (1.0 - F) ** (n - j)
    return total


def scalar_find_cut(h, theta0: float, away: int, limit: float, tol: float) -> float:
    """The truncation search one distance at a time: double s from 1e-3
    (capped just inside a finite limit, and at 1e13) until the bound
    h(theta0 + away * s), a function of one float, is not above tol."""
    smax = min(abs(limit - theta0) * (1.0 - 1e-9), 1e13)
    s = min(1e-3, smax)
    while h(theta0 + away * s) > tol:
        if s >= smax:
            return theta0 + away * smax
        s = min(2.0 * s, smax)
    return theta0 + away * s


def scalar_romberg(w, lo: float, hi: float, abs_tol: float, max_refinements: int):
    """Romberg on the doubling trapezoid grid with one call of ``w`` per
    level: the two ends, then each level's new midpoints. Same stopping rule
    as the library (level >= 4, last gap <= abs_tol, the one before <= 100
    abs_tol). Returns (value, error_bound, panels, converged); without
    convergence, the last trapezoid value and its gap to the one before."""
    span = hi - lo
    if span == 0.0:
        return 0.0, 0.0, 0, True
    ends = np.asarray(w(np.array([lo, hi])), dtype=float)
    weight_sum = 0.5 * (ends[0] + ends[1])
    row = [weight_sum * span]
    err = math.inf
    for level in range(1, max_refinements + 1):
        new = lo + span * (np.arange(2 ** (level - 1)) + 0.5) / 2 ** (level - 1)
        weight_sum += float(np.sum(np.asarray(w(new), dtype=float)))
        panels = 2**level
        prev, row = row, [weight_sum * span / panels]
        for j, r in enumerate(prev, 1):
            row.append(row[-1] + (row[-1] - r) / (4**j - 1))
        prev_err, err = err, abs(row[-1] - prev[-1])
        if level >= 4 and err <= abs_tol and prev_err <= 100.0 * abs_tol:
            return row[-1], err, panels, True
    return row[0], abs(row[0] - prev[0]), panels, False
