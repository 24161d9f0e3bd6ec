"""Independent numerical oracles used by the test suite.

Deliberately written against different algorithms than the library (series
and continued fractions in pure Python, binomial sums, bisection) so the
tests cross two implementation routes rather than re-checking one.
"""

import math

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


def scalar_bisect(below, lo: float, hi: float, steps=None):
    """The one-step halving loop: each step moves one end of [lo, hi] to
    0.5 * (lo + hi); ``steps`` times, or until lo and hi are adjacent doubles.
    ``below`` takes one float."""
    done = 0
    while steps is None or done < steps:
        mid = 0.5 * (lo + hi)
        if steps is None and (mid == lo or mid == hi):
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
        done += 1
    return lo, hi


def scalar_find_cut(h, theta0: float, away: int, limit: float, tol: float) -> float:
    """The truncation search one distance at a time: double s from 1e-3
    (capped just inside a finite limit) until the bound h(theta0 + away * s),
    a function of one float, is not above tol, then halve 30 times."""
    smax = abs(limit - theta0) * (1.0 - 1e-9) if math.isfinite(limit) else 1e13
    s = min(1e-3, smax)
    while h(theta0 + away * s) > tol:
        if s >= smax:
            return theta0 + away * smax
        s = min(2.0 * s, smax)
    lo_s = 0.0 if s <= 1e-3 else s / 2.0
    _, hi_s = scalar_bisect(lambda t: h(theta0 + away * t) > tol, lo_s, s, 30)
    return theta0 + away * hi_s
