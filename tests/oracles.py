"""Independent numerical oracles used by the test suite.

Deliberately written against different algorithms than the library (series
and continued fractions in pure Python, binomial sums, bisection, mpmath's
incomplete gamma and beta functions at 40 digits) so the tests cross two
implementation routes rather than re-checking one. The
exception is :func:`scalar_de`, the library's own rule one level per call,
which pins the batched first call bit for bit.
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


def scalar_de(w, origin: float, end: float, abs_tol: float, scale: float = 1.0):
    """The double-exponential rule with one call of ``w`` per level, on the
    library's node table: level k adds its nodes' f * weight to the running
    sum, and I_k = length * 2**-(k+1) * sum. Same stopping rule as the library
    (level >= 2, |I_k - I_(k-1)| + 64 eps |I_k| <= abs_tol) and the same last
    level, 8. Returns (value, error_bound, nodes, converged) at the last level
    reached."""
    from bfdr.numkernel import _ENDS, _TABLE

    length, col = (scale, 0) if math.isinf(end) else (abs(end - origin), 2)
    away = math.copysign(1.0, end - origin)
    total, estimate = 0.0, 0.0
    for level in range(9):
        lo, hi = (_ENDS[level - 1] if level else 0), _ENDS[level]
        x = origin + away * length * _TABLE[col][lo:hi]
        total += float(np.add.reduce(np.asarray(w(x), dtype=float) * _TABLE[col + 1][lo:hi]))
        prev, estimate = estimate, length * 2.0 ** -(level + 1) * total
        err = abs(estimate - prev) + 64.0 * np.finfo(float).eps * abs(estimate)
        if level >= 2 and err <= abs_tol:
            return estimate, err, hi, True
    return estimate, err, hi, False


def mp_unit_quantile(params, u: float, x0: float, dps: int = 40) -> float:
    """Quantile at level u of Gamma(r, 1) (``params = (r,)``) or F(2r, 2s)
    (``params = (r, s)``) by Newton's method on mpmath's regularized
    incomplete gamma or beta function at ``dps`` digits, started at ``x0``.
    Above u = 1/2 it solves sf(x) = 1 - u on the upper tail's own integral."""
    import mpmath as mp

    with mp.workdps(dps):
        upper = u > 0.5
        level = 1 - mp.mpf(u) if upper else mp.mpf(u)
        if len(params) == 1:
            (r,) = map(mp.mpf, params)
            tail = lambda x: mp.gammainc(r, *((x, mp.inf) if upper else (0, x)), regularized=True)
            pdf = lambda x: mp.exp((r - 1) * mp.log(x) - x - mp.loggamma(r))
        else:
            r, s = map(mp.mpf, params)
            tail = lambda x: (mp.betainc(s, r, 0, s / (r * x + s), regularized=True) if upper
                              else mp.betainc(r, s, 0, r * x / (r * x + s), regularized=True))
            pdf = lambda x: mp.exp(r * mp.log(r / s) + (r - 1) * mp.log(x)
                                   - (r + s) * mp.log1p(r * x / s) - mp.log(mp.beta(r, s)))
        x = mp.mpf(x0)
        for _ in range(60):
            step = (tail(x) - level) / pdf(x)
            x = x + step if upper else x - step
            if abs(step) < x * mp.mpf(10) ** (10 - dps):
                return float(x)
    raise ArithmeticError(f"Newton did not converge at u={u}")
