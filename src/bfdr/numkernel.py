"""Special functions and deterministic quadrature used by every other module.

All functions are pure and accept either scalars or numpy arrays where noted.
The quadrature is deliberately simple and fully deterministic: the
trapezoid rule on a uniform grid refined by panel doubling, with Romberg
extrapolation of those same values; it stops when two successive diagonal
entries agree to the requested tolerance, twice running (see :func:`integrate`).
One integrand call covers the two ends and the first six doubling levels.
Limits are finite; :func:`integrate_split` compresses the far tails of a
wide interval logarithmically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._special import _sp

SQRT_2PI = math.sqrt(2.0 * math.pi)

#: Half-width of the directly gridded core of :func:`integrate_split`.
_CORE_WIDTH = 8.0

#: Doubling levels :func:`integrate` evaluates, with the two ends, in its first call.
_FIRST_LEVELS = 6
#: Their midpoints, the i-th of level k at (i + 0.5) / 2**(k-1), in level order.
_FIRST_PANELS = np.repeat(2 ** np.arange(_FIRST_LEVELS), 2 ** np.arange(_FIRST_LEVELS))
_FIRST_OFFSETS = np.arange(_FIRST_PANELS.size) - (_FIRST_PANELS - 1) + 0.5


class NumKernelError(Exception):
    """Base error for numerical-kernel failures."""


class DomainError(NumKernelError, ValueError):
    """An argument lies outside the documented domain."""


class QuadratureNonConvergence(NumKernelError):
    """Refinement budget exhausted before the tolerance was met.

    Carries the best available estimate in ``result`` so callers can decide
    whether to propagate it.
    """

    def __init__(self, result: "IntegralValue", message: str = ""):
        self.result = result
        super().__init__(
            message
            or f"quadrature did not converge: value={result.value!r} "
            f"error_bound={result.error_bound!r} panels={result.panels}"
        )


def std_normal_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi); vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT_2PI
    return float(out) if out.ndim == 0 else out


def std_normal_cdf(x):
    """Standard normal CDF; vectorized, absolute error below 1e-14."""
    x = np.asarray(x, dtype=float)
    out = _sp.ndtr(x)
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF for p in (0, 1)."""
    p_arr = np.asarray(p, dtype=float)
    if not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise DomainError(f"quantile level must lie in (0, 1), got {p!r}")
    out = _sp.ndtri(p_arr)
    return float(out) if out.ndim == 0 else out


def upper_quantile_z(alpha: float) -> float:
    """z_alpha, the upper-alpha point of the standard normal distribution."""
    return std_normal_quantile(1.0 - float(alpha))


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance and refinement budget for :func:`integrate`.

    ``max_refinements`` bounds the panel-doubling depth of the Romberg
    table (2**max_refinements panels at most).
    """

    abs_tol: float = 1e-8
    max_refinements: int = 20

    def __post_init__(self):
        if not self.abs_tol > 0.0:
            raise DomainError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_refinements < 1:
            raise DomainError(
                f"max_refinements must be >= 1, got {self.max_refinements}"
            )


@dataclass(frozen=True)
class IntegralValue:
    """A quadrature result with an a-posteriori error bound.

    ``error_bound`` is the gap between the last two Romberg diagonal entries
    (on non-convergence, between the last two trapezoid values), summed over
    the pieces of a split integral.
    ``truncation_radius`` records where an unbounded domain was cut, when a
    caller did so.
    """

    value: float
    error_bound: float
    panels: int = 0
    converged: bool = True
    truncation_radius: Optional[float] = None

    def __post_init__(self):
        if self.error_bound < 0.0:
            raise DomainError("error_bound must be nonnegative")


DEFAULT_QUADRATURE = QuadratureConfig()


def integrate_split(
    f: Callable,
    a: float,
    b: float,
    anchor: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> IntegralValue:
    """Integrate over a possibly very wide finite interval containing ``anchor``.

    A core of +-``_CORE_WIDTH`` around the anchor is gridded directly; the
    remaining tails are compressed through theta = edge +- (e^v - 1), which
    turns polynomial decay into exponential decay in v. Each piece is refined
    to ``cfg`` and the reported bound is the sum of the pieces' bounds.
    """
    if not a <= anchor <= b:
        raise DomainError(f"anchor {anchor} outside [{a}, {b}]")
    lo_core = max(a, anchor - _CORE_WIDTH)
    hi_core = min(b, anchor + _CORE_WIDTH)
    pieces = []

    def run(fun, lo, hi):
        if hi <= lo:
            return
        try:
            pieces.append(integrate(fun, lo, hi, cfg))
        except QuadratureNonConvergence as exc:
            pieces.append(exc.result)

    run(f, lo_core, hi_core)
    for edge, end, sign in ((lo_core, a, -1.0), (hi_core, b, 1.0)):
        if sign * (end - edge) > 0.0:

            def tail(v, edge=edge, sign=sign):
                ev = np.exp(np.asarray(v, dtype=float))
                return np.asarray(f(edge + sign * (ev - 1.0)), dtype=float) * ev

            run(tail, 0.0, math.log1p(sign * (end - edge)))
    value = float(sum(p.value for p in pieces))
    err = float(sum(p.error_bound for p in pieces))
    panels = int(sum(p.panels for p in pieces))
    result = IntegralValue(value, err, panels=panels, converged=all(p.converged for p in pieces))
    if not result.converged:
        raise QuadratureNonConvergence(result)
    return result


def integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> IntegralValue:
    """Integrate ``f`` over the finite interval [a, b], a <= b, by Romberg
    extrapolation of the trapezoid rule on a doubling uniform grid.

    ``f`` must accept a numpy array of abscissas and return an array of the
    same shape. Level k halves the panels, evaluating only the new midpoints,
    and builds the row R[k][j] = R[k][j-1] + (R[k][j-1] - R[k-1][j-1]) / (4**j - 1)
    from the trapezoid value R[k][0]. The estimate is the diagonal R[k][k] with
    bound |R[k][k] - R[k-1][k-1]|; we stop at level >= 4 once that bound is
    within ``abs_tol`` and the previous one was within ``100 * abs_tol``.
    One call of ``f`` covers the ends and levels 1..min(6, ``max_refinements``),
    then one call per level; each level is still summed on its own, in order.
    On an exhausted budget raises :class:`QuadratureNonConvergence` carrying
    the trapezoid value and its last gap.
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise DomainError(f"integration limits must be finite with a <= b, got ({a}, {b})")
    span = b - a
    if span == 0.0:
        return IntegralValue(0.0, 0.0, panels=0)
    first = min(_FIRST_LEVELS, cfg.max_refinements)
    m = 2**first - 1
    first_x = np.concatenate(([a, b], a + span * _FIRST_OFFSETS[:m] / _FIRST_PANELS[:m]))
    vals = np.asarray(f(first_x), dtype=float)
    weight_sum = 0.5 * (vals[0] + vals[1])
    row = [weight_sum * span]
    err = math.inf
    for level in range(1, cfg.max_refinements + 1):
        if level <= first:  # level k's midpoints sit at vals[2**(k-1) + 1 : 2**k + 1]
            new = vals[2 ** (level - 1) + 1 : 2**level + 1]
        else:
            x = a + span * (np.arange(2 ** (level - 1)) + 0.5) / 2 ** (level - 1)
            new = np.asarray(f(x), dtype=float)
        weight_sum += float(np.add.reduce(new))
        panels = 2**level
        prev, row = row, [weight_sum * span / panels]
        for j, r in enumerate(prev, 1):
            row.append(row[-1] + (row[-1] - r) / (4**j - 1))
        prev_err, err = err, abs(row[-1] - prev[-1])
        if level >= 4 and err <= cfg.abs_tol and prev_err <= 100.0 * cfg.abs_tol:
            return IntegralValue(row[-1], err, panels=panels)
    raise QuadratureNonConvergence(
        IntegralValue(row[0], abs(row[0] - prev[0]), panels=panels, converged=False)
    )
