"""Special functions and deterministic quadrature used by every other module.

All functions are pure and accept either scalars or numpy arrays where noted.
The quadrature is one double-exponential (DE) rule, fully deterministic
(Takahasi & Mori, Publ. RIMS 9 (1974) 721-741; Bailey, Jeyabalan & Li,
Experimental Math. 14 (2005) 317-329): :func:`integrate` runs from an origin
out to a finite or infinite end, on the trapezoid rule in t after the change
of variables E(t) = exp((pi/2) sinh t), halving the step in t until two
levels agree. Its nodes and weights are a module-level table built once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._special import _sp

SQRT_2PI = math.sqrt(2.0 * math.pi)
#: The rounding floor of a level's gap, per unit |I_k|: 64 eps.
_ROUNDING = 64.0 * float(np.finfo(float).eps)

#: E(t) = exp((pi/2) sinh t) spans [_E_MIN, _E_MAX] over the node table.
_E_MIN, _E_MAX = 1e-300, 1e13
#: Levels in the table; level k has step 2**-(k+1) in t.
_TOP_LEVEL = 8
#: The first level that may stop; levels 0.._FIRST_STOP share the first integrand call.
_FIRST_STOP = 2
#: Default absolute tolerance of :func:`integrate` and of the exact route.
ABS_TOL = 1e-8


def _node_table():
    """Nodes t = j * 2**-(k+1) of levels k = 0.._TOP_LEVEL (odd j past level 0)
    with E(t) in range, in level order, as columns (E, dE/dt, E/(1 + E),
    (dE/dt)/(1 + E)**2): per unit scale on an infinite side, per unit length
    on a finite one; and where each level ends."""
    t_lo, t_hi = (math.asinh(math.log(e) / (0.5 * math.pi)) for e in (_E_MIN, _E_MAX))
    levels = []
    for k in range(_TOP_LEVEL + 1):
        h = 2.0 ** -(k + 1)
        j = np.arange(math.ceil(t_lo / h), math.floor(t_hi / h) + 1)
        levels.append((j[j % 2 == 1] if k else j) * h)
    t = np.concatenate(levels)
    e = np.exp(0.5 * math.pi * np.sinh(t))
    de = 0.5 * math.pi * np.cosh(t) * e
    # Dividing twice keeps the finite weight free of E**2, whatever E's range.
    table = (e, de, e / (1.0 + e), de / (1.0 + e) / (1.0 + e))
    return table, np.cumsum([level.size for level in levels]).tolist()


_TABLE, _ENDS = _node_table()
#: The calls of the integrand: batch 0 holds levels 0.._FIRST_STOP, batch j level _FIRST_STOP + j.
_BATCHES = _TOP_LEVEL - _FIRST_STOP + 1
_BATCH_STARTS = [0] + _ENDS[_FIRST_STOP:-1]
#: By column, each batch's slice of the column and of its weight column.
_BATCH_TABLES = {
    c: [(_TABLE[c][lo:hi], _TABLE[c + 1][lo:hi]) for lo, hi in zip(_BATCH_STARTS, _ENDS[_FIRST_STOP:])]
    for c in (0, 2)
}
#: By column, the farthest distance (infinite side) or fraction (finite side) on levels 0..k.
_EDGES = {c: [float(_TABLE[c][:end].max()) for end in _ENDS] for c in (0, 2)}
#: The batch whose last node is the farthest of batches 0..j, on both columns:
#: each batch's last node is its farthest, and both columns rise with t.
_EDGE_BATCH = [int(np.argmax([u[-1] for u, _ in _BATCH_TABLES[0][: j + 1]])) for j in range(_BATCHES)]
#: Each level k: where its nodes start and end in the table, and its step 2**-(k+1) in t.
_LEVELS = [(_ENDS[k - 1] if k else 0, _ENDS[k], 2.0 ** -(k + 1)) for k in range(_TOP_LEVEL + 1)]


class NumKernelError(Exception):
    """Base error for numerical-kernel failures."""


class DomainError(NumKernelError, ValueError):
    """An argument lies outside the documented domain."""


class QuadratureNonConvergence(NumKernelError):
    """Refinement budget exhausted before the tolerance was met.

    Carries the best available estimate in ``result`` so callers can decide
    whether to propagate it.
    """

    def __init__(self, result: "IntegralValue"):
        self.result = result
        super().__init__(f"quadrature did not converge: value={result.value!r} "
                         f"error_bound={result.error_bound!r} panels={result.panels}")


def std_normal_pdf(x):
    """Standard normal density exp(-x^2/2)/sqrt(2*pi); vectorized."""
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / SQRT_2PI
    return float(out) if out.ndim == 0 else out


def upper_quantile_z(alpha: float) -> float:
    """z_alpha, the upper-alpha point of the standard normal distribution."""
    p = 1.0 - float(alpha)
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile level must lie in (0, 1), got {p!r}")
    return float(_sp.ndtri(p))


@dataclass(frozen=True)
class IntegralValue:
    """A quadrature result with an a-posteriori error bound.

    ``error_bound`` is the gap between the last two DE levels plus the
    rounding floor 64 eps |value|, plus the caller's bound on the integral
    beyond the outermost node, when it gives one. ``panels`` counts the
    integrand's evaluation points (DE nodes).
    """

    value: float
    error_bound: float
    panels: int = 0

    def __post_init__(self):
        if self.error_bound < 0.0:
            raise DomainError("error_bound must be nonnegative")


def integrate(
    f: Callable,
    origin: float,
    end: float,
    abs_tol: float = ABS_TOL,
    scale: float = 1.0,
    tail: Optional[Callable[[float], float]] = None,
) -> IntegralValue:
    """Integrate ``f`` over the interval between ``origin`` and ``end`` by the
    double-exponential rule, from ``origin`` outward.

    ``f`` must accept a numpy array of abscissas and return an array of the
    same shape. The distance u from ``origin`` is scale * E(t) toward an
    infinite ``end`` and L * E/(1 + E) toward a finite one at distance L,
    with E(t) = exp((pi/2) sinh t) in [1e-300, 1e13], so the nodes crowd
    toward ``origin`` and, on a finite side, toward ``end``. Level k is the
    trapezoid sum in t with step 2**-(k+1) over all nodes so far, each level
    summed on its own, in order. ``f`` is called once per batch, in batch
    order: batch 0 holds the nodes of levels 0..2 and batch j those of level
    2 + j, the same nodes for the same origin, end and scale on every call,
    so the call for batch j may read what a caller kept for batch j. Along
    the table column ``col`` (0 toward an infinite end, 2 toward a finite
    one), the outermost node of levels 0..k is ``_EDGES[col][k]``, and that
    of batches 0..j is the last node of batch ``_EDGE_BATCH[j]``.
    It stops at level k >= 2 once
    |I_k - I_{k-1}| + 64 eps |I_k| <= ``abs_tol`` (> 0); that sum is the
    bound, plus ``tail(edge)`` when given: a bound on the integral beyond the
    outermost node ``edge``. Without ``tail`` the bound leaves that sliver
    out. When level 8, the last, still misses ``abs_tol`` (or its gap is
    NaN), raises :class:`QuadratureNonConvergence` carrying that level and
    its bound.
    """
    origin, end = float(origin), float(end)
    if not abs_tol > 0.0:
        raise DomainError(f"abs_tol must be positive, got {abs_tol}")
    if not (math.isfinite(origin) and not math.isnan(end)):
        raise DomainError(f"need a finite origin and an end, got ({origin}, {end})")
    if end == origin:
        return IntegralValue(0.0, 0.0)
    if math.isinf(end):
        if not 0.0 < scale < math.inf:
            raise DomainError(f"scale must be positive and finite, got {scale}")
        length, col = float(scale), 0
    else:
        length, col = abs(end - origin), 2
    span = math.copysign(1.0, end - origin) * length  # signed: toward end
    batches = _BATCH_TABLES[col]
    u, w = batches[0]
    # levels 0.._FIRST_STOP: one call of f and one product, summed a level at a time
    batch = np.asarray(f(origin + span * u), dtype=float) * w
    reduce, total, estimate = np.add.reduce, 0.0, 0.0
    for level, (lo, hi, step) in enumerate(_LEVELS):
        if level <= _FIRST_STOP:
            part = batch[lo:hi]
        else:
            u, w = batches[level - _FIRST_STOP]
            part = np.asarray(f(origin + span * u), dtype=float) * w
        total += float(reduce(part))
        prev, estimate = estimate, length * step * total
        err = abs(estimate - prev) + _ROUNDING * abs(estimate)
        if level >= _FIRST_STOP and err <= abs_tol:
            break
    bound = err if tail is None else err + float(tail(origin + span * _EDGES[col][level]))
    result = IntegralValue(estimate, bound, panels=hi)
    if not err <= abs_tol:  # true at a NaN gap too
        raise QuadratureNonConvergence(result)
    return result
