"""Result containers shared by the expansion and quadrature routes (the
simulator returns its own :class:`~bfdr.mtsim.SimResult`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RateResult:
    """A false-discovery or false-acceptance rate value tagged by method.

    ``method`` identifies the route ("series1".."series3" or "quadrature");
    ``error_estimate`` is a propagated bound for quadrature and the magnitude
    of the last retained series term (a heuristic scale, not a bound) for
    expansions. ``clamped`` marks series values pulled back into [0, 1].
    """

    value: float
    method: str
    error_estimate: Optional[float] = None
    clamped: bool = False


@dataclass(frozen=True)
class RatePair:
    """False-discovery and false-acceptance rates from one method."""

    fdr: RateResult
    far: RateResult
