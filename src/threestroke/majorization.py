"""Thermomajorization order on populations relative to a thermal state.

The order is decided by comparing concave piecewise-linear curves: for each
vector the levels are sorted by the ratio p_i / gamma_i and the running sums
of the sorted populations are plotted against the running sums of the sorted
(and partition-scaled) Gibbs weights.  One vector thermomajorizes another
when its curve lies nowhere below the other's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .populations import GibbsVector, PopulationVector

__all__ = [
    "BetaOrder",
    "ThermomajorizationCurve",
    "beta_order",
    "thermomajorization_curve",
    "thermomajorizes",
]


@dataclass(frozen=True)
class BetaOrder:
    """Permutation of level indices sorting p_i / gamma_i nonincreasingly."""

    permutation: tuple[int, ...]


@dataclass(frozen=True)
class ThermomajorizationCurve:
    """Concave piecewise-linear curve through the beta-ordered partial sums."""

    x: tuple[float, ...]
    y: tuple[float, ...]


def beta_order(p: PopulationVector, gamma: GibbsVector) -> BetaOrder:
    """Sort level indices by p_i / gamma_i, largest ratio first.

    Ties keep the lower original index first, which makes the order and every
    curve built from it deterministic.
    """
    if p.dim != gamma.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {gamma.dim}")
    if any(g <= 0.0 for g in gamma.entries):
        raise ValueError("reference state must have strictly positive entries")
    ratios = [x / g for x, g in zip(p.entries, gamma.entries)]
    permutation = sorted(range(p.dim), key=lambda i: -ratios[i])
    return BetaOrder(tuple(permutation))


def thermomajorization_curve(
    p: PopulationVector, gamma: GibbsVector, partition: float = 1.0
) -> ThermomajorizationCurve:
    """Curve of p relative to gamma, with abscissae scaled by the partition function."""
    if not math.isfinite(partition) or partition <= 0.0:
        raise ValueError(f"partition function must be finite and > 0, got {partition!r}")
    order = beta_order(p, gamma).permutation
    xs = [0.0]
    ys = [0.0]
    for i in order:
        xs.append(xs[-1] + partition * gamma.entries[i])
        ys.append(ys[-1] + p.entries[i])
    return ThermomajorizationCurve(tuple(xs), tuple(ys))


def thermomajorizes(
    p: PopulationVector, q: PopulationVector, gamma: GibbsVector, tol: float = 1e-12
) -> bool:
    """True when the curve of p lies on or above the curve of q everywhere.

    Both curves are piecewise linear with the same endpoints, so comparing
    them at the union of their vertex abscissae is exact.
    """
    curve_p = thermomajorization_curve(p, gamma)
    curve_q = thermomajorization_curve(q, gamma)
    xs = np.union1d(curve_p.x, curve_q.x)
    values_p = np.interp(xs, curve_p.x, curve_p.y)
    values_q = np.interp(xs, curve_q.x, curve_q.y)
    return bool(np.all(values_p >= values_q - tol))
