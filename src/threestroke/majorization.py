"""Thermomajorization order on qubit populations relative to a thermal state.

The order is decided by comparing concave piecewise-linear curves: for each
vector the levels are sorted by the ratio p_i / gamma_i and the running sums
of the sorted populations are plotted against the running sums of the sorted
Gibbs weights.  One vector thermomajorizes another when its curve lies
nowhere below the other's.  A qubit's curve runs from the origin through one
elbow to its end, so two curves are compared at the two elbows and the end.
"""

from __future__ import annotations

from .populations import GibbsVector, PopulationVector

__all__ = ["thermomajorizes"]


def _curve(p: PopulationVector, gamma: GibbsVector) -> tuple[float, float, float, float]:
    """Elbow (x, y) and end (x, y) of p's curve relative to gamma: the level with
    the larger p_i / gamma_i comes first, the ground level on a tie."""
    (p0, p1), (g0, g1) = p.entries, gamma.entries
    x, y = (g1, p1) if p1 / g1 > p0 / g0 else (g0, p0)
    return x, y, g0 + g1, p0 + p1


def _height(curve: tuple[float, float, float, float], t: float) -> float:
    """The curve's height at an abscissa t > 0, from the vertex at or left of t."""
    x, y, x_end, y_end = curve
    if t >= x_end:
        return y_end
    if t < x:
        return y / x * t
    return (y_end - y) / (x_end - x) * (t - x) + y


def thermomajorizes(
    p: PopulationVector, q: PopulationVector, gamma: GibbsVector, tol: float = 1e-12
) -> bool:
    """True when the curve of p lies on or above the curve of q, within tol.

    Both curves are piecewise linear and start at the origin, so comparing
    them at the union of their elbows and ends is exact.
    """
    curve_p = _curve(p, gamma)
    curve_q = _curve(q, gamma)
    return all(
        _height(curve_p, t) >= _height(curve_q, t) - tol
        for t in (curve_p[0], curve_q[0], curve_p[2])
    )
