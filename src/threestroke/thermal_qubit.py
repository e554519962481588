"""Thermal processes on a two-level system.

Every stochastic matrix fixing the qubit Gibbs state is a convex mixture of
the identity and a single extremal process, so one mixing weight in [0, 1]
parametrizes the whole reachable set; restrictions on the bath coupling only
shrink the admissible range of that weight.  apply_mixture applies the
mixture of a given weight, and capped_weight holds a weight to its cap.
"""

from __future__ import annotations

import math

from .populations import PopulationVector, check_beta

__all__ = [
    "apply_mixture",
    "capped_weight",
]

_WEIGHT_SLACK = 1e-12


def capped_weight(lam: float, cap: float = 1.0) -> float:
    """The mixing weight as a float, held to [0, cap] with 1e-12 slack."""
    value = float(lam)
    if not math.isfinite(value) or value < 0.0 or value > cap + _WEIGHT_SLACK:
        raise ValueError(f"mixing weight {value!r} outside [0, {cap!r}]")
    return value


def apply_mixture(lam: float, beta_omega: float, p: PopulationVector) -> PopulationVector:
    """Apply lam * extremal + (1 - lam) * identity to a qubit population.

    The extremal process at beta_omega is the matrix [[1 - e, 1], [e, 0]]
    with e = exp(-beta_omega); it maps the ground entry g to 1 - g * e.
    """
    beta_omega = check_beta(beta_omega)
    if p.dim != 2:
        raise ValueError(f"expected a qubit population, got dimension {p.dim}")
    value = capped_weight(lam)
    e = math.exp(-beta_omega)
    g, x = p.entries
    ground = value * (1.0 - g * e) + (1.0 - value) * g
    excited = value * (g * e) + (1.0 - value) * x
    return PopulationVector((ground, excited))
