"""Thermal processes on a two-level system.

Every stochastic matrix fixing the qubit Gibbs state is a convex mixture of
the identity and a single extremal process, so one mixing weight in [0, 1]
parametrizes the whole reachable set; restrictions on the bath coupling only
shrink the admissible range of that weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .populations import PopulationVector, check_beta, check_unit_interval

__all__ = [
    "MixingWeight",
    "ThermalProcess",
    "apply_mixture",
    "capped_weight",
    "extremal_process",
    "polytope_extremes",
]

_STOCH_TOL = 1e-12


@dataclass(frozen=True)
class MixingWeight:
    """Weight of the extremal process in a mixture with the identity.

    lam must lie in [0, lam_max]; lam_max in [0, 1] encodes whatever
    restriction the bath coupling imposes.
    """

    lam: float
    lam_max: float = 1.0

    def __post_init__(self) -> None:
        lam_max = check_unit_interval(self.lam_max, "lam_max")
        lam = float(self.lam)
        if not 0.0 <= lam <= lam_max:
            raise ValueError(f"mixing weight {lam!r} outside [0, {lam_max!r}]")
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam_max", lam_max)


def capped_weight(lam: float | MixingWeight, cap: float = 1.0) -> float:
    """The mixing weight, bare or a MixingWeight, held to [0, cap] with 1e-12 slack."""
    value = lam.lam if isinstance(lam, MixingWeight) else float(lam)
    if not math.isfinite(value) or value < 0.0 or value > cap + _STOCH_TOL:
        raise ValueError(f"mixing weight {value!r} outside [0, {cap!r}]")
    return value


@dataclass(frozen=True)
class ThermalProcess:
    """Column-stochastic 2x2 matrix fixing the qubit Gibbs state at beta_omega."""

    matrix: tuple[tuple[float, float], tuple[float, float]]
    beta_omega: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta_omega", check_beta(self.beta_omega))
        matrix = tuple(tuple(float(x) for x in row) for row in self.matrix)
        if len(matrix) != 2 or any(len(row) != 2 for row in matrix):
            raise ValueError("thermal process needs a 2x2 matrix")
        for row in matrix:
            for x in row:
                if not math.isfinite(x) or x < -_STOCH_TOL or x > 1.0 + _STOCH_TOL:
                    raise ValueError(f"matrix entry {x!r} outside [0, 1]")
        for j in range(2):
            column_sum = matrix[0][j] + matrix[1][j]
            if abs(column_sum - 1.0) > _STOCH_TOL:
                raise ValueError(f"column {j} sums to {column_sum!r}, not 1")
        e = math.exp(-self.beta_omega)
        gibbs = (1.0 / (1.0 + e), e / (1.0 + e))
        residual = max(
            abs(matrix[i][0] * gibbs[0] + matrix[i][1] * gibbs[1] - gibbs[i]) for i in range(2)
        )
        if residual > _STOCH_TOL:
            raise ValueError(f"matrix moves the Gibbs state by {residual!r}")
        object.__setattr__(self, "matrix", matrix)

    def as_array(self) -> np.ndarray:
        return np.array(self.matrix, dtype=float)

    def apply(self, p: PopulationVector) -> PopulationVector:
        if p.dim != 2:
            raise ValueError(f"expected a qubit population, got dimension {p.dim}")
        m = self.matrix
        g, x = p.entries
        return PopulationVector((m[0][0] * g + m[0][1] * x, m[1][0] * g + m[1][1] * x))


def extremal_process(beta_omega: float) -> ThermalProcess:
    """The unique nontrivial extreme point of the qubit thermal polytope."""
    beta_omega = check_beta(beta_omega)
    e = math.exp(-beta_omega)
    return ThermalProcess(((1.0 - e, 1.0), (e, 0.0)), beta_omega)


def apply_mixture(
    lam: float | MixingWeight, beta_omega: float, p: PopulationVector
) -> PopulationVector:
    """Apply lam * extremal + (1 - lam) * identity to a qubit population."""
    beta_omega = check_beta(beta_omega)
    if p.dim != 2:
        raise ValueError(f"expected a qubit population, got dimension {p.dim}")
    value = capped_weight(lam)
    e = math.exp(-beta_omega)
    g, x = p.entries
    ground = value * (1.0 - g * e) + (1.0 - value) * g
    excited = value * (g * e) + (1.0 - value) * x
    return PopulationVector((ground, excited))


def polytope_extremes(
    p: PopulationVector, beta_omega: float, lambda_max: float = 1.0
) -> tuple[PopulationVector, PopulationVector]:
    """End points of the reachable segment of p under capped thermal processes."""
    value = capped_weight(lambda_max)
    return p, apply_mixture(value, beta_omega, p)
