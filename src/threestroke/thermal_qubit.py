"""Thermal processes on a two-level system.

Every stochastic matrix fixing the qubit Gibbs state is a convex mixture of
the identity and a single extremal process, so one mixing weight in [0, 1]
parametrizes the whole reachable set; restrictions on the bath coupling only
shrink the admissible range of that weight.  apply_mixture applies the
mixture of a given weight, mixture_entries is its arithmetic on floats or
arrays, and capped_weight (capped_weights over arrays) holds a weight to its
cap.
"""

from __future__ import annotations

import math

import numpy as np

from .populations import PopulationVector, as_number, as_numbers, check_beta, check_instance

__all__ = [
    "apply_mixture",
    "capped_weight",
    "capped_weights",
    "mixture_entries",
]

_WEIGHT_SLACK = 1e-12


def capped_weight(lam: float, cap: float = 1.0) -> float:
    """The mixing weight as a float, held to [0, cap] with 1e-12 slack; text is rejected."""
    value = as_number(lam)
    if isinstance(value, float) and math.isfinite(value) and not (
        value < 0.0 or value > cap + _WEIGHT_SLACK
    ):
        return value
    raise ValueError(f"mixing weight {value!r} outside [0, {cap!r}]")


def capped_weights(lam: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """capped_weight over aligned arrays, with its message for the first bad entry."""
    lam = as_numbers(lam, "mixing weight")
    ok = np.isfinite(lam) & (lam >= 0.0) & (lam <= cap + _WEIGHT_SLACK)
    if not ok.all():
        index = int(ok.argmin())
        capped_weight(lam[index], float(cap[index]))
    return lam


def mixture_entries(lam, e, ground, excited):
    """Entries of lam * extremal + (1 - lam) * identity applied to (ground, excited).

    The extremal process with Boltzmann factor e is the matrix
    [[1 - e, 1], [e, 0]]; it maps the ground entry g to 1 - g * e.  The
    arguments are floats or arrays that broadcast together; they meet only
    + - * /, so arrays give the floats' results entry by entry, bit for bit.
    """
    return (
        lam * (1.0 - ground * e) + (1.0 - lam) * ground,
        lam * (ground * e) + (1.0 - lam) * excited,
    )


def apply_mixture(lam: float, beta_omega: float, p: PopulationVector) -> PopulationVector:
    """Apply lam * extremal + (1 - lam) * identity to a qubit population.

    The extremal process at beta_omega is the matrix [[1 - e, 1], [e, 0]]
    with e = exp(-beta_omega) (see mixture_entries).
    """
    beta_omega = check_beta(beta_omega)
    value = capped_weight(lam)
    entries = check_instance(p, "p", PopulationVector).entries
    return PopulationVector(mixture_entries(value, math.exp(-beta_omega), *entries))
