"""Population vectors, energy spectra and Gibbs states of the working qubit.

Conventions used throughout the package: populations are a qubit's two
probabilities, ground state first; a spectrum is the two levels (0, E); and
energies are measured in units of the working-qubit splitting, so the qubit
spectrum is (0, 1) and all "beta" arguments are the dimensionless product of
the inverse temperature with that splitting.  The types hold two levels
only, so no function checks a dimension.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EnergySpectrum",
    "GibbsVector",
    "PopulationVector",
    "QUBIT",
    "as_number",
    "as_numbers",
    "average_energy",
    "check_beta",
    "check_betas",
    "check_size",
    "check_unit_interval",
    "gibbs_vector",
    "qubit_population",
    "qubit_populations",
]

_SUM_TOL = 1e-12
_DRIFT_TOL = 1e-9
_TEXT = (str, bytes)


# The input rules of the package: every module checks temperatures, caps in
# [0, 1] and integer sizes through these.


def as_number(value: float) -> float:
    """float(value), except that text (str or bytes), which float() would
    parse, is returned as it is, for the calling rule to reject: no input is
    silently coerced.  The rules here, PopulationVector, EnergySpectrum and
    the mixing weight take their numbers through this, and arrays go through
    as_numbers.
    """
    return value if isinstance(value, _TEXT) else float(value)


def check_beta(value: float, name: str = "beta_omega") -> float:
    """value as a float, if it is finite and >= 0, as temperatures and times must be."""
    value = as_number(value)
    if isinstance(value, float) and math.isfinite(value) and value >= 0.0:
        return value
    raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def as_numbers(values: np.ndarray, name: str) -> np.ndarray:
    """np.asarray(values, dtype=float), except that text (str or bytes)
    anywhere in values, which the conversion would parse, raises ValueError:
    as_number's rule over an array.
    """
    values = np.asarray(values)
    if values.dtype.kind in "USO":  # text, or objects that may be text
        for value in values.ravel().tolist():
            if isinstance(value, _TEXT):
                raise ValueError(f"{name} must be a number, got {value!r}")
    return np.asarray(values, dtype=float)


def check_betas(values: np.ndarray, name: str = "beta_omega") -> np.ndarray:
    """check_beta over a 1-d array, with its message for the first bad entry."""
    values = as_numbers(values, name)
    ok = np.isfinite(values) & (values >= 0.0)
    if not ok.all():
        check_beta(values[int(ok.argmin())], name)
    return values


def check_unit_interval(value: float, name: str) -> float:
    """value as a float, if it lies in [0, 1]."""
    value = as_number(value)
    if isinstance(value, float) and 0.0 <= value <= 1.0:
        return value
    raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


def check_size(value: int, name: str, minimum: int) -> int:
    """value, if it is an integer of at least minimum; a float, even 3.0, is rejected."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class PopulationVector:
    """Probability vector of a qubit: exactly two entries, ground entry first.

    Entries must lie in [0, 1] and sum to one within 1e-12.  Sums drifting
    further (but staying within 1e-9) are renormalized and the instance is
    marked with ``renormalized=True`` so the correction is never silent;
    anything worse is rejected as a caller bug, and so is text.
    """

    entries: tuple[float, ...]
    renormalized: bool = field(default=False, compare=False)

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if not (len(entries) == 2 and entries[0].__class__ is entries[1].__class__ is float):
            entries = tuple(map(as_number, entries))
        if len(entries) != 2:
            raise ValueError(f"a qubit population has two entries, got {len(entries)}")
        for x in entries:
            if not isinstance(x, float):
                raise ValueError(f"population entry {x!r} outside [0, 1]")
            if not math.isfinite(x):
                raise ValueError(f"non-finite population entry {x!r}")
            if x < -_SUM_TOL or x > 1.0 + _SUM_TOL:
                raise ValueError(f"population entry {x!r} outside [0, 1]")
        g, x = entries
        total = (g + x) or 0.0  # fsum's sum of two floats, +0.0 for a zero sum
        drift = abs(total - 1.0)
        if drift > _DRIFT_TOL:
            raise ValueError(f"population sum {total!r} too far from 1 to renormalize")
        if drift > _SUM_TOL:
            entries = (g / total, x / total)
            object.__setattr__(self, "renormalized", True)
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class GibbsVector(PopulationVector):
    """Thermal population vector; entries are strictly positive."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(x <= 0.0 for x in self.entries):
            raise ValueError("Gibbs vector entries must be strictly positive")


@dataclass(frozen=True)
class EnergySpectrum:
    """The two levels (0, E) of a qubit, with E finite and >= 0 (E = 0 is degenerate)."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = tuple(map(as_number, self.levels))
        if len(levels) != 2:
            raise ValueError(f"a qubit spectrum has two levels, got {len(levels)}")
        ground, excited = levels
        if ground != 0.0:
            raise ValueError(f"ground level must sit at 0, got {ground!r}")
        if not (isinstance(excited, float) and math.isfinite(excited) and excited >= 0.0):
            raise ValueError(f"excited level must be finite and >= 0, got {excited!r}")
        object.__setattr__(self, "levels", levels)


QUBIT = EnergySpectrum((0.0, 1.0))


def qubit_population(ground: float) -> PopulationVector:
    """Two-level population vector with the given ground occupation."""
    return PopulationVector((ground, 1.0 - float(ground)))


def qubit_populations(
    ground: np.ndarray, excited: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PopulationVector's rule over aligned arrays of qubit entries.

    Returns the entries, divided by their sum where it drifts from 1 by more
    than 1e-12 (the sum of two floats is fsum's), and the mask of those rows.
    The first row PopulationVector rejects raises its error.
    """
    total = ground + excited
    drift = np.abs(total - 1.0)
    ok = (
        np.isfinite(total)
        & (ground >= -_SUM_TOL) & (ground <= 1.0 + _SUM_TOL)
        & (excited >= -_SUM_TOL) & (excited <= 1.0 + _SUM_TOL)
        & (drift <= _DRIFT_TOL)
    )
    if not ok.all():
        index = int(ok.argmin())
        PopulationVector((ground[index], excited[index]))
    renormalized = drift > _SUM_TOL
    if renormalized.any():
        ground = np.where(renormalized, ground / total, ground)
        excited = np.where(renormalized, excited / total, excited)
    return ground, excited, renormalized


def gibbs_vector(beta: float, spectrum: EnergySpectrum) -> GibbsVector:
    """Gibbs populations exp(-beta * E_i) / Z over the given spectrum."""
    beta = check_beta(beta, "inverse temperature")
    weights = [math.exp(-beta * e) for e in spectrum.levels]
    z = math.fsum(weights)
    return GibbsVector(tuple(w / z for w in weights))


def average_energy(p: PopulationVector, spectrum: EnergySpectrum) -> float:
    """Mean energy sum_i p_i E_i."""
    return math.fsum(x * e for x, e in zip(p.entries, spectrum.levels))
