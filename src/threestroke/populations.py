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
    "PopulationVector",
    "QUBIT",
    "as_entries",
    "as_number",
    "as_numbers",
    "average_energy",
    "check_beta",
    "check_betas",
    "check_instance",
    "check_size",
    "check_unit_interval",
    "gibbs_vector",
    "qubit_population",
    "qubit_populations",
]

_SUM_TOL = 1e-12
_DRIFT_TOL = 1e-9
# Inputs that float() or operator.index would take as numbers but are not:
# text, booleans, and complex numbers, whose imaginary part numpy would drop.
_NOT_NUMBERS = (str, bytes, bool, np.bool_, complex, np.complexfloating)


# The input rules of the package: every module checks temperatures, caps in
# [0, 1] and integer sizes through these.


def as_number(value: float) -> float:
    """float(value), except that text (str or bytes), which float() would
    parse, booleans, complex numbers (each also as a 0-d array) and whatever
    float() refuses or overflows on, such as None or 10**400, are returned as
    they are, for the calling rule to reject: no input is silently coerced.
    A 0-d object array is read as the object it holds, by the same rule.
    The rules here, PopulationVector, EnergySpectrum and the mixing weight
    take their numbers through this, and arrays go through as_numbers.
    """
    if value.__class__ is float:
        return value
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "O" and value.ndim == 0:
            return as_number(value.item())
        if value.dtype.kind in "bcSU":
            return value
    if isinstance(value, _NOT_NUMBERS):
        return value
    try:
        return float(value)
    except (TypeError, OverflowError):
        return value


def as_entries(values, name: str, convert=as_number) -> tuple:
    """tuple(map(convert, values)), the entries of the qubit types; a value that
    is not a container, such as None or a bare number, raises ValueError."""
    try:
        values = iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a container, got {values!r}") from None
    return tuple(map(convert, values))


def check_beta(value: float, name: str = "beta_omega") -> float:
    """value as a float, if it is finite and >= 0, as temperatures and times must be."""
    value = as_number(value)
    if isinstance(value, float) and math.isfinite(value) and value >= 0.0:
        return value
    raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def as_numbers(values: np.ndarray, name: str) -> np.ndarray:
    """np.asarray(values, dtype=float), except that a boolean or complex
    array, and text (str or bytes), booleans, complex numbers or anything
    else float() refuses anywhere in values, raise ValueError: as_number's
    rule over an array.  A list or tuple is read as objects first, since
    numpy turns [0.2, True] into floats; an array is taken as it is.
    """
    if isinstance(values, (list, tuple)):
        values = np.array(values, dtype=object)
    values = np.asarray(values)
    if values.dtype.kind in "bc":
        kind = "boolean" if values.dtype.kind == "b" else "complex"
        raise ValueError(f"{name} must be a number, got a {kind} array")
    if values.dtype.kind in "USO":  # text, or objects that may not be numbers
        for value in values.ravel().tolist():
            if not isinstance(as_number(value), float):
                raise ValueError(f"{name} must be a number, got {value!r}")
    return np.asarray(values, dtype=float)


def check_betas(values: np.ndarray, name: str = "beta_omega") -> np.ndarray:
    """check_beta over a 1-d array, with its message for the first bad entry."""
    values = as_numbers(values, name)
    if values.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {values.shape}")
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
    """value, if it is an integer of at least minimum; a float, even 3.0, or a bool is rejected."""
    try:
        if isinstance(value, _NOT_NUMBERS):
            raise TypeError
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
    marked with ``renormalized=True`` so the correction is never silent; the
    mark is set here only, never by the caller.  Anything worse is rejected
    as a caller bug, and so are text and booleans.  A renormalized entry is
    held in [-1e-12, 1 + 1e-12]: the division by the sum can take an entry
    at a bound up to 1e-21 past it.
    """

    entries: tuple[float, ...]
    renormalized: bool = field(default=False, init=False, compare=False)

    def __post_init__(self) -> None:
        entries = self.entries
        if not (entries.__class__ is tuple and len(entries) == 2
                and entries[0].__class__ is entries[1].__class__ is float):
            entries = as_entries(entries, "population entries")
        if len(entries) != 2:
            raise ValueError(f"a qubit population has two entries, got {len(entries)}")
        for x in entries:
            if not isinstance(x, float):
                raise ValueError(f"population entry {x!r} must be a number")
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
            entries = (min(max(g / total, -_SUM_TOL), 1.0 + _SUM_TOL),
                       min(max(x / total, -_SUM_TOL), 1.0 + _SUM_TOL))
            object.__setattr__(self, "renormalized", True)
        object.__setattr__(self, "entries", entries)


def check_instance(value, name: str, kind: type):
    """value, if it is an instance of kind, whose fields were checked when it was built."""
    if isinstance(value, kind):
        return value
    article = "an" if kind.__name__[0] in "AEIOU" else "a"
    raise ValueError(f"{name} must be {article} {kind.__name__}, got {value!r}")


@dataclass(frozen=True)
class EnergySpectrum:
    """The two levels (0, E) of a qubit, with E finite and >= 0 (E = 0 is degenerate)."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        levels = as_entries(self.levels, "spectrum levels")
        if len(levels) != 2:
            raise ValueError(f"a qubit spectrum has two levels, got {len(levels)}")
        ground, excited = levels
        if not (isinstance(ground, float) and ground == 0.0):
            raise ValueError(f"ground level must sit at 0, got {ground!r}")
        if not (isinstance(excited, float) and math.isfinite(excited) and excited >= 0.0):
            raise ValueError(f"excited level must be finite and >= 0, got {excited!r}")
        object.__setattr__(self, "levels", levels)


QUBIT = EnergySpectrum((0.0, 1.0))


def qubit_population(ground: float) -> PopulationVector:
    """Two-level population vector with the given ground occupation."""
    ground = as_number(ground)
    return PopulationVector((ground, 1.0 - ground if isinstance(ground, float) else ground))


def qubit_populations(
    ground: np.ndarray, excited: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PopulationVector's rule over aligned arrays of qubit entries.

    Returns the entries, divided by their sum where it drifts from 1 by more
    than 1e-12 (the sum of two floats is fsum's) and held in the bounds, and
    the mask of those rows.
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
        ground = np.where(renormalized, np.clip(ground / total, -_SUM_TOL, 1 + _SUM_TOL), ground)
        excited = np.where(renormalized, np.clip(excited / total, -_SUM_TOL, 1 + _SUM_TOL), excited)
    return ground, excited, renormalized


def gibbs_vector(beta: float, spectrum: EnergySpectrum) -> PopulationVector:
    """Gibbs populations exp(-beta * E_i) / Z over the given spectrum.

    An entry that underflows is 0.0; thermomajorizes, which divides by the
    entries, rejects it.
    """
    beta = check_beta(beta, "inverse temperature")
    spectrum = check_instance(spectrum, "spectrum", EnergySpectrum)
    weights = [math.exp(-beta * e) for e in spectrum.levels]
    z = math.fsum(weights)
    return PopulationVector(tuple(w / z for w in weights))


def average_energy(p: PopulationVector, spectrum: EnergySpectrum) -> float:
    """Mean energy sum_i p_i E_i."""
    entries = check_instance(p, "p", PopulationVector).entries
    levels = check_instance(spectrum, "spectrum", EnergySpectrum).levels
    return math.fsum(x * e for x, e in zip(entries, levels))
