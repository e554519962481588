"""Work extraction by cyclic unitaries on diagonal states.

For a diagonal state the optimal cyclic unitary is a permutation of the
populations, so the ergotropy reduces to the energy gap between the state and
its passive rearrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .populations import EnergySpectrum, PopulationVector, average_energy

__all__ = [
    "WorkPermutation",
    "apply_permutation",
    "ergotropy",
    "passive_rearrangement",
]


@dataclass(frozen=True)
class WorkPermutation:
    """Relabeling of level indices; entry j names the source level for slot j."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(int(i) for i in self.mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError(f"{mapping!r} is not a permutation")
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def identity(cls, dim: int) -> WorkPermutation:
        return cls(tuple(range(dim)))

    @classmethod
    def swap(cls) -> WorkPermutation:
        """The population swap of a two-level system."""
        return cls((1, 0))

    @property
    def dim(self) -> int:
        return len(self.mapping)

    @property
    def is_identity(self) -> bool:
        return all(i == j for j, i in enumerate(self.mapping))


def apply_permutation(p: PopulationVector, perm: WorkPermutation) -> PopulationVector:
    if p.dim != perm.dim:
        raise ValueError(f"dimension mismatch: {p.dim} populations, {perm.dim} slots")
    return PopulationVector(tuple(p.entries[i] for i in perm.mapping))


def passive_rearrangement(
    p: PopulationVector, spectrum: EnergySpectrum
) -> tuple[PopulationVector, WorkPermutation]:
    """Arrange populations nonincreasingly against the energy levels.

    Population ties keep the lower original index first.  Levels sharing an
    energy are left untouched whenever they would merely trade populations
    among themselves: any rearrangement inside a degenerate block is free, so
    the identity is preferred there.
    """
    if p.dim != spectrum.dim:
        raise ValueError(f"dimension mismatch: {p.dim} populations, {spectrum.dim} levels")
    by_energy = sorted(range(p.dim), key=lambda i: (spectrum.levels[i], i))
    by_population = sorted(range(p.dim), key=lambda i: (-p.entries[i], i))
    mapping = [0] * p.dim
    start = 0
    for _, group in groupby(by_energy, key=lambda i: spectrum.levels[i]):
        block = list(group)
        sources = by_population[start : start + len(block)]
        if set(sources) == set(block):
            for level in block:
                mapping[level] = level
        else:
            for level, source in zip(block, sources):
                mapping[level] = source
        start += len(block)
    perm = WorkPermutation(tuple(mapping))
    return apply_permutation(p, perm), perm


def ergotropy(p: PopulationVector, spectrum: EnergySpectrum) -> float:
    """Maximal average energy extractable by permuting the populations."""
    passive, _ = passive_rearrangement(p, spectrum)
    # a state passive up to rounding can come out an ulp below zero; the
    # rearrangement inequality makes the true gap nonnegative
    return max(0.0, average_energy(p, spectrum) - average_energy(passive, spectrum))
