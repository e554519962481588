"""Work extraction by cyclic unitaries on diagonal qubit states.

For a diagonal state the optimal cyclic unitary is a permutation of the
populations, which for a qubit is the identity or the swap, so the ergotropy
reduces to the energy gap between the state and its passive rearrangement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .populations import EnergySpectrum, PopulationVector, average_energy

__all__ = [
    "WorkPermutation",
    "ergotropy",
    "passive_rearrangement",
]


@dataclass(frozen=True)
class WorkPermutation:
    """Relabeling of the two levels, (0, 1) or (1, 0); entry j names the source of slot j."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        mapping = tuple(int(i) for i in self.mapping)
        if mapping not in ((0, 1), (1, 0)):
            raise ValueError(f"{mapping!r} is not a permutation of the two qubit levels")
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def identity(cls, dim: int) -> WorkPermutation:
        """The identity of a dim-level system; only dim = 2 exists."""
        return cls(tuple(range(dim)))

    @classmethod
    def swap(cls) -> WorkPermutation:
        """The population swap of a two-level system."""
        return cls((1, 0))

    @property
    def is_identity(self) -> bool:
        return self.mapping == (0, 1)


def passive_rearrangement(
    p: PopulationVector, spectrum: EnergySpectrum
) -> tuple[PopulationVector, WorkPermutation]:
    """Put the larger population on the ground level.

    A population tie keeps the identity, and so does the degenerate spectrum
    (0, 0), where trading the two populations is free.
    """
    ground, excited = p.entries
    if spectrum.levels[1] == 0.0 or ground >= excited:
        return PopulationVector((ground, excited)), WorkPermutation.identity(2)
    return PopulationVector((excited, ground)), WorkPermutation.swap()


def ergotropy(p: PopulationVector, spectrum: EnergySpectrum) -> float:
    """Maximal average energy extractable by permuting the populations."""
    passive, _ = passive_rearrangement(p, spectrum)
    # a state passive up to rounding can come out an ulp below zero; the
    # rearrangement inequality makes the true gap nonnegative
    return max(0.0, average_energy(p, spectrum) - average_energy(passive, spectrum))
