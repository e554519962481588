"""Passive rearrangement, ergotropy and the work permutations."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threestroke import (
    QUBIT,
    EnergySpectrum,
    PopulationVector,
    WorkPermutation,
    average_energy,
    ergotropy,
    passive_rearrangement,
    qubit_population,
)


def test_permutation_validation():
    assert WorkPermutation.identity(2).mapping == (0, 1)
    assert WorkPermutation.swap().mapping == (1, 0)
    assert WorkPermutation.identity(2).is_identity
    assert not WorkPermutation.swap().is_identity
    with pytest.raises(ValueError):
        WorkPermutation((0, 0))
    with pytest.raises(ValueError):
        WorkPermutation((0, 2))
    assert WorkPermutation((np.int64(1), np.int64(0))).mapping == (1, 0)


def test_identity_dimension_fails_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError):
            WorkPermutation.identity(10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_passive_examples():
    already_passive = qubit_population(0.8)
    passive, perm = passive_rearrangement(already_passive, QUBIT)
    assert perm.is_identity
    # unchanged bit for bit, not merely approximately
    assert passive.entries == already_passive.entries

    swapped, perm = passive_rearrangement(qubit_population(0.2), QUBIT)
    assert perm.mapping == (1, 0)
    assert swapped.entries == (0.8, 0.2)

    degenerate = EnergySpectrum((0.0, 0.0))
    same, perm = passive_rearrangement(qubit_population(0.2), degenerate)
    assert perm.is_identity
    assert same.entries == (0.2, 0.8)

    # a population tie keeps the identity
    _, perm = passive_rearrangement(qubit_population(0.5), QUBIT)
    assert perm.is_identity


def test_ergotropy_examples():
    assert ergotropy(qubit_population(0.8), QUBIT) == 0.0
    assert ergotropy(qubit_population(0.2), QUBIT) == pytest.approx(0.6)
    assert ergotropy(qubit_population(0.2), EnergySpectrum((0.0, 2.5))) == pytest.approx(1.5)
    assert ergotropy(qubit_population(0.2), EnergySpectrum((0.0, 0.0))) == 0.0


def exhaustive_ergotropy(p, spectrum):
    """The largest energy drop over both qubit permutations, each applied by hand."""
    best = 0.0
    for mapping in ((0, 1), (1, 0)):
        rearranged = PopulationVector(tuple(p.entries[i] for i in mapping))
        best = max(best, average_energy(p, spectrum) - average_energy(rearranged, spectrum))
    return best


@given(
    ground=st.floats(0.0, 1.0),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=200)
def test_matches_exhaustive_permutation_search(ground, seed):
    p = qubit_population(ground)
    rng = np.random.default_rng(seed)
    spectrum = EnergySpectrum((0.0, float(rng.uniform(0.0, 3.0))))
    value = ergotropy(p, spectrum)
    assert value >= 0.0
    assert value == pytest.approx(exhaustive_ergotropy(p, spectrum), abs=1e-12)


@given(ground=st.floats(0.0, 1.0), gap=st.floats(0.0, 3.0))
def test_passive_output_has_zero_ergotropy(ground, gap):
    p = qubit_population(ground)
    spectrum = EnergySpectrum((0.0, gap))
    passive, perm = passive_rearrangement(p, spectrum)
    assert ergotropy(passive, spectrum) == 0.0
    assert tuple(p.entries[i] for i in perm.mapping) == passive.entries
