"""Passive rearrangement, ergotropy and the work permutations."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threestroke import (
    QUBIT,
    EnergySpectrum,
    EngineParams,
    PopulationVector,
    WorkPermutation,
    ergotropy,
    passive_rearrangement,
    qubit_population,
    run_cycle,
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


def test_each_permutation_is_built_once():
    assert WorkPermutation.swap() is WorkPermutation.swap()
    assert WorkPermutation.identity(2) is WorkPermutation.identity(2)
    assert passive_rearrangement(qubit_population(0.2), QUBIT)[1] is WorkPermutation.swap()
    assert passive_rearrangement(qubit_population(0.8), QUBIT)[1] is WorkPermutation.identity(2)
    # a permutation built by hand runs the same cycle
    params = EngineParams(0.2, 0.6, 0.9, 0.7)
    for built, mapping in ((WorkPermutation.swap(), (1, 0)), (WorkPermutation.identity(2), (0, 1))):
        p0 = qubit_population(0.3)
        assert run_cycle(p0, 0.8, 0.5, built, params) == run_cycle(
            p0, 0.8, 0.5, WorkPermutation(mapping), params)


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
    """The largest energy drop over both qubit permutations, each applied by hand;
    a state's energy is its excited entry times the gap."""
    gap = spectrum.levels[1]
    best = 0.0
    for mapping in ((0, 1), (1, 0)):
        rearranged = PopulationVector(tuple(p.entries[i] for i in mapping))
        best = max(best, p.entries[1] * gap - rearranged.entries[1] * gap)
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


def fsum_ergotropy(p, spectrum):
    """ergotropy as it was first written: the fsum energies of p and of its
    passive rearrangement, their difference held at 0 or above."""
    (g, x), levels = p.entries, spectrum.levels
    passive = (g, x) if levels[1] == 0.0 or g >= x else (x, g)
    energy = [math.fsum(a * e for a, e in zip(entries, levels)) for entries in ((g, x), passive)]
    return max(0.0, energy[0] - energy[1])


@given(
    ground=st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.5, 1.0]),
    # 1 - 5e-10 leaves a sum that PopulationVector renormalizes
    scale=st.sampled_from([1.0, 1.0 - 5e-13, 1.0 - 5e-10]),
    signed_zero=st.booleans(),
    gap=st.floats(0.0, 5.0) | st.sampled_from([0.0, 1e-300, 1.0, 2.5, 1e300]),
)
@settings(max_examples=300)
def test_ergotropy_is_the_fsum_form_bit_for_bit(ground, scale, signed_zero, gap):
    excited = (1.0 - ground) * scale
    p = PopulationVector((ground * scale, -excited if signed_zero and excited == 0.0 else excited))
    spectrum = EnergySpectrum((0.0, gap))
    value, reference = ergotropy(p, spectrum), fsum_ergotropy(p, spectrum)
    assert value == reference and math.copysign(1.0, value) == math.copysign(1.0, reference)
