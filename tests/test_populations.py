"""Qubit population vectors, spectra and Gibbs weights."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from threestroke import (
    QUBIT,
    EnergySpectrum,
    PopulationVector,
    gibbs_vector,
    qubit_population,
)
from threestroke.populations import qubit_populations

finite = st.floats(allow_nan=False, allow_infinity=False)


def test_entries_validated():
    with pytest.raises(ValueError):
        PopulationVector((0.5, -0.5))
    with pytest.raises(ValueError):
        PopulationVector((0.5, 1.5))
    with pytest.raises(ValueError):
        PopulationVector(())
    with pytest.raises(ValueError):
        PopulationVector((0.5, math.nan))
    # fsum's sum of two negative zeros is 0.0, where -0.0 + -0.0 is -0.0
    with pytest.raises(ValueError, match=r"^population sum 0\.0 too far"):
        PopulationVector((-0.0, -0.0))


def test_sum_drift_tiers():
    # within 1e-12: accepted untouched
    p = PopulationVector((0.5, 0.5 + 1e-13))
    assert not p.renormalized
    assert p.entries[1] == 0.5 + 1e-13
    # within 1e-9: renormalized and flagged
    q = PopulationVector((0.5, 0.5 + 1e-10))
    assert q.renormalized
    assert math.fsum(q.entries) == pytest.approx(1.0, abs=1e-15)
    # beyond 1e-9: rejected
    with pytest.raises(ValueError):
        PopulationVector((0.5, 0.6))
    # an entry at a bound, which the division would take past it, is held there
    for entries in ((-1e-12, 1.0 + 1e-12 - 5e-10), (1.0 - 1e-12, -1e-12)):
        held = PopulationVector(entries)
        assert held.renormalized and -1e-12 in held.entries
        assert all(-1e-12 <= x <= 1.0 + 1e-12 for x in held.entries)
        rows = qubit_populations(*(np.array([x]) for x in entries))
        assert (rows[0][0], rows[1][0]) == held.entries and rows[2][0]
    # the mark is the rule's alone: a caller cannot set it
    with pytest.raises(TypeError):
        PopulationVector((0.5, 0.5), True)
    with pytest.raises(TypeError):
        PopulationVector((0.5, 0.5), renormalized=True)


def _sums_at(tol):
    """Entries (0.5, x) whose sum lies within tol of 1 as far as a float can, above and
    below, and those of the next sums past tol: 1 + k ulp above 1, 1 - k ulp below."""
    up, down = math.ulp(1.0), math.ulp(1.0) / 2
    edges = []
    for k, within in ((math.floor(tol / up), True), (math.floor(tol / up) + 1, False)):
        edges.append(((0.5, 0.5 + k * up), within))
    for k, within in ((math.floor(tol / down), True), (math.floor(tol / down) + 1, False)):
        edges.append(((0.5, 0.5 - k * down), within))
    for (g, x), within in edges:
        assert (abs(g + x - 1.0) <= tol) == within
    return [entries for entries, _ in edges]


_LOW, _HIGH = -1e-12, 1.0 + 1e-12
_KEPT = [
    (_LOW, _HIGH), (_HIGH, _LOW), (-0.0, 1.0), (1.0, -0.0), (5e-324, 1.0), (1.0, 5e-324),
    (-5e-324, 1.0), *_sums_at(1e-12)[0::2],
]
_RENORMALIZED = [*_sums_at(1e-12)[1::2], *_sums_at(1e-9)[0::2]]
_REJECTED = [
    (math.nextafter(_LOW, -1.0), _HIGH), (_HIGH, math.nextafter(_LOW, -1.0)),
    (_LOW, math.nextafter(_HIGH, 2.0)), (math.nextafter(_HIGH, 2.0), _LOW),
    *_sums_at(1e-9)[1::2], (math.nan, 0.5), (math.inf, 0.5),
]


@pytest.mark.parametrize("entries, outcome", [
    *((entries, "kept") for entries in _KEPT),
    *((entries, "renormalized") for entries in _RENORMALIZED),
    *((entries, "rejected") for entries in _REJECTED),
])
def test_valid_case_agrees_with_the_checks_at_the_bounds(entries, outcome):
    """Python floats take the valid-case test, np.float64 entries the full checks: both
    give one vector, or one error, at each bound of the entries and of the sum."""
    built = []
    for convert in (float, np.float64):
        try:
            p = PopulationVector(tuple(convert(x) for x in entries))
        except ValueError as exc:
            built.append(("rejected", str(exc)))
        else:
            built.append(("renormalized" if p.renormalized else "kept", repr(p)))
    assert built[0] == built[1]
    assert built[0][0] == outcome


def test_qubit_population():
    p = qubit_population(0.3)
    assert p.entries == (0.3, 0.7)


def test_gibbs_examples():
    assert gibbs_vector(0.0, QUBIT).entries == pytest.approx((0.5, 0.5))
    assert gibbs_vector(math.log(2.0), QUBIT).entries == pytest.approx((2 / 3, 1 / 3))
    cold = gibbs_vector(50.0, QUBIT)
    assert cold.entries[0] == pytest.approx(1.0, abs=1e-15)
    assert cold.entries[1] < 1e-20


def test_gibbs_validation():
    with pytest.raises(ValueError):
        gibbs_vector(-1.0, QUBIT)
    with pytest.raises(ValueError):
        gibbs_vector(math.inf, QUBIT)
    # an excited weight that underflows is the correctly rounded 0.0;
    # thermomajorizes, which divides by it, rejects it
    assert gibbs_vector(800.0, QUBIT).entries == (1.0, 0.0)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        EnergySpectrum((1.0, 2.0))  # ground must be 0
    for bad in (-1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            EnergySpectrum((0.0, bad))
    with pytest.raises(ValueError):
        EnergySpectrum(())
    assert EnergySpectrum((0.0, 0.0)).levels == (0.0, 0.0)


@given(beta=st.floats(0.001, 20.0), gap=st.floats(0.5, 1.7))
def test_gibbs_entries_decrease_with_level(beta, gap):
    gamma = gibbs_vector(beta, EnergySpectrum((0.0, gap)))
    assert gamma.entries[0] > gamma.entries[1] > 0.0
    assert math.fsum(gamma.entries) == pytest.approx(1.0, abs=1e-12)
