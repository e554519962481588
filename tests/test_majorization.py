"""Thermomajorization of qubit populations, against the interval and brute-force oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threestroke import (
    QUBIT,
    EnergySpectrum,
    PopulationVector,
    apply_mixture,
    gibbs_vector,
    qubit_population,
    thermomajorizes,
)


def qubit_gamma(beta_omega):
    return gibbs_vector(beta_omega, QUBIT)


def reachable_qubit(p0, q0, beta_omega):
    """Interval feasibility oracle: the qubit thermal cone is a segment.

    The reachable ground entries sweep linearly from p0 (identity) to the
    extremal image 1 - p0 * exp(-beta_omega), so membership is an interval
    check independent of any curve machinery.
    """
    end = 1.0 - p0 * math.exp(-beta_omega)
    lo, hi = min(p0, end), max(p0, end)
    return lo - 1e-12 <= q0 <= hi + 1e-12


def classically_majorizes(p, q):
    """Sorted-prefix-sum majorization oracle for uniform reference weights."""
    ps = sorted(p.entries, reverse=True)
    qs = sorted(q.entries, reverse=True)
    run_p = run_q = 0.0
    for a, b in zip(ps, qs):
        run_p += a
        run_q += b
        if run_p < run_q - 1e-12:
            return False
    return True


def test_curve_examples():
    gamma = qubit_gamma(math.log(2.0))  # (2/3, 1/3)
    # p = (0.6, 0.4) has ratios (0.9, 1.2) and its elbow at (1/3, 0.4), above
    # the thermal diagonal; (0.55, 0.45) has its elbow at (1/3, 0.45), and
    # (0.75, 0.25) at (2/3, 0.75), where p's curve is at 0.7
    p = PopulationVector((0.6, 0.4))
    assert thermomajorizes(p, gamma, gamma)
    assert not thermomajorizes(gamma, p, gamma)
    assert thermomajorizes(p, qubit_population(0.65), gamma)
    assert not thermomajorizes(p, qubit_population(0.55), gamma)
    assert not thermomajorizes(p, qubit_population(0.75), gamma)
    # the excited state's curve reaches 1 at the first elbow, above every other
    excited = PopulationVector((0.0, 1.0))
    assert thermomajorizes(excited, qubit_population(1.0), gamma)
    assert not thermomajorizes(qubit_population(1.0), excited, gamma)
    # the 1e-12 slack on the heights: a ground entry 1e-10 beyond the segment
    # end 1 - p0 * e is outside
    end = 1.0 - 0.6 * 0.5
    beyond = qubit_population(end + 1e-10)
    assert not thermomajorizes(p, beyond, gamma)
    # the ends are compared too: this q meets p's curve at the elbow (1/3, 0.4)
    # and ends 8e-13 above it, within the population rule's 1e-12
    heavy = PopulationVector((0.6 + 8e-13, 0.4))
    assert thermomajorizes(p, heavy, gamma)


@given(g=st.floats(0.0, 1.0), bw=st.floats(0.0, 5.0))
def test_reflexive_and_gibbs_minimal(g, bw):
    gamma = qubit_gamma(bw)
    p = qubit_population(g)
    assert thermomajorizes(p, p, gamma)
    assert thermomajorizes(p, gamma, gamma)


def test_gibbs_majorizes_nothing_else():
    gamma = qubit_gamma(0.7)
    assert not thermomajorizes(gamma, qubit_population(0.99), gamma)
    assert not thermomajorizes(gamma, qubit_population(0.01), gamma)
    assert thermomajorizes(gamma, gamma, gamma)


@given(p0=st.floats(0.0, 1.0), q0=st.floats(0.0, 1.0), bw=st.floats(0.0, 30.0))
@settings(max_examples=300)
def test_qubit_agreement_with_interval_oracle(p0, q0, bw):
    gamma = qubit_gamma(bw)
    verdict = thermomajorizes(qubit_population(p0), qubit_population(q0), gamma)
    assert verdict == reachable_qubit(p0, q0, bw)


@given(p0=st.floats(0.0, 1.0), lam=st.floats(0.0, 1.0), bw=st.floats(0.0, 4.0))
def test_mixture_images_are_thermomajorized(p0, lam, bw):
    gamma = qubit_gamma(bw)
    p = qubit_population(p0)
    assert thermomajorizes(p, apply_mixture(lam, bw, p), gamma)


@given(
    p0=st.floats(0.0, 1.0),
    q0=st.floats(0.0, 1.0),
    beta_e=st.sampled_from([(0.0, 1.0), (3.0, 0.0), (0.0, 0.0)]),
)
def test_uniform_reference_reduces_to_majorization(p0, q0, beta_e):
    # the Gibbs state is uniform at infinite temperature or on a degenerate qubit
    beta, e = beta_e
    uniform = gibbs_vector(beta, EnergySpectrum((0.0, e)))
    p, q = qubit_population(p0), qubit_population(q0)
    assert thermomajorizes(p, q, uniform) == classically_majorizes(p, q)


def test_transitive_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(300):
        spectrum = EnergySpectrum((0.0, float(rng.uniform(0.1, 2.0))))
        gamma = gibbs_vector(float(rng.uniform(0.0, 2.0)), spectrum)
        p, q, r = (qubit_population(float(rng.uniform())) for _ in range(3))
        if thermomajorizes(p, q, gamma) and thermomajorizes(q, r, gamma):
            assert thermomajorizes(p, r, gamma)


def test_exhaustive_two_level_search_matches():
    # scan the full one-parameter Gibbs-stochastic family on a lattice of pairs;
    # pairs landing within one scan step of the segment boundary are skipped
    # because the dense scan cannot resolve them
    for bw in (0.3, 1.0, 2.5):
        gamma = qubit_gamma(bw)
        lams = np.linspace(0.0, 1.0, 201)
        for p0, q0 in itertools.product(np.linspace(0.0, 1.0, 21), repeat=2):
            grounds = np.array(
                [apply_mixture(lam, bw, qubit_population(p0)).entries[0] for lam in lams]
            )
            step = abs(grounds[-1] - grounds[0]) / (len(lams) - 1)
            if step == 0.0 or min(abs(q0 - grounds[0]), abs(q0 - grounds[-1])) < step:
                continue  # boundary pairs are below the scan resolution
            found = float(np.min(np.abs(grounds - q0))) <= step / 2.0 + 1e-12
            assert thermomajorizes(qubit_population(p0), qubit_population(q0), gamma) == found


@pytest.mark.parametrize("gamma", [(1.0, 0.0), (0.0, 1.0)], ids=repr)
def test_a_gibbs_entry_that_is_not_positive_is_rejected(gamma):
    """The curves divide by the Gibbs entries, so a zero entry, such as the
    excited weight of gibbs_vector(800.0, QUBIT), is rejected by name."""
    p = qubit_population(0.3)
    with pytest.raises(ValueError, match="^Gibbs vector entries must be strictly positive$"):
        thermomajorizes(p, p, PopulationVector(gamma))
