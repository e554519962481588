"""Beta-ordering and thermomajorization, including the brute-force qubit oracle."""

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
    beta_order,
    gibbs_vector,
    qubit_population,
    thermomajorization_curve,
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


def test_beta_order_examples():
    gamma = qubit_gamma(math.log(2.0))  # (2/3, 1/3)
    assert beta_order(gamma, gamma).permutation == (0, 1)  # ties keep lower index
    p = PopulationVector((0.6, 0.4))  # ratios (0.9, 1.2)
    assert beta_order(p, gamma).permutation == (1, 0)
    uniform = qubit_gamma(0.0)
    assert beta_order(PopulationVector((0.7, 0.3)), uniform).permutation == (0, 1)


def test_beta_order_rejects_mismatch():
    with pytest.raises(ValueError):
        beta_order(PopulationVector((1.0,)), qubit_gamma(1.0))


def test_curve_examples():
    gamma = qubit_gamma(math.log(2.0))
    # thermal state: straight diagonal
    diag = thermomajorization_curve(gamma, gamma)
    assert diag.y == pytest.approx(diag.x, abs=1e-12)
    # concentrated on the largest-ratio level: y = 1 at the first vertex
    sharp = thermomajorization_curve(PopulationVector((0.0, 1.0)), gamma)
    assert sharp.y[1] == pytest.approx(1.0, abs=1e-12)
    # hand-computed vertices for p = (0.6, 0.4), order (1, 0)
    curve = thermomajorization_curve(PopulationVector((0.6, 0.4)), gamma)
    assert curve.x == pytest.approx((0.0, 1 / 3, 1.0))
    assert curve.y == pytest.approx((0.0, 0.4, 1.0))


def test_curve_partition_scales_abscissae():
    gamma = qubit_gamma(0.5)
    base = thermomajorization_curve(PopulationVector((0.8, 0.2)), gamma)
    scaled = thermomajorization_curve(PopulationVector((0.8, 0.2)), gamma, partition=2.0)
    assert scaled.x == pytest.approx(tuple(2.0 * x for x in base.x))
    assert scaled.y == base.y
    with pytest.raises(ValueError):
        thermomajorization_curve(gamma, gamma, partition=0.0)


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


@given(p0=st.floats(0.0, 1.0), q0=st.floats(0.0, 1.0), bw=st.floats(0.01, 4.0))
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
    entries=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
    other=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4),
)
def test_uniform_reference_reduces_to_majorization(entries, other):
    dim = min(len(entries), len(other))
    p = PopulationVector(tuple(x / math.fsum(entries[:dim]) for x in entries[:dim]))
    q = PopulationVector(tuple(x / math.fsum(other[:dim]) for x in other[:dim]))
    spectrum = EnergySpectrum((0.0,) * dim)
    uniform = gibbs_vector(0.0, spectrum)
    assert thermomajorizes(p, q, uniform) == classically_majorizes(p, q)


def test_transitive_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim = int(rng.integers(2, 6))
        levels = (0.0, *np.sort(rng.uniform(0.1, 2.0, dim - 1)))
        gamma = gibbs_vector(float(rng.uniform(0.0, 2.0)), EnergySpectrum(levels))
        p, q, r = (PopulationVector(tuple(rng.dirichlet(np.ones(dim)))) for _ in range(3))
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
