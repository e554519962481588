"""Mixtures of the identity with the extremal thermal process."""

import math

import pytest
from hypothesis import given, strategies as st

from threestroke import (
    QUBIT,
    PopulationVector,
    apply_mixture,
    gibbs_vector,
    qubit_population,
)
from threestroke.thermal_qubit import capped_weight


def test_extremal_examples():
    # the full mixture is the extremal process; its columns are the images of
    # the basis states: [[0, 1], [1, 0]] at infinite temperature and
    # [[1/2, 1], [1/2, 0]] at log 2
    ground, excited = qubit_population(1.0), qubit_population(0.0)
    assert apply_mixture(1.0, 0.0, ground).entries == pytest.approx((0.0, 1.0))
    assert apply_mixture(1.0, 0.0, excited).entries == pytest.approx((1.0, 0.0))
    assert apply_mixture(1.0, math.log(2.0), ground).entries == pytest.approx((0.5, 0.5))
    assert apply_mixture(1.0, math.log(2.0), excited).entries == pytest.approx((1.0, 0.0))
    with pytest.raises(ValueError):
        apply_mixture(1.0, -0.1, ground)


@given(bw=st.floats(0.0, 10.0))
def test_extremal_fixes_gibbs(bw):
    gamma = gibbs_vector(bw, QUBIT)
    image = apply_mixture(1.0, bw, gamma)
    assert image.entries == pytest.approx(gamma.entries, abs=1e-12)


def test_mixing_weight_bounds():
    assert capped_weight(0.3, 0.5) == 0.3
    assert capped_weight(0.5 + 1e-13, 0.5) == 0.5 + 1e-13  # within the 1e-12 slack
    for bad in (0.6, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            capped_weight(bad, 0.5)


def test_apply_mixture_examples():
    p = qubit_population(0.5)
    assert apply_mixture(0.0, 1.3, p).entries == p.entries
    out = apply_mixture(1.0, math.log(2.0), p)
    assert out.entries == pytest.approx((0.75, 0.25))
    # halfway between p and its extremal image
    assert apply_mixture(0.5, math.log(2.0), p).entries == pytest.approx((0.625, 0.375))
    with pytest.raises(ValueError):
        apply_mixture(1.5, 1.0, p)
    with pytest.raises(ValueError):
        apply_mixture(0.5, 1.0, PopulationVector((1.0,)))


@given(lam=st.floats(0.0, 1.0), bw=st.floats(0.0, 8.0))
def test_mixture_fixes_gibbs(lam, bw):
    gamma = gibbs_vector(bw, QUBIT)
    out = apply_mixture(lam, bw, gamma)
    assert out.entries == pytest.approx(gamma.entries, abs=1e-12)


@given(
    g=st.floats(0.0, 1.0),
    bw=st.floats(0.0, 5.0),
    lam1=st.floats(0.0, 1.0),
    lam2=st.floats(0.0, 1.0),
    alpha=st.floats(0.0, 1.0),
)
def test_mixture_linear_in_lambda(g, bw, lam1, lam2, alpha):
    p = qubit_population(g)
    lam = alpha * lam1 + (1.0 - alpha) * lam2
    direct = apply_mixture(lam, bw, p).entries
    left = apply_mixture(lam1, bw, p).entries
    right = apply_mixture(lam2, bw, p).entries
    mixed = tuple(alpha * a + (1.0 - alpha) * b for a, b in zip(left, right))
    assert direct == pytest.approx(mixed, abs=1e-12)


@given(g=st.floats(0.0, 1.0), bw=st.floats(0.0, 5.0))
def test_full_extreme_is_extremal_image(g, bw):
    end = apply_mixture(1.0, bw, qubit_population(g))
    e = math.exp(-bw)
    assert end.entries == pytest.approx((1.0 - g * e, g * e), abs=1e-12)
