"""Mixing caps of the ladder-bath and exchange-coupling restrictions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from threestroke import (
    JC_BRANCH_POINT,
    EngineParams,
    RestrictionModel,
    UndefinedEfficiencyError,
    engine_params_from,
    eta_finite_bath,
    lambda_max_finite_bath,
    lambda_max_jc,
    lambda_max_jc_raw,
    optimal_performance,
)


def test_finite_bath_examples():
    # smallest bath: one thermal contact partner
    bw = 0.7
    assert lambda_max_finite_bath(bw, 1) == pytest.approx(1 / (1 + math.exp(-bw)), abs=1e-15)
    assert lambda_max_finite_bath(0.2, 5) == pytest.approx(0.9045725859802667, abs=1e-15)
    # huge bath: cap indistinguishable from 1
    assert lambda_max_finite_bath(0.2, 10_000) == pytest.approx(1.0, abs=1e-9)
    # infinite-temperature limit, exact at zero and approached continuously
    assert lambda_max_finite_bath(0.0, 5) == 5 / 6
    assert lambda_max_finite_bath(1e-6, 5) == pytest.approx(5 / 6, abs=1e-6)


def test_finite_bath_validation():
    with pytest.raises(ValueError):
        lambda_max_finite_bath(0.2, 0)
    with pytest.raises(ValueError):
        lambda_max_finite_bath(0.2, 2.5)
    with pytest.raises(ValueError):
        lambda_max_finite_bath(-0.1, 3)
    with pytest.raises(ValueError):
        lambda_max_finite_bath(math.inf, 3)


@given(bw=st.floats(0.0, 8.0), d=st.integers(1, 60))
@settings(max_examples=300)
def test_finite_bath_monotone_in_bath_size(bw, d):
    lo = lambda_max_finite_bath(bw, d)
    hi = lambda_max_finite_bath(bw, d + 1)
    assert 0.0 < lo <= hi <= 1.0
    if bw * (d + 2) < 30.0:  # strict until the gap quantizes away
        assert lo < hi


@given(bw=st.floats(0.001, 8.0), d=st.integers(1, 60))
@settings(max_examples=300)
def test_finite_bath_monotone_in_beta(bw, d):
    lo = lambda_max_finite_bath(bw, d)
    hi = lambda_max_finite_bath(bw * 1.01, d)
    assert lo <= hi
    if bw * 1.01 * (d + 1) < 30.0:  # strict until the gap quantizes away
        assert lo < hi


def test_jc_examples():
    assert lambda_max_jc_raw(0.0) == 1.0
    assert lambda_max_jc_raw(1.0) == pytest.approx(
        math.exp(-4.0) - math.exp(-3.0) + 1.0, abs=1e-15
    )
    assert lambda_max_jc(1.0) == pytest.approx(0.9685285705208703, abs=1e-15)
    assert lambda_max_jc(0.2) == pytest.approx(0.9813527986861703, abs=1e-15)
    assert 0.0 <= lambda_max_jc_raw(0.2) <= 1.0 and 0.0 <= lambda_max_jc_raw(1.0) <= 1.0
    # inside the overshoot window the stated cap exceeds 1 and gets clamped
    assert lambda_max_jc_raw(0.4) > 1.0
    assert lambda_max_jc(0.4) == 1.0
    with pytest.raises(ValueError):
        lambda_max_jc(-0.2)


def test_jc_branch_point():
    assert JC_BRANCH_POINT == pytest.approx(0.46209812037329684, abs=1e-15)
    # the stated high-temperature branch peaks above 1 right at the crossover
    assert lambda_max_jc_raw(JC_BRANCH_POINT) > 1.04
    assert lambda_max_jc(JC_BRANCH_POINT) == 1.0
    # the two branches do not meet: the cap drops discontinuously past it
    assert lambda_max_jc(JC_BRANCH_POINT) - lambda_max_jc(JC_BRANCH_POINT + 1e-9) > 0.09


@given(bw=st.floats(0.0, 10.0))
@settings(max_examples=500)
def test_jc_cap_always_in_unit_interval(bw):
    assert 0.0 <= lambda_max_jc(bw) <= 1.0


def test_model_construction_and_labels():
    assert RestrictionModel.unrestricted().label == "unrestricted"
    assert RestrictionModel.finite_bath(7).label == "fb7"
    assert RestrictionModel.jaynes_cummings().label == "jc"
    assert RestrictionModel.explicit(0.7).label == "lam0.7"
    # the short form only where it reads back as the same cap
    labels = [RestrictionModel.explicit(lam).label for lam in (0.37, 1.0, 0.05, 0.1234567)]
    assert labels == ["lam0.37", "lam1", "lam0.05", "lam0.1234567"]
    with pytest.raises(ValueError):
        RestrictionModel("bogus")
    with pytest.raises(ValueError):
        RestrictionModel.finite_bath(0)
    with pytest.raises(ValueError):
        RestrictionModel.explicit(1.5)
    with pytest.raises(ValueError):
        RestrictionModel("unrestricted", d=3)
    with pytest.raises(ValueError):
        RestrictionModel("finite_bath", d=3, lam=0.5)


def test_bath_size_is_an_integer_up_to_2_53():
    assert lambda_max_finite_bath(0.0, 2**53) == 1.0
    assert RestrictionModel.finite_bath(2**53).d == 2**53
    for d in (2**53 + 1, 10**400 - 1):
        for call in (
            lambda: lambda_max_finite_bath(0.0, d),
            lambda: lambda_max_finite_bath(0.5, d),
            lambda: RestrictionModel.finite_bath(d),
            lambda: eta_finite_bath(0.2, 0.6, d),
        ):
            with pytest.raises(ValueError, match=r"bath size must be <= 2\*\*53"):
                call()


@pytest.mark.parametrize("kind, d, lam, kept", [
    ("finite_bath", 1, None, True), ("finite_bath", 2**53, None, True),
    ("finite_bath", 0, None, False), ("finite_bath", 2**53 + 1, None, False),
    ("explicit", None, 0.0, True), ("explicit", None, 1.0, True),
    ("explicit", None, -5e-324, False), ("explicit", None, math.nextafter(1.0, 2.0), False),
])
def test_model_valid_case_agrees_with_the_checks_at_the_bounds(kind, d, lam, kept):
    """An int size and a float cap take the valid-case test, np.int64 and np.float64 the
    full checks: both give one model, or one error, at each bound and one past it."""
    built = []
    for size, cap in ((int, float), (np.int64, np.float64)):
        try:
            model = RestrictionModel(kind, d=None if d is None else size(d),
                                     lam=None if lam is None else cap(lam))
            built.append(repr(model))
        except ValueError as exc:
            built.append(f"ValueError: {exc}")
    assert built[0] == built[1]
    assert built[0].startswith("RestrictionModel(") == kept


def test_model_parse():
    assert RestrictionModel.parse("unrestricted") == RestrictionModel.unrestricted()
    assert RestrictionModel.parse("fb:5") == RestrictionModel.finite_bath(5)
    assert RestrictionModel.parse(" jc ") == RestrictionModel.jaynes_cummings()
    assert RestrictionModel.parse("lam:0.25") == RestrictionModel.explicit(0.25)
    # a malformed number is the spec's fault; a well-formed one out of range
    # gets the model's own message, which names the bound
    for bad, message in (
        ("fb:0", "bath size must be >= 1, got 0"),
        (f"fb:{2**53 + 1}", f"bath size must be <= 2**53, got {2**53 + 1}"),
        ("fb:x", "bad finite-bath spec 'fb:x', expected fb:D"),
        ("fb:2.0", "bad finite-bath spec 'fb:2.0', expected fb:D"),
        ("lam:1.5", "explicit cap must lie in [0, 1], got 1.5"),
        ("lam:nan", "explicit cap must lie in [0, 1], got nan"),
        ("lam:", "bad explicit-cap spec 'lam:', expected lam:X"),
        ("bogus", "bad restriction spec 'bogus', expected unrestricted, fb:D, jc or lam:X"),
        ("", "bad restriction spec '', expected unrestricted, fb:D, jc or lam:X"),
    ):
        with pytest.raises(ValueError) as excinfo:
            RestrictionModel.parse(bad)
        assert str(excinfo.value) == message


def test_model_lambda_max_dispatch():
    assert RestrictionModel.unrestricted().lambda_max(3.0) == 1.0
    assert RestrictionModel.finite_bath(5).lambda_max(0.2) == lambda_max_finite_bath(0.2, 5)
    assert RestrictionModel.jaynes_cummings().lambda_max(0.4) == 1.0
    assert RestrictionModel.explicit(0.7).lambda_max(2.2) == 0.7
    with pytest.raises(ValueError):
        RestrictionModel.explicit(0.7).lambda_max(-1.0)
    _, clamped = RestrictionModel.jaynes_cummings().resolve([0.4, 1.0])
    assert clamped.tolist() == [True, False]
    assert not RestrictionModel.finite_bath(5).resolve([0.4])[1].any()
    assert not RestrictionModel.unrestricted().resolve([0.4])[1].any()


# where the jc cap clamps: lambda_max_jc_raw exceeds 1 on (0.3504, 0.4621]
_CONSTANT_TEMPERATURES = st.one_of(
    st.floats(0.0, 50.0),
    st.floats(0.35, 0.47),
    st.sampled_from([0.0, 5e-324, JC_BRANCH_POINT, math.nextafter(JC_BRANCH_POINT, 1.0)]),
)


@given(
    beta=_CONSTANT_TEMPERATURES,
    size=st.integers(1, 5),
    spec=st.sampled_from(["fb:1", "fb:10", f"fb:{2**53}", "jc"]),
)
@settings(max_examples=200, deadline=None)
def test_resolve_on_one_temperature_is_lambda_max(beta, size, spec):
    """A sweep's fixed side: resolve on a constant array gives lambda_max's bits."""
    model = RestrictionModel.parse(spec)
    caps, clamped = model.resolve(np.full(size, beta))
    want = np.full(size, model.lambda_max(beta))
    assert caps.view(np.int64).tolist() == want.view(np.int64).tolist()
    raw = lambda_max_jc_raw(beta)
    assert clamped.tolist() == [spec == "jc" and not 0.0 <= raw <= 1.0] * size


def test_engine_params_from():
    params = engine_params_from(
        RestrictionModel.finite_bath(5), RestrictionModel.jaynes_cummings(), 0.2, 0.6
    )
    assert params == EngineParams(
        0.2, 0.6, lambda_max_finite_bath(0.2, 5), lambda_max_jc(0.6)
    )


def test_eta_finite_bath_matches_capped_optimum():
    for d in (1, 2, 5, 10, 15):
        for bh, bc in ((0.2, 0.5), (0.2, 1.2), (0.7, 2.1), (1.1, 3.0)):
            params = engine_params_from(
                RestrictionModel.finite_bath(d), RestrictionModel.finite_bath(d), bh, bc
            )
            point = optimal_performance(params)
            assert point.eta_max is not None
            assert eta_finite_bath(bh, bc, d) == pytest.approx(point.eta_max, abs=1e-9)


def test_eta_finite_bath_limits():
    # a huge ladder recovers the unrestricted optimum
    free = optimal_performance(EngineParams(0.2, 0.6, 1.0, 1.0))
    assert eta_finite_bath(0.2, 0.6, 400) == pytest.approx(free.eta_max, abs=1e-12)
    # equal temperatures never operate
    for d in (3, 10):
        assert eta_finite_bath(0.5, 0.5, d) <= 0.0
    # d = 1 at equal temperatures and the infinite-temperature pair degenerate
    with pytest.raises(UndefinedEfficiencyError):
        eta_finite_bath(0.5, 0.5, 1)
    with pytest.raises(UndefinedEfficiencyError):
        eta_finite_bath(0.0, 0.0, 5)


@given(
    bh=st.floats(0.05, 1.5),
    ratio=st.floats(1.2, 8.0),
    d=st.integers(1, 30),
)
@settings(max_examples=200)
def test_eta_finite_bath_below_carnot_when_operational(bh, ratio, d):
    bc = bh * ratio
    params = engine_params_from(
        RestrictionModel.finite_bath(d), RestrictionModel.finite_bath(d), bh, bc
    )
    point = optimal_performance(params)
    eta = eta_finite_bath(bh, bc, d)
    assert eta == pytest.approx(point.eta_max, rel=1e-9, abs=1e-9)
    if point.operational:
        assert 0.0 < eta < 1.0 - bh / bc


def test_restriction_ordering_on_a_sweep():
    # tighter restrictions can only lower the optimal work
    bh = 0.2
    for ratio in np.linspace(1.5, 9.0, 12):
        bc = bh * ratio
        works = []
        for model in (
            RestrictionModel.finite_bath(5),
            RestrictionModel.finite_bath(10),
            RestrictionModel.finite_bath(15),
            RestrictionModel.unrestricted(),
        ):
            params = engine_params_from(model, model, bh, bc)
            works.append(optimal_performance(params).w_max)
        assert works == sorted(works)
