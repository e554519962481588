"""The input rules shared by every module: temperatures, numbers, sizes, and the qubit's two levels."""

import math
import re

import numpy as np
import pytest

from threestroke import (
    QUBIT,
    BlockUnitarySpec,
    EnergySpectrum,
    EngineParams,
    PopulationVector,
    RestrictionModel,
    WorkPermutation,
    apply_mixture,
    average_energy,
    brute_force_performance,
    check_laws,
    cyclic_state,
    engine_params_from,
    ergotropy,
    eta_finite_bath,
    gibbs_vector,
    jc_time_scan,
    lambda_max_finite_bath,
    lambda_max_jc,
    lambda_max_jc_raw,
    optimal_performance,
    passive_rearrangement,
    positive_work_condition,
    qubit_population,
    run_cycle,
    scan_lambda_max,
    simulate_finite_bath_map,
    thermomajorizes,
)
from threestroke.engine import BathTemperatures, run_cycles
from threestroke.populations import check_beta, check_betas, check_unit_interval
from threestroke.thermal_qubit import capped_weight, capped_weights

P = qubit_population(0.6)
SPEC = BlockUnitarySpec.full_swap(3)
MODELS = (
    RestrictionModel.unrestricted(),
    RestrictionModel.finite_bath(3),
    RestrictionModel.jaynes_cummings(),
    RestrictionModel.explicit(0.5),
)

# Every public entry point that takes a temperature, with the bad one as b.
TAKES_A_TEMPERATURE = {
    "EngineParams.beta_h": lambda b: EngineParams(b, 1.0),
    "EngineParams.beta_c": lambda b: EngineParams(0.2, b),
    "BathTemperatures.beta_h": lambda b: BathTemperatures([0.2, b], [1.0, 1.0]),
    "BathTemperatures.beta_c": lambda b: BathTemperatures([0.2, 0.2], [1.0, b]),
    "gibbs_vector": lambda b: gibbs_vector(b, QUBIT),
    "apply_mixture": lambda b: apply_mixture(0.5, b, P),
    "lambda_max_finite_bath": lambda b: lambda_max_finite_bath(b, 3),
    "lambda_max_jc_raw": lambda_max_jc_raw,
    "lambda_max_jc": lambda_max_jc,
    **{f"lambda_max[{m.label}]": (lambda m: lambda b: m.lambda_max(b))(m) for m in MODELS},
    **{f"resolve[{m.label}]": (lambda m: lambda b: m.resolve([0.2, b]))(m) for m in MODELS},
    "engine_params_from.beta_h": lambda b: engine_params_from(MODELS[1], MODELS[1], b, 1.0),
    "engine_params_from.beta_c": lambda b: engine_params_from(MODELS[1], MODELS[1], 0.2, b),
    "eta_finite_bath.beta_h": lambda b: eta_finite_bath(b, 1.0, 3),
    "eta_finite_bath.beta_c": lambda b: eta_finite_bath(0.2, b, 3),
    "simulate_finite_bath_map": lambda b: simulate_finite_bath_map(P, b, 3, SPEC),
    "scan_lambda_max": lambda b: scan_lambda_max(b, 2),
    "jc_time_scan": jc_time_scan,
}


# Values that float() refuses, overflows on, or takes from a complex number by
# dropping its imaginary part.
NOT_REAL_NUMBERS = [
    None, object(), 0.5 + 0j, np.complex128(0.5), np.complex64(0.5), np.array(0.5 + 0j), 10**400
]
NOT_REAL_IDS = [
    "None", "object", "complex", "complex128", "complex64", "complex-0d-array", "10**400"
]


@pytest.mark.parametrize(
    "bad",
    [-1.0, math.nan, math.inf, "x", "0.5", *NOT_REAL_NUMBERS],
    ids=[repr(bad) for bad in (-1.0, math.nan, math.inf, "x", "0.5")] + NOT_REAL_IDS,
)
@pytest.mark.parametrize("name", sorted(TAKES_A_TEMPERATURE))
def test_every_temperature_input_rejects_bad_values(name, bad):
    with pytest.raises(ValueError):
        TAKES_A_TEMPERATURE[name](bad)


# Every public entry point that takes a number that is not a temperature: caps,
# mixing weights, population entries and levels, with the bad one as x.
TAKES_A_NUMBER = {
    "EngineParams.lambda_h_max": lambda x: EngineParams(0.2, 1.0, x, 1.0),
    "EngineParams.lambda_c_max": lambda x: EngineParams(0.2, 1.0, 1.0, x),
    "RestrictionModel.explicit": RestrictionModel.explicit,
    "check_unit_interval": lambda x: check_unit_interval(x, "lambda"),
    "capped_weight": capped_weight,
    "capped_weights": lambda x: capped_weights([x], np.array([1.0])),
    "apply_mixture.lambda": lambda x: apply_mixture(x, 0.3, P),
    "PopulationVector": lambda x: PopulationVector((x, 0.5)),
    "qubit_population": qubit_population,
    "EnergySpectrum.excited": lambda x: EnergySpectrum((0.0, x)),
    "BathTemperatures.caps": lambda x: BathTemperatures([0.2], [1.0]).caps([x], [1.0]),
    "BlockUnitarySpec": lambda x: BlockUnitarySpec([x], [0.0], [0.0]),
    "run_cycles.start": lambda x: run_cycles(
        [[x, 0.5]], [0.5], [0.5], [True], BathTemperatures([0.2], [1.0]), [1.0], [1.0]
    ),
}


@pytest.mark.parametrize("bad", NOT_REAL_NUMBERS, ids=NOT_REAL_IDS)
@pytest.mark.parametrize("name", sorted(TAKES_A_NUMBER))
def test_every_number_input_rejects_values_that_are_not_real_numbers(name, bad):
    with pytest.raises(ValueError):
        TAKES_A_NUMBER[name](bad)


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: EngineParams(None, 1.0), r"^beta_h_omega must be finite and >= 0, got None$"),
        (lambda: EngineParams(0.2, 10**400), r"^beta_c_omega must be finite and >= 0, got 1000"),
        (
            lambda: EngineParams(0.2, 1.0, 0.5 + 0j),
            r"^lambda_h_max must lie in \[0, 1\], got \(0\.5\+0j\)$",
        ),
        (lambda: PopulationVector((None, 0.5)), r"^population entry None must be a number$"),
        (
            lambda: MODELS[1].resolve([0.5, 0.5 + 0j]),
            r"^beta_omega must be a number, got \(0\.5\+0j\)$",
        ),
    ],
    ids=["None", "10**400", "complex", "population", "complex-entry"],
)
def test_a_value_that_is_not_a_real_number_is_named_by_its_rule(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# Every public entry point that takes an array of numbers, given a complex one.
COMPLEX = np.array([0.5 + 0j])
COMPLEX_FOR_AN_ARRAY = {
    "check_betas": lambda: check_betas(COMPLEX),
    "BathTemperatures.beta_h": lambda: BathTemperatures(COMPLEX, np.array([1.0])),
    "BathTemperatures.caps": lambda: BathTemperatures([0.2], [1.0]).caps(COMPLEX, [1.0]),
    "capped_weights": lambda: capped_weights(COMPLEX, np.array([1.0])),
    "BlockUnitarySpec": lambda: BlockUnitarySpec(COMPLEX, (0.0,), (0.0,)),
    "jc_time_scan.time_grid": lambda: jc_time_scan(0.5, COMPLEX),
    **{f"resolve[{m.label}]": (lambda m: lambda: m.resolve(COMPLEX))(m) for m in MODELS},
}


@pytest.mark.parametrize("name", sorted(COMPLEX_FOR_AN_ARRAY))
def test_a_complex_array_is_not_an_array_of_numbers(name):
    with pytest.raises(ValueError, match=" must be a number, got a complex array$"):
        COMPLEX_FOR_AN_ARRAY[name]()


# Every public entry point documented to take a 1-d array of temperatures.
TAKES_A_TEMPERATURE_ARRAY = {
    "check_betas": check_betas,
    **{f"resolve[{m.label}]": m.resolve for m in MODELS},
}


@pytest.mark.parametrize(
    "bad", [-1.0, math.nan, 0.5, np.array(0.5), np.array([[0.5]])],
    ids=["-1.0", "nan", "0.5", "0-d", "2-d"],
)
@pytest.mark.parametrize("name", sorted(TAKES_A_TEMPERATURE_ARRAY))
def test_a_temperature_array_must_be_1d(name, bad):
    shape = re.escape(str(np.shape(bad)))
    with pytest.raises(ValueError, match=f"^beta_omega must be a 1-d array, got shape {shape}$"):
        TAKES_A_TEMPERATURE_ARRAY[name](bad)


# Text that float() would parse, given where a number belongs.
TEXT_FOR_A_NUMBER = {
    "PopulationVector": lambda: PopulationVector(("0.3", "0.7")),
    "PopulationVector.bytes": lambda: PopulationVector((0.3, b"0.7")),
    "PopulationVector.str": lambda: PopulationVector("01"),
    "check_unit_interval": lambda: check_unit_interval("0.25", "lambda"),
    "apply_mixture.lambda": lambda: apply_mixture("0.5", 0.3, P),
    "check_beta.bytes": lambda: check_beta(b"0.5"),
    "check_beta.0-d": lambda: check_beta(np.array("0.5")),
    "check_beta.0-d-object": lambda: check_beta(np.array("0.5", dtype=object)),
    "EngineParams.0-d-object": lambda: EngineParams(np.array(b"0.5", dtype=object), 1.0),
    "check_betas.list": lambda: check_betas([0.2, "0.5"]),
    "check_betas.objects": lambda: check_betas(np.array([0.2, "0.5"], dtype=object)),
    "jc_time_scan.time_grid": lambda: jc_time_scan(0.5, ["1.0", "2.0"]),
    "BlockUnitarySpec": lambda: BlockUnitarySpec(("0.1",), ("0",), ("0",)),
    "EnergySpectrum": lambda: EnergySpectrum(("0", "1")),
    "EnergySpectrum.excited": lambda: EnergySpectrum((0.0, "1")),
    "capped_weights": lambda: capped_weights(np.array(["0.5"]), np.array([1.0])),
    "BathTemperatures.caps": lambda: BathTemperatures([0.2], [1.0]).caps(["0.5"], ["1"]),
    "run_cycles.start": lambda: run_cycles(
        [["0.5", "0.5"]], [0.5], [0.5], [True], BathTemperatures([0.2], [1.0]), [1.0], [1.0]
    ),
}


@pytest.mark.parametrize("name", sorted(TEXT_FOR_A_NUMBER))
def test_text_is_not_coerced(name):
    with pytest.raises(ValueError):
        TEXT_FOR_A_NUMBER[name]()


# A boolean, which float() takes as 0 or 1, given where a number belongs: True
# at every temperature input, also inside a list of floats (the rows named
# .list), and at each cap, weight, population and spectrum; a boolean array
# where an array of numbers belongs.
BOOL_FOR_A_NUMBER = {
    **{
        f"{name}.list" if name.startswith("BathTemperatures") else name:
            (lambda call: lambda: call(True))(call)
        for name, call in TAKES_A_TEMPERATURE.items()
    },
    "EngineParams.lambda_h_max": lambda: EngineParams(0.2, 1.0, True, 1.0),
    "EngineParams.lambda_c_max": lambda: EngineParams(0.2, 1.0, 1.0, True),
    "RestrictionModel.explicit": lambda: RestrictionModel.explicit(True),
    "check_unit_interval": lambda: check_unit_interval(True, "lambda"),
    "capped_weight": lambda: capped_weight(True),
    "apply_mixture.lambda": lambda: apply_mixture(True, 0.3, P),
    "PopulationVector": lambda: PopulationVector((True, False)),
    "PopulationVector.numpy": lambda: PopulationVector((np.True_, np.False_)),
    "PopulationVector.0-d": lambda: PopulationVector((np.array(True), 0.0)),
    "EngineParams.0-d": lambda: EngineParams(np.array(True), 1.0),
    "EngineParams.0-d-object": lambda: EngineParams(np.array(True, dtype=object), 1.0),
    "PopulationVector.0-d-object": lambda: PopulationVector((np.array(False, dtype=object), 1.0)),
    "capped_weight.0-d-object": lambda: capped_weight(np.array(np.True_, dtype=object)),
    "qubit_population": lambda: qubit_population(True),
    "EnergySpectrum.ground": lambda: EnergySpectrum((False, 1.0)),
    "EnergySpectrum.excited": lambda: EnergySpectrum((0.0, True)),
    "check_betas": lambda: check_betas(np.array([True, False])),
    "check_betas.list": lambda: check_betas([0.2, True]),
    "jc_time_scan.time_grid": lambda: jc_time_scan(0.5, [1.0, True]),
    "BathTemperatures.beta_h": lambda: BathTemperatures(np.array([True]), np.array([1.0])),
    "BathTemperatures.beta_c": lambda: BathTemperatures(np.array([0.2]), np.array([True])),
    "BathTemperatures.caps": lambda: BathTemperatures([0.2], [1.0]).caps(np.array([True]), [1.0]),
    "capped_weights": lambda: capped_weights(np.array([True]), np.array([1.0])),
    "BlockUnitarySpec": lambda: BlockUnitarySpec(np.array([True]), (0.0,), (0.0,)),
}


@pytest.mark.parametrize("name", sorted(BOOL_FOR_A_NUMBER))
def test_booleans_are_not_numbers(name):
    with pytest.raises(ValueError):
        BOOL_FOR_A_NUMBER[name]()


@pytest.mark.parametrize(
    "bad", [None, 0.5 + 0j, np.array(0.5 + 0j, dtype=object)], ids=["None", "complex", "nested"]
)
def test_a_0d_object_array_is_judged_by_what_it_holds(bad):
    with pytest.raises(ValueError, match="^beta_h_omega must be finite and >= 0, got "):
        EngineParams(np.array(bad, dtype=object), 1.0)


@pytest.mark.parametrize("value", [0.25, np.float64(0.25), 1, np.array(0.25)], ids=repr)
def test_a_0d_object_array_holding_a_number_is_that_number(value):
    assert EngineParams(np.array(value, dtype=object), 1.0).beta_h_omega == float(value)
    assert check_beta(np.array(value, dtype=object)) == float(value)


@pytest.mark.parametrize("entry", [True, np.True_, "0.5", b"0.5"], ids=repr)
def test_a_population_entry_that_is_not_a_number_is_named(entry):
    message = f"^population entry {re.escape(repr(entry))} must be a number$"
    with pytest.raises(ValueError, match=message):
        PopulationVector((entry, 0.5))


# Every public entry point that takes an integer size, with the bad one as n.
TAKES_A_SIZE = {
    "lambda_max_finite_bath": lambda n: lambda_max_finite_bath(0.5, n),
    "eta_finite_bath": lambda n: eta_finite_bath(0.2, 1.0, n),
    "RestrictionModel.finite_bath": RestrictionModel.finite_bath,
    "simulate_finite_bath_map": lambda n: simulate_finite_bath_map(P, 0.5, n, SPEC),
    "scan_lambda_max": lambda n: scan_lambda_max(0.5, n),
    "brute_force_performance": lambda n: brute_force_performance(EngineParams(0.2, 0.6), n),
    "jc_time_scan.truncation": lambda n: jc_time_scan(0.5, truncation=n),
    "BlockUnitarySpec.full_swap": BlockUnitarySpec.full_swap,
    "WorkPermutation.identity": WorkPermutation.identity,
    "WorkPermutation.first": lambda n: WorkPermutation((n, 0)),
    "WorkPermutation.second": lambda n: WorkPermutation((1, n)),
}


@pytest.mark.parametrize("bad", [True, 2.5, "3", -1], ids=repr)
@pytest.mark.parametrize("name", sorted(TAKES_A_SIZE))
def test_every_size_input_rejects_non_integers(name, bad):
    with pytest.raises(ValueError):
        TAKES_A_SIZE[name](bad)


# Every type that fixes the qubit's two levels, built with another number of them.
NOT_A_QUBIT = {
    "PopulationVector[1]": lambda: PopulationVector((1.0,)),
    "PopulationVector[3]": lambda: PopulationVector((0.2, 0.3, 0.5)),
    "EnergySpectrum[3]": lambda: EnergySpectrum((0.0, 1.0, 2.0)),
    "WorkPermutation[3]": lambda: WorkPermutation((0, 1, 2)),
    "WorkPermutation.identity[3]": lambda: WorkPermutation.identity(3),
}


@pytest.mark.parametrize("name", sorted(NOT_A_QUBIT))
def test_every_qubit_type_rejects_other_dimensions(name):
    with pytest.raises(ValueError):
        NOT_A_QUBIT[name]()


# Every type that holds the qubit's two levels, given a value that is not a
# container of entries, with the input its message names.
NOT_A_CONTAINER = {
    "PopulationVector[None]": ("population entries", None, lambda: PopulationVector(None)),
    "PopulationVector[0.5]": ("population entries", 0.5, lambda: PopulationVector(0.5)),
    "EnergySpectrum[None]": ("spectrum levels", None, lambda: EnergySpectrum(None)),
    "EnergySpectrum[1.0]": ("spectrum levels", 1.0, lambda: EnergySpectrum(1.0)),
    "WorkPermutation[None]": ("permutation entries", None, lambda: WorkPermutation(None)),
    "WorkPermutation[1]": ("permutation entries", 1, lambda: WorkPermutation(1)),
}


@pytest.mark.parametrize("name", sorted(NOT_A_CONTAINER))
def test_every_qubit_type_rejects_a_value_that_is_not_a_container(name):
    field, value, call = NOT_A_CONTAINER[name]
    with pytest.raises(ValueError, match=f"^{field} must be a container, got {value!r}$"):
        call()


# Every public entry point that takes a PopulationVector, given something else,
# with the parameter its message names.
GIBBS = gibbs_vector(0.5, QUBIT)
NOT_A_POPULATION = {
    "apply_mixture": ("p", lambda: apply_mixture(0.5, 0.3, None)),
    "average_energy": ("p", lambda: average_energy((0.5, 0.5), QUBIT)),
    "simulate_finite_bath_map": ("p", lambda: simulate_finite_bath_map((0.5, 0.5), 0.5, 3, SPEC)),
    "ergotropy": ("p", lambda: ergotropy(None, QUBIT)),
    "passive_rearrangement": ("p", lambda: passive_rearrangement((0.5, 0.5), QUBIT)),
    "thermomajorizes": ("p", lambda: thermomajorizes(None, None, None)),
    "thermomajorizes.q": ("q", lambda: thermomajorizes(P, [0.5, 0.5], GIBBS)),
    "thermomajorizes.gamma": ("gamma", lambda: thermomajorizes(P, P, GIBBS.entries)),
    "run_cycle": ("p0", lambda: run_cycle(
        None, 0.5, 0.5, WorkPermutation.swap(), EngineParams(0.2, 0.6)
    )),
}


@pytest.mark.parametrize("name", sorted(NOT_A_POPULATION))
def test_every_population_input_rejects_other_types(name):
    parameter, call = NOT_A_POPULATION[name]
    with pytest.raises(ValueError, match=f"^{parameter} must be a PopulationVector, got "):
        call()


# Every other public parameter that takes one of the package's types, given
# None, with the parameter and the type its message names.
PARAMS = EngineParams(0.2, 0.6)
SWAP = WorkPermutation.swap()
NOT_THE_TYPE = {
    "run_cycle.perm": ("perm", "WorkPermutation", lambda: run_cycle(P, 0.5, 0.5, None, PARAMS)),
    "run_cycle.params": ("params", "EngineParams", lambda: run_cycle(P, 0.5, 0.5, SWAP, None)),
    "cyclic_state": ("params", "EngineParams", lambda: cyclic_state(0.5, 0.5, None)),
    "check_laws.report": ("report", "CycleReport", lambda: check_laws(None, PARAMS)),
    "check_laws.params": ("params", "EngineParams", lambda: check_laws(
        run_cycle(P, 0.5, 0.5, SWAP, PARAMS), None
    )),
    "optimal_performance": ("params", "EngineParams", lambda: optimal_performance(None)),
    "positive_work_condition": ("params", "EngineParams", lambda: positive_work_condition(None)),
    "engine_params_from.hot": ("hot", "RestrictionModel", lambda: engine_params_from(
        None, None, 0.2, 0.6
    )),
    "engine_params_from.cold": ("cold", "RestrictionModel", lambda: engine_params_from(
        MODELS[1], None, 0.2, 0.6
    )),
    "brute_force_performance": ("params", "EngineParams", lambda: brute_force_performance(None)),
    "gibbs_vector": ("spectrum", "EnergySpectrum", lambda: gibbs_vector(0.5, None)),
    "ergotropy": ("spectrum", "EnergySpectrum", lambda: ergotropy(P, None)),
    "passive_rearrangement": ("spectrum", "EnergySpectrum", lambda: passive_rearrangement(P, None)),
    "average_energy": ("spectrum", "EnergySpectrum", lambda: average_energy(P, None)),
    "simulate_finite_bath_map": ("spec", "BlockUnitarySpec", lambda: simulate_finite_bath_map(
        P, 0.5, 3, None
    )),
}


@pytest.mark.parametrize("name", sorted(NOT_THE_TYPE))
def test_every_typed_input_rejects_other_types(name):
    parameter, kind, call = NOT_THE_TYPE[name]
    with pytest.raises(ValueError, match=f"^{parameter} must be an? {kind}, got None$"):
        call()


@pytest.mark.parametrize("spec", [None, b"jc", 10, ["jc"]], ids=repr)
def test_a_restriction_spec_must_be_a_string(spec):
    with pytest.raises(ValueError, match="^a restriction spec must be a string, got "):
        RestrictionModel.parse(spec)
