"""The input rules shared by every module: temperatures, and the qubit's two levels."""

import math

import numpy as np
import pytest

from threestroke import (
    QUBIT,
    BlockUnitarySpec,
    EnergySpectrum,
    EngineParams,
    JointState,
    PopulationVector,
    RestrictionModel,
    WorkPermutation,
    achieved_lambda,
    apply_mixture,
    engine_params_from,
    eta_finite_bath,
    gibbs_vector,
    jc_time_scan,
    lambda_max_finite_bath,
    lambda_max_jc,
    lambda_max_jc_raw,
    qubit_population,
    scan_lambda_max,
    simulate_finite_bath_map,
)
from threestroke.engine import BathTemperatures
from threestroke.populations import check_beta, check_betas, check_unit_interval

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
    "JointState.product": lambda b: JointState.product(P, b, 3),
    "simulate_finite_bath_map": lambda b: simulate_finite_bath_map(P, b, 3, SPEC),
    "achieved_lambda": lambda b: achieved_lambda(SPEC, b, 3),
    "scan_lambda_max": lambda b: scan_lambda_max(b, 2),
    "jc_time_scan": jc_time_scan,
}


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, "x", "0.5"], ids=repr)
@pytest.mark.parametrize("name", sorted(TAKES_A_TEMPERATURE))
def test_every_temperature_input_rejects_bad_values(name, bad):
    with pytest.raises(ValueError):
        TAKES_A_TEMPERATURE[name](bad)


# Text that float() would parse, given where a number belongs.
TEXT_FOR_A_NUMBER = {
    "PopulationVector": lambda: PopulationVector(("0.3", "0.7")),
    "PopulationVector.bytes": lambda: PopulationVector((0.3, b"0.7")),
    "PopulationVector.str": lambda: PopulationVector("01"),
    "check_unit_interval": lambda: check_unit_interval("0.25", "lambda"),
    "apply_mixture.lambda": lambda: apply_mixture("0.5", 0.3, P),
    "check_beta.bytes": lambda: check_beta(b"0.5"),
    "check_betas.list": lambda: check_betas([0.2, "0.5"]),
    "check_betas.objects": lambda: check_betas(np.array([0.2, "0.5"], dtype=object)),
    "jc_time_scan.time_grid": lambda: jc_time_scan(0.5, ["1.0", "2.0"]),
}


@pytest.mark.parametrize("name", sorted(TEXT_FOR_A_NUMBER))
def test_text_is_not_coerced(name):
    with pytest.raises(ValueError):
        TEXT_FOR_A_NUMBER[name]()


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
