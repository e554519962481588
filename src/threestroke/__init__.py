"""Optimal work and efficiency of a three-stroke two-level heat engine.

The working body is a single two-level system; the hot and cold strokes are
restricted thermal processes on that system, and the work stroke is a level
permutation. Everything is expressed per unit of the level splitting, so the
temperature arguments throughout are the dimensionless products beta * omega.
"""

from .bath_oracle import (
    BlockUnitarySpec,
    BruteForceResult,
    ResourceLimitError,
    achieved_lambda,
    brute_force_performance,
    jc_time_scan,
    scan_lambda_max,
    simulate_finite_bath_map,
)
from .engine import (
    CycleReport,
    EngineParams,
    LawDiagnostics,
    PerformancePoint,
    SingularCycleError,
    UndefinedEfficiencyError,
    UnsupportedRestrictionError,
    check_laws,
    cyclic_state,
    optimal_performance,
    positive_work_condition,
    run_cycle,
)
from .ergotropy import WorkPermutation, ergotropy, passive_rearrangement
from .majorization import thermomajorizes
from .populations import (
    QUBIT,
    EnergySpectrum,
    GibbsVector,
    PopulationVector,
    average_energy,
    gibbs_vector,
    qubit_population,
)
from .restrictions import (
    JC_BRANCH_POINT,
    RestrictionModel,
    engine_params_from,
    eta_finite_bath,
    lambda_max_finite_bath,
    lambda_max_jc,
    lambda_max_jc_raw,
)
from .thermal_qubit import apply_mixture

__version__ = "0.1.0"

__all__ = [
    "QUBIT",
    "JC_BRANCH_POINT",
    "BlockUnitarySpec",
    "BruteForceResult",
    "CycleReport",
    "EnergySpectrum",
    "EngineParams",
    "GibbsVector",
    "LawDiagnostics",
    "PerformancePoint",
    "PopulationVector",
    "ResourceLimitError",
    "RestrictionModel",
    "SingularCycleError",
    "UndefinedEfficiencyError",
    "UnsupportedRestrictionError",
    "WorkPermutation",
    "achieved_lambda",
    "apply_mixture",
    "average_energy",
    "brute_force_performance",
    "check_laws",
    "cyclic_state",
    "engine_params_from",
    "ergotropy",
    "eta_finite_bath",
    "gibbs_vector",
    "jc_time_scan",
    "lambda_max_finite_bath",
    "lambda_max_jc",
    "lambda_max_jc_raw",
    "optimal_performance",
    "passive_rearrangement",
    "positive_work_condition",
    "qubit_population",
    "run_cycle",
    "scan_lambda_max",
    "simulate_finite_bath_map",
    "thermomajorizes",
]
