"""Optimal work and efficiency of a three-stroke two-level heat engine.

The working body is a single two-level system; the hot and cold strokes are
restricted thermal processes on that system, and the work stroke is a level
permutation. Everything is expressed per unit of the level splitting, so the
temperature arguments throughout are the dimensionless products beta * omega.
"""

from .bath_oracle import (
    BlockUnitarySpec,
    BruteForceResult,
    JointState,
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
    cold_stroke,
    cyclic_state,
    heat_stroke,
    open_cycle_performance,
    optimal_performance,
    positive_work_condition,
    run_cycle,
    work_stroke,
)
from .ergotropy import WorkPermutation, apply_permutation, ergotropy, passive_rearrangement
from .majorization import (
    BetaOrder,
    ThermomajorizationCurve,
    beta_order,
    thermomajorization_curve,
    thermomajorizes,
)
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
    "BetaOrder",
    "BlockUnitarySpec",
    "BruteForceResult",
    "CycleReport",
    "EnergySpectrum",
    "EngineParams",
    "GibbsVector",
    "JointState",
    "LawDiagnostics",
    "PerformancePoint",
    "PopulationVector",
    "ResourceLimitError",
    "RestrictionModel",
    "SingularCycleError",
    "ThermomajorizationCurve",
    "UndefinedEfficiencyError",
    "UnsupportedRestrictionError",
    "WorkPermutation",
    "achieved_lambda",
    "apply_mixture",
    "apply_permutation",
    "average_energy",
    "beta_order",
    "brute_force_performance",
    "check_laws",
    "cold_stroke",
    "cyclic_state",
    "engine_params_from",
    "ergotropy",
    "eta_finite_bath",
    "gibbs_vector",
    "heat_stroke",
    "jc_time_scan",
    "lambda_max_finite_bath",
    "lambda_max_jc",
    "lambda_max_jc_raw",
    "open_cycle_performance",
    "optimal_performance",
    "passive_rearrangement",
    "positive_work_condition",
    "qubit_population",
    "run_cycle",
    "scan_lambda_max",
    "simulate_finite_bath_map",
    "thermomajorization_curve",
    "thermomajorizes",
    "work_stroke",
]
