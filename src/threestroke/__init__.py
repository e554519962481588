"""Optimal work and efficiency of a three-stroke two-level heat engine.

The working body is a single two-level system; the hot and cold strokes are
restricted thermal processes on that system, and the work stroke is a level
permutation. Everything is expressed per unit of the level splitting, so the
temperature arguments throughout are the dimensionless products beta * omega.

Importing the package loads populations, thermal_qubit, ergotropy, engine and
restrictions.  The oracle names (bath_oracle's and thermomajorizes) load on
first access: the first one read imports both modules and binds all of them here.
"""

import importlib

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
from .populations import (
    QUBIT,
    EnergySpectrum,
    PopulationVector,
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

# the modules whose names, listed in __all__, load on the first access to one
_DEFERRED = ("bath_oracle", "majorization")

__all__ = [
    "QUBIT",
    "JC_BRANCH_POINT",
    "BlockUnitarySpec",
    "BruteForceResult",
    "CycleReport",
    "EnergySpectrum",
    "EngineParams",
    "LawDiagnostics",
    "PerformancePoint",
    "PopulationVector",
    "ResourceLimitError",
    "RestrictionModel",
    "SingularCycleError",
    "UndefinedEfficiencyError",
    "UnsupportedRestrictionError",
    "WorkPermutation",
    "apply_mixture",
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


def __getattr__(name: str):
    """A deferred name: import both deferred modules and bind here each of
    their exports that __all__ lists.

    The hook then deletes itself: CPython does not specialize attribute reads
    on a module that defines __getattr__, so each threestroke.<name> would
    stay several times slower while it is there.
    """
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module in _DEFERRED:
        source = importlib.import_module(f"{__name__}.{module}")
        globals().update((each, getattr(source, each)) for each in source.__all__ if each in __all__)
    del globals()["__getattr__"]
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
