"""Three-stroke cycle of a two-level working body between two heat baths.

One cycle is heat stroke (capped thermal process at the hot temperature),
work stroke (a population permutation, the swap in the optimal protocol) and
cold stroke (capped thermal process at the cold temperature).  All energies
are in units of the qubit splitting.  Sign conventions: q_hot and q_cold are
energy changes of the working body during the respective strokes (positive
when the body absorbs energy), work is the energy released during the unitary
stroke, and the first law reads work = q_hot + q_cold for a closing cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ergotropy import WorkPermutation, apply_permutation
from .populations import (
    QUBIT,
    PopulationVector,
    average_energy,
    check_beta,
    check_betas,
    check_unit_interval,
    qubit_population,
)
from .thermal_qubit import apply_mixture, capped_weight

__all__ = [
    "BathTemperatures",
    "CycleReport",
    "EngineParams",
    "LawDiagnostics",
    "PerformancePoint",
    "SingularCycleError",
    "UndefinedEfficiencyError",
    "UnsupportedRestrictionError",
    "check_laws",
    "cold_stroke",
    "cycle_map",
    "cyclic_state",
    "elementwise",
    "heat_stroke",
    "open_cycle_performance",
    "optimal_performance",
    "positive_work_condition",
    "run_cycle",
    "work_stroke",
]

_CLOSURE_TOL = 1e-10
_SINGULAR_TOL = 1e-14
_SWAP = WorkPermutation.swap()


class SingularCycleError(ValueError):
    """The stroke composition has no unique fixed point.

    ``index`` is the first degenerate entry when the error comes from an
    array evaluation (BathTemperatures.optimum), None otherwise.
    """

    def __init__(self, message: str, index: int | None = None) -> None:
        super().__init__(message)
        self.index = index


class UndefinedEfficiencyError(ValueError):
    """Efficiency requested where the heat intake vanishes."""


class UnsupportedRestrictionError(ValueError):
    """Closed form requested outside the restriction it was derived for."""


@dataclass(frozen=True)
class EngineParams:
    """Bath temperatures (as beta times the splitting) and per-stroke mixing caps."""

    beta_h_omega: float
    beta_c_omega: float
    lambda_h_max: float = 1.0
    lambda_c_max: float = 1.0

    def __post_init__(self) -> None:
        for name in ("beta_h_omega", "beta_c_omega"):
            object.__setattr__(self, name, check_beta(getattr(self, name), name))
        for name in ("lambda_h_max", "lambda_c_max"):
            object.__setattr__(self, name, check_unit_interval(getattr(self, name), name))

    @property
    def cold_hotter(self) -> bool:
        """True when the nominal cold bath is not actually colder."""
        return self.beta_c_omega <= self.beta_h_omega

    @property
    def exp_h(self) -> float:
        return math.exp(-self.beta_h_omega)

    @property
    def exp_c(self) -> float:
        return math.exp(-self.beta_c_omega)

    def carnot_efficiency(self) -> float:
        if self.beta_c_omega == 0.0:
            raise UndefinedEfficiencyError("Carnot bound undefined at beta_c_omega = 0")
        return 1.0 - self.beta_h_omega / self.beta_c_omega


@dataclass(frozen=True)
class CycleReport:
    """Bookkeeping for one pass of heat, work and cold strokes."""

    work: float
    q_hot: float
    q_cold: float
    efficiency: float | None
    closes: bool
    populations: tuple[PopulationVector, PopulationVector, PopulationVector]


@dataclass(frozen=True)
class PerformancePoint:
    """Optimal closing-cycle figures for a given pair of mixing caps."""

    p_opt: float
    w_max: float
    eta_max: float | None
    operational: bool


@dataclass(frozen=True)
class LawDiagnostics:
    """Outcome of the bookkeeping checks on a closing cycle."""

    ok: bool
    failures: tuple[str, ...]
    skipped: tuple[str, ...]


def _thermal_stroke(
    p: PopulationVector, lam: float, cap: float, beta_omega: float
) -> tuple[PopulationVector, float]:
    out = apply_mixture(capped_weight(lam, cap), beta_omega, p)
    return out, average_energy(out, QUBIT) - average_energy(p, QUBIT)


def heat_stroke(
    p: PopulationVector, lam: float, params: EngineParams
) -> tuple[PopulationVector, float]:
    """Couple to the hot bath; returns the new populations and q_hot."""
    return _thermal_stroke(p, lam, params.lambda_h_max, params.beta_h_omega)


def work_stroke(
    p: PopulationVector, perm: WorkPermutation
) -> tuple[PopulationVector, float]:
    """Permute the populations; returns the new populations and the work released."""
    out = apply_permutation(p, perm)
    return out, average_energy(p, QUBIT) - average_energy(out, QUBIT)


def cold_stroke(
    p: PopulationVector, lam: float, params: EngineParams
) -> tuple[PopulationVector, float]:
    """Couple to the cold bath; returns the new populations and their energy change.

    The returned heat is the energy change of the working body, so it is
    negative when the body dumps heat into the cold bath.
    """
    return _thermal_stroke(p, lam, params.lambda_c_max, params.beta_c_omega)


def run_cycle(
    p0: PopulationVector,
    lambda_h: float,
    lambda_c: float,
    perm: WorkPermutation,
    params: EngineParams,
) -> CycleReport:
    """Run heat -> work -> cold once from p0.

    When the final populations return to p0 within 1e-10 the cycle closes and
    q_cold is rebased to E(p0) - E(after work); that removes the closure
    residual, so work = q_hot + q_cold holds exactly for closing cycles.
    """
    after_heat, q_hot = heat_stroke(p0, lambda_h, params)
    after_work, work = work_stroke(after_heat, perm)
    after_cold, q_cold = cold_stroke(after_work, lambda_c, params)
    closes = all(
        abs(a - b) <= _CLOSURE_TOL for a, b in zip(after_cold.entries, p0.entries)
    )
    if closes:
        q_cold = average_energy(p0, QUBIT) - average_energy(after_work, QUBIT)
    efficiency = work / q_hot if q_hot != 0.0 else None
    return CycleReport(
        work=work,
        q_hot=q_hot,
        q_cold=q_cold,
        efficiency=efficiency,
        closes=closes,
        populations=(after_heat, after_work, after_cold),
    )


def cycle_map(lh, lc, params: EngineParams, swap: bool):
    """(a, b) of the ground-entry map g -> a * g + b of hot, work and cold strokes.

    The work stroke is the swap or the identity according to the flag.  The
    weights are floats or arrays that broadcast together; they meet only
    + - * /, so arrays give the floats' results entry by entry, bit for bit.
    """
    if swap:
        # hot then swap: ground entry 1 - lh + g * (lh * e_h + lh - 1)
        slope_hot, offset_hot = lh * params.exp_h + lh - 1.0, 1.0 - lh
    else:
        # hot alone: ground entry lh + g * (1 - lh * (1 + e_h))
        slope_hot, offset_hot = 1.0 - lh * (1.0 + params.exp_h), lh
    # cold: ground entry lc + (1 - lc * (1 + e_c)) * z
    slope_cold = 1.0 - lc * (1.0 + params.exp_c)
    return slope_cold * slope_hot, lc + slope_cold * offset_hot


def cyclic_state(
    lambda_h: float,
    lambda_c: float,
    params: EngineParams,
    perm: WorkPermutation = _SWAP,
) -> PopulationVector:
    """Fixed point of cold(perm(hot(p))) on the ground entry.

    The work stroke is the swap (the default) or the qubit identity.  The
    composition is affine in the ground entry, so the fixed point is solved
    directly instead of through any closed-form display.
    """
    if perm.dim != 2:
        raise ValueError(f"expected a qubit work permutation, got dimension {perm.dim}")
    lh = capped_weight(lambda_h, params.lambda_h_max)
    lc = capped_weight(lambda_c, params.lambda_c_max)
    a, b = cycle_map(lh, lc, params, not perm.is_identity)
    if abs(1.0 - a) < _SINGULAR_TOL:
        raise SingularCycleError(
            f"cycle map is the identity at lambda_h={lh!r}, lambda_c={lc!r}"
        )
    return qubit_population(b / (1.0 - a))


def elementwise(func, values: np.ndarray) -> np.ndarray:
    """func, a function of the math module, applied to each entry of a 1-d array.

    numpy's exp and expm1 differ from the C library's by one ulp on a few
    percent of inputs.  Going through math keeps the array results bit for
    bit equal to the scalar functions' results.
    """
    return np.fromiter(map(func, values.tolist()), float, values.size)


def _closed_form(eh, ec, ehc, lh, lc, regular, defined):
    """p_opt, w_max and eta_max of the optimal protocol, on floats or on arrays.

    eh, ec and ehc are exp(-beta_h), exp(-beta_c) and exp(-(beta_h + beta_c)).
    The arguments meet only + - * /, which numpy rounds exactly as Python
    floats do, so arrays give the floats' results entry by entry, bit for
    bit.  regular(den, lh, lc) returns den or raises SingularCycleError;
    defined(eta_den) replaces the zeros of eta_den by nan, which leaves
    eta_max nan where the efficiency is undefined.
    """
    den = regular(
        2.0
        - lc * (1.0 - lh)
        - lh
        - lc * (1.0 - lh) * ec
        - lh * (1.0 - lc) * eh
        + lh * lc * ehc,
        lh,
        lc,
    )
    p_opt = (1.0 - lh * (1.0 - lc) - lc * (1.0 - lh) * ec) / den
    w_max = 1.0 - 2.0 * lh + 2.0 * (lh * eh - (1.0 - lh)) * p_opt
    eta_den = defined(lh * (eh - (1.0 - lc) - lc * ehc))
    eta_max = 1.0 - lc * (1.0 - lh * eh - (1.0 - lh) * ec) / eta_den
    return p_opt, w_max, eta_max


def _degenerate(lh: float, lc: float, index: int | None = None) -> SingularCycleError:
    return SingularCycleError(f"degenerate cycle at caps ({lh!r}, {lc!r})", index)


def _regular(den: float, lh: float, lc: float) -> float:
    if abs(den) < _SINGULAR_TOL:
        raise _degenerate(lh, lc)
    return den


def _defined(eta_den: float) -> float:
    return math.nan if eta_den == 0.0 else eta_den


def _regular_each(den: np.ndarray, lh: np.ndarray, lc: np.ndarray) -> np.ndarray:
    singular = np.abs(den) < _SINGULAR_TOL
    if singular.any():
        index = int(singular.argmax())
        raise _degenerate(float(lh[index]), float(lc[index]), index)
    return den


def _defined_each(eta_den: np.ndarray) -> np.ndarray:
    return np.where(eta_den == 0.0, np.nan, eta_den)


def optimal_performance(params: EngineParams) -> PerformancePoint:
    """Best work and efficiency over all closing three-stroke protocols.

    The optimal protocol mixes at the caps during both thermal strokes and
    swaps the populations in between; the closed forms are evaluated at that
    corner.  A vanishing heat intake leaves the efficiency undefined and the
    point reports as non-operational.
    """
    bh, bc = params.beta_h_omega, params.beta_c_omega
    p_opt, w_max, eta_max = _closed_form(
        math.exp(-bh),
        math.exp(-bc),
        math.exp(-(bh + bc)),
        params.lambda_h_max,
        params.lambda_c_max,
        _regular,
        _defined,
    )
    return PerformancePoint(
        p_opt=p_opt,
        w_max=w_max,
        eta_max=None if math.isnan(eta_max) else eta_max,
        operational=w_max > 0.0,
    )


@dataclass(frozen=True, eq=False)
class BathTemperatures:
    """Aligned 1-d arrays of bath temperatures, with their Boltzmann factors.

    The array counterpart of the temperatures in EngineParams.  Both arrays
    are validated as a whole before any arithmetic, and the factors are
    computed once, through math (see elementwise), for every pair of caps
    evaluated on them.
    """

    beta_h_omega: np.ndarray
    beta_c_omega: np.ndarray
    exp_h: np.ndarray = field(init=False, repr=False)
    exp_c: np.ndarray = field(init=False, repr=False)
    exp_hc: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        bh = np.asarray(self.beta_h_omega, dtype=float)
        bc = np.asarray(self.beta_c_omega, dtype=float)
        if bh.ndim != 1 or bh.shape != bc.shape:
            raise ValueError(f"need two 1-d arrays of one length, got {bh.shape} and {bc.shape}")
        check_betas(bh, "beta_h_omega")
        check_betas(bc, "beta_c_omega")
        object.__setattr__(self, "beta_h_omega", bh)
        object.__setattr__(self, "beta_c_omega", bc)
        object.__setattr__(self, "exp_h", elementwise(math.exp, -bh))
        object.__setattr__(self, "exp_c", elementwise(math.exp, -bc))
        object.__setattr__(self, "exp_hc", elementwise(math.exp, -(bh + bc)))

    def optimum(
        self, lambda_h_max: np.ndarray, lambda_c_max: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p_opt, w_max and eta_max of optimal_performance at every index.

        The caps are arrays aligned with the temperatures.  eta_max is nan
        where optimal_performance reports None, and a degenerate cycle raises
        SingularCycleError with the index of the first one.
        """
        lh = np.asarray(lambda_h_max, dtype=float)
        lc = np.asarray(lambda_c_max, dtype=float)
        for name, values in (("lambda_h_max", lh), ("lambda_c_max", lc)):
            if values.shape != self.beta_h_omega.shape:
                raise ValueError(f"{name} has shape {values.shape}, expected {self.beta_h_omega.shape}")
            ok = (values >= 0.0) & (values <= 1.0)
            if not ok.all():
                check_unit_interval(values[int(ok.argmin())], name)
        # Python floats overflow to inf without a word; so do these
        with np.errstate(all="ignore"):
            return _closed_form(
                self.exp_h, self.exp_c, self.exp_hc, lh, lc, _regular_each, _defined_each
            )


def positive_work_condition(params: EngineParams) -> bool:
    """Strict positive-work test; only valid without restrictions on the strokes."""
    if params.lambda_h_max != 1.0 or params.lambda_c_max != 1.0:
        raise UnsupportedRestrictionError(
            "positive-work condition assumes mixing caps of 1 on both strokes"
        )
    return 2.0 > math.exp(params.beta_h_omega) + math.exp(-params.beta_c_omega)


def open_cycle_performance(params: EngineParams) -> PerformancePoint:
    """Optimum when every cycle starts from a fresh cold-thermal qubit.

    A full cold reset is the mixture whose weight equals the cold Gibbs ground
    population: at that weight the cold stroke maps every input to the cold
    Gibbs state.  The hot stroke stays unrestricted.
    """
    lc = 1.0 / (1.0 + params.exp_c)
    return optimal_performance(
        EngineParams(params.beta_h_omega, params.beta_c_omega, 1.0, lc)
    )


def check_laws(
    report: CycleReport, params: EngineParams, tol: float = 1e-12
) -> LawDiagnostics:
    """Check the first law and, for engines, heat intake and the Carnot bound.

    The heat-intake and Carnot checks compare the hot and cold roles, so they
    are skipped (and reported as skipped) when the cold bath is not colder.
    """
    if not report.closes:
        raise ValueError("law checks need a closing cycle")
    failures: list[str] = []
    skipped: list[str] = []
    gap = abs(report.work - report.q_hot - report.q_cold)
    if gap > tol:
        failures.append(f"first law: |work - q_hot - q_cold| = {gap:.3e} exceeds {tol:.1e}")
    if report.work > 0.0:
        if params.cold_hotter:
            skipped.extend(["heat intake", "carnot bound"])
        elif report.q_hot <= 0.0:
            failures.append(
                f"heat intake: work = {report.work!r} > 0 but q_hot = {report.q_hot!r}"
            )
        else:
            eta = report.work / report.q_hot
            bound = params.carnot_efficiency()
            if not 0.0 < eta <= bound + tol:
                failures.append(f"carnot bound: eta = {eta!r} outside (0, {bound!r}]")
    return LawDiagnostics(ok=not failures, failures=tuple(failures), skipped=tuple(skipped))
