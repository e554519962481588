"""Three-stroke cycle of a two-level working body between two heat baths.

One cycle is heat stroke (capped thermal process at the hot temperature),
work stroke (a population permutation, the swap in the optimal protocol) and
cold stroke (capped thermal process at the cold temperature).  All energies
are in units of the qubit splitting.  Sign conventions: q_hot and q_cold are
energy changes of the working body during the respective strokes (positive
when the body absorbs energy), work is the energy released during the unitary
stroke, and the first law reads work = q_hot + q_cold for a closing cycle.

cycle_map composes the three strokes, each a column-stochastic 2x2 matrix
[[1 - p, q], [p, 1 - q]], into one-cycle (p, q), whose fixed ground entry
q / (p + q) is cyclic_state on floats and fixed_ground on arrays (singular
where p + q < SINGULAR_TOL).  run_cycle runs one cycle on Python floats and
run_cycles runs many at once on arrays, through one stroke pass (_cycle_pass)
with the same bits.  Neither calls cycle_map, so the runner, not the product,
is the independent oracle of the fixed point and of the closed-form optimum:
its closure (within CLOSURE_TOL) is measured.  check_laws (and
check_laws_each over arrays) test the first law on the cold stroke's raw
heat, within the closure residual, so neither closure nor the first law holds
by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ergotropy import WorkPermutation
from .populations import (
    PopulationVector,
    as_numbers,
    check_beta,
    check_betas,
    check_instance,
    check_unit_interval,
    qubit_population,
    qubit_populations,
)
from .thermal_qubit import capped_weight, capped_weights, mixture_entries

__all__ = [
    "CLOSURE_TOL",
    "SINGULAR_TOL",
    "BathTemperatures",
    "CycleBatch",
    "CycleReport",
    "EngineParams",
    "LawDiagnostics",
    "PerformancePoint",
    "SingularCycleError",
    "UndefinedEfficiencyError",
    "UnsupportedRestrictionError",
    "check_laws",
    "check_laws_each",
    "cycle_map",
    "cyclic_state",
    "elementwise",
    "fixed_ground",
    "optimal_performance",
    "positive_work_condition",
    "run_cycle",
    "run_cycles",
]

CLOSURE_TOL = 1e-10
SINGULAR_TOL = 1e-14
# check_laws' slack on the first law and its threshold for an engine's work
_LAW_TOL = 1e-12


class SingularCycleError(ValueError):
    """The stroke composition has no unique fixed point.

    The message names the caps of the degenerate cycle; an array evaluation
    (BathTemperatures.optimum) names those of its first degenerate entry.
    """


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
    """Bookkeeping for one pass of heat, work and cold strokes.

    populations holds the states after the heat, work and cold strokes,
    q_cold_raw the cold stroke's own energy change and residual the closure
    residual E(final) - E(start).
    """

    work: float
    q_hot: float
    closes: bool
    populations: tuple[PopulationVector, PopulationVector, PopulationVector]
    q_cold_raw: float
    residual: float


@dataclass(frozen=True, eq=False)
class CycleBatch:
    """run_cycles' results, one entry per cycle.

    work, q_hot, q_cold_raw, residual and closes are CycleReport's fields.
    renormalized marks the cycles where the start or the state after one of
    the strokes was renormalized.
    """

    work: np.ndarray
    q_hot: np.ndarray
    q_cold_raw: np.ndarray
    residual: np.ndarray
    closes: np.ndarray
    renormalized: np.ndarray


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


def _cycle_pass(g, x, lh, lc, eh, ec, s, population):
    """One pass of heat, work and cold from the start (g, x), on floats or on arrays.

    The thermal strokes are mixture_entries at the weights lh, lc and the
    Boltzmann factors eh, ec; the work stroke is the permutation matrix
    [[1 - s, s], [s, 1 - s]], the swap at s = 1 and the identity at s = 0.
    population(ground, excited) holds each stroke's output to the population
    rule and returns its entries.  The arguments meet only + - * / and
    comparisons, so arrays give the floats' results entry by entry, bit for
    bit.  Energies are excited entries; returns work, q_hot, the raw q_cold,
    the residual E(final) - E(start) and whether the cycle closed.
    """
    g_h, x_h = population(*mixture_entries(lh, eh, g, x))
    g_w, x_w = population(s * x_h + (1.0 - s) * g_h, s * g_h + (1.0 - s) * x_h)
    g_c, x_c = population(*mixture_entries(lc, ec, g_w, x_w))
    closes = (abs(g_c - g) <= CLOSURE_TOL) & (abs(x_c - x) <= CLOSURE_TOL)
    return x_h - x_w, x_h - x, x_c - x_w, x_c - x, closes


def run_cycle(
    p0: PopulationVector,
    lambda_h: float,
    lambda_c: float,
    perm: WorkPermutation,
    params: EngineParams,
) -> CycleReport:
    """Run heat -> work -> cold once from p0.

    The cycle closes when the final populations return to p0 within
    CLOSURE_TOL.  Each heat is its stroke's own energy change, and the
    closure residual is reported beside them.
    """
    params = check_instance(params, "params", EngineParams)
    lh = capped_weight(lambda_h, params.lambda_h_max)
    lc = capped_weight(lambda_c, params.lambda_c_max)
    states = []

    def population(ground: float, excited: float) -> tuple[float, ...]:
        states.append(PopulationVector((ground, excited)))
        return states[-1].entries

    g, x = check_instance(p0, "p0", PopulationVector).entries
    s = 0.0 if check_instance(perm, "perm", WorkPermutation).is_identity else 1.0
    work, q_hot, q_cold_raw, residual, closes = _cycle_pass(
        g, x, lh, lc, params.exp_h, params.exp_c, s, population
    )
    return CycleReport(
        work=work,
        q_hot=q_hot,
        closes=closes,
        populations=tuple(states),
        q_cold_raw=q_cold_raw,
        residual=residual,
    )


def _then(first, second):
    """The stroke `second` after `first`, each as (p, q) of [[1 - p, q], [p, 1 - q]]."""
    (p1, q1), (p2, q2) = first, second
    return p2 * (1.0 - p1) + (1.0 - q2) * p1, (1.0 - p2) * q1 + q2 * (1.0 - q1)


def cycle_map(lh, lc, params: EngineParams | BathTemperatures, swap):
    """(p, q) of the product [[1 - p, q], [p, 1 - q]] of hot, work and cold strokes.

    The strokes are (lh * e_h, lh), the work stroke (s, s), the swap at
    s = 1 and the identity at s = 0, and (lc * e_c, lc).  params has exp_h
    and exp_c (EngineParams or BathTemperatures), swap is a flag or a boolean
    array, and the weights broadcast with them.  Every term is a product of
    numbers in [0, 1], so p + q has no cancellation and q / (p + q) lies in
    [0, 1]; arrays give the floats' results entry by entry, bit for bit.
    """
    s = swap.astype(float) if isinstance(swap, np.ndarray) else float(swap)
    return _then(_then((lh * params.exp_h, lh), (s, s)), (lc * params.exp_c, lc))


def run_cycles(
    start: np.ndarray,
    lambda_h: np.ndarray,
    lambda_c: np.ndarray,
    swap: np.ndarray,
    temperatures: BathTemperatures,
    lambda_h_max: np.ndarray,
    lambda_c_max: np.ndarray,
) -> CycleBatch:
    """run_cycle at every index of aligned 1-d arrays.

    start is an (n, 2) array of populations, swap a boolean array choosing
    the swap or the identity work stroke, and the weights, caps and
    temperatures are aligned with it; each is validated as a whole by
    run_cycle's rules.  Every figure equals run_cycle's bit for bit, and a
    cycle whose stroke product is singular is run all the same.
    """
    n = temperatures.beta_h_omega.size
    start = as_numbers(start, "start")
    if start.shape != (n, 2):
        raise ValueError(f"start has shape {start.shape}, expected {(n, 2)}")
    swap = np.asarray(swap)
    if swap.shape != (n,) or swap.dtype != bool:
        raise ValueError(f"swap must be a boolean array of shape {(n,)}")
    caps_h, caps_c = temperatures.caps(lambda_h_max, lambda_c_max)
    lh = capped_weights(temperatures.aligned(lambda_h, "lambda_h"), caps_h)
    lc = capped_weights(temperatures.aligned(lambda_c, "lambda_c"), caps_c)
    g, x, renormalized = qubit_populations(start[:, 0], start[:, 1])

    def population(ground: np.ndarray, excited: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nonlocal renormalized
        ground, excited, flags = qubit_populations(ground, excited)
        renormalized = renormalized | flags
        return ground, excited

    work, q_hot, q_cold_raw, residual, closes = _cycle_pass(
        g, x, lh, lc, temperatures.exp_h, temperatures.exp_c, swap.astype(float), population
    )
    return CycleBatch(
        work=work,
        q_hot=q_hot,
        q_cold_raw=q_cold_raw,
        residual=residual,
        closes=closes,
        renormalized=renormalized,
    )


def cyclic_state(lambda_h: float, lambda_c: float, params: EngineParams) -> PopulationVector:
    """Fixed point of cold(swap(hot(p))): the ground entry q / (p + q) of cycle_map.

    The fixed point is solved from the stroke product directly instead of
    through any closed-form display.  Where p + q < SINGULAR_TOL the product
    is the identity within rounding, every state is (nearly) fixed, and
    SingularCycleError is raised.
    """
    params = check_instance(params, "params", EngineParams)
    lh = capped_weight(lambda_h, params.lambda_h_max)
    lc = capped_weight(lambda_c, params.lambda_c_max)
    p, q = cycle_map(lh, lc, params, True)
    if p + q < SINGULAR_TOL:
        raise SingularCycleError(
            f"cycle map is the identity at lambda_h={lh!r}, lambda_c={lc!r}"
        )
    return qubit_population(q / (p + q))


def fixed_ground(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The fixed ground entry q / (p + q) over arrays of cycle_map's (p, q).

    NaN where p + q < SINGULAR_TOL.  At a swap cycle that is where
    cyclic_state raises, and every other entry equals its ground entry bit
    for bit.
    """
    slack = p + q
    return np.divide(q, slack, out=np.full(slack.shape, np.nan), where=slack >= SINGULAR_TOL)


def elementwise(func, values: np.ndarray) -> np.ndarray:
    """func, a function of the math module, applied to each entry of a 1-d array.

    numpy's exp and expm1 differ from the C library's by one ulp on a few
    percent of inputs.  Going through math keeps the array results bit for
    bit equal to the scalar functions' results.  An array whose entries all
    share one bit pattern (so 0.0 and -0.0 stay apart), such as a sweep's
    fixed temperature, takes a single call.
    """
    bits = values.view(np.int64)
    if values.size and (bits == bits[0]).all():
        return np.full(values.shape, func(float(values[0])))
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


def _degenerate(lh: float, lc: float) -> SingularCycleError:
    return SingularCycleError(f"degenerate cycle at caps ({lh!r}, {lc!r})")


def _regular(den: float, lh: float, lc: float) -> float:
    if abs(den) < SINGULAR_TOL:
        raise _degenerate(lh, lc)
    return den


def _defined(eta_den: float) -> float:
    return math.nan if eta_den == 0.0 else eta_den


def _regular_each(den: np.ndarray, lh: np.ndarray, lc: np.ndarray) -> np.ndarray:
    singular = np.abs(den) < SINGULAR_TOL
    if singular.any():
        index = int(singular.argmax())
        raise _degenerate(float(lh[index]), float(lc[index]))
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
    params = check_instance(params, "params", EngineParams)
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
        bh = check_betas(self.beta_h_omega, "beta_h_omega")
        bc = check_betas(self.beta_c_omega, "beta_c_omega")
        if bh.shape != bc.shape:
            raise ValueError(f"need two 1-d arrays of one length, got {bh.shape} and {bc.shape}")
        object.__setattr__(self, "beta_h_omega", bh)
        object.__setattr__(self, "beta_c_omega", bc)
        object.__setattr__(self, "exp_h", elementwise(math.exp, -bh))
        object.__setattr__(self, "exp_c", elementwise(math.exp, -bc))
        # Python floats overflow to inf without a word; so does this sum
        with np.errstate(over="ignore"):
            object.__setattr__(self, "exp_hc", elementwise(math.exp, -(bh + bc)))

    def aligned(self, values: np.ndarray, name: str) -> np.ndarray:
        """values as a float array, if it has the temperatures' shape."""
        values = as_numbers(values, name)
        if values.shape != self.beta_h_omega.shape:
            raise ValueError(f"{name} has shape {values.shape}, expected {self.beta_h_omega.shape}")
        return values

    def caps(
        self, lambda_h_max: np.ndarray, lambda_c_max: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both caps as aligned float arrays in [0, 1], checked hot side first."""
        caps = []
        for name, values in (("lambda_h_max", lambda_h_max), ("lambda_c_max", lambda_c_max)):
            values = self.aligned(values, name)
            ok = (values >= 0.0) & (values <= 1.0)
            if not ok.all():
                check_unit_interval(values[int(ok.argmin())], name)
            caps.append(values)
        return caps[0], caps[1]

    def optimum(
        self, lambda_h_max: np.ndarray, lambda_c_max: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """p_opt, w_max and eta_max of optimal_performance at every index.

        The caps are arrays aligned with the temperatures.  eta_max is nan
        where optimal_performance reports None, and a degenerate cycle raises
        optimal_performance's SingularCycleError for the first one.
        """
        lh, lc = self.caps(lambda_h_max, lambda_c_max)
        # Python floats overflow to inf without a word; so do these
        with np.errstate(all="ignore"):
            return _closed_form(
                self.exp_h, self.exp_c, self.exp_hc, lh, lc, _regular_each, _defined_each
            )


def positive_work_condition(params: EngineParams) -> bool:
    """Strict positive-work test; only valid without restrictions on the strokes."""
    params = check_instance(params, "params", EngineParams)
    if params.lambda_h_max != 1.0 or params.lambda_c_max != 1.0:
        raise UnsupportedRestrictionError(
            "positive-work condition assumes mixing caps of 1 on both strokes"
        )
    return 2.0 > math.exp(params.beta_h_omega) + math.exp(-params.beta_c_omega)


def _law_violations(work, q_hot, q_cold_raw, residual, beta_h, beta_c, positive):
    """First-law, heat-intake and Carnot-bound violations, on floats or on arrays.

    The first law is tested on the raw cold heat, within 1e-12 plus the
    closure residual.  The heat-intake and Carnot tests apply to engines:
    cycles that release more than 1e-12 of work with the cold bath colder, so
    rounding noise in a cycle that releases nothing is not an engine.
    positive(v) replaces the entries of v that are not > 0 by nan, so no
    division raises and a cycle without heat intake is not tested against the
    bound.
    """
    first_law = abs(work - q_hot - q_cold_raw) > _LAW_TOL + abs(residual)
    engine = (work > _LAW_TOL) & (beta_c > beta_h)
    intake = engine & (q_hot <= 0.0)
    carnot = engine & (work / positive(q_hot) > 1.0 - beta_h / positive(beta_c) + _LAW_TOL)
    return first_law, intake, carnot


def _positive(value: float) -> float:
    return value if value > 0.0 else math.nan


def _positive_each(values: np.ndarray) -> np.ndarray:
    return np.where(values > 0.0, values, np.nan)


def check_laws(report: CycleReport, params: EngineParams) -> LawDiagnostics:
    """Check the first law and, for engines, heat intake and the Carnot bound.

    The first law is checked on the raw cold heat: |work - q_hot -
    q_cold_raw| may exceed 1e-12 by the closure residual at most.  The
    heat-intake and Carnot checks apply to cycles releasing more than 1e-12
    of work; they compare the hot and cold roles, so they are skipped (and
    reported as skipped) when the cold bath is not colder.
    """
    report = check_instance(report, "report", CycleReport)
    params = check_instance(params, "params", EngineParams)
    if not report.closes:
        raise ValueError("law checks need a closing cycle")
    first_law, intake, carnot = _law_violations(
        report.work, report.q_hot, report.q_cold_raw, report.residual,
        params.beta_h_omega, params.beta_c_omega, _positive,
    )
    failures: list[str] = []
    if first_law:
        gap = abs(report.work - report.q_hot - report.q_cold_raw)
        failures.append(
            f"first law: |work - q_hot - q_cold_raw| = {gap:.3e} exceeds "
            f"{_LAW_TOL:.1e} + |residual| = {_LAW_TOL + abs(report.residual):.3e}"
        )
    if intake:
        failures.append(f"heat intake: work = {report.work!r} > 0 but q_hot = {report.q_hot!r}")
    if carnot:
        eta = report.work / report.q_hot
        failures.append(f"carnot bound: eta = {eta!r} outside (0, {params.carnot_efficiency()!r}]")
    skipped = (
        ("heat intake", "carnot bound") if report.work > _LAW_TOL and params.cold_hotter else ()
    )
    return LawDiagnostics(ok=not failures, failures=tuple(failures), skipped=skipped)


def check_laws_each(
    batch: CycleBatch, temperatures: BathTemperatures
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """check_laws' first-law, heat-intake and Carnot violations at every index.

    Three boolean arrays, each false where the cycle does not close.
    """
    with np.errstate(invalid="ignore"):
        violations = _law_violations(
            batch.work, batch.q_hot, batch.q_cold_raw, batch.residual,
            temperatures.beta_h_omega, temperatures.beta_c_omega, _positive_each,
        )
    return tuple(v & batch.closes for v in violations)
