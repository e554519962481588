"""The verify checks: each closed form against an oracle that shares none of its algebra.

Each check takes the points it checks and returns CheckRecords; verify prints
each record's line and fails on FAIL, while WARN only reports.  CHECKS maps
each name to a (seed, grid) callable that draws verify's points and runs it.
worst and tol per check:

- thm3: largest |scan_lambda_max - lambda_max_finite_bath|; tol 1e-6.
- thm2: largest work or efficiency gap, grid against closed form, efficiency
  where w_max > ENGINE_WORK_FLOOR; tol 1e-6.
- eta-d: largest |eta_finite_bath - capped optimum|, inf where undefined; tol 1e-9.
- jc: largest shortfall of the time scan below the stated cap; tol 5e-2.  The
  bracket is one-sided: a scan above the cap by more than 1e-2 fails too.  The
  WARN record (window, largest value and clamped drop of the stated
  high-temperature branch above 1) has worst its largest value minus 1; tol 0.
- carnot: cycles that do not close or break a law at their fixed point,
  singular ones (fixed_ground NaN) run from random starts and skipped; tol 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath_oracle import brute_force_performance, jc_time_scan, scan_lambda_max
from .engine import (
    BathTemperatures, EngineParams, check_laws_each, cycle_map, fixed_ground, optimal_performance,
    run_cycles,
)
from .restrictions import (
    JC_BRANCH_POINT, RestrictionModel, eta_finite_bath, lambda_max_finite_bath, lambda_max_jc,
    lambda_max_jc_raw,
)

# thm2 compares efficiencies where the closed-form work exceeds this.
ENGINE_WORK_FLOOR = 1e-6


@dataclass(frozen=True)
class CheckRecord:
    """One verdict: the check's name, PASS, FAIL or WARN, its worst deviation and tolerance."""

    name: str
    level: str
    worst: float
    tol: float
    message: str

    @property
    def line(self) -> str:
        return f"{self.level} {self.name}: {self.message}"


def _judged(name: str, worst: float, tol: float, message: str) -> CheckRecord:
    return CheckRecord(name, "PASS" if worst <= tol else "FAIL", worst, tol, message)


def thm3(cases) -> list[CheckRecord]:
    """Scanned ladder caps against lambda_max_finite_bath at each (d, beta_omega)."""
    worst = max(abs(scan_lambda_max(bw, d) - lambda_max_finite_bath(bw, d)) for d, bw in cases)
    return [_judged("thm3", worst, 1e-6,
                    f"scanned ladder caps match the closed form (max dev {worst:.2e})")]


def thm2(params_list, grid: int) -> list[CheckRecord]:
    """The brute-force grid's best swap cycle against optimal_performance at each point."""
    worst_w = worst_eta = 0.0
    compared = 0
    for params in params_list:
        point = optimal_performance(params)
        oracle = brute_force_performance(params, grid)
        # the grid holds the do-nothing cycle, so its best is w_max floored at zero
        worst_w = max(worst_w, abs(oracle.w_max - max(point.w_max, 0.0)))
        if point.w_max > ENGINE_WORK_FLOOR:
            if oracle.eta_max is None:
                return [CheckRecord("thm2", "FAIL", math.inf, 1e-6,
                                    f"grid found no engine where the closed form has one "
                                    f"at {params}")]
            compared += 1
            worst_eta = max(worst_eta, abs(oracle.eta_max - point.eta_max))
    return [_judged(
        "thm2", max(worst_w, worst_eta), 1e-6,
        "grid search of the swap cycle over both mixing weights matches the closed form "
        f"(work dev {worst_w:.2e}, efficiency dev {worst_eta:.2e} "
        f"on {compared} of {len(params_list)} draws)",
    )]


def eta_d(beta_h: float, ratios: np.ndarray, sizes) -> list[CheckRecord]:
    """eta_finite_bath against each ladder size's capped optimum at beta_c = beta_h * ratio."""
    worst = 0.0
    temperatures = BathTemperatures(np.full(ratios.size, beta_h), beta_h * ratios)
    for d in sizes:
        model = RestrictionModel.finite_bath(d)
        lh, _ = model.resolve(temperatures.beta_h_omega)
        lc, _ = model.resolve(temperatures.beta_c_omega)
        _, _, eta_max = temperatures.optimum(lh, lc)
        undefined = np.isnan(eta_max)
        if undefined.any():
            ratio = ratios[int(undefined.argmax())]
            return [CheckRecord("eta-d", "FAIL", math.inf, 1e-9,
                                f"efficiency undefined at d={d}, ratio={ratio}")]
        # eta_finite_bath stays scalar: it is the side checked independently
        for beta_c, eta in zip(temperatures.beta_c_omega.tolist(), eta_max.tolist()):
            worst = max(worst, abs(eta_finite_bath(beta_h, beta_c, d) - eta))
    return [_judged("eta-d", worst, 1e-9, "stated ladder-bath efficiency matches the general "
                    f"closed form (max dev {worst:.2e})")]


def _jc_edge(above: float, below: float) -> tuple[float, float]:
    """Bisect to 1e-12 between temperatures where the stated exchange-coupling
    cap is above 1 and where it is not; returns the bracket's (below, above)."""
    while abs(above - below) > 1e-12:
        mid = 0.5 * (above + below)
        if lambda_max_jc_raw(mid) > 1.0:
            above = mid
        else:
            below = mid
    return below, above


def jc(betas) -> list[CheckRecord]:
    """Time scans against the stated exchange-coupling cap, and the stated branch above 1."""
    ok = True
    worst = -math.inf
    details = []
    for beta_omega in betas:
        cap = lambda_max_jc(beta_omega)
        scanned = jc_time_scan(beta_omega)
        ok = ok and cap - 5e-2 <= scanned <= cap + 1e-2
        worst = max(worst, cap - scanned)
        details.append(f"bw={beta_omega:g}: stated {cap:.6f}, scanned {scanned:.6f}")
    records = [CheckRecord("jc", "PASS" if ok else "FAIL", worst, 5e-2,
                           "time scan brackets the stated cap (" + "; ".join(details) + ")")]
    # The stated high-temperature branch holds on [0, JC_BRANCH_POINT] (it is
    # exactly 1 at 0) and the next float takes the other branch.  Probes
    # bracket the window where the branch exceeds 1, and its edges are bisected.
    probes = np.linspace(0.0, JC_BRANCH_POINT, 33).tolist()
    probes.append(math.nextafter(JC_BRANCH_POINT, math.inf))
    stated = [lambda_max_jc_raw(b) for b in probes[:-1]]
    above = [i for i, value in enumerate(stated) if value > 1.0]
    if above:
        first, last = above[0], above[-1]
        lower, _ = _jc_edge(probes[first], probes[first - 1])
        _, upper = _jc_edge(probes[last], probes[last + 1])
        top = int(np.argmax(stated))
        drop = lambda_max_jc(JC_BRANCH_POINT) - lambda_max_jc(probes[-1])
        records.append(CheckRecord(
            "jc", "WARN", stated[top] - 1.0, 0.0,
            f"stated high-temperature expression exceeds 1 on ({lower:.9f}, {upper:.9f}] "
            f"(max {stated[top]:.9f} at bw={probes[top]:.9f}); caps are clamped, and the "
            f"clamped cap drops by {drop:.9f} across the branch point",
        ))
    return records


def carnot(beta_h, beta_c, caps_h, caps_c, lam_h, lam_c, swap, starts) -> list[CheckRecord]:
    """The laws on one run_cycles call, one cycle per array entry.

    Every cycle starts at fixed_ground, cycle_map's fixed point, and must
    close there.  Where that is NaN the cycle is singular: it runs from
    starts and is skipped.
    """
    count = beta_h.size
    temperatures = BathTemperatures(beta_h, beta_c)
    fixed = fixed_ground(*cycle_map(lam_h, lam_c, temperatures, swap))
    singular = np.isnan(fixed)
    ground = np.where(singular, starts, fixed)
    batch = run_cycles(
        np.stack([ground, 1.0 - ground], axis=-1), lam_h, lam_c, swap,
        temperatures, caps_h, caps_c,
    )
    kinds = ("fails to close", "first law", "heat intake", "carnot bound")
    masks = [~batch.closes, *check_laws_each(batch, temperatures)]
    failed = np.any(masks, axis=0) & ~singular
    skipped = f"; {int(singular.sum())} singular draws skipped" if singular.any() else ""
    if failed.any():
        first = int(failed.argmax())
        kind = next(kind for kind, mask in zip(kinds, masks) if mask[first])
        message = (
            f"{int(failed.sum())}/{count} cycles violated the laws "
            f"(first: {kind} at beta_h={float(beta_h[first])!r}, "
            f"beta_c={float(beta_c[first])!r}, lambda_h={float(lam_h[first])!r}, "
            f"lambda_c={float(lam_c[first])!r}, {'swap' if swap[first] else 'identity'})"
        )
    else:
        residual = float(np.abs(batch.residual[~singular]).max(initial=0.0))
        message = (
            f"closure, first law on the raw heat and Carnot bound hold on "
            f"{int((~singular).sum())} cycles at their fixed points "
            f"(worst closure residual {residual:.1e})"
        )
    return [_judged("carnot", float(failed.sum()), 0.0, message + skipped)]


def _thm2_draws(seed: int) -> list[EngineParams]:
    rng = np.random.default_rng(seed)
    draws = []
    for draw in range(10):
        # Even draws lie where every engine operates: beta_h <= 0.4, beta_c >=
        # 3 beta_h and caps >= 0.9 give w_max >= 0.018.  Odd draws range wider.
        engine = draw % 2 == 0
        beta_h = rng.uniform(0.05, 0.4 if engine else 1.0)
        beta_c = beta_h * rng.uniform(3.0 if engine else 1.2, 6.0)
        low = 0.9 if engine else 0.2
        draws.append(EngineParams(beta_h, beta_c, rng.uniform(low, 1.0), rng.uniform(low, 1.0)))
    return draws


def _carnot_draws(seed: int, count: int = 2000) -> tuple[np.ndarray, ...]:
    rng = np.random.default_rng(seed)
    beta_h = rng.uniform(0.05, 2.0, count)
    beta_c = beta_h * rng.uniform(1.01, 8.0, count)
    caps_h = rng.uniform(0.05, 1.0, count)
    caps_c = rng.uniform(0.05, 1.0, count)
    lam_h = rng.uniform(0.0, caps_h)
    lam_c = rng.uniform(0.0, caps_c)
    swap = rng.integers(0, 2, count).astype(bool)
    starts = rng.uniform(0.0, 1.0, count)
    return beta_h, beta_c, caps_h, caps_c, lam_h, lam_c, swap, starts


# verify's checks in the order it runs them: name -> (seed, grid) -> records
CHECKS = {
    "thm3": lambda seed, grid: thm3(
        [(d, bw) for d in (1, 2, 3) for bw in (0.2, 1.0)] + [(10, 0.5)]),
    "thm2": lambda seed, grid: thm2(_thm2_draws(seed), grid),
    "eta-d": lambda seed, grid: eta_d(0.2, np.linspace(1.05, 10.0, 50), (5, 10, 15)),
    "jc": lambda seed, grid: jc((0.5, 1.0, 2.0)),
    "carnot": lambda seed, grid: carnot(*_carnot_draws(seed)),
}
