"""End-to-end acceptance checks, one per headline claim.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion, each carrying its worst observed deviation and runtime.  Every
check pits a closed form against an independent oracle (grid search, explicit
simulation, or direct law verification) at the stated tolerance.  Tests 01,
02, 08 and 09 pass their own points to the checks that verify runs
(threestroke.checks) and read the records' worst deviation and tolerance.
"""

import math
import time

import numpy as np

from threestroke import (
    BlockUnitarySpec,
    EngineParams,
    PopulationVector,
    apply_mixture,
    checks,
    cli,
    cyclic_state,
    engine_params_from,
    gibbs_vector,
    optimal_performance,
    positive_work_condition,
    qubit_population,
    run_cycle,
    simulate_finite_bath_map,
    thermomajorizes,
    RestrictionModel,
    SingularCycleError,
    WorkPermutation,
)
from threestroke.engine import BathTemperatures, cycle_map, fixed_ground, run_cycles
from threestroke.populations import QUBIT
from threestroke.restrictions import JC_BRANCH_POINT, lambda_max_jc_raw


def _report(name, ok, detail, elapsed, budget=None):
    if budget is not None and elapsed >= budget:
        ok = False
        detail += f"; runtime exceeded the {budget:.0f}s budget"
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail} [{elapsed:.2f}s]")
    assert ok, f"{name}: {detail}"


def test_01_closed_form_optimum_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    draws = []
    for index in range(100):
        if index % 2:  # engine-leaning half of the draw
            bh = rng.uniform(0.05, 0.35)
            bc = bh * rng.uniform(3.0, 8.0)
            draws.append(EngineParams(bh, bc, rng.uniform(0.7, 1.0), rng.uniform(0.7, 1.0)))
        else:  # wide half, covering reversed roles and idle caps
            bh = rng.uniform(0.05, 1.5)
            bc = bh * rng.uniform(0.5, 8.0)
            draws.append(EngineParams(bh, bc, rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0)))
    (record,) = checks.thm2(draws, grid=200)
    eta_checked = sum(optimal_performance(p).w_max > checks.ENGINE_WORK_FLOOR for p in draws)
    elapsed = time.perf_counter() - start
    ok = record.level == "PASS" and record.worst <= record.tol and eta_checked >= 30
    _report(
        "closed-form vs grid search (100 tuples)",
        ok,
        f"{record.message}, worst {record.worst:.2e} (tol {record.tol:g})",
        elapsed,
        budget=60.0,
    )


def test_02_ladder_caps_match_angle_scans():
    start = time.perf_counter()
    cases = [(d, bw) for d in (1, 2, 3, 4, 5, 10, 15) for bw in (0.1, 0.2, 0.5, 1.0, 2.0)]
    (record,) = checks.thm3(cases)
    elapsed = time.perf_counter() - start
    _report(
        "ladder caps vs angle scans",
        record.level == "PASS" and record.worst <= record.tol,
        f"scan dev {record.worst:.2e} (tol {record.tol:g})",
        elapsed,
        budget=30.0,
    )


def achieved_weight(spec, bw, d):
    """sum_j sin^2(theta_j) w_j / Z, the mixing weight a block unitary realizes,
    from this test's own Boltzmann weights w_n = exp(-bw n), n = 0..d."""
    weights = np.exp(-bw * np.arange(d + 1))
    return float(np.sin(spec.thetas) ** 2 @ weights[:-1] / weights.sum())


def test_03_bath_simulation_is_an_exact_mixture():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 21))
        bw = rng.uniform(0.0, 4.0)
        p = qubit_population(rng.uniform(0.0, 1.0))
        spec = BlockUnitarySpec(tuple(rng.uniform(0.0, math.pi / 2.0, d)))
        out = simulate_finite_bath_map(p, bw, d, spec)
        expect = apply_mixture(achieved_weight(spec, bw, d), bw, p)
        worst = max(worst, abs(out.entries[0] - expect.entries[0]))
    elapsed = time.perf_counter() - start
    _report(
        "simulation equals mixture at the achieved weight (1000 draws)",
        worst <= 1e-12,
        f"worst mixture dev {worst:.2e}",
        elapsed,
    )


def test_04_laws_hold_on_random_closing_cycles():
    """Every cycle starts at its fixed point and must close there.

    The scalar half solves it with cyclic_state (or the identity cycle's own
    affine map), the batch half with fixed_ground, and skips singular draws.

    The first law is checked on the cold stroke's raw heat, within the
    closure residual, so neither closure nor the first law holds by
    construction.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_first_law = 0.0
    carnot_violations = 0
    intake_violations = 0
    engines = 0
    total = 0
    while total < 5_000:
        if total % 2:  # engine-leaning half of the draw
            bh = rng.uniform(0.05, 0.6)
            lam_lo = 0.6
        else:
            bh = rng.uniform(0.05, 2.0)
            lam_lo = 0.0
        params = EngineParams(bh, bh * rng.uniform(1.01, 8.0), 1.0, 1.0)
        lh = rng.uniform(lam_lo, 1.0)
        lc = rng.uniform(lam_lo, 1.0)
        swap = bool(rng.integers(0, 2))
        if swap:
            try:
                p0 = cyclic_state(lh, lc, params)
            except SingularCycleError:
                continue
            perm = WorkPermutation.swap()
        else:
            slope = (1.0 - lh * (1.0 + params.exp_h)) * (1.0 - lc * (1.0 + params.exp_c))
            offset = lc + (1.0 - lc * (1.0 + params.exp_c)) * lh
            if abs(1.0 - slope) < 1e-9:
                continue
            p0 = qubit_population(offset / (1.0 - slope))
            perm = WorkPermutation.identity(2)
        report = run_cycle(p0, lh, lc, perm, params)
        assert report.closes
        total += 1
        worst_first_law = max(
            worst_first_law,
            abs(report.work - report.q_hot - report.q_cold_raw) - abs(report.residual),
        )
        if report.work > 0.0:
            engines += 1
            if report.q_hot <= 0.0:
                intake_violations += 1
            elif report.work / report.q_hot > params.carnot_efficiency() + 1e-12:
                carnot_violations += 1

    count = 5_000
    lean = np.arange(count) % 2 == 1  # engine-leaning half of the draw
    bh = np.where(lean, rng.uniform(0.05, 0.6, count), rng.uniform(0.05, 2.0, count))
    bc = bh * rng.uniform(1.01, 8.0, count)
    lam_lo = np.where(lean, 0.6, 0.0)
    lh = rng.uniform(lam_lo, 1.0)
    lc = rng.uniform(lam_lo, 1.0)
    swap = rng.integers(0, 2, count).astype(bool)
    ground = fixed_ground(*cycle_map(lh, lc, BathTemperatures(bh, bc), swap))
    ran = ~np.isnan(ground)
    bh, bc, lh, lc, swap, ground = (values[ran] for values in (bh, bc, lh, lc, swap, ground))
    batch = run_cycles(
        np.stack([ground, 1.0 - ground], axis=-1), lh, lc, swap,
        BathTemperatures(bh, bc), np.ones(ground.size), np.ones(ground.size),
    )
    open_cycles = int(np.count_nonzero(~batch.closes))
    gap = np.abs(batch.work - batch.q_hot - batch.q_cold_raw) - np.abs(batch.residual)
    worst_first_law = max(worst_first_law, float(gap.max()))
    engine = batch.work > 0.0
    intake = batch.q_hot > 0.0
    eta = batch.work / np.where(intake, batch.q_hot, 1.0)
    engines += int(np.count_nonzero(engine))
    intake_violations += int(np.count_nonzero(engine & ~intake))
    carnot_violations += int(np.count_nonzero(engine & intake & (eta > 1.0 - bh / bc + 1e-12)))
    total += ground.size

    elapsed = time.perf_counter() - start
    ok = (
        worst_first_law <= 1e-12
        and open_cycles == 0
        and intake_violations == 0
        and carnot_violations == 0
        and engines >= 200
        and total >= 9_900
    )
    _report(
        "laws on 10^4 random closing cycles",
        ok,
        f"worst first-law gap on the raw heat {worst_first_law:.2e} beyond the closure residual, "
        f"{open_cycles} cycles open, {engines} engines, "
        f"{intake_violations} intake and {carnot_violations} Carnot violations",
        elapsed,
        budget=10.0,
    )


def test_05_limit_reductions_and_work_condition():
    start = time.perf_counter()
    bh_grid = np.linspace(0.02, 2.0, 50)
    ratio_grid = np.linspace(1.2, 6.0, 50)
    worst_free = 0.0
    worst_open = 0.0
    condition_mismatches = 0
    positives = 0
    for bh, ratio in zip(bh_grid, ratio_grid):
        bc = bh * ratio
        eh, ec, ehc = math.exp(-bh), math.exp(-bc), math.exp(-(bh + bc))
        point = optimal_performance(EngineParams(bh, bc, 1.0, 1.0))
        w_free = 2.0 * eh / (1.0 + ehc) - 1.0
        eta_free = 1.0 - (1.0 - eh) / (eh - ehc)
        worst_free = max(
            worst_free, abs(point.w_max - w_free), abs(point.eta_max - eta_free)
        )
        # every cycle starts from a fresh cold-thermal qubit: the cold stroke
        # at the cold Gibbs ground population maps every input to that state
        opened = optimal_performance(EngineParams(bh, bc, 1.0, 1.0 / (1.0 + ec)))
        w_open = 2.0 * eh / (1.0 + ec) - 1.0
        eta_open = 1.0 - (1.0 - eh) / (eh - ec)
        worst_open = max(
            worst_open, abs(opened.w_max - w_open), abs(opened.eta_max - eta_open)
        )
        claimed = 2.0 > math.exp(bh) + math.exp(-bc)
        stated = positive_work_condition(EngineParams(bh, bc, 1.0, 1.0))
        positives += stated
        if stated != claimed or (
            abs(point.w_max) > 1e-12 and stated != (point.w_max > 0.0)
        ):
            condition_mismatches += 1
    elapsed = time.perf_counter() - start
    ok = (
        worst_free <= 1e-12
        and worst_open <= 1e-12
        and condition_mismatches == 0
        and 0 < positives < 50
    )
    _report(
        "full-thermalization and open-cycle reductions (50-point grid)",
        ok,
        f"worst unrestricted dev {worst_free:.2e}, worst open-cycle dev "
        f"{worst_open:.2e}, {condition_mismatches} work-condition mismatches",
        elapsed,
    )


def test_06_restriction_ordering_of_performance_curves():
    start = time.perf_counter()
    bh = 0.2
    models = [RestrictionModel.finite_bath(d) for d in (5, 10, 15)]
    models.append(RestrictionModel.unrestricted())
    ordering_violations = 0
    carnot_violations = 0
    for ratio in np.linspace(1.05, 10.0, 100):
        bc = bh * ratio
        carnot = 1.0 - bh / bc
        points = [
            optimal_performance(engine_params_from(m, m, bh, bc)) for m in models
        ]
        for tight, loose in zip(points, points[1:]):
            if tight.operational and loose.operational:
                if tight.eta_max > loose.eta_max + 1e-12:
                    ordering_violations += 1
                if tight.w_max > loose.w_max + 1e-12:
                    ordering_violations += 1
        for point in points:
            if point.operational and not point.eta_max < carnot:
                carnot_violations += 1
    elapsed = time.perf_counter() - start
    ok = ordering_violations == 0 and carnot_violations == 0
    _report(
        "restriction ordering of efficiency and work curves",
        ok,
        f"{ordering_violations} ordering and {carnot_violations} Carnot violations "
        "across 100 ratios x 4 models",
        elapsed,
        budget=5.0,
    )


def test_07_single_contact_bath_extracts_no_work():
    start = time.perf_counter()
    model = RestrictionModel.finite_bath(1)
    worst = -math.inf
    for bw in np.linspace(0.01, 5.0, 500):
        for ratio in (1.1, 2.0, 3.0, 5.0, 8.0):
            params = engine_params_from(model, model, bw, bw * ratio)
            worst = max(worst, optimal_performance(params).w_max)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-15
    _report(
        "one-contact ladder never extracts work (500 x 5 grid)",
        ok,
        f"largest optimal work {worst:.2e}",
        elapsed,
    )


def test_08_ladder_efficiency_display_is_exact(capsys):
    start = time.perf_counter()
    (record,) = checks.eta_d(0.2, np.linspace(1.05, 10.0, 100), (5, 10, 15))
    code = cli.main(["verify", "--only", "eta-d"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = (
        record.level == "PASS" and record.worst <= record.tol
        and code == 0 and "PASS" in out and "eta-d" in out
    )
    _report(
        "ladder efficiency display vs capped optimum",
        ok,
        f"worst deviation {record.worst:.2e} (tol {record.tol:g}); verify exit code {code}",
        elapsed,
    )


def test_09_exchange_coupling_scan_and_anomaly(capsys):
    start = time.perf_counter()
    bracket, *rest = checks.jc((0.5, 1.0, 2.0))
    probes = np.linspace(0.21, JC_BRANCH_POINT - 1e-9, 25)
    raw_max = max(lambda_max_jc_raw(bw) for bw in probes)
    code = cli.main(["verify", "--only", "jc"])
    out = capsys.readouterr().out
    warned = any(
        line.startswith("WARN") and "exceeds 1" in line for line in out.splitlines()
    )
    elapsed = time.perf_counter() - start
    ok = (
        bracket.level == "PASS" and bracket.worst <= bracket.tol
        and [record.level for record in rest] == ["WARN"]
        and raw_max > 1.0 and code == 0 and warned
    )
    _report(
        "exchange-coupling cap: time scan and overshoot warning",
        ok,
        f"{bracket.message}; scan shortfall {bracket.worst:.2e} (tol {bracket.tol:g}), "
        f"stated-branch max {raw_max:.4f} flagged as WARN={warned}",
        elapsed,
    )


def _classically_majorizes(p, q):
    a = sorted(p, reverse=True)
    b = sorted(q, reverse=True)
    run_a = run_b = 0.0
    for x, y in zip(a, b):
        run_a += x
        run_b += y
        if run_a < run_b - 1e-12:
            return False
    return True


def test_10_thermomajorization_invariants():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    violations = 0

    for _ in range(10_000):
        bw = rng.uniform(0.0, 3.0)
        gamma = gibbs_vector(bw, QUBIT)
        p = qubit_population(rng.uniform(0.0, 1.0))
        if not thermomajorizes(p, p, gamma):
            violations += 1
        if not thermomajorizes(p, PopulationVector(gamma.entries), gamma):
            violations += 1
        image = apply_mixture(rng.uniform(0.0, 1.0), bw, p)
        if not thermomajorizes(p, image, gamma):
            violations += 1
        # infinite-temperature reduction: plain majorization of the pair
        uniform = gibbs_vector(0.0, QUBIT)
        q = qubit_population(rng.uniform(0.0, 1.0))
        classical = _classically_majorizes(p.entries, q.entries)
        if thermomajorizes(p, q, uniform) != classical:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    _report(
        "thermomajorization invariants (10^4 qubit draws)",
        ok,
        f"{violations} violations",
        elapsed,
    )
