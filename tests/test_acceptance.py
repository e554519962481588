"""End-to-end acceptance checks, one per headline claim.

Run with `pytest tests/test_acceptance.py -v -s` to get one PASS/FAIL line per
criterion, each carrying its worst observed deviation and runtime.  Every
check pits a closed form against an independent oracle (grid search, explicit
simulation, or direct law verification) at the stated tolerance.
"""

import math
import time

import numpy as np

from threestroke import (
    BlockUnitarySpec,
    EngineParams,
    GibbsVector,
    PopulationVector,
    achieved_lambda,
    apply_mixture,
    brute_force_performance,
    cli,
    cyclic_state,
    engine_params_from,
    eta_finite_bath,
    gibbs_vector,
    jc_time_scan,
    lambda_max_finite_bath,
    lambda_max_jc,
    open_cycle_performance,
    optimal_performance,
    positive_work_condition,
    qubit_population,
    run_cycle,
    scan_lambda_max,
    simulate_finite_bath_map,
    thermomajorizes,
    RestrictionModel,
    SingularCycleError,
    WorkPermutation,
)
from threestroke.engine import BathTemperatures, run_cycles
from threestroke.populations import QUBIT, EnergySpectrum
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
    worst_w = 0.0
    worst_eta = 0.0
    eta_checked = 0
    for index in range(100):
        if index % 2:  # engine-leaning half of the draw
            bh = rng.uniform(0.05, 0.35)
            bc = bh * rng.uniform(3.0, 8.0)
            params = EngineParams(bh, bc, rng.uniform(0.7, 1.0), rng.uniform(0.7, 1.0))
        else:  # wide half, covering reversed roles and idle caps
            bh = rng.uniform(0.05, 1.5)
            bc = bh * rng.uniform(0.5, 8.0)
            params = EngineParams(bh, bc, rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
        point = optimal_performance(params)
        oracle = brute_force_performance(params, grid=200)
        # the grid always contains the do-nothing cycle, so its best work
        # is the closed-form optimum floored at zero
        worst_w = max(worst_w, abs(oracle.w_max - max(point.w_max, 0.0)))
        if point.w_max > 1e-6:
            eta_checked += 1
            worst_eta = max(worst_eta, abs(oracle.eta_max - point.eta_max))
    elapsed = time.perf_counter() - start
    ok = worst_w <= 1e-6 and worst_eta <= 1e-6 and eta_checked >= 30
    _report(
        "closed-form vs grid search (100 tuples)",
        ok,
        f"worst dW={worst_w:.2e}, worst d_eta={worst_eta:.2e} over {eta_checked} engines",
        elapsed,
        budget=60.0,
    )


def test_02_ladder_caps_match_angle_scans():
    start = time.perf_counter()
    worst = 0.0
    for d in (1, 2, 3, 4, 5, 10, 15):
        for bw in (0.1, 0.2, 0.5, 1.0, 2.0):
            worst = max(worst, abs(scan_lambda_max(bw, d) - lambda_max_finite_bath(bw, d)))
    elapsed = time.perf_counter() - start
    _report(
        "ladder caps vs angle scans",
        worst <= 1e-6,
        f"scan dev {worst:.2e} (tol 1e-6)",
        elapsed,
        budget=30.0,
    )


def test_03_bath_simulation_is_an_exact_mixture():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    worst_phase = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 21))
        bw = rng.uniform(0.0, 4.0)
        p = qubit_population(rng.uniform(0.0, 1.0))
        thetas = tuple(rng.uniform(0.0, math.pi / 2.0, d))
        spec = BlockUnitarySpec(
            thetas, tuple(rng.uniform(-math.pi, math.pi, d)),
            tuple(rng.uniform(-math.pi, math.pi, d)),
        )
        out = simulate_finite_bath_map(p, bw, d, spec)
        expect = apply_mixture(achieved_lambda(spec, bw, d), bw, p)
        worst = max(worst, abs(out.entries[0] - expect.entries[0]))
        respec = BlockUnitarySpec(
            thetas, tuple(rng.uniform(-math.pi, math.pi, d)),
            tuple(rng.uniform(-math.pi, math.pi, d)),
        )
        redone = simulate_finite_bath_map(p, bw, d, respec)
        worst_phase = max(worst_phase, abs(out.entries[0] - redone.entries[0]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and worst_phase <= 1e-12
    _report(
        "simulation equals mixture at the achieved weight (1000 draws)",
        ok,
        f"worst mixture dev {worst:.2e}, worst phase dependence {worst_phase:.2e}",
        elapsed,
    )


def test_04_laws_hold_on_random_closing_cycles():
    """Half the cycles start at the fixed point, half from random starts the runner settles.

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
    ground = rng.uniform(0.0, 1.0, count)
    batch = run_cycles(
        np.stack([ground, 1.0 - ground], axis=-1), lh, lc, swap,
        BathTemperatures(bh, bc), np.ones(count), np.ones(count), settle=True,
    )
    ran = ~batch.singular
    open_cycles = int(np.count_nonzero(ran & ~batch.closes))
    gap = np.abs(batch.work - batch.q_hot - batch.q_cold_raw) - np.abs(batch.residual)
    worst_first_law = max(worst_first_law, float(gap[ran].max()))
    engine = ran & (batch.work > 0.0)
    intake = batch.q_hot > 0.0
    eta = batch.work / np.where(intake, batch.q_hot, 1.0)
    engines += int(np.count_nonzero(engine))
    intake_violations += int(np.count_nonzero(engine & ~intake))
    carnot_violations += int(np.count_nonzero(engine & intake & (eta > 1.0 - bh / bc + 1e-12)))
    total += int(np.count_nonzero(ran))

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
        f"{open_cycles} settled cycles open, {engines} engines, "
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
        opened = open_cycle_performance(EngineParams(bh, bc, 1.0, 1.0))
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
    bh = 0.2
    worst = 0.0
    for d in (5, 10, 15):
        model = RestrictionModel.finite_bath(d)
        for ratio in np.linspace(1.05, 10.0, 100):
            bc = bh * ratio
            point = optimal_performance(engine_params_from(model, model, bh, bc))
            worst = max(worst, abs(eta_finite_bath(bh, bc, d) - point.eta_max))
    code = cli.main(["verify", "--only", "eta-d"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and code == 0 and "PASS" in out and "eta-d" in out
    _report(
        "ladder efficiency display vs capped optimum",
        ok,
        f"worst deviation {worst:.2e} (tol 1e-9); verify exit code {code}",
        elapsed,
    )


def test_09_exchange_coupling_scan_and_anomaly(capsys):
    start = time.perf_counter()
    worst_low = 0.0
    worst_high = 0.0
    for bw in (0.5, 1.0, 2.0):
        cap = lambda_max_jc(bw)
        scanned = jc_time_scan(bw)
        worst_low = max(worst_low, cap - scanned)
        worst_high = max(worst_high, scanned - cap)
    probes = np.linspace(0.21, JC_BRANCH_POINT - 1e-9, 25)
    raw_max = max(lambda_max_jc_raw(bw) for bw in probes)
    code = cli.main(["verify", "--only", "jc"])
    out = capsys.readouterr().out
    warned = any(
        line.startswith("WARN") and "exceeds 1" in line for line in out.splitlines()
    )
    elapsed = time.perf_counter() - start
    ok = worst_low <= 5e-2 and worst_high <= 1e-2 and raw_max > 1.0 and code == 0 and warned
    _report(
        "exchange-coupling cap: time scan and overshoot warning",
        ok,
        f"scan shortfall {worst_low:.2e} (tol 5e-2), overshoot {worst_high:.2e} "
        f"(tol 1e-2), stated-branch max {raw_max:.4f} flagged as WARN={warned}",
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


def _pair_thermalization(entries, gamma, i, j, s):
    total = entries[i] + entries[j]
    share = gamma[i] / (gamma[i] + gamma[j])
    out = list(entries)
    out[i] = (1.0 - s) * entries[i] + s * total * share
    out[j] = (1.0 - s) * entries[j] + s * total * (1.0 - share)
    return tuple(out)


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

    for _ in range(1_000):
        dim = int(rng.integers(3, 6))
        levels = (0.0, *np.sort(rng.uniform(0.1, 2.0, dim - 1)).tolist())
        spectrum = EnergySpectrum(levels)
        gamma = gibbs_vector(rng.uniform(0.0, 2.0), spectrum)
        p = PopulationVector(tuple(rng.dirichlet(np.ones(dim))))
        if not thermomajorizes(p, p, gamma):
            violations += 1
        if not thermomajorizes(p, PopulationVector(gamma.entries), gamma):
            violations += 1
        entries = p.entries
        for _ in range(3):
            i, j = rng.choice(dim, size=2, replace=False)
            entries = _pair_thermalization(
                entries, gamma.entries, int(i), int(j), rng.uniform(0.0, 1.0)
            )
        if not thermomajorizes(p, PopulationVector(entries), gamma):
            violations += 1
        uniform = gibbs_vector(0.0, spectrum)
        q = PopulationVector(tuple(rng.dirichlet(np.ones(dim))))
        classical = _classically_majorizes(p.entries, q.entries)
        if thermomajorizes(p, q, uniform) != classical:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0
    _report(
        "thermomajorization invariants (10^4 qubit + 10^3 multilevel draws)",
        ok,
        f"{violations} violations",
        elapsed,
    )
