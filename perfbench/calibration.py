"""Calibration rows and the per-check split of ``verify``, run untraced.

The calibration reproduces the baseline table of ROADMAP.md, one row per
layer call, and prints the ROADMAP value beside each, so the baseline can be
re-measured from one command. The verify split times each check through
``threestroke verify --only NAME``.
"""

from __future__ import annotations

import os
import statistics
import timeit

import threestroke
from workloads import CHECKS, Sizes, run_cli

# name -> (unit, value in the ROADMAP baseline table, measured on a 2-core VM)
ROADMAP = {
    "calib.optimal_performance.us": ("us", 3.8),
    "calib.run_cycle.us": ("us", 27.0),
    "calib.brute_force_grid200.ms": ("ms", 7.3),
    "calib.simulate_d1000.ms": ("ms", 1.8),
    "calib.jc_time_scan_0.5.ms": ("ms", 265.0),
    "calib.sweep_20000x3.s": ("s", 0.78),
}
_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}
SPLIT_REPEATS = 3  # runs of each verify check; the split reports their median


def _per_call(fn, number: int, repeat: int) -> float:
    """Median over repeats of the mean seconds per call."""
    return statistics.median(t / number for t in timeit.repeat(fn, number=number, repeat=repeat))


def calibrate(sizes: Sizes, workdir: str) -> tuple[dict[str, float], list[str]]:
    """Seconds per call of each calibration row, and any failures."""
    ts = threestroke
    params = ts.EngineParams(0.2, 0.6, 0.9, 0.8)
    start = ts.cyclic_state(0.9, 0.8, params)
    swap = ts.WorkPermutation.swap()
    p = ts.qubit_population(0.6)
    spec = ts.BlockUnitarySpec.full_swap(1000)
    out = os.path.join(workdir, "calibration.csv")
    argv = ["sweep", "--bh", "0.2", "--models", "unrestricted,fb:10,jc",
            "--ratio-steps", str(sizes.calibration_sweep_steps), "--out", out]
    failures = []

    def sweep():
        code, _, err = run_cli(argv)
        if code != 0:
            failures.append(f"calibration sweep exited {code}: {err.strip()}")

    seconds = {
        "calib.optimal_performance.us": _per_call(lambda: ts.optimal_performance(params), 20_000, 5),
        "calib.run_cycle.us": _per_call(lambda: ts.run_cycle(start, 0.9, 0.8, swap, params), 2_000, 5),
        "calib.brute_force_grid200.ms": _per_call(lambda: ts.brute_force_performance(params, 200), 5, 5),
        "calib.simulate_d1000.ms": _per_call(
            lambda: ts.simulate_finite_bath_map(p, 0.5, 1000, spec), 20, 5),
        "calib.jc_time_scan_0.5.ms": _per_call(lambda: ts.jc_time_scan(0.5), 1, 3),
        "calib.sweep_20000x3.s": _per_call(sweep, 1, 3),
    }
    return {name: value * _SCALE[ROADMAP[name][0]] for name, value in seconds.items()}, failures


def verify_split(seed: int, sizes: Sizes) -> tuple[dict[str, float], list[str]]:
    """Milliseconds of each verify check alone (median of repeats), and any failures."""
    times = {}
    failures = []
    for name in CHECKS:
        argv = ["verify", "--only", name, "--seed", str(seed)]
        if sizes.verify_grid is not None:
            argv += ["--grid", str(sizes.verify_grid)]
        samples = []
        for _ in range(SPLIT_REPEATS):
            start = timeit.default_timer()
            code, _, _ = run_cli(argv)
            samples.append(timeit.default_timer() - start)
            if code != 0:
                failures.append(f"verify --only {name} exited {code}")
        times[f"verify.{name}.ms"] = statistics.median(samples) * 1e3
    return times, failures
