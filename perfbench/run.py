"""Benchmark of the threestroke package.

    python3 perfbench/run.py --workload sweep|verify|cycles --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src``.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports per-layer metrics from a traced re-run of the same operations,
plus the calibration rows and the verify split. Lines before the last one are
for people (environment, tables); the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP run single-threaded on every commit measured; this must be
# set before numpy is loaded. jc_time_scan spends its time in a BLAS matmul.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import reference_seconds  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"

LAYERS = ("cli", "restrictions", "engine", "bath_oracle", "populations",
          "thermal_qubit", "ergotropy", "majorization")
SETUP_RUNS = 15
# setup_s is reported at a nominal host speed, one at which the reference loop takes 1 ms
NOMINAL_REFERENCE_S = 1e-3
REFERENCE_WINDOW = 4  # an op is normalised by the reference times of the ops within +-4 of it
WALL_LIMIT_S = 110.0  # stop issuing ops here, so a run ends well within 180 s
# The child times the reference loop just before and after the set-up it measures.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[2])
from hostspeed import reference_seconds
before = reference_seconds()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import threestroke.cli
threestroke.cli.build_parser()
elapsed = time.perf_counter() - start
after = reference_seconds()
print(repr(elapsed), repr((before + after) / 2.0))
"""


def import_package():
    """Import threestroke from this checkout's src, and nowhere else."""
    package_dir = SRC / "threestroke"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {package_dir}")
    sys.path.insert(0, str(SRC))
    import threestroke

    if Path(threestroke.__file__).resolve().parent != package_dir:
        raise SystemExit(f"perfbench: imported threestroke from {threestroke.__file__}")
    return threestroke


def setup_sample() -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import threestroke and build the CLI parser,
    and the reference-loop time the same interpreter measured around it."""
    command = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE)]
    done = subprocess.run(command, check=True, capture_output=True, text=True, timeout=60)
    seconds, reference = (float(word) for word in done.stdout.split())
    return seconds, reference


# ---------------------------------------------------------------------------
# environment record


def _openblas() -> dict:
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            try:
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"threads": threads(), "config": config().decode()}
    return {"threads": None, "config": None}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "threestroke").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "openblas": _openblas(),
        "thread_env": {name: os.environ[name] for name in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "git_commit": _git_commit(), "src_sha256_16": _source_digest(),
    }


# ---------------------------------------------------------------------------
# running operations


@dataclass
class Sample:
    seconds: float
    reference: float  # reference_seconds() just before the op
    outcome: object  # workloads.Outcome
    warmup: bool


def in_reference_units(samples: list[Sample]) -> list[float]:
    """Each op's time over the median reference time of the ops within REFERENCE_WINDOW of it."""
    references = [s.reference for s in samples]
    return [
        s.seconds / statistics.median(
            references[max(0, i - REFERENCE_WINDOW): i + REFERENCE_WINDOW + 1])
        for i, s in enumerate(samples)
    ]


def execute(op, tracer=None, warmup=False) -> Sample:
    """Run one op (timed), then check its output (untimed)."""
    from workloads import Outcome

    reference = reference_seconds()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result = op.run() if tracer is None else tracer.call("bench.op", "bench", op.run)
        error = None
    except Exception as exc:  # one failed op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    if error is not None:
        return Sample(elapsed, reference, Outcome(items=0, failures=[error]), warmup)
    try:
        outcome = op.check(result)
    except Exception as exc:  # a check that cannot read the output fails the op
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(items=0, failures=[f"check raised {type(exc).__name__}: {exc}"])
    if outcome.failures:
        print(f"# FAILED op: {outcome.failures[0]}", file=sys.stderr)
    return Sample(elapsed, reference, outcome, warmup)


def measure(workload, seconds: float, min_ops: int, max_ops: int, between=None) -> list[Sample]:
    """Warm up for one rotation, then issue ops until both seconds and min_ops are reached.

    between(timed_seconds), when given, runs after every op, outside the timing.
    """
    began = time.perf_counter()
    samples = [execute(workload.make(i), warmup=True) for i in range(workload.rotation)]
    timed = 0.0
    index = workload.rotation
    while True:
        sample = execute(workload.make(index))
        samples.append(sample)
        timed += sample.seconds
        index += 1
        counted = index - workload.rotation
        if between is not None:
            between(timed)
        if counted >= max_ops or (timed >= seconds and counted >= min_ops):
            break
        if time.perf_counter() - began > WALL_LIMIT_S:
            print(f"# wall-time limit reached after {counted} ops", file=sys.stderr)
            break
    return samples


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _failed(samples: list[Sample]) -> int:
    return sum(1 for s in samples if s.outcome.failures)


def _max_rel_err(samples: list[Sample]) -> float | None:
    worst = [s.outcome.worst_rel_err for s in samples if s.outcome.worst_rel_err is not None]
    return statistics.median(worst) if worst else None


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload, args, sizes) -> tuple[dict, int, int, list[str]]:
    # set-up samples are spread over the run, so they see the same host speeds as the ops
    setup_sample()  # warms the file cache
    setups: list[tuple[float, float]] = []

    def sample_setup(timed: float) -> None:
        if len(setups) < SETUP_RUNS and timed >= len(setups) * args.seconds / SETUP_RUNS:
            setups.append(setup_sample())

    min_ops = sizes.min_ops or workload.min_ops
    samples = measure(workload, args.seconds, min_ops, workload.max_ops, sample_setup)
    while len(setups) < SETUP_RUNS:
        setups.append(setup_sample())
    timed = [s for s in samples if not s.warmup]
    refs = in_reference_units(timed)
    seconds = [s.seconds for s in timed]
    items = sum(s.outcome.items for s in timed if not s.outcome.failures)
    failed = _failed(samples)
    beyond = len(refs) - math.ceil(workload.tail / 100.0 * len(refs))
    metrics = {
        "setup_s": (statistics.median(t / r for t, r in setups) * NOMINAL_REFERENCE_S, "s"),
        "op_p50_ref": (statistics.median(refs), "ref"),
        "op_tail_ref": (nearest_rank(refs, workload.tail), "ref"),
        "items_per_ref": (items / sum(refs), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "max_rel_err": (_max_rel_err(samples), "1"),
    }
    reference_ms = statistics.median(s.reference for s in timed) * 1e3
    notes = [
        f"setup_s: median of {SETUP_RUNS} fresh interpreters spread over the run, each "
        f"divided by its own reference-loop time and given at {NOMINAL_REFERENCE_S * 1e3:g} ms "
        f"per loop; wall-clock median {statistics.median(t for t, _ in setups):.4f} s",
        f"ref: one reference-loop time, median {reference_ms:.4f} ms in this run",
        f"tail: p{workload.tail} of {len(refs)} timed ops, {beyond} beyond it",
        f"op_ms_p50 {statistics.median(seconds) * 1e3:.4f} ms, "
        f"op_ms_tail {nearest_rank(seconds, workload.tail) * 1e3:.4f} ms, "
        f"items_per_s {items / sum(seconds):.6g} 1/s (wall time, not normalized)",
        f"fail_frac: {failed}/{len(samples)} = {failed / len(samples):.6g} (ops incl. warm-up)",
        f"items: {items} in {sum(seconds):.3f} s timed",
        "max_rel_err: median over ops of each op's worst sampled relative error vs 50-digit mpmath",
    ]
    return metrics, len(samples), failed, notes


def traced(workload, args, sizes, package, workdir) -> tuple[dict, int, int, list[str]]:
    import calibration
    from tracing import Tracer

    calib, failures = calibration.calibrate(sizes, workdir)
    split, split_failures = calibration.verify_split(args.seed, sizes)
    failures += split_failures
    untraced = measure(workload, args.seconds / 2.0, workload.rotation, workload.max_ops)
    plain = [s for s in untraced if not s.warmup]
    n = len(plain)
    # a fresh workload with the same seed makes the same ops again
    replay = type(workload)(args.seed, sizes, workdir)
    ops = [replay.make(i) for i in range(workload.rotation + n)][workload.rotation:]
    tracer = Tracer(package)
    again = [execute(op, tracer) for op in ops]
    overhead = sum(in_reference_units(again)) / sum(in_reference_units(plain)) - 1.0
    traced_ns = sum(s.seconds for s in again) * 1e9
    # what tracing added to the traced ops, at their host speed, shared among the spans
    tracer.charge(traced_ns * overhead / (1.0 + overhead) / tracer.spans())
    layers = tracer.layers()

    def total_ms(key):
        stat = tracer.stat(key)
        return None if stat is None else stat.total_ns / 1e6 / n

    def calls(key):
        stat = tracer.stat(key)
        return None if stat is None else stat.calls / n

    def counter(name, key):
        value = tracer.counters.get(name)
        return None if tracer.stat(key) is None or value is None else value / n

    metrics = {}
    for layer in LAYERS:
        stat = layers.get(layer)
        metrics[f"{layer}.self_ms"] = (None if stat is None else stat.self_ns / 1e6 / n, "ms/op")
        metrics[f"{layer}.calls"] = (None if stat is None else stat.calls / n, "1/op")
    metrics.update({
        "cli.csv_ms": (total_ms("cli._emit_csv"), "ms/op"),
        "cli.bytes_out": (statistics.fmean(s.outcome.bytes_out for s in again), "B/op"),
        "engine.params_built": (calls("engine.EngineParams.__post_init__"), "1/op"),
        "engine.optimal_performance.calls": (calls("engine.optimal_performance"), "1/op"),
        "engine.run_cycle.calls": (calls("engine.run_cycle"), "1/op"),
        "engine.check_laws.calls": (calls("engine.check_laws"), "1/op"),
        "populations.vectors_built": (calls("populations.PopulationVector.__post_init__"), "1/op"),
        "bath_oracle.jc_time_scan.ms": (total_ms("bath_oracle.jc_time_scan"), "ms/op"),
        "bath_oracle.jc_time_scan.sin_evals": (
            counter("bath_oracle.jc_time_scan.sin_evals", "bath_oracle.jc_time_scan"), "1/op"),
        "bath_oracle.brute_force.ms": (total_ms("bath_oracle.brute_force_performance"), "ms/op"),
        "bath_oracle.brute_force.cells": (
            counter("bath_oracle.brute_force.cells", "bath_oracle._cycle_grid"), "1/op"),
        "bath_oracle.scan_lambda_max.ms": (total_ms("bath_oracle.scan_lambda_max"), "ms/op"),
        "bath_oracle.simulate.ms": (total_ms("bath_oracle.simulate_finite_bath_map"), "ms/op"),
        "bath_oracle.simulate.blocks": (
            counter("bath_oracle.simulate.blocks", "bath_oracle.simulate_finite_bath_map"), "1/op"),
    })
    metrics.update({name: (value, "ms") for name, value in split.items()})
    metrics["trace.overhead_frac"] = (overhead, "1")
    metrics.update({name: (value, calibration.ROADMAP[name][0]) for name, value in calib.items()})

    op_ms = sum(s.seconds for s in again) * 1e3 / n
    plain_ms = sum(s.seconds for s in plain) * 1e3 / n
    program_ms = sum(stat.self_ns for stat in layers.values()) / 1e6 / n
    notes = [
        f"traced {n} ops, same inputs as the untraced half; traced {op_ms:.3f} ms/op, "
        f"untraced {plain_ms:.3f} ms/op",
        f"tracer cost: {tracer.span_cost_ns:.0f} ns per span over {tracer.spans() / n:.0f} "
        f"spans/op, taken out of self and inclusive times, so they sum to {program_ms:.3f} "
        f"ms/op; a wrapped no-op costs {tracer.noop_inside_ns} ns inside its clock window "
        f"and {tracer.noop_outside_ns} ns outside, which splits the cost",
        "self time per op by layer (share of the summed self times):",
    ]
    shares = {}
    for layer in sorted(layers, key=lambda name: -layers[name].self_ns):
        ms = layers[layer].self_ns / 1e6 / n
        shares[layer] = ms / program_ms
        notes.append(f"  {layer:<14} {ms:12.4f} ms/op  {100 * shares[layer]:6.2f} %")
    notes += predicted_concentration(workload.name, shares)
    notes.append("calibration (this run vs ROADMAP baseline):")
    for name, value in calib.items():
        unit, roadmap = calibration.ROADMAP[name]
        notes.append(f"  {name:<30} {value:12.4f} {unit:<3} ROADMAP {roadmap:g} {unit}")
    for failure in failures:
        notes.append(f"FAILED {failure}")
    samples = untraced + again
    return metrics, len(samples), _failed(samples) + len(failures), notes


def predicted_concentration(name: str, shares: dict[str, float]) -> list[str]:
    """Compare the self-time split with the layers each workload is meant to stress."""
    if name == "verify":
        top = max(shares, key=shares.get)
        return [f"prediction: bath_oracle has the largest self time -> {top} "
                f"({'holds' if top == 'bath_oracle' else 'does not hold'})"]
    # on cycles bath_oracle runs only the block simulation
    predicted = {"sweep": ("cli", "restrictions", "engine"),
                 "cycles": ("populations", "thermal_qubit", "engine", "bath_oracle")}[name]
    share = sum(shares.get(layer, 0.0) for layer in predicted)
    return [f"prediction: {'+'.join(predicted)} dominate -> {100 * share:.1f} % "
            f"({'holds' if share > 0.5 else 'does not hold'})"]


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "verify", "cycles"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes=None) -> int:
    args = parse_args(argv)
    package = import_package()
    import workloads

    sizes = sizes or workloads.FULL
    WORK.mkdir(exist_ok=True)
    print(f"# perfbench env {json.dumps(environment(args), sort_keys=True)}")
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        workload = workloads.WORKLOADS[args.workload](args.seed, sizes, workdir)
        if args.trace:
            metrics, attempted, failed, notes = traced(workload, args, sizes, package, workdir)
        else:
            metrics, attempted, failed, notes = end_to_end(workload, args, sizes)
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"# {name:<40} {shown:>14} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
