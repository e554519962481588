"""The benchmark's workloads: seeded operations and their output checks.

Each workload is a closed loop of one client that issues one operation at a
time, in a single process and a single thread. An operation is one call a
user would make. ``make(index)`` draws its inputs from the workload's seeded
generator, ``run()`` is the timed part, and ``check(result)`` verifies the
output afterwards, outside the timed region.

* ``sweep``: in-process ``threestroke`` CLI calls that evaluate about 6 000
  closed-form points each and write CSV. The time goes to ``cli``,
  ``restrictions`` and ``engine``; the oracles are idle.
* ``verify``: ``threestroke verify`` with all five checks. About two thirds
  of it is the exchange-coupling time scan, the rest the brute-force grid and
  2 000 simulated cycles; the sweep path and the CSV writer are idle.
* ``cycles``: batches of single-object calls into the public API (cycle
  strokes, ergotropy, thermomajorization, block simulation with ladder baths
  of up to 10 000 levels). The CLI and the closed-form optimum are idle.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import re
from dataclasses import dataclass, field

import numpy as np

import reference
import threestroke
from threestroke import cli

SWEEP_MODELS = ("unrestricted", "fb:10", "jc")
CHECKS = ("thm3", "thm2", "eta-d", "jc", "carnot")
_RATIO_DEFAULTS = (1.05, 10.0)  # the CLI's default ratio range
# figure file -> (tradeoff, models, eta_carnot column), as the figures command documents
_FIGURES = {
    "fig2.csv": (False, ("unrestricted", "fb:15", "fb:10", "fb:5"), False),
    "fig3.csv": (False, ("unrestricted", "fb:15", "fb:10", "fb:5"), False),
    "fig4.csv": (False, ("unrestricted", "fb:10", "jc"), True),
    "fig5.csv": (True, ("unrestricted", "fb:10", "fb:5", "jc"), False),
}
_CELL_ROWS = 8  # rows per sweep op whose cells are recomputed
_SIM_TOL = 1e-12
_LAW_TOL = 1e-12


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one run; the benchmark uses FULL, the smoke test TINY."""

    sweep_steps: int = 2000
    figures_steps: int = 400
    cycles_batch: int = 48
    verify_grid: int | None = None  # None: the CLI default of 200
    calibration_sweep_steps: int = 20_000
    min_ops: int | None = None  # None: the workload's own minimum


FULL = Sizes()
TINY = Sizes(
    sweep_steps=20, figures_steps=10, cycles_batch=4, verify_grid=20,
    calibration_sweep_steps=200, min_ops=2,
)


@dataclass
class Outcome:
    """What the check of one operation found."""

    items: int
    bytes_out: int = 0
    failures: list[str] = field(default_factory=list)
    worst_rel_err: float | None = None  # against the 50-digit reference

    def rel_err(self, value: float, exact) -> None:
        err = reference.rel_err(value, exact)
        if self.worst_rel_err is None or err > self.worst_rel_err:
            self.worst_rel_err = err


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def _label(spec: str) -> str:
    return spec.replace(":", "")


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class CsvSpec:
    """The CSV file one sweep op must produce."""

    path: str
    tradeoff: bool
    axis: str  # "ratio" (fixed beta_h) or "bh" (fixed beta_c)
    fixed: float
    lo: float
    hi: float
    steps: int
    models: tuple[str, ...]
    carnot: bool

    def betas(self, x: float) -> tuple[float, float]:
        if self.axis == "ratio":
            return self.fixed, self.fixed * x
        return x, self.fixed

    def header(self) -> list[str]:
        columns = ["ratio" if self.axis == "ratio" else "beta_h_omega"]
        for spec in self.models:
            columns += [f"eta_{_label(spec)}", f"bhw_{_label(spec)}"]
        return columns + (["eta_carnot"] if self.carnot else [])


def _operational(spec: str, beta_h: float, beta_c: float):
    model = threestroke.RestrictionModel.parse(spec)
    params = threestroke.engine_params_from(model, model, beta_h, beta_c)
    return threestroke.optimal_performance(params)


def _check_csv(spec: CsvSpec, rng: np.random.Generator, rows_wanted: int, outcome: Outcome):
    with open(spec.path, newline="") as handle:
        text = handle.read()
    outcome.bytes_out += len(text.encode())
    lines = text.split("\n")
    name = os.path.basename(spec.path)
    if lines[-1] != "" or not lines[0].startswith("# threestroke"):
        outcome.failures.append(f"{name}: missing metadata line or final newline")
        return
    if lines[1].split(",") != spec.header():
        outcome.failures.append(f"{name}: header {lines[1]!r}")
        return
    xs = [float(x) for x in np.linspace(spec.lo, spec.hi, spec.steps)]
    if spec.tradeoff:
        xs = [
            x for x in xs
            if any(_operational(m, *spec.betas(x)).operational for m in spec.models)
        ]
    rows = [line.split(",") for line in lines[2:-1]]
    if len(rows) != len(xs):
        outcome.failures.append(f"{name}: {len(rows)} rows, expected {len(xs)}")
        return
    width = len(spec.header())
    for x, row in zip(xs, rows):
        if len(row) != width or row[0] != _fmt(x):
            outcome.failures.append(f"{name}: bad row {','.join(row)!r} at x={x!r}")
            return
    for index in rng.choice(len(rows), size=min(rows_wanted, len(rows)), replace=False):
        x, row = xs[index], rows[index]
        beta_h, beta_c = spec.betas(x)
        for column, model in enumerate(spec.models):
            point = _operational(model, beta_h, beta_c)
            show = point.operational
            want = (
                _fmt(point.eta_max) if show and point.eta_max is not None else "",
                _fmt(beta_h * point.w_max) if show else "",
            )
            got = (row[1 + 2 * column], row[2 + 2 * column])
            if got != want:
                outcome.failures.append(f"{name}: {model} at x={x!r} wrote {got}, expected {want}")
                return
            for cell, exact in zip(got, reference.sweep_cell(model, beta_h, beta_c)):
                if cell:
                    outcome.rel_err(float(cell), exact)
        if spec.carnot and row[-1] != _fmt(1.0 - beta_h / beta_c):
            outcome.failures.append(f"{name}: eta_carnot {row[-1]!r} at x={x!r}")
            return


@dataclass
class SweepOp:
    argv: list[str]
    files: tuple[CsvSpec, ...]
    warning: str | None  # stderr must contain this
    check_seed: int

    def run(self) -> tuple[int, str]:
        code, _, err = run_cli(self.argv)
        return code, err

    def check(self, result: tuple[int, str]) -> Outcome:
        code, err = result
        outcome = Outcome(items=sum(f.steps * len(f.models) for f in self.files))
        if code != 0:
            outcome.failures.append(f"exit code {code}: {err.strip()}")
            return outcome
        if self.warning is not None and self.warning not in err:
            outcome.failures.append(f"expected a {self.warning!r} warning, stderr {err!r}")
        rng = np.random.default_rng(self.check_seed)
        rows_per_file = max(1, _CELL_ROWS // len(self.files))
        for spec in self.files:
            _check_csv(spec, rng, rows_per_file, outcome)
        return outcome


class SweepWorkload:
    """Rotates sweep (ratio axis), sweep (beta_h axis), tradeoff and figures."""

    name = "sweep"
    tail = 95
    min_ops = 200
    max_ops = 1000
    rotation = 4

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes
        self.workdir = workdir

    def make(self, index: int) -> SweepOp:
        steps = self.sizes.sweep_steps
        beta = float(self.rng.uniform(0.18, 0.22))
        check_seed = int(self.rng.integers(2**63))
        kind = index % self.rotation
        out = os.path.join(self.workdir, f"sweep{kind}.csv")
        models = ["--models", ",".join(SWEEP_MODELS), "--out", out]
        lo, hi = _RATIO_DEFAULTS
        if kind == 0:
            argv = ["sweep", "--axis", "ratio", "--bh", repr(beta), "--ratio-steps", str(steps)]
            files = (CsvSpec(out, False, "ratio", beta, lo, hi, steps, SWEEP_MODELS, False),)
            return SweepOp(argv + models, files, None, check_seed)
        if kind == 1:
            # beta_h from 0.05 to 1.9 crosses the jc clamp window (0.2, 0.462]
            beta_c = float(self.rng.uniform(1.9, 2.1))
            argv = ["sweep", "--axis", "bh", "--bc", repr(beta_c), "--ratio-min", "0.05",
                    "--ratio-max", "1.9", "--ratio-steps", str(steps)]
            files = (CsvSpec(out, False, "bh", beta_c, 0.05, 1.9, steps, SWEEP_MODELS, False),)
            return SweepOp(argv + models, files, "hot cap clamped", check_seed)
        if kind == 2:
            argv = ["tradeoff", "--bh", repr(beta), "--ratio-steps", str(steps)]
            files = (CsvSpec(out, True, "ratio", beta, lo, hi, steps, SWEEP_MODELS, False),)
            return SweepOp(argv + models, files, None, check_seed)
        steps = self.sizes.figures_steps
        out = os.path.join(self.workdir, "figures")
        argv = ["figures", "--bh", repr(beta), "--ratio-steps", str(steps), "--out", out]
        files = tuple(
            CsvSpec(os.path.join(out, name), tradeoff, "ratio", beta, lo, hi, steps, specs, carnot)
            for name, (tradeoff, specs, carnot) in _FIGURES.items()
        )
        return SweepOp(argv, files, None, check_seed)


# ---------------------------------------------------------------------------
# verify

_STATED = re.compile(r"bw=([0-9.eE+-]+): stated ([0-9.eE+-]+)")


@dataclass
class VerifyOp:
    argv: list[str]

    def run(self) -> tuple[int, str]:
        code, out, _ = run_cli(self.argv)
        return code, out

    def check(self, result: tuple[int, str]) -> Outcome:
        code, out = result
        outcome = Outcome(items=len(CHECKS), bytes_out=len(out.encode()))
        lines = out.splitlines()
        if code != 0:
            outcome.failures.append(f"exit code {code}")
        if any(line.startswith("FAIL") for line in lines):
            outcome.failures.append("a check reported FAIL")
        for name in CHECKS:
            if sum(line.startswith(f"PASS {name}:") for line in lines) != 1:
                outcome.failures.append(f"no single PASS line for {name}")
        if sum(line.startswith("WARN jc:") for line in lines) != 1:
            outcome.failures.append("missing the expected jc WARN line")
        stated = [m for line in lines if line.startswith("PASS jc:") for m in _STATED.findall(line)]
        if not stated:
            outcome.failures.append("jc line lists no stated caps")
        for beta, value in stated:
            outcome.rel_err(float(value), reference.cap("jc", float(beta)))
        return outcome


class VerifyWorkload:
    """``threestroke verify --seed S`` with every check and the default grid."""

    name = "verify"
    tail = 75
    min_ops = 40
    max_ops = 200
    rotation = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes

    def make(self, index: int) -> VerifyOp:
        argv = ["verify", "--seed", str(int(self.rng.integers(2**31)))]
        if self.sizes.verify_grid is not None:
            argv += ["--grid", str(self.sizes.verify_grid)]
        return VerifyOp(argv)


# ---------------------------------------------------------------------------
# cycles


@dataclass(frozen=True)
class CyclePoint:
    hot: str
    cold: str
    beta_h: float
    beta_c: float
    u_h: float  # mixing weights as fractions of the caps
    u_c: float
    ground: float  # ground population of the identity cycle's start


@dataclass
class CycleRecord:
    point: CyclePoint
    lambda_h: float
    start: object
    report: object
    laws: object
    idle_work: float
    ergotropy: float
    passive: object
    majorized: bool
    simulated: object = None
    mixed: object = None


@dataclass
class CyclesOp:
    points: tuple[CyclePoint, ...]

    def run(self) -> list[CycleRecord]:
        ts = threestroke
        swap = ts.WorkPermutation.swap()
        identity = ts.WorkPermutation.identity(2)
        records = []
        for pt in self.points:
            hot = ts.RestrictionModel.parse(pt.hot)
            cold = ts.RestrictionModel.parse(pt.cold)
            params = ts.engine_params_from(hot, cold, pt.beta_h, pt.beta_c)
            lh = pt.u_h * params.lambda_h_max
            lc = pt.u_c * params.lambda_c_max
            start = ts.cyclic_state(lh, lc, params)
            report = ts.run_cycle(start, lh, lc, swap, params)
            laws = ts.check_laws(report, params) if report.closes else None
            idle = ts.run_cycle(ts.qubit_population(pt.ground), lh, lc, identity, params)
            post_heat = report.populations[0]
            passive, _ = ts.passive_rearrangement(post_heat, ts.QUBIT)
            record = CycleRecord(
                pt, lh, start, report, laws, idle.work,
                ts.ergotropy(post_heat, ts.QUBIT), passive,
                ts.thermomajorizes(start, post_heat, ts.gibbs_vector(pt.beta_h, ts.QUBIT)),
            )
            if pt.hot.startswith("fb:"):
                d = int(pt.hot[3:])
                spec = ts.BlockUnitarySpec.full_swap(d)
                record.simulated = ts.simulate_finite_bath_map(start, pt.beta_h, d, spec)
                cap = ts.lambda_max_finite_bath(pt.beta_h, d)
                record.mixed = ts.apply_mixture(cap, pt.beta_h, start)
            records.append(record)
        return records

    def check(self, records: list[CycleRecord]) -> Outcome:
        outcome = Outcome(items=len(self.points))
        for rec in records:
            where = f"at {rec.point}"
            if not rec.report.closes:
                outcome.failures.append(f"swap cycle did not close {where}")
            elif not rec.laws.ok:
                outcome.failures.append(f"check_laws failed {where}: {rec.laws.failures}")
            if rec.idle_work != 0.0:
                outcome.failures.append(f"identity cycle released work {rec.idle_work!r} {where}")
            if rec.report.work > rec.ergotropy + _LAW_TOL:
                outcome.failures.append(f"swap work above the ergotropy {where}")
            if rec.passive.entries[0] < rec.passive.entries[1]:
                outcome.failures.append(f"passive state not ordered {where}")
            if not rec.majorized:
                outcome.failures.append(f"input does not thermomajorize the hot output {where}")
            if rec.simulated is not None:
                dev = max(abs(a - b) for a, b in zip(rec.simulated.entries, rec.mixed.entries))
                if dev > _SIM_TOL:
                    outcome.failures.append(f"simulation differs from the mixture by {dev:.2e} {where}")
            ground, excited = rec.start.entries
            q_hot, work = reference.heat_and_swap(rec.point.beta_h, rec.lambda_h, ground, excited)
            outcome.rel_err(rec.report.work, work)
            outcome.rel_err(rec.report.q_hot, q_hot)
        return outcome


class CyclesWorkload:
    """Seeded batches of random cycles through the scalar public API."""

    name = "cycles"
    tail = 95
    min_ops = 200
    max_ops = 1500
    rotation = 1

    def __init__(self, seed: int, sizes: Sizes, workdir: str) -> None:
        self.rng = np.random.default_rng(seed)
        self.sizes = sizes

    def _model(self, kind: int, log_d: float) -> str:
        if kind == 0:  # a ladder bath of D = 10**log_d levels
            return f"fb:{int(round(10 ** log_d))}"
        if kind == 1:
            return "jc"
        return f"lam:{float(self.rng.uniform(0.05, 1.0))!r}"

    def make(self, index: int) -> CyclesOp:
        n = self.sizes.cycles_batch
        # Hot models come in equal shares and their ladder sizes are stratified
        # over log10 D in [0, 4] (still log-uniform), so every batch spans the
        # same block-array sizes and batches cost about the same.
        hot = self.rng.permutation(np.resize(np.arange(3), n))
        ladders = int(np.count_nonzero(hot == 0))
        strata = (np.arange(ladders) + self.rng.uniform(size=ladders)) * 4.0 / ladders
        log_d = iter(self.rng.permutation(strata))
        points = []
        for kind in hot:
            hot_model = self._model(kind, next(log_d) if kind == 0 else 0.0)
            cold_model = self._model(self.rng.integers(3), self.rng.uniform(0.0, 4.0))
            # beta_h from 1e-4 (the high-temperature corner) to 5; beta_c / beta_h in (1.01, 20)
            beta_h = float(10 ** self.rng.uniform(-4.0, math.log10(5.0)))
            beta_c = beta_h * float(10 ** self.rng.uniform(math.log10(1.01), math.log10(20.0)))
            u_h, u_c, ground = (float(u) for u in self.rng.uniform(0.0, 1.0, 3))
            points.append(CyclePoint(hot_model, cold_model, beta_h, beta_c, u_h, u_c, ground))
        return CyclesOp(tuple(points))


WORKLOADS = {w.name: w for w in (SweepWorkload, VerifyWorkload, CyclesWorkload)}
