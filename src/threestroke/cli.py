"""Command-line interface: performance points, figure sweeps, verification.

Every closed-form command evaluates the optimum column-wise through one
function, _evaluate: perf is a one-point sweep, tradeoff is a sweep that
drops the rows where no model operates, and figures writes sweep and tradeoff
presets plus perf's object at beta_c = 3 beta_h as reference_point.json.
The presets share one set of temperatures, and each distinct model of theirs
is evaluated once for all four files; fig2.csv and fig3.csv share a preset,
so they are one table written twice.  A failing run prints its error alone;
clamp warnings come only with output, once per file that shows the clamp.

verify prints the line of each record that the checks in threestroke.checks
return, and takes a non-negative --seed and distinct --only names.  It
imports the checks, and with them the oracles, on its first call, so the
other commands never load them.

Exit codes: 0 success, 2 invalid input, 3 I/O error, 4 verification failure.
CSV output starts with one '#' metadata line (tool version, command line and
the sweep geometry), uses 9 significant digits and LF line endings, and leaves
fields empty where the engine is non-operational unless --raw is given.  The
rows are written in pieces of _CSV_CHUNK_ROWS, each formatted by one
str % tuple from row templates keyed by the row's blank cells, at any number
of columns.

A config file value must already have its flag's JSON type: a number for a
number, an integer for a size or seed (3.0 is not one), a string for a model,
path or check list, true or false for an on/off flag; null is rejected, never
read as unset, and so is an empty --out or --config path.  A float flag takes a
following value that starts with '-' (-1e-3, -inf) as its own, so the input
rules judge it.  Sizes the user sets are bounded before anything is
allocated: --ratio-steps (sweep, tradeoff, figures) by MAX_RATIO_STEPS, and
times the --models entries by MAX_SWEEP_CELLS; verify --grid by
MAX_VERIFY_GRID, which is the brute-force oracle's own bound
bath_oracle.MAX_GRID, written out here and pinned to it by a test.  A larger
value, or a size that is not an integer, is an invalid input.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import shlex
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .engine import BathTemperatures
from .populations import check_betas, check_size
from .restrictions import RestrictionModel, lambda_max_jc_raw

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VERIFY = 4

_AXIS_COLUMNS = {"ratio": "ratio", "bh": "beta_h_omega", "bc": "beta_c_omega"}

MAX_RATIO_STEPS = 1_000_000
# Each model adds about 50 MB of peak RSS per 1 000 000 swept values (2-core VM):
# a four-model sweep at MAX_RATIO_STEPS peaks at about 290 MB, a four-model
# tradeoff at about 320 MB, and figures, whose presets share five distinct
# models, at about 335 MB.
MAX_SWEEP_CELLS = 4 * MAX_RATIO_STEPS
MAX_VERIFY_GRID = 2_000  # bath_oracle.MAX_GRID, which cli does not import
# Swept values are held as arrays for the whole sweep; their CSV text is
# formatted and written _CSV_CHUNK_ROWS rows at a time.  A piece's cells become
# Python floats all at once, and the process seldom returns that memory, so
# peak RSS grows with the piece while speed does not: on perfbench's sweep
# workload (2-core VM) peak RSS read 45.1 MB at 128 rows, 45.8-46.6 MB at 512
# and 47.9-48.2 MB at 4 096, against 44.7-45.0 MB for a row-by-row writer.
_CSV_CHUNK_ROWS = 128


def _as_float(name: str, value) -> float:
    """A number option: a config file must give a JSON number, never a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        result = float(value)
    except OverflowError:  # an integer beyond the float range
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return result


def _as_size(flag: str, value, default: int, minimum: int, maximum: int) -> int:
    """A size option (default if unset) by the package's size rule, at most maximum."""
    size = check_size(value if value is not None else default, flag, minimum)
    if size > maximum:
        raise ValueError(f"{flag} must be <= {maximum}, got {size}")
    return size


def _as_flag(name: str, value) -> bool:
    """An on/off option: unset is off; a config file must give a JSON boolean."""
    if value is None:
        return False
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


def _as_path(name: str, value) -> str | None:
    """A path option: unset is None; a config file must give a string, and "" names no path."""
    if value is not None and not isinstance(value, str):
        raise ValueError(f"{name} must be a path string, got {value!r}")
    if value == "":
        raise ValueError(f"{name} must be a nonempty path string, got ''")
    return value


def _required(args, name: str, flag: str):
    value = getattr(args, name)
    if value is None:
        raise ValueError(f"{flag} is required (flag or config file)")
    return value


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the JSON config file (a null is an error); flags take precedence."""
    path = _as_path("--config", getattr(args, "config", None))
    if path is None:
        return
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    for key, value in data.items():
        attr = key.replace("-", "_")
        if attr in ("config", "func", "command") or not hasattr(args, attr):
            raise ValueError(f"unknown config key {key!r}")
        if value is None:
            raise ValueError(f"--{attr.replace('_', '-')} must not be null in a config file")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _parse_model(name: str, text) -> RestrictionModel:
    """RestrictionModel.parse(text), whose errors are named by the flag, name."""
    if not isinstance(text, str):
        raise ValueError(f"{name} must be a restriction spec string, got {text!r}")
    try:
        return RestrictionModel.parse(text)
    except ValueError as error:
        raise ValueError(f"{name}: {error}") from None


def _clamp_warning(side: str, beta_omega: float) -> str:
    # repr, so that a stated value just above 1 never reads as 1
    return (
        f"warning: {side} cap clamped to 1 at beta_omega={beta_omega:.6g} "
        f"(stated value {lambda_max_jc_raw(beta_omega)!r})"
    )


# ---------------------------------------------------------------------------
# the closed-form path shared by perf, sweep, tradeoff and figures


@dataclass(frozen=True)
class SweepConfig:
    axis: str
    values: np.ndarray
    beta_h_omega: float | None
    beta_c_omega: float | None
    models: tuple[tuple[str, RestrictionModel, RestrictionModel], ...]
    include_carnot: bool
    raw: bool


def _sweep_models(args, steps: int) -> tuple[tuple[str, RestrictionModel, RestrictionModel], ...]:
    """The (label, hot, cold) entries of --models or --hot/--cold, at most
    MAX_SWEEP_CELLS cells in all over steps swept values."""
    models = getattr(args, "models", None)
    hot = getattr(args, "hot", None)
    cold = getattr(args, "cold", None)
    if models is not None and (hot is not None or cold is not None):
        raise ValueError("--models excludes --hot/--cold")
    entries: list[tuple[str, RestrictionModel, RestrictionModel]] = []
    if models is not None:
        if isinstance(models, str):
            specs = [s for s in models.split(",") if s.strip()]
        elif isinstance(models, list):
            specs = models  # each entry is checked to be a string when parsed
        else:
            raise ValueError(f"--models must be a string or a list of strings, got {models!r}")
        if not specs:
            raise ValueError("--models needs at least one spec")
        for spec in specs:
            model = _parse_model("--models entry", spec)
            entries.append((model.label, model, model))
    else:
        hot_model = _parse_model("--hot", "unrestricted" if hot is None else hot)
        cold_model = _parse_model("--cold", "unrestricted" if cold is None else cold)
        label = (
            hot_model.label
            if hot_model == cold_model
            else f"{hot_model.label}-{cold_model.label}"
        )
        entries.append((label, hot_model, cold_model))
    labels = [label for label, _, _ in entries]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate model labels in {labels!r}")
    if steps * len(entries) > MAX_SWEEP_CELLS:
        raise ValueError(f"--ratio-steps {steps} times {len(entries)} --models entries "
                         f"exceeds the supported {MAX_SWEEP_CELLS}")
    return tuple(entries)


def _sweep_config(args) -> SweepConfig:
    axis = getattr(args, "axis", None)
    axis = "ratio" if axis is None else axis
    if not isinstance(axis, str) or axis not in _AXIS_COLUMNS:
        raise ValueError(f"--axis must be one of {sorted(_AXIS_COLUMNS)}, got {axis!r}")
    lo = _as_float("--ratio-min", args.ratio_min if args.ratio_min is not None else 1.05)
    hi = _as_float("--ratio-max", args.ratio_max if args.ratio_max is not None else 10.0)
    steps = _ratio_steps(args)
    if not lo < hi:
        raise ValueError(f"--ratio-min must be below --ratio-max, got {lo!r} >= {hi!r}")
    if lo <= 0.0:
        raise ValueError(f"swept values must be positive, got minimum {lo!r}")
    beta_h = None if args.bh is None else _as_float("--bh", args.bh)
    beta_c = getattr(args, "bc", None)
    beta_c = None if beta_c is None else _as_float("--bc", beta_c)
    if axis in ("ratio", "bc"):
        beta_h = 0.2 if beta_h is None else beta_h
    if axis == "bh" and beta_c is None:
        raise ValueError("--bc is required when sweeping beta_h_omega")
    models = _sweep_models(args, steps)
    return SweepConfig(
        axis=axis,
        values=np.linspace(lo, hi, steps),
        beta_h_omega=beta_h,
        beta_c_omega=beta_c,
        models=models,
        include_carnot=_as_flag("--carnot", getattr(args, "carnot", None)),
        raw=_as_flag("--raw", getattr(args, "raw", None)),
    )


def _ratio_steps(args) -> int:
    return _as_size("--ratio-steps", args.ratio_steps, 200, 2, MAX_RATIO_STEPS)


def _temperatures(beta_h: np.ndarray, beta_c: np.ndarray) -> BathTemperatures:
    """Both temperature arrays, each checked whole by the package's rule, hot side first."""
    return BathTemperatures(check_betas(beta_h), check_betas(beta_c))


def _sweep_temperatures(cfg: SweepConfig) -> BathTemperatures:
    xs = cfg.values
    if cfg.axis == "bh":
        return _temperatures(xs, np.full(xs.shape, cfg.beta_c_omega))
    beta_h = np.full(xs.shape, cfg.beta_h_omega)
    if cfg.axis == "bc":
        return _temperatures(beta_h, xs)
    # Python floats overflow to inf without a word; so does beta_h * ratio,
    # which the input rules then reject
    with np.errstate(over="ignore"):
        beta_c = cfg.beta_h_omega * xs
    return _temperatures(beta_h, beta_c)


def _evaluate(
    temperatures: BathTemperatures, hot: RestrictionModel, cold: RestrictionModel
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, np.ndarray]]:
    """Caps lambda_h_max, lambda_c_max and p_opt, w_max, eta_max of one
    hot/cold pair, column-wise, and where the hot and the cold cap were clamped."""
    lh, hot_clamped = hot.resolve(temperatures.beta_h_omega)
    lc, cold_clamped = cold.resolve(temperatures.beta_c_omega)
    return (lh, lc, *temperatures.optimum(lh, lc)), (hot_clamped, cold_clamped)


def _warn_clamped(
    temperatures: BathTemperatures, clamps: list[tuple[np.ndarray, np.ndarray]]
) -> None:
    """Print the clamp warnings of one output's models, given by their clamp masks.

    One warning per side and model at its first clamped value, sorted by
    that value's index, the model and the side (hot first).  Callers print
    them only once every model has succeeded, so a failing run prints its
    error alone.
    """
    warnings = []
    betas = (temperatures.beta_h_omega, temperatures.beta_c_omega)
    for index, masks in enumerate(clamps):
        for step, (side, clamped) in enumerate(zip(("hot", "cold"), masks)):
            if clamped.any():
                first = int(clamped.argmax())
                warnings.append(((first, index, step), side, float(betas[step][first])))
    for _, side, beta_omega in sorted(warnings):
        print(_clamp_warning(side, beta_omega), file=sys.stderr)


def _table_columns(
    temperatures: BathTemperatures,
    models: list[tuple[str, RestrictionModel, RestrictionModel]],
) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]]:
    """What a sweep table reads of each model, by label, each label evaluated once.

    That is eta_max, beta_h * w_max, where the model operates (w_max > 0)
    and its clamp masks.  The caps, p_opt and w_max go as soon as a model
    is done, so the largest sweeps hold only what their tables show.
    """
    columns = {}
    for label, hot, cold in models:
        if label not in columns:
            (_, _, _, w_max, eta_max), clamps = _evaluate(temperatures, hot, cold)
            # Python floats overflow to inf without a word; so does this product
            with np.errstate(all="ignore"):
                bhw = temperatures.beta_h_omega * w_max
            columns[label] = (eta_max, bhw, w_max > 0.0, clamps)
    return columns


def _write_sweep(
    out, args, cfg: SweepConfig, temperatures: BathTemperatures, columns, drop_inoperative_rows: bool
) -> None:
    """Print cfg's clamp warnings and write its CSV from the evaluated columns.

    Every row is written, or with drop_inoperative_rows only those where
    some model operates (unless cfg.raw).
    """
    cells = [columns[label] for label, _, _ in cfg.models]
    _warn_clamped(temperatures, [clamps for *_, clamps in cells])
    no_blank = np.zeros(cfg.values.shape, dtype=bool)
    values = [cfg.values]
    empty = [no_blank]
    for eta_max, bhw, operational, _ in cells:
        hidden = no_blank if cfg.raw else ~operational
        values += [eta_max, bhw]
        empty += [hidden | np.isnan(eta_max), hidden]
    if cfg.include_carnot:
        beta_h, beta_c = temperatures.beta_h_omega, temperatures.beta_c_omega
        # Python floats divide by zero to inf without a word; so does this
        with np.errstate(all="ignore"):
            values.append(1.0 - beta_h / beta_c)
        empty.append(~(beta_c > 0.0))
    if drop_inoperative_rows and not cfg.raw:
        # each column's rows are dropped before stacking, so no table holds them
        keep = np.any([operational for _, _, operational, _ in cells], axis=0)
        values, empty = [column[keep] for column in values], [column[keep] for column in empty]
    table, blank = np.column_stack(values), np.column_stack(empty)
    _emit_csv(out, _meta_line(args, cfg), _sweep_header(cfg), table, blank)


def _sweep_header(cfg: SweepConfig) -> list[str]:
    header = [_AXIS_COLUMNS[cfg.axis]]
    for label, _, _ in cfg.models:
        header.extend([f"eta_{label}", f"bhw_{label}"])
    if cfg.include_carnot:
        header.append("eta_carnot")
    return header


def _meta_line(args, cfg: SweepConfig) -> str:
    argv = getattr(args, "_argv", [])
    command = shlex.join(["threestroke", *argv])
    fixed = []
    if cfg.axis in ("ratio", "bc"):
        fixed.append(f"beta_h_omega={cfg.beta_h_omega:.9g}")
    if cfg.axis == "bh":
        fixed.append(f"beta_c_omega={cfg.beta_c_omega:.9g}")
    models = ",".join(label for label, _, _ in cfg.models)
    geometry = f"axis={cfg.axis} {' '.join(fixed)} models={models}"
    return "# " + " | ".join([f"threestroke {__version__}", command, geometry])


def _emit_csv(path, meta: str, header: list[str], table: np.ndarray, blank: np.ndarray) -> None:
    """Write the table with 9 significant digits, leaving the blank cells empty.

    The rows go out in pieces of _CSV_CHUNK_ROWS, each formatted by one
    str % tuple.  Each row's blank mask, packed into bytes, keys its
    template: '%.9g' for a shown cell and nothing for a blank one, ending in
    a newline.  The templates of a piece's rows, joined in order, take its
    shown cells in row-major order.  '%.9g' % x and format(x, '.9g') give
    the same text for every float, so each cell reads as format(x, '.9g').
    """
    templates: dict[bytes, str] = {}
    if path in (None, "-"):
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(path, "w", newline="")
    with target as handle:
        handle.write(f"{meta}\n{','.join(header)}\n")
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            chunk = slice(start, start + _CSV_CHUNK_ROWS)
            gaps = blank[chunk]
            packed = np.packbits(gaps, axis=1)
            keys = packed.view(f"V{packed.shape[1]}").ravel().tolist()
            for key in set(keys).difference(templates):
                mask = np.unpackbits(np.frombuffer(key, dtype=np.uint8), count=len(header))
                templates[key] = ",".join(["" if gap else "%.9g" for gap in mask.tolist()]) + "\n"
            rows = "".join(map(templates.__getitem__, keys))
            handle.write(rows % tuple(table[chunk][~gaps].tolist()))


# ---------------------------------------------------------------------------
# commands


def _perf_json(
    beta_h: float, beta_c: float, models: tuple[tuple[str, RestrictionModel, RestrictionModel]]
) -> str:
    """perf's JSON object: the one-point sweep of a single hot/cold model pair."""
    ((_, hot, cold),) = models
    temperatures = _temperatures(np.array([beta_h]), np.array([beta_c]))
    columns, clamps = _evaluate(temperatures, hot, cold)
    _warn_clamped(temperatures, [clamps])
    lambda_h_max, lambda_c_max, p_opt, w_max, eta_max = (column.item() for column in columns)
    payload = {
        "beta_h_omega": beta_h,
        "beta_c_omega": beta_c,
        "hot": hot.label,
        "cold": cold.label,
        "lambda_h_max": lambda_h_max,
        "lambda_c_max": lambda_c_max,
        "p_opt": p_opt,
        "w_max_over_omega": w_max,
        "eta_max": None if math.isnan(eta_max) else eta_max,
        "eta_carnot": None if beta_c == 0.0 else 1.0 - beta_h / beta_c,
        "operational": w_max > 0.0,
        "cold_hotter": beta_c <= beta_h,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def cmd_perf(args) -> int:
    beta_h = _as_float("--bh", _required(args, "bh", "--bh"))
    beta_c = _as_float("--bc", _required(args, "bc", "--bc"))
    print(_perf_json(beta_h, beta_c, _sweep_models(args, 1)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    """sweep, and tradeoff, which drops the rows where no model operates."""
    out = _as_path("--out", args.out)
    cfg = _sweep_config(args)
    temperatures = _sweep_temperatures(cfg)
    columns = _table_columns(temperatures, cfg.models)
    _write_sweep(out, args, cfg, temperatures, columns, args.command == "tradeoff")
    return EXIT_OK


# files -> (command, models, eta_carnot column); each distinct model column is
# computed once for all four files, and files that share a preset get one
# table, formatted once and copied
_FIGURES = {
    ("fig2.csv", "fig3.csv"): ("sweep", "unrestricted,fb:15,fb:10,fb:5", False),
    ("fig4.csv",): ("sweep", "unrestricted,fb:10,jc", True),
    ("fig5.csv",): ("tradeoff", "unrestricted,fb:10,fb:5,jc", False),
}


def cmd_figures(args) -> int:
    # Every option is checked before the directory is made: the size, --out,
    # the rest of the sweep, then --bh by the reference point, perf's object
    # at beta_c = 3 beta_h to 15 digits (0.6 for 0.2, where 3 * 0.2 is
    # 0.6000000000000001), then the presets' cold temperatures beta_h *
    # ratio, which can overflow where 3 beta_h does not, and last each
    # preset's models.  figures takes no models, so cfg.models is perf's
    # default unrestricted pair.  The presets share one set of temperatures,
    # and each distinct model of theirs is evaluated once for all four files.
    _ratio_steps(args)
    out_dir = Path(_as_path("--out", args.out) or "figures-data")
    cfg = _sweep_config(args)
    beta_h = cfg.beta_h_omega
    reference = _perf_json(beta_h, float(f"{3 * beta_h:.15g}"), cfg.models)
    temperatures = _sweep_temperatures(cfg)
    presets = [
        (names, command, replace(
            cfg,
            models=_sweep_models(argparse.Namespace(models=models), len(cfg.values)),
            include_carnot=carnot,
        ))
        for names, (command, models, carnot) in _FIGURES.items()
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    columns = _table_columns(temperatures, [entry for *_, preset in presets for entry in preset.models])
    for (name, *copies), command, preset in presets:
        target = out_dir / name
        _write_sweep(str(target), args, preset, temperatures, columns, command == "tradeoff")
        print(f"wrote {target}")
        for copy in copies:
            shutil.copyfile(target, out_dir / copy)
            print(f"wrote {out_dir / copy}")
    target = out_dir / "reference_point.json"
    target.write_text(reference + "\n")
    print(f"wrote {target}")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = check_size(args.seed if args.seed is not None else 0, "--seed", 0)
    grid = _as_size("--grid", args.grid, 64, 2, MAX_VERIFY_GRID)
    from .checks import CHECKS  # the oracles load here, on verify's first call

    if args.only is not None:
        if not isinstance(args.only, str):
            raise ValueError(f"--only must be a string of check names, got {args.only!r}")
        names = [name.strip() for name in args.only.split(",") if name.strip()]
        if not names:
            raise ValueError("--only needs at least one check")
        unknown = [name for name in names if name not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks {unknown!r}, available: {sorted(CHECKS)}")
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate checks in {names!r}")
    else:
        names = list(CHECKS)
    failed = False
    for name in names:
        for record in CHECKS[name](seed, grid):
            print(record.line)
            failed = failed or record.level == "FAIL"
    return EXIT_VERIFY if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threestroke",
        description="Optimal work and efficiency of a restricted three-stroke qubit engine.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub):
        sub.add_argument("--config", metavar="PATH", help="JSON file supplying defaults for any flag")
        sub.add_argument("--bh", type=float, help="hot-bath beta times the splitting")
        sub.add_argument("--bc", type=float, help="cold-bath beta times the splitting")
        sub.add_argument("--hot", metavar="MODEL", help="unrestricted | fb:D | jc | lam:X")
        sub.add_argument("--cold", metavar="MODEL", help="unrestricted | fb:D | jc | lam:X")

    perf = subparsers.add_parser("perf", help="closed-form optimum at one parameter point")
    add_common(perf)
    perf.set_defaults(func=cmd_perf)

    for name, help_text in (
        ("sweep", "sweep the closed-form optimum and write CSV"),
        ("tradeoff", "efficiency/work pairs over the sweep, engine regime only"),
    ):
        sub = subparsers.add_parser(name, help=help_text)
        add_common(sub)
        sub.add_argument("--models", metavar="SPECS",
                         help="comma-separated restriction specs applied to both strokes")
        sub.add_argument("--ratio-min", type=float, help="lower end of the swept values")
        sub.add_argument("--ratio-max", type=float, help="upper end of the swept values")
        sub.add_argument("--ratio-steps", type=int, help="number of swept points")
        sub.add_argument("--axis", choices=sorted(_AXIS_COLUMNS),
                         help="swept variable (default ratio = beta_c/beta_h)")
        sub.add_argument("--carnot", action="store_true", default=None,
                         help="append an eta_carnot column")
        sub.add_argument("--raw", action="store_true", default=None,
                         help="emit values outside the engine regime too")
        sub.add_argument("--out", metavar="PATH", help="output CSV path (default stdout)")
        sub.set_defaults(func=cmd_sweep)

    figures = subparsers.add_parser(
        "figures", help="write the four figure-data CSVs and a reference point"
    )
    figures.add_argument("--config", metavar="PATH", help="JSON file supplying defaults for any flag")
    figures.add_argument("--bh", type=float, help="hot-bath beta times the splitting")
    figures.add_argument("--ratio-min", type=float, help="lower end of the ratio grid")
    figures.add_argument("--ratio-max", type=float, help="upper end of the ratio grid")
    figures.add_argument("--ratio-steps", type=int, help="number of ratio points")
    figures.add_argument("--out", metavar="DIR", help="output directory (default figures-data)")
    figures.set_defaults(func=cmd_figures)

    verify = subparsers.add_parser("verify", help="run the oracle cross-checks")
    verify.add_argument("--config", metavar="PATH", help="JSON file supplying defaults for any flag")
    verify.add_argument("--seed", type=int, help="seed for the randomized checks (default 0)")
    verify.add_argument("--grid", type=int, help="grid size for the brute-force search (default 64)")
    # the list is sorted(checks.CHECKS), written out so the parser needs no oracle
    verify.add_argument("--only", metavar="NAMES",
                        help="comma-separated subset of ['carnot', 'eta-d', 'jc', 'thm2', 'thm3']")
    verify.set_defaults(func=cmd_verify)

    return parser


# The options build_parser gives type=float.
_FLOAT_FLAGS = frozenset({"--bh", "--bc", "--ratio-min", "--ratio-max"})


def _joined_negative_floats(argv: list[str]) -> list[str]:
    """argv with each float option and a following '-' value joined by '='.

    argparse takes an argument that starts with '-' for an option unless it
    reads as a plain negative number such as -2 or -0.5, so without the join
    a value such as -1e-3 or -inf would never reach the input rules.
    """
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _FLOAT_FLAGS and arg.startswith("-"):
            try:
                float(arg)
            except ValueError:
                pass
            else:
                joined[-1] += "=" + arg
                continue
        joined.append(arg)
    return joined


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use; parse_args never changes it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    given = list(argv) if argv is not None else sys.argv[1:]
    args = parser.parse_args(_joined_negative_floats(given))
    args._argv = given
    try:
        _apply_config(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
