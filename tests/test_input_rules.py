"""The input rules of the public API and of the CLI config, as tables of hostile inputs.

ROWS holds one valid call per (callable, parameter), with that parameter or
one entry of it ("entries[0]") left open, and the pattern its error must
match.  Every row is crossed with HOSTILE: each case raises ValueError (a
ResourceLimitError for 10**400 as a bounded size) matching the row's
pattern, or EXACT's where it has one, or is one that its row accepts, for
the reason REASONS gives.  A guard keeps ROWS complete over
threestroke.__all__.  The CLI half crosses every --config key of every
subcommand with hostile JSON.
"""

import argparse
import dataclasses
import inspect
import json
import math
import os
import re
import types

import numpy as np
import pytest

import threestroke
from threestroke import (
    QUBIT, BlockUnitarySpec, EnergySpectrum, EngineParams, PopulationVector, ResourceLimitError,
    RestrictionModel, WorkPermutation, apply_mixture, brute_force_performance, check_laws, cli,
    cyclic_state, engine_params_from, ergotropy, eta_finite_bath, gibbs_vector, jc_time_scan,
    lambda_max_finite_bath, lambda_max_jc, lambda_max_jc_raw, optimal_performance,
    passive_rearrangement, positive_work_condition, qubit_population, run_cycle, scan_lambda_max,
    simulate_finite_bath_map, thermomajorizes,
)
from threestroke.engine import BathTemperatures, run_cycles
from threestroke.populations import check_beta, check_betas, check_unit_interval
from threestroke.thermal_qubit import capped_weight, capped_weights

# id -> value; "shape" is [0.5] where a scalar belongs and 0.5 where an array
# does, and -1 is an integer below every range (float(-1) below every number's)
HOSTILE = {
    "None": None, "object": object(), "complex": 0.5 + 0j, "complex128": np.complex128(0.5),
    "complex-array": np.array([0.5 + 0j]), "shape": None, "0-d": np.array(0.5),
    "2-d": np.array([[0.5]]), "10**400": 10**400, "-1": -1, "-0.0": -0.0, "nan": math.nan,
    "inf": math.inf, "-inf": -math.inf, "str": "0.5", "bytes": b"0.5", "True": True,
    "np.True_": np.True_, "bool-array": np.array([True]), "str-array": np.array(["0.5"]),
    # two characters, as many as a qubit type has entries
    "01": "01",
    # 0-d arrays holding what float() would read as a number; an object array
    # is read as what it holds, here text, a boolean, None and a 0-d complex array
    "0-d-str": np.array("0.5"), "0-d-bool": np.array(True),
    "0-d-object-str": np.array("0.5", dtype=object),
    "0-d-object-bool": np.array(True, dtype=object),
    "0-d-None": np.array(None, dtype=object),
    "0-d-complex": np.array(np.array(0.5 + 0j), dtype=object),
}

# Decision on -0.0 and 0-d float arrays, accepted wherever the float they
# stand for is: each accepted case must give the result of the call at 0.0 or
# 0.5, compared with ==.
REASONS = {
    "-0.0": "-0.0 == 0.0 under every comparison a rule makes and gives 0.0's result, so "
            "rejecting it would reject a value equal to one the rule accepts",
    "0-d": "a 0-d float array is the float it holds, as np.float64 is: float() reads it "
           "exactly; its text, boolean and object kinds are rejected (the 0-d-* values)",
    "None": "None is the parameter's default",
    "-1": "an angle is any finite number",
}
TWINS = {"-0.0": 0.0, "0-d": 0.5}
NUMBER = ("-0.0", "0-d")


def scalar(pattern, call, accepts=()):
    """A row whose slot takes a scalar, and the hostile ids it accepts."""
    return call, pattern, [0.5], accepts


def array(pattern, call, accepts=()):
    """A row whose slot takes an array."""
    return call, pattern, 0.5, accepts


P = qubit_population(0.6)
GIBBS = gibbs_vector(0.5, QUBIT)
PARAMS = EngineParams(0.2, 0.6)
SWAP = WorkPermutation.swap()
REPORT = run_cycle(P, 0.5, 0.5, SWAP, PARAMS)
SPEC = BlockUnitarySpec.full_swap(3)
TEMPS = BathTemperatures([0.2], [1.0])
FB3 = RestrictionModel.finite_bath(3)
MODELS = (RestrictionModel.unrestricted(), FB3, RestrictionModel.jaynes_cummings(),
          RestrictionModel.explicit(0.5))

BETA = "^beta_omega must be finite and >= 0, got "
BETAS = "^beta_omega must be "
WEIGHT = "^mixing weight "
SIZE = "^bath size "


def typed(parameter, kind):
    """The pattern of check_instance's error, which shows the value as given."""
    return f"^{parameter} must be an? {kind}, got <value>$"


ROWS = {
    # populations
    "PopulationVector:entries": array("population", PopulationVector),
    "PopulationVector:entries[0]": scalar(
        "population", lambda v: PopulationVector((v, 0.5)), ("0-d",)),
    "qubit_population:ground": scalar("population", qubit_population, NUMBER),
    "EnergySpectrum:levels": array("spectrum", EnergySpectrum),
    "EnergySpectrum:levels[0]": scalar(
        "^ground level ", lambda v: EnergySpectrum((v, 1.0)), ("-0.0",)),
    "EnergySpectrum:levels[1]": scalar(
        "^excited level ", lambda v: EnergySpectrum((0.0, v)), NUMBER),
    "gibbs_vector:beta": scalar("^inverse temperature ", lambda v: gibbs_vector(v, QUBIT), NUMBER),
    "gibbs_vector:spectrum": scalar(typed("spectrum", "EnergySpectrum"),
                                    lambda v: gibbs_vector(0.5, v)),
    "check_beta:value": scalar(BETA, check_beta, NUMBER),
    "check_betas:values": array(BETAS, check_betas),
    "check_betas:values[1]": scalar(BETAS, lambda v: check_betas([0.2, v]), NUMBER),
    "check_unit_interval:value": scalar(
        r"^lambda must lie in \[0, 1\], got ", lambda v: check_unit_interval(v, "lambda"), NUMBER),
    # ergotropy and majorization
    "WorkPermutation:mapping": array("permutation", WorkPermutation),
    "WorkPermutation:mapping[0]": scalar("permutation", lambda v: WorkPermutation((v, 0))),
    "WorkPermutation:mapping[1]": scalar("permutation", lambda v: WorkPermutation((1, v))),
    "WorkPermutation.identity:dim": scalar("dimension", WorkPermutation.identity),
    "passive_rearrangement:p": scalar(typed("p", "PopulationVector"),
                                      lambda v: passive_rearrangement(v, QUBIT)),
    "passive_rearrangement:spectrum": scalar(typed("spectrum", "EnergySpectrum"),
                                             lambda v: passive_rearrangement(P, v)),
    "ergotropy:p": scalar(typed("p", "PopulationVector"), lambda v: ergotropy(v, QUBIT)),
    "ergotropy:spectrum": scalar(typed("spectrum", "EnergySpectrum"), lambda v: ergotropy(P, v)),
    "thermomajorizes:p": scalar(typed("p", "PopulationVector"),
                                lambda v: thermomajorizes(v, P, GIBBS)),
    "thermomajorizes:q": scalar(typed("q", "PopulationVector"),
                                lambda v: thermomajorizes(P, v, GIBBS)),
    "thermomajorizes:gamma": scalar(typed("gamma", "PopulationVector"),
                                    lambda v: thermomajorizes(P, P, v)),
    # thermal_qubit
    "apply_mixture:lam": scalar(WEIGHT, lambda v: apply_mixture(v, 0.3, P), NUMBER),
    "apply_mixture:beta_omega": scalar(BETA, lambda v: apply_mixture(0.5, v, P), NUMBER),
    "apply_mixture:p": scalar(typed("p", "PopulationVector"), lambda v: apply_mixture(0.5, 0.3, v)),
    "capped_weight:lam": scalar(WEIGHT, capped_weight, NUMBER),
    "capped_weights:lam": array(WEIGHT, lambda v: capped_weights(v, np.array([1.0]))),
    "capped_weights:lam[0]": scalar(WEIGHT, lambda v: capped_weights([v], np.array([1.0])), NUMBER),
    # engine
    "EngineParams:beta_h_omega": scalar(
        "^beta_h_omega must be finite and >= 0, got ", lambda v: EngineParams(v, 1.0), NUMBER),
    "EngineParams:beta_c_omega": scalar(
        "^beta_c_omega must be finite and >= 0, got ", lambda v: EngineParams(0.2, v), NUMBER),
    "EngineParams:lambda_h_max": scalar(
        r"^lambda_h_max must lie in \[0, 1\], got ", lambda v: EngineParams(0.2, 1.0, v), NUMBER),
    "EngineParams:lambda_c_max": scalar(r"^lambda_c_max must lie in \[0, 1\], got ",
                                        lambda v: EngineParams(0.2, 1.0, 1.0, v), NUMBER),
    "run_cycle:p0": scalar(typed("p0", "PopulationVector"),
                           lambda v: run_cycle(v, 0.5, 0.5, SWAP, PARAMS)),
    "run_cycle:lambda_h": scalar(WEIGHT, lambda v: run_cycle(P, v, 0.5, SWAP, PARAMS), NUMBER),
    "run_cycle:lambda_c": scalar(WEIGHT, lambda v: run_cycle(P, 0.5, v, SWAP, PARAMS), NUMBER),
    "run_cycle:perm": scalar(typed("perm", "WorkPermutation"),
                             lambda v: run_cycle(P, 0.5, 0.5, v, PARAMS)),
    "run_cycle:params": scalar(typed("params", "EngineParams"),
                               lambda v: run_cycle(P, 0.5, 0.5, SWAP, v)),
    "cyclic_state:lambda_h": scalar(WEIGHT, lambda v: cyclic_state(v, 0.5, PARAMS), NUMBER),
    "cyclic_state:lambda_c": scalar(WEIGHT, lambda v: cyclic_state(0.5, v, PARAMS), NUMBER),
    "cyclic_state:params": scalar(typed("params", "EngineParams"),
                                  lambda v: cyclic_state(0.5, 0.5, v)),
    "check_laws:report": scalar(typed("report", "CycleReport"), lambda v: check_laws(v, PARAMS)),
    "check_laws:params": scalar(typed("params", "EngineParams"), lambda v: check_laws(REPORT, v)),
    "optimal_performance:params": scalar(typed("params", "EngineParams"), optimal_performance),
    "positive_work_condition:params": scalar(typed("params", "EngineParams"),
                                             positive_work_condition),
    "BathTemperatures:beta_h_omega": array("^beta_h_omega ", lambda v: BathTemperatures(v, [1.0])),
    "BathTemperatures:beta_c_omega": array("^beta_c_omega ", lambda v: BathTemperatures([0.2], v)),
    "BathTemperatures:beta_h_omega[1]": scalar(
        "^beta_h_omega must be ", lambda v: BathTemperatures([0.2, v], [1.0, 1.0]), NUMBER),
    "BathTemperatures:beta_c_omega[1]": scalar(
        "^beta_c_omega must be ", lambda v: BathTemperatures([0.2, 0.2], [1.0, v]), NUMBER),
    "BathTemperatures.caps:lambda_h_max": array("^lambda_h_max ", lambda v: TEMPS.caps(v, [1.0])),
    "BathTemperatures.caps:lambda_h_max[0]": scalar(
        "^lambda_h_max ", lambda v: TEMPS.caps([v], [1.0]), NUMBER),
    # the start's other entry is 0.5, so its population error names no parameter
    "run_cycles:start[0][0]": scalar(r"^start must be a number, got |population", lambda v: (
        run_cycles([[v, 0.5]], [0.5], [0.5], [True], TEMPS, [1.0], [1.0])), ("0-d",)),
    # restrictions
    "lambda_max_finite_bath:beta_omega": scalar(
        BETA, lambda v: lambda_max_finite_bath(v, 3), NUMBER),
    "lambda_max_finite_bath:d": scalar(SIZE, lambda v: lambda_max_finite_bath(0.5, v)),
    "lambda_max_jc_raw:beta_omega": scalar(BETA, lambda_max_jc_raw, NUMBER),
    "lambda_max_jc:beta_omega": scalar(BETA, lambda_max_jc, NUMBER),
    "RestrictionModel:kind": scalar("^unknown restriction kind ", RestrictionModel),
    "RestrictionModel:d": scalar(SIZE, lambda v: RestrictionModel("finite_bath", d=v)),
    "RestrictionModel:lam": scalar(
        "^explicit cap ", lambda v: RestrictionModel("explicit", lam=v), NUMBER),
    "RestrictionModel.finite_bath:d": scalar(SIZE, RestrictionModel.finite_bath),
    "RestrictionModel.explicit:lam": scalar("^explicit cap ", RestrictionModel.explicit, NUMBER),
    "RestrictionModel.parse:text": scalar("restriction spec", RestrictionModel.parse),
    **{f"RestrictionModel({m.label}).lambda_max:beta_omega": scalar(BETA, m.lambda_max, NUMBER)
       for m in MODELS},
    **{f"RestrictionModel({m.label}).resolve:beta_omega": array(BETAS, m.resolve)
       for m in MODELS},
    **{f"RestrictionModel({m.label}).resolve:beta_omega[1]": scalar(
        BETAS, (lambda m: lambda v: m.resolve([0.2, v]))(m), NUMBER) for m in MODELS},
    "engine_params_from:hot": scalar(typed("hot", "RestrictionModel"),
                                     lambda v: engine_params_from(v, FB3, 0.2, 1.0)),
    "engine_params_from:cold": scalar(typed("cold", "RestrictionModel"),
                                      lambda v: engine_params_from(FB3, v, 0.2, 1.0)),
    "engine_params_from:beta_h_omega": scalar(
        BETA, lambda v: engine_params_from(FB3, FB3, v, 1.0), NUMBER),
    "engine_params_from:beta_c_omega": scalar(
        BETA, lambda v: engine_params_from(FB3, FB3, 0.2, v), NUMBER),
    "eta_finite_bath:beta_h_omega": scalar(BETA, lambda v: eta_finite_bath(v, 1.0, 3), ("0-d",)),
    "eta_finite_bath:beta_c_omega": scalar(BETA, lambda v: eta_finite_bath(0.2, v, 3), ("0-d",)),
    "eta_finite_bath:d": scalar(SIZE, lambda v: eta_finite_bath(0.2, 1.0, v)),
    # bath_oracle
    "BlockUnitarySpec:thetas": array("^thetas ", lambda v: BlockUnitarySpec(v, [0.0], [0.0])),
    "BlockUnitarySpec:thetas[0]": scalar(
        r"^thetas(\[0\])? ", lambda v: BlockUnitarySpec([v], [0.0], [0.0]), (*NUMBER, "-1")),
    "BlockUnitarySpec:phis": array("^phis ", lambda v: BlockUnitarySpec([0.5], v, [0.0])),
    "BlockUnitarySpec:alphas": array("^alphas ", lambda v: BlockUnitarySpec([0.5], [0.0], v)),
    "BlockUnitarySpec.full_swap:d": scalar(SIZE, BlockUnitarySpec.full_swap),
    "simulate_finite_bath_map:p": scalar(typed("p", "PopulationVector"),
                                         lambda v: simulate_finite_bath_map(v, 0.5, 3, SPEC)),
    "simulate_finite_bath_map:beta_omega": scalar(
        BETA, lambda v: simulate_finite_bath_map(P, v, 3, SPEC), NUMBER),
    "simulate_finite_bath_map:d": scalar(SIZE, lambda v: simulate_finite_bath_map(P, 0.5, v, SPEC)),
    "simulate_finite_bath_map:spec": scalar(typed("spec", "BlockUnitarySpec"),
                                            lambda v: simulate_finite_bath_map(P, 0.5, 3, v)),
    "scan_lambda_max:beta_omega": scalar(BETA, lambda v: scan_lambda_max(v, 2), NUMBER),
    "scan_lambda_max:d": scalar(SIZE, lambda v: scan_lambda_max(0.5, v)),
    "brute_force_performance:params": scalar(typed("params", "EngineParams"),
                                             lambda v: brute_force_performance(v, 8)),
    "brute_force_performance:grid": scalar("^grid ", lambda v: brute_force_performance(PARAMS, v)),
    "jc_time_scan:beta_omega": scalar("^beta_omega must be finite and >", jc_time_scan, ("0-d",)),
    "jc_time_scan:time_grid": array("^time grid ", lambda v: jc_time_scan(0.5, v), ("None",)),
    "jc_time_scan:time_grid[1]": scalar(
        "^time grid entry ", lambda v: jc_time_scan(0.5, [1.0, v]), NUMBER),
    "jc_time_scan:truncation": scalar("^truncation ", lambda v: jc_time_scan(0.5, truncation=v)),
}

# Whole messages, among them each one an earlier test asserted.
WHOLE_ARRAYS = [
    "check_betas:values", "BathTemperatures:beta_h_omega", "BathTemperatures:beta_c_omega",
    "BathTemperatures.caps:lambda_h_max", "capped_weights:lam", "BlockUnitarySpec:thetas",
    "BlockUnitarySpec:phis", "BlockUnitarySpec:alphas", "jc_time_scan:time_grid",
    *(row for row in ROWS if row.endswith("resolve:beta_omega")),
]
NOT_FINITE = "must be finite and >= 0, got"
EXACT = {
    ("EngineParams:beta_h_omega", "None"): f"^beta_h_omega {NOT_FINITE} None$",
    ("EngineParams:beta_c_omega", "10**400"): f"^beta_c_omega {NOT_FINITE} 10{{400}}$",
    ("EngineParams:lambda_h_max", "complex"):
        r"^lambda_h_max must lie in \[0, 1\], got \(0\.5\+0j\)$",
    ("RestrictionModel(fb3).resolve:beta_omega[1]", "complex"):
        r"^beta_omega must be a number, got \(0\.5\+0j\)$",
    # at -0.0, as at 0.0, the efficiency is 0 / 0
    ("eta_finite_bath:beta_h_omega", "-0.0"): r"^efficiency undefined at beta_h_omega=-0\.0, ",
    ("eta_finite_bath:beta_c_omega", "-0.0"): r"^efficiency undefined at .* beta_c_omega=-0\.0, ",
    **{("PopulationVector:entries[0]", h): f"^population entry {re.escape(repr(HOSTILE[h]))} "
       "must be a number$" for h in ("None", "True", "np.True_", "str", "bytes")},
    **{(row, h): f"^{entries} must be a container, got {value}$" for row, entries in (
        ("PopulationVector:entries", "population entries"),
        ("EnergySpectrum:levels", "spectrum levels"),
        ("WorkPermutation:mapping", "permutation entries"),
    ) for h, value in (("None", "None"), ("shape", r"0\.5"))},
    **{(row, f"{kind}-array"): f" must be a number, got a {name} array$" for row in WHOLE_ARRAYS
       for kind, name in (("complex", "complex"), ("bool", "boolean"))},
    **{(row, h): f"^beta_omega must be a 1-d array, got shape {re.escape(shape)}$"
       for row in WHOLE_ARRAYS if row.startswith(("check_betas", "RestrictionModel"))
       for h, shape in (("shape", "()"), ("0-d", "()"), ("2-d", "(1, 1)"), ("-0.0", "()"),
                        ("nan", "()"), ("inf", "()"), ("-1", "()"))},
    # a float is no size, even an integral one, and each qubit type counts its entries
    **{(row, "-0.0"): r" must be an integer, got -0\.0$" for row, (_, pattern, *_) in ROWS.items()
       if pattern in (SIZE, "^grid ", "^truncation ", "dimension")},
    ("PopulationVector:entries", "str"): "^a qubit population has two entries, got 3$",
    ("EnergySpectrum:levels", "str"): "^a qubit spectrum has two levels, got 3$",
    ("PopulationVector:entries", "01"): "^population entry '0' must be a number$",
    ("EnergySpectrum:levels", "01"): "^ground level must sit at 0, got '0'$",
    ("WorkPermutation:mapping", "bytes"):
        r"^\(48, 46, 53\) is not a permutation of the two qubit levels$",
    ("WorkPermutation.identity:dim", "10**400"):
        "^only the qubit's identity exists, got dimension 10{400}$",
    **{("RestrictionModel.parse:text", h): "^a restriction spec must be a string, got "
       for h in ("None", "bytes", "shape", "10**400", "-1")},
}


def same(a, b) -> bool:
    """a == b, field by field for records and entry by entry for arrays."""
    if dataclasses.is_dataclass(a):
        a, b = dataclasses.astuple(a), dataclasses.astuple(b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(map(same, a, b))
    return np.array_equal(a, b)


@pytest.mark.parametrize(("row", "hostile"), [(row, hostile) for row in ROWS for hostile in HOSTILE])
def test_every_parameter_rejects_every_hostile_value(row, hostile):
    call, pattern, shape, accepts = ROWS[row]
    value = shape if hostile == "shape" else HOSTILE[hostile]
    if hostile in accepts:
        assert hostile in REASONS
        if hostile in TWINS:
            assert same(call(value), call(TWINS[hostile])), "accepted, with another result"
        return
    with pytest.raises((ValueError, ResourceLimitError)) as info:
        call(value)
    expected = EXACT.get((row, hostile), pattern).replace("<value>", re.escape(repr(value)))
    assert re.search(expected, str(info.value))
    assert isinstance(info.value, ValueError) or hostile == "10**400"


# Public names that take no input: exception classes, constants, and the
# records the package builds from checked values (check_laws takes a
# CycleReport back through check_instance: see its rows).
EXEMPT = {
    "SingularCycleError", "UndefinedEfficiencyError", "UnsupportedRestrictionError",
    "ResourceLimitError", "QUBIT", "JC_BRANCH_POINT", "CycleReport", "LawDiagnostics",
    "PerformancePoint", "BruteForceResult",
}


def test_every_public_parameter_has_rows():
    """Each parameter of each public callable, and of each public method of a
    public class, has a row; so has each name that is not exempt."""
    covered = {re.sub(r"\(.*?\)|\[.*?\]", "", row) for row in ROWS}
    roots = {re.match(r"\w+", row)[0] for row in ROWS}
    missing = []
    for name in threestroke.__all__:
        if name in EXEMPT:
            continue
        home = getattr(threestroke, name)
        members = {name: home}
        if inspect.isclass(home):
            members.update((f"{name}.{attr}", getattr(home, attr))
                           for attr, member in vars(home).items() if not attr.startswith("_")
                           and isinstance(member, (classmethod, types.FunctionType)))
        missing += [name] * (name not in roots)
        missing += [f"{label}:{parameter}" for label, member in members.items()
                    for parameter in inspect.signature(member).parameters
                    if parameter != "self" and f"{label}:{parameter}" not in covered]
    assert missing == []
    assert EXEMPT <= set(threestroke.__all__)


@pytest.mark.parametrize("value", [0.25, np.float64(0.25), 1, np.array(0.25)], ids=repr)
def test_a_0d_object_array_holding_a_number_is_that_number(value):
    assert EngineParams(np.array(value, dtype=object), 1.0).beta_h_omega == float(value)
    assert check_beta(np.array(value, dtype=object)) == float(value)


# The CLI: each --config key's kind, the message stem of a value of another
# JSON type, and the hostile JSON each kind is given.
KINDS = {
    "bh": "number", "bc": "number", "ratio-min": "number", "ratio-max": "number",
    "ratio-steps": "integer", "seed": "integer", "grid": "integer",
    "carnot": "flag", "raw": "flag", "out": "path", "hot": "model", "cold": "model",
    "models": "models", "axis": "axis", "only": "only",
}
STEMS = {
    "number": "must be a number, got ", "integer": "must be an integer, got ",
    "flag": "must be true or false, got ", "path": "must be a path string, got ",
    "model": "must be a restriction spec string, got ",
    "models": "must be a string or a list of strings, got ",
    "axis": "must be one of ['bc', 'bh', 'ratio'], got ",
    "only": "must be a string of check names, got ",
}
WRONG_TYPE = {"number": ['"0.5"', "true", "1" + "0" * 400], "integer": ['"3"', "3.0", "true"],
              "flag": ['"true"', "3.0"]}
HOSTILE_JSON = ["null", "[0.5]", '{"x": 0.5}', "NaN", '""']
# (kind, JSON) -> the message where it is not the stem's
MESSAGES = {
    ("number", "NaN"): "{} must be finite, got nan",
    ("number", "1" + "0" * 400): "{} must be finite, got 1000",
    ("path", '""'): "{} must be a nonempty path string, got ''",
    ("models", "[0.5]"): "{} entry must be a restriction spec string, got 0.5",
    ("models", '""'): "{} needs at least one spec",
    ("only", '""'): "{} needs at least one check",
}
# A valid config for each subcommand, which the hostile key joins or replaces.
BASE = {"perf": {"bh": 0.2, "bc": 0.6}, "sweep": {"bh": 0.2, "ratio-steps": 3},
        "tradeoff": {"bh": 0.2, "ratio-steps": 3}, "figures": {"ratio-steps": 3},
        "verify": {"only": "thm3", "grid": 2}}


def config_keys():
    """(command, key) for every option of every subcommand but --config."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [(command, action.option_strings[0][2:]) for command, sub in commands.choices.items()
            for action in sub._actions if action.option_strings
            and action.dest not in ("help", "config")]


def run_in(tmp_path, monkeypatch, capsys, argv, config):
    """cli.main(argv) in a directory holding only config as run.json: exit
    code, stdout, stderr and what else the call left there."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text(json.dumps(config))
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err, sorted(set(os.listdir(tmp_path)) - {"run.json"})


@pytest.mark.parametrize("command", BASE)
def test_every_base_config_runs(command, tmp_path, monkeypatch, capsys):
    code, out, err, _ = run_in(tmp_path, monkeypatch, capsys, [command, "--config", "run.json"],
                               BASE[command])
    assert code == 0 and err == ""
    if command == "sweep":
        assert len(out.splitlines()) == 2 + 3


@pytest.mark.parametrize(("command", "key"), config_keys())
def test_every_config_value_must_have_its_flags_type(command, key, tmp_path, monkeypatch, capsys):
    flag, kind = f"--{key}", KINDS[key]
    for text in HOSTILE_JSON + WRONG_TYPE.get(kind, ["0.5", "true"]):
        value = json.loads(text)
        if text == "null":
            message = f"{flag} must not be null in a config file"
        elif kind == "model" and isinstance(value, str):
            # a string reaches RestrictionModel.parse, whose error follows the flag
            with pytest.raises(ValueError) as info:
                RestrictionModel.parse(value)
            message = f"{flag}: {info.value}"
        else:
            message = MESSAGES.get((kind, text), "{} " + STEMS[kind]).format(flag)
        code, out, err, left = run_in(tmp_path, monkeypatch, capsys,
                                      [command, "--config", "run.json"],
                                      {**BASE[command], key: value})
        assert (code, out, left) == (2, "", []), text
        assert err.startswith("error: " + message) and err.count("\n") == 1, text


@pytest.mark.parametrize("argv", [[command, "--config", ""] for command in BASE] + [
    [command, "--config", "run.json", "--out", ""] for command in ("sweep", "tradeoff", "figures")
], ids=" ".join)
def test_an_empty_path_flag_is_rejected(argv, tmp_path, monkeypatch, capsys):
    code, out, err, left = run_in(tmp_path, monkeypatch, capsys, argv, BASE[argv[0]])
    assert (code, out, left) == (2, "", [])
    assert err == f"error: {argv[-2]} must be a nonempty path string, got ''\n"


def test_every_config_key_has_a_kind():
    assert {key for _, key in config_keys()} == set(KINDS)
