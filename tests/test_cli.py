"""Command-line surface: payloads, CSV layout, exit codes, warnings."""

import argparse
import collections
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from threestroke import (
    RestrictionModel,
    bath_oracle,
    checks,
    cli,
    engine_params_from,
    eta_finite_bath,
    optimal_performance,
)
from threestroke.populations import check_beta
from threestroke.restrictions import JC_BRANCH_POINT, lambda_max_jc_raw


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_perf_payload(capsys):
    code, out, err = run(["perf", "--bh", "0.2", "--bc", "0.6"], capsys)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["hot"] == payload["cold"] == "unrestricted"
    assert payload["p_opt"] == pytest.approx(0.6899744811276125, abs=1e-12)
    assert payload["w_max_over_omega"] == pytest.approx(0.12980665307639994, abs=1e-12)
    assert payload["eta_max"] == pytest.approx(0.5092897426620921, abs=1e-12)
    assert payload["eta_carnot"] == pytest.approx(2 / 3, abs=1e-12)
    assert payload["operational"] is True and payload["cold_hotter"] is False


def test_perf_with_restriction_models(capsys):
    code, out, _ = run(
        ["perf", "--bh", "0.2", "--bc", "0.6", "--hot", "fb:5", "--cold", "fb:5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hot"] == payload["cold"] == "fb5"
    assert payload["lambda_h_max"] == pytest.approx(0.9045725859802667, abs=1e-12)
    assert payload["w_max_over_omega"] < 0.12980665307639994


def test_perf_reversed_roles(capsys):
    code, out, _ = run(["perf", "--bh", "0.6", "--bc", "0.2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cold_hotter"] is True and payload["operational"] is False


def test_config_flags_and_model_lists(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"models": ["unrestricted", "jc"], "carnot": False, "raw": True}))
    code, out, _ = run(["sweep", "--bh", "0.2", "--ratio-steps", "3", "--config", str(path)],
                       capsys)
    assert code == 0
    header = out.splitlines()[1]
    assert "jc" in header and "eta_carnot" not in header


def test_perf_missing_beta(capsys):
    code, _, err = run(["perf", "--bc", "0.6"], capsys)
    assert code == 2 and err.startswith("error:")


def test_sweep_csv_layout(capsys):
    argv = [
        "sweep", "--bh", "0.2", "--ratio-min", "2", "--ratio-max", "4",
        "--ratio-steps", "3", "--models", "unrestricted,jc", "--carnot",
    ]
    code, out, err = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# threestroke ")
    assert "axis=ratio beta_h_omega=0.2 models=unrestricted,jc" in lines[0]
    assert lines[1] == "ratio,eta_unrestricted,bhw_unrestricted,eta_jc,bhw_jc,eta_carnot"
    assert len(lines) == 5
    row = lines[3].split(",")
    assert float(row[0]) == 3.0
    assert float(row[1]) == pytest.approx(0.5092897426620921, rel=1e-8)
    assert float(row[2]) == pytest.approx(0.2 * 0.12980665307639994, rel=1e-8)
    assert float(row[5]) == pytest.approx(2 / 3, rel=1e-8)
    # the exchange-coupling cap is clamped at ratio 2; warned once, on stderr
    assert err.count("clamped") == 1


def test_sweep_axis_bh(capsys):
    argv = [
        "sweep", "--axis", "bh", "--bc", "0.9", "--ratio-min", "0.1",
        "--ratio-max", "0.3", "--ratio-steps", "3", "--models", "unrestricted",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert "axis=bh beta_c_omega=0.9" in lines[0]
    assert lines[1].startswith("beta_h_omega,")
    assert [line.split(",")[0] for line in lines[2:]] == ["0.1", "0.2", "0.3"]


def test_sweep_axis_bh_requires_bc(capsys):
    code, _, err = run(["sweep", "--axis", "bh", "--models", "unrestricted"], capsys)
    assert code == 2 and "error:" in err


def test_sweep_empty_vs_raw_cells(capsys):
    argv = [
        "sweep", "--bh", "0.2", "--ratio-min", "2", "--ratio-max", "3",
        "--ratio-steps", "2", "--models", "fb:1",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert all(line.endswith(",,") for line in out.splitlines()[2:])
    code, out, _ = run(argv + ["--raw"], capsys)
    assert code == 0
    for line in out.splitlines()[2:]:
        fields = line.split(",")
        assert fields[1] != "" and float(fields[2]) <= 0.0


def test_sweep_model_flag_conflicts(capsys):
    base = ["sweep", "--bh", "0.2"]
    code, _, err = run(base + ["--models", "jc", "--hot", "jc"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run(base + ["--models", "jc", "--hot", ""], capsys)
    assert code == 2 and err == "error: --models excludes --hot/--cold\n"
    code, _, err = run(base + ["--models", "jc,jc"], capsys)
    assert code == 2 and "error:" in err
    code, _, err = run(base + ["--models", "bogus"], capsys)
    assert code == 2 and "error:" in err
    # a malformed spec says so; a well-formed one out of range names the bound;
    # either way after the flag that gave it
    for spec, message in (
        ("fb:0", "bath size must be >= 1, got 0"),
        ("fb:9007199254740993", "bath size must be <= 2**53, got 9007199254740993"),
        ("lam:1.5", "explicit cap must lie in [0, 1], got 1.5"),
        ("lam:nan", "explicit cap must lie in [0, 1], got nan"),
        ("fb:x", "bad finite-bath spec 'fb:x', expected fb:D"),
        ("lam:", "bad explicit-cap spec 'lam:', expected lam:X"),
    ):
        perf = ["perf", "--bh", "0.2", "--bc", "0.6", "--hot", spec]
        for argv, flag in ((base + ["--models", spec], "--models entry"), (perf, "--hot")):
            assert run(argv, capsys) == (2, "", f"error: {flag}: {message}\n")


def test_sweep_range_validation(capsys):
    base = ["sweep", "--bh", "0.2", "--models", "unrestricted"]
    assert run(base + ["--ratio-min", "5", "--ratio-max", "2"], capsys)[0] == 2
    assert run(base + ["--ratio-steps", "1"], capsys)[0] == 2
    assert run(base + ["--ratio-min", "-1"], capsys)[0] == 2


def test_sweep_to_file_is_deterministic(tmp_path, capsys):
    argv = [
        "sweep", "--bh", "0.2", "--ratio-min", "1.5", "--ratio-max", "6",
        "--ratio-steps", "40", "--models", "unrestricted,fb:10,jc", "--carnot",
    ]
    target = tmp_path / "a.csv"
    assert run(argv + ["--out", str(target)], capsys)[0] == 0
    first = target.read_bytes()
    assert run(argv + ["--out", str(target)], capsys)[0] == 0
    assert target.read_bytes() == first
    # stdout emission carries the same rows; the metadata records the argv,
    # which differs by the --out flag, so compare from the header on
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out.splitlines()[1:] == first.decode().splitlines()[1:]


def test_csv_chunks_leave_the_bytes_alone(tmp_path, monkeypatch, capsys):
    """Any chunk size writes the same file, and stdout gets its rows too."""
    argv = [
        "tradeoff", "--bh", "0.4", "--ratio-min", "0.5", "--ratio-steps", "40",
        "--models", "jc,fb:2", "--carnot",
    ]
    target = tmp_path / "a.csv"
    assert run(argv + ["--out", str(target)], capsys)[0] == 0
    whole = target.read_bytes()
    assert 2 < whole.count(b"\n") < 42  # tradeoff drops the rows below ratio 1
    for rows in (1, 3, 40):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", rows)
        assert run(argv + ["--out", str(target)], capsys)[0] == 0
        assert target.read_bytes() == whole
        code, out, _ = run(argv + ["--out", "-"], capsys)
        assert code == 0
        assert out.encode().split(b"\n")[1:] == whole.split(b"\n")[1:]


def reference_csv(meta, header, table, blank):
    """The CSV text _emit_csv must write, assembled cell by cell."""
    rows = (
        ",".join("" if gap else format(x, ".9g") for x, gap in zip(row, gaps))
        for row, gaps in zip(table.tolist(), blank.tolist())
    )
    return "".join(f"{line}\n" for line in [meta, ",".join(header), *rows])


def emitted_csv(tmp_path, table, blank):
    """What _emit_csv writes for the table, to a file and to stdout alike, and its reference."""
    meta, header = "# meta", [f"c{i}" for i in range(table.shape[1])]
    target = tmp_path / "t.csv"
    cli._emit_csv(str(target), meta, header, table, blank)
    written = target.read_bytes()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit_csv("-", meta, header, table, blank)
    assert out.getvalue().encode() == written
    return written, reference_csv(meta, header, table, blank).encode()


SPECIAL_CELLS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.0, 1.0, -1e300, 1 / 3]


@pytest.mark.parametrize("width", [1, 2, 9, 63, 64, 65, 82, 130])
def test_csv_writer_matches_cell_by_cell_text(tmp_path, width):
    """Every blank pattern of a few columns, and random ones of many, over special cells."""
    rng = np.random.default_rng(width)
    if width <= 9:  # every blank pattern, the all-blank row included
        codes = np.arange(2**width)
        blank = (codes[:, None] >> np.arange(width)) & 1 == 1
        blank = np.repeat(blank, 3, axis=0)
    else:
        blank = rng.random((300, width)) < rng.random((300, 1))
        blank[:3] = np.arange(width) >= [[0], [width], [1]]  # all, none, all but x
    table = rng.choice(SPECIAL_CELLS, size=blank.shape) * rng.choice([1.0, 7.25e-9], blank.shape)
    written, want = emitted_csv(tmp_path, table, blank)
    assert written == want


@pytest.mark.parametrize("pieces, offset", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_csv_writer_at_piece_boundaries(tmp_path, pieces, offset):
    """0 rows, 1 row, and one row either side of a piece boundary."""
    rows = pieces * cli._CSV_CHUNK_ROWS + offset
    rng = np.random.default_rng(rows)
    blank = rng.random((rows, 5)) < 0.4
    table = rng.choice(SPECIAL_CELLS, size=(rows, 5))
    written, want = emitted_csv(tmp_path, table, blank)
    assert written == want
    assert written.count(b"\n") == 2 + rows


def test_csv_writer_holds_one_small_piece(tmp_path):
    """One _emit_csv of a 20 000 x 9 table peaks below 512 KB of Python memory.

    Pieces of 128 rows peak at about 130 KB, of 4 096 rows at 1.6 MB, and a
    writer that formats row by row, 4 096 rows at a time, at 2.6 MB.
    """
    rng = np.random.default_rng(7)
    table = rng.random((20_000, 9))
    blank = rng.random((20_000, 9)) < 0.3
    header = [f"c{i}" for i in range(9)]
    target = str(tmp_path / "t.csv")
    cli._emit_csv(target, "# meta", header, table[:2], blank[:2])  # untraced first call
    tracemalloc.start()
    try:
        cli._emit_csv(target, "# meta", header, table, blank)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 512_000


def test_large_sweep_streams_its_csv(tmp_path, capsys):
    """A sweep holds one chunk of rows as text, never the whole file.

    Its tracemalloc peak grows with the swept arrays alone, about 120 bytes a
    row for one model.  Every row's text, the rows as lists of floats and the
    joined text, all held at once, took 375 bytes a row.
    """
    target = tmp_path / "big.csv"
    assert run(["sweep", "--ratio-steps", "2"], capsys)[0] == 0  # the parser, built untraced
    peaks = []
    for steps in (5_000, 25_000):
        argv = ["sweep", "--ratio-steps", str(steps), "--models", "unrestricted", "--out", str(target)]
        tracemalloc.start()
        try:
            code = cli.main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 200 * 20_000
    with open(target, "rb") as handle:
        assert sum(1 for _ in handle) == 2 + 25_000


def test_sweep_unwritable_path(tmp_path, capsys):
    argv = [
        "sweep", "--bh", "0.2", "--models", "unrestricted",
        "--ratio-steps", "2", "--out", str(tmp_path / "missing" / "x.csv"),
    ]
    code, _, err = run(argv, capsys)
    assert code == 3 and "error:" in err


def test_tradeoff_keeps_rows_with_any_operational_model(capsys):
    argv = [
        "tradeoff", "--bh", "0.2", "--ratio-min", "2", "--ratio-max", "4",
        "--ratio-steps", "3", "--models", "unrestricted,fb:1",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "ratio,eta_unrestricted,bhw_unrestricted,eta_fb1,bhw_fb1"
    assert len(lines) == 5  # the one-contact model never operates; rows survive
    assert all(line.endswith(",,") for line in lines[2:])


def test_tradeoff_drops_fully_inoperative_rows(capsys):
    argv = [
        "tradeoff", "--bh", "0.2", "--ratio-min", "2", "--ratio-max", "4",
        "--ratio-steps", "3", "--models", "fb:1",
    ]
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert len(out.splitlines()) == 2  # metadata and header only


def test_config_defaults_and_flag_precedence(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"bh": 9.9, "bc": 0.6}))
    code, out, _ = run(["perf", "--config", str(config), "--bh", "0.2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["beta_h_omega"] == 0.2  # explicit flag beats the config file
    assert payload["beta_c_omega"] == 0.6

    config.write_text(json.dumps({"no-such-flag": 1}))
    code, _, err = run(["perf", "--config", str(config), "--bh", "0.2", "--bc", "0.6"], capsys)
    assert code == 2 and "error:" in err

    code, _, err = run(["perf", "--config", str(tmp_path / "absent.json")], capsys)
    assert code == 3


def test_figures_presets(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, out, _ = run(["figures", "--out", str(out_dir), "--ratio-steps", "5"], capsys)
    assert code == 0
    names = ["fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "reference_point.json"]
    assert sorted(path.name for path in out_dir.iterdir()) == names
    for name in names:
        assert f"wrote {out_dir / name}" in out
    for name in names[:3]:  # sweeps keep every ratio; fig5 drops inoperative rows
        assert len((out_dir / name).read_text().splitlines()) == 2 + 5
    _, perf, _ = run(["perf", "--bh", "0.2", "--bc", "0.6"], capsys)
    assert json.loads((out_dir / "reference_point.json").read_text()) == json.loads(perf)
    fig4_header = (out_dir / "fig4.csv").read_text().splitlines()[1]
    assert fig4_header.endswith("eta_carnot")
    assert "eta_jc" in fig4_header
    fig2_header = (out_dir / "fig2.csv").read_text().splitlines()[1]
    assert "eta_fb15" in fig2_header and "eta_carnot" not in fig2_header


_FIGURE_PRESETS = (
    ("fig2.csv", "sweep", "unrestricted,fb:15,fb:10,fb:5", False),
    ("fig3.csv", "sweep", "unrestricted,fb:15,fb:10,fb:5", False),
    ("fig4.csv", "sweep", "unrestricted,fb:10,jc", True),
    ("fig5.csv", "tradeoff", "unrestricted,fb:10,fb:5,jc", False),
)


def test_figures_are_the_sweeps_of_their_presets(tmp_path, monkeypatch, capsys):
    """fig2.csv and fig3.csv share a preset: one table, formatted once, written twice."""
    emitted = []
    emit = cli._emit_csv

    def counted(path, *rest):
        emitted.append(path)
        emit(path, *rest)

    monkeypatch.setattr(cli, "_emit_csv", counted)
    out_dir = tmp_path / "figs"
    # the clamp window of the jc cap, and rows that tradeoff drops
    common = ["--bh", "0.4", "--ratio-min", "0.5", "--ratio-steps", "60"]
    assert run(["figures", "--out", str(out_dir), *common], capsys)[0] == 0
    assert emitted == [str(out_dir / name) for name in ("fig2.csv", "fig4.csv", "fig5.csv")]
    assert (out_dir / "fig3.csv").read_bytes() == (out_dir / "fig2.csv").read_bytes()
    for name, command, models, carnot in _FIGURE_PRESETS:
        code, out, _ = run([command, *common, "--models", models] + ["--carnot"] * carnot, capsys)
        assert code == 0
        assert (out_dir / name).read_text().split("\n")[1:] == out.split("\n")[1:]


def test_figures_evaluate_each_model_once(tmp_path, monkeypatch, capsys):
    """Two caps for the reference point, then two for each distinct model of the presets."""
    resolved = collections.Counter()
    resolve = RestrictionModel.resolve

    def counted(model, beta_omega):
        resolved[model.label] += 1
        return resolve(model, beta_omega)

    monkeypatch.setattr(RestrictionModel, "resolve", counted)
    assert run(["figures", "--out", str(tmp_path / "figs"), "--ratio-steps", "5"], capsys)[0] == 0
    assert resolved == {"unrestricted": 4, "fb15": 2, "fb10": 2, "fb5": 2, "jc": 2}


def test_clamp_warning_shows_a_stated_value_just_above_one(capsys):
    """At the clamp window's edge the stated cap exceeds 1 by 4e-7; the line must not read 1."""
    code, _, err = run(["perf", "--bh", "0.2", "--bc", "0.350365", "--cold", "jc"], capsys)
    assert code == 0
    assert err == (
        "warning: cold cap clamped to 1 at beta_omega=0.350365 "
        "(stated value 1.0000004021917637)\n"
    )


def test_verify_single_check(capsys):
    code, out, _ = run(["verify", "--only", "thm2", "--grid", "60"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


_THM2_COMPARED = re.compile(r"efficiency dev [0-9.e+-]+ on (\d+) of 10 draws\)$")


@pytest.mark.parametrize("seed", range(24))
def test_verify_thm2_compares_efficiency_on_most_draws(seed, capsys):
    code, out, _ = run(["verify", "--only", "thm2", "--seed", str(seed)], capsys)
    assert code == 0
    match = _THM2_COMPARED.search(out.strip())
    assert match, out
    assert int(match.group(1)) >= 5


def test_verify_thm2_fails_on_a_slightly_wrong_efficiency(monkeypatch, capsys):
    exact = checks.optimal_performance

    def shifted(params):
        point = exact(params)
        if point.eta_max is None:
            return point
        return dataclasses.replace(point, eta_max=point.eta_max + 1e-5)

    monkeypatch.setattr(checks, "optimal_performance", shifted)
    code, out, _ = run(["verify", "--only", "thm2", "--seed", "0"], capsys)
    assert code == 4
    assert out.startswith("FAIL thm2: ")


def test_verify_eta_d_line_is_the_scalar_comparison(capsys):
    worst = 0.0
    for d in (5, 10, 15):
        model = RestrictionModel.finite_bath(d)
        for ratio in np.linspace(1.05, 10.0, 50):
            beta_c = 0.2 * ratio
            point = optimal_performance(engine_params_from(model, model, 0.2, beta_c))
            worst = max(worst, abs(eta_finite_bath(0.2, beta_c, d) - point.eta_max))
    code, out, _ = run(["verify", "--only", "eta-d"], capsys)
    assert code == 0
    assert out == (
        "PASS eta-d: stated ladder-bath efficiency matches the general closed form "
        f"(max dev {worst:.2e})\n"
    )


def test_verify_eta_d_fails_at_the_first_undefined_efficiency(monkeypatch, capsys):
    optimum = checks.BathTemperatures.optimum

    def undefined_from_the_eighth(self, lambda_h_max, lambda_c_max):
        p_opt, w_max, eta_max = optimum(self, lambda_h_max, lambda_c_max)
        eta_max[7:] = np.nan
        return p_opt, w_max, eta_max

    monkeypatch.setattr(checks.BathTemperatures, "optimum", undefined_from_the_eighth)
    code, out, _ = run(["verify", "--only", "eta-d"], capsys)
    ratio = np.linspace(1.05, 10.0, 50)[7]
    assert code == 4
    assert out == f"FAIL eta-d: efficiency undefined at d=5, ratio={ratio}\n"


def test_verify_jc_reports_the_overshoot_window(capsys):
    code, out, _ = run(["verify", "--only", "jc"], capsys)
    assert code == 0
    (line,) = [line for line in out.splitlines() if line.startswith("WARN jc:")]
    match = re.search(
        r"on \(([0-9.]+), ([0-9.]+)\] \(max ([0-9.]+) at bw=[0-9.]+\);"
        r".* drops by ([0-9.]+) across",
        line,
    )
    assert match, line
    lower, upper, largest, drop = (float(group) for group in match.groups())
    # a dense scan of where the stated cap is clamped, in steps of 1e-5
    grid = np.linspace(0.0, 1.0, 100_001)
    clamped = np.array([not 0.0 <= lambda_max_jc_raw(b) <= 1.0 for b in grid])
    first, last = int(clamped.argmax()), len(grid) - 1 - int(clamped[::-1].argmax())
    assert clamped[first:last + 1].all() and not clamped[last + 1:].any()
    assert grid[first - 1] <= lower <= grid[first]
    assert grid[last] <= upper <= grid[last + 1]
    assert abs(lower - 0.350363) <= 1e-6
    assert match.group(2) == f"{JC_BRANCH_POINT:.9f}"
    stated = max(lambda_max_jc_raw(b) for b in grid[first:last + 1])
    assert stated <= largest <= stated + 1e-4
    assert drop == pytest.approx(0.0925, abs=1e-4)


def test_verify_unknown_check(capsys):
    code, _, err = run(["verify", "--only", "nope"], capsys)
    assert code == 2 and "unknown checks" in err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["--only", ""], None, "--only needs at least one check"),
        (["--only", ","], None, "--only needs at least one check"),
        ([], {"only": ["jc"]}, "--only must be a string of check names, got ['jc']"),
        (["--only", "thm3,thm3"], None, "duplicate checks in ['thm3', 'thm3']"),
    ],
)
def test_verify_only_needs_a_check_name(argv, config, message, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    code, out, err = run(["verify"] + argv, capsys)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--only", "thm3", "--seed", "-1"]])
def test_verify_negative_seed_fails_before_any_check(argv, capsys):
    code, out, err = run(["verify"] + argv, capsys)
    assert code == 2 and out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("grid", ["1", "0", "-5"])
def test_verify_grid_below_two_fails_before_any_check(grid, capsys):
    code, out, err = run(["verify", "--grid", grid], capsys)
    assert code == 2 and out == ""
    assert err == f"error: --grid must be >= 2, got {grid}\n"


def test_verify_help_lists_every_check(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert exit_info.value.code == 0
    assert f"--only NAMES comma-separated subset of {sorted(checks.CHECKS)}" in out


def test_verify_grid_bound_is_the_brute_force_bound(monkeypatch, capsys):
    bound = bath_oracle.MAX_GRID
    assert cli.MAX_VERIFY_GRID == bound
    for name in list(checks.CHECKS):
        monkeypatch.setitem(checks.CHECKS, name, lambda seed, grid: pytest.fail("a check ran"))
    code, out, err = run(["verify", "--grid", str(bound + 1)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: --grid must be <= {bound}, got {bound + 1}\n"


def test_verify_forced_failure(monkeypatch, capsys):
    forced = checks.CheckRecord("forced", "FAIL", 1.0, 0.0, "a stub")
    monkeypatch.setitem(checks.CHECKS, "thm3", lambda seed, grid: [forced])
    code, out, _ = run(["verify", "--only", "thm3"], capsys)
    assert code == 4
    assert "FAIL forced" in out


def test_verify_thm2_fails_where_the_grid_finds_no_engine(monkeypatch, capsys):
    brute_force = checks.brute_force_performance
    monkeypatch.setattr(
        checks, "brute_force_performance",
        lambda params, grid: dataclasses.replace(brute_force(params, grid), eta_max=None),
    )
    (record,) = checks.CHECKS["thm2"](0, 64)
    assert record.level == "FAIL" and record.worst == math.inf
    assert "EngineParams(beta_h_omega=" in record.message
    code, out, _ = run(["verify", "--only", "thm2"], capsys)
    assert code == 4 and out == f"FAIL thm2: {record.message}\n"


def _tamper_runner(monkeypatch, tamper):
    run_cycles = checks.run_cycles
    monkeypatch.setattr(checks, "run_cycles", lambda *args: tamper(run_cycles(*args)))


def _sign_slip(monkeypatch):
    _tamper_runner(
        monkeypatch, lambda batch: dataclasses.replace(batch, q_cold_raw=-batch.q_cold_raw)
    )


def _first_open_and_singular(monkeypatch):
    """Draw 0 is singular by fixed_ground and left open by the runner."""
    fixed_ground = checks.fixed_ground

    def first_singular(p, q):
        ground = fixed_ground(p, q)
        ground[0] = math.nan
        return ground

    def first_open(batch):
        closes = batch.closes.copy()
        closes[0] = False
        return dataclasses.replace(batch, closes=closes)

    monkeypatch.setattr(checks, "fixed_ground", first_singular)
    _tamper_runner(monkeypatch, first_open)


@pytest.mark.parametrize(
    "tamper, expected",
    [
        (_sign_slip, "FAIL carnot: "),
        (_first_open_and_singular, "PASS carnot: "),
    ],
)
def test_verify_carnot_judges_the_runner(tamper, expected, monkeypatch, capsys):
    tamper(monkeypatch)
    code, out, _ = run(["verify", "--only", "carnot"], capsys)
    assert out.startswith(expected)
    if expected.startswith("PASS"):
        assert code == 0 and out.endswith("; 1 singular draws skipped\n")
    else:
        assert code == 4 and "(first: first law at " in out


@pytest.mark.parametrize("command", ["perf --bh 0.2 --bc 0.6 --hot", "sweep --models"])
@pytest.mark.parametrize("d", [2**53 + 1, 10**400 - 1])
def test_bath_size_above_2_53_is_an_input_error(command, d, capsys):
    flag = "--hot" if command.endswith("--hot") else "--models entry"
    code, out, err = run(command.split() + [f"fb:{d}"], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {flag}: bath size must be <= 2**53, got {d}\n"


def test_distinct_explicit_caps_get_distinct_labels(capsys):
    models = "lam:0.1234567,lam:0.1234568"
    code, out, err = run(["sweep", "--ratio-steps", "2", "--models", models], capsys)
    assert code == 0 and err == ""
    assert out.splitlines()[1] == (
        "ratio,eta_lam0.1234567,bhw_lam0.1234567,eta_lam0.1234568,bhw_lam0.1234568"
    )
    code, out, _ = run(["perf", "--bh", "0.2", "--bc", "0.6", "--hot", "lam:0.1234567"], capsys)
    assert code == 0 and json.loads(out)["hot"] == "lam0.1234567"


def _float_options():
    """(command, flag) for every option that build_parser gives type=float."""
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sorted(
        (name, flag)
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.type is float
        for flag in action.option_strings
    )


def test_float_flags_are_the_parsers_float_options():
    assert {flag for _, flag in _float_options()} == cli._FLOAT_FLAGS


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-1e300", "-inf", "-nan"])
@pytest.mark.parametrize("command, flag", _float_options())
def test_negative_exponent_values_reach_the_input_rules(command, flag, value, tmp_path, capsys):
    """A value after a float flag acts as if joined by '=', never as an option.

    sweep and tradeoff take a finite --bc as a default that the ratio axis
    never uses; every other value breaks an input rule.
    """
    if command == "figures":
        rest = ["--out", str(tmp_path / "figs")]
    else:
        rest = {"--bh": ["--bc", "1"], "--bc": ["--bh", "0.2"]}.get(flag, [])
    spaced_code, _, spaced_err = run([command, flag, value] + rest, capsys)
    joined_code, _, joined_err = run([command, f"{flag}={value}"] + rest, capsys)
    assert (spaced_code, spaced_err) == (joined_code, joined_err)
    if command in ("sweep", "tradeoff") and flag == "--bc" and math.isfinite(float(value)):
        assert spaced_code == 0
    else:
        assert spaced_code == 2 and spaced_err.startswith("error: ")
        assert "expected one argument" not in spaced_err
    assert not (tmp_path / "figs").exists()


def test_negative_cold_temperature_in_exponent_form(capsys):
    code, _, err = run(["perf", "--bh", "0.2", "--bc", "-1e-3"], capsys)
    assert code == 2
    assert err == "error: beta_omega must be finite and >= 0, got -0.001\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert "threestroke" in capsys.readouterr().out


# in-process calls in a row, each as it must run in a fresh process: flags
# and config values of one call never reach the next, and a usage error
# leaves the parser as it was
_CALL_SEQUENCE = (
    ["sweep", "--bh", "0.4", "--ratio-steps", "30", "--models", "jc,fb:5", "--carnot", "--raw",
     "--out", "a.csv"],
    ["sweep", "--bh", "0.4", "--ratio-steps", "30", "--models", "jc,fb:5", "--out", "a.csv"],
    ["sweep", "--config", "run.json", "--out", "b.csv"],
    ["sweep", "--bh", "0.3", "--ratio-steps", "7", "--out", "b.csv"],
    ["sweep", "--axis", "diagonal"],
    ["tradeoff", "--bh", "0.2", "--ratio-steps", "9", "--models", "unrestricted,fb:2"],
    ["verify", "--only", "thm3"],
    ["sweep", "--ratio-steps", "5"],
)
_CALL_CONFIG = {
    "axis": "bc", "bh": 0.25, "ratio-min": 0.3, "ratio-max": 2, "ratio-steps": 11,
    "models": "unrestricted,lam:0.5", "carnot": True, "raw": True,
}


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


def test_in_process_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    fresh, here = tmp_path / "fresh", tmp_path / "here"
    for directory in (fresh, here):
        directory.mkdir()
        (directory / "run.json").write_text(json.dumps(_CALL_CONFIG))
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [package_root, *filter(None, [os.environ.get("PYTHONPATH")])]
    )}
    monkeypatch.chdir(here)
    for argv in _CALL_SEQUENCE:
        done = subprocess.run(
            [sys.executable, "-m", "threestroke.cli", *argv],
            cwd=fresh, env=env, capture_output=True, text=True, check=False,
        )
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (done.returncode, done.stdout, done.stderr)
        assert _files(here) == _files(fresh)
    assert sorted(_files(here)) == ["a.csv", "b.csv", "run.json"]


# ---------------------------------------------------------------------------
# the column-wise sweep against a point-by-point reference


def warn_clamped(side, model, beta_omega, seen):
    """The clamp-warning rule: one warning per side and model, at its first clamped value."""
    key = (side, model.label)
    clamped = model.kind == "jaynes_cummings" and not 0.0 <= lambda_max_jc_raw(beta_omega) <= 1.0
    if clamped and key not in seen:
        seen.add(key)
        print(cli._clamp_warning(side, beta_omega), file=sys.stderr)


def reference_rows(cfg, drop_inoperative_rows):
    """CSV rows of a sweep, evaluated one point and one model at a time.

    Every hot temperature, then every cold one, is checked before the first row.
    """
    seen = set()
    lines = []
    points = []
    for x in cfg.values.tolist():
        if cfg.axis == "ratio":
            points.append((x, cfg.beta_h_omega, cfg.beta_h_omega * x))
        elif cfg.axis == "bh":
            points.append((x, x, cfg.beta_c_omega))
        else:
            points.append((x, cfg.beta_h_omega, x))
    for _, beta_h, _ in points:
        check_beta(beta_h)
    for _, _, beta_c in points:
        check_beta(beta_c)
    for x, beta_h, beta_c in points:
        cells = []
        for _, hot, cold in cfg.models:
            warn_clamped("hot", hot, beta_h, seen)
            warn_clamped("cold", cold, beta_c, seen)
            point = optimal_performance(engine_params_from(hot, cold, beta_h, beta_c))
            cells.append((point.eta_max, beta_h * point.w_max, point.operational))
        if drop_inoperative_rows and not cfg.raw and not any(op for _, _, op in cells):
            continue
        row = [x]
        for eta, bhw, operational in cells:
            show = operational or cfg.raw
            row += [eta if show else None, bhw if show else None]
        if cfg.include_carnot:
            row.append(1.0 - beta_h / beta_c if beta_c > 0.0 else None)
        lines.append(",".join("" if v is None else format(float(v), ".9g") for v in row))
    return lines


def reference_run(args, drop_inoperative_rows):
    """Exit code, header and rows, and stderr of the reference for one sweep.

    A failing run's stderr is its error line alone.
    """
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            cfg = cli._sweep_config(args)
            lines = [",".join(cli._sweep_header(cfg))]
            lines += reference_rows(cfg, drop_inoperative_rows)
        except ValueError as exc:
            return 2, [], f"error: {exc}\n"
    return 0, lines, err.getvalue()


def reference_perf(beta_h, beta_c, hot, cold):
    """Exit code, stdout and stderr of perf, evaluated through the scalar closed form.

    Both temperatures are checked first, and a failing run's stderr is its
    error line alone.
    """
    with contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            check_beta(beta_h)
            check_beta(beta_c)
            seen = set()
            warn_clamped("hot", hot, beta_h, seen)
            warn_clamped("cold", cold, beta_c, seen)
            params = engine_params_from(hot, cold, beta_h, beta_c)
            point = optimal_performance(params)
        except ValueError as exc:
            return 2, "", f"error: {exc}\n"
    payload = {
        "beta_h_omega": params.beta_h_omega,
        "beta_c_omega": params.beta_c_omega,
        "hot": hot.label,
        "cold": cold.label,
        "lambda_h_max": params.lambda_h_max,
        "lambda_c_max": params.lambda_c_max,
        "p_opt": point.p_opt,
        "w_max_over_omega": point.w_max,
        "eta_max": point.eta_max,
        "eta_carnot": None if beta_c == 0.0 else params.carnot_efficiency(),
        "operational": point.operational,
        "cold_hotter": params.cold_hotter,
    }
    return 0, json.dumps(payload, indent=2, sort_keys=True) + "\n", err.getvalue()


def quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(
        io.StringIO()
    ) as err:
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# temperatures and swept ranges that reach the jc branch point, the clamp
# window (0.3504, 0.4621] and infinite temperature (beta = 0 for the fixed side)
temperatures = st.sampled_from(["0", "0.2", "0.3", "0.4", "0.462", "1", "2", "1e-8", "-0.5"])
model_specs = st.sampled_from(["unrestricted", "fb:1", "fb:5", "fb:10", "jc", "lam:0", "lam:0.6"])


@given(
    bh=temperatures, bc=temperatures, hot=st.none() | model_specs, cold=st.none() | model_specs
)
@example(bh="0", bc="1", hot=None, cold="lam:0")  # degenerate cycle at caps (1.0, 0.0)
@example(bh="0.4", bc="-0.5", hot="jc", cold="jc")  # the cold error alone
@example(bh="1e308", bc="1e308", hot=None, cold=None)  # beta_h + beta_c overflows silently
@settings(max_examples=150, deadline=None)
def test_perf_matches_the_scalar_reference(bh, bc, hot, cold):
    argv = ["perf", "--bh", bh, "--bc", bc]
    argv += ["--hot", hot] * (hot is not None) + ["--cold", cold] * (cold is not None)
    want = reference_perf(
        float(bh), float(bc),
        RestrictionModel.parse(hot or "unrestricted"), RestrictionModel.parse(cold or "unrestricted"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach the user's stderr
        assert quiet_main(argv) == want


@given(
    command=st.sampled_from(["sweep", "tradeoff"]),
    axis=st.sampled_from(["ratio", "bh", "bc"]),
    bh=temperatures,
    bc=temperatures,
    models=st.lists(model_specs, min_size=1, max_size=4, unique=True),
    hot_cold=st.none() | st.tuples(model_specs, model_specs),
    lo=st.floats(0.05, 2.0),
    width=st.floats(0.01, 9.0),
    steps=st.integers(2, 40),
    raw=st.booleans(),
    carnot=st.booleans(),
)
@example(command="sweep", axis="ratio", bh="0", bc="1", models=["fb:10", "jc"],
         hot_cold=None, lo=1.05, width=8.95, steps=5, raw=False, carnot=True)
@example(command="tradeoff", axis="bc", bh="0.2", bc="1", models=["unrestricted", "jc"],
         hot_cold=None, lo=0.2, width=0.3, steps=40, raw=True, carnot=False)
@example(command="sweep", axis="bh", bc="-0.5", bh="1", models=["jc"],
         hot_cold=None, lo=0.4, width=0.05, steps=3, raw=False, carnot=False)
@example(command="sweep", axis="bh", bc="-0.5", bh="1", models=["fb:5", "jc"],
         hot_cold=None, lo=0.4, width=0.05, steps=3, raw=False, carnot=False)
# a cold jc warning at ratio 0.3, and beta_c overflows at the last ratio
@example(command="sweep", axis="ratio", bh="1.2", bc="1", models=["jc"],
         hot_cold=None, lo=0.3, width=1.6e308, steps=3, raw=False, carnot=False)
@settings(max_examples=150, deadline=None)
def test_sweep_and_tradeoff_match_the_point_by_point_reference(
    command, axis, bh, bc, models, hot_cold, lo, width, steps, raw, carnot
):
    argv = [command, "--axis", axis, "--bh", bh, "--bc", bc,
            "--ratio-min", repr(lo), "--ratio-max", repr(lo + width),
            "--ratio-steps", str(steps)]
    if hot_cold is None:
        argv += ["--models", ",".join(models)]
    else:
        argv += ["--hot", hot_cold[0], "--cold", hot_cold[1]]
    argv += ["--raw"] * raw + ["--carnot"] * carnot
    code, out, err = quiet_main(argv)
    args = cli.build_parser().parse_args(argv)
    want_code, want_lines, want_err = reference_run(args, command == "tradeoff")
    assert (code, err) == (want_code, want_err)
    assert out.splitlines()[1:] == want_lines


@given(
    bh=st.sampled_from([None, "0", "0.2", "0.4", "1"]),
    lo=st.sampled_from([None, "0.5", "1.05", "2"]),
    steps=st.integers(2, 30),
)
@settings(max_examples=20, deadline=None)
def test_figures_match_the_point_by_point_reference(bh, lo, steps):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["figures", "--out", tmp, "--ratio-steps", str(steps)]
        argv += ["--bh", bh] * (bh is not None) + ["--ratio-min", lo] * (lo is not None)
        code, _, err = quiet_main(argv)
        want_err = ""
        for name, command, models, carnot in _FIGURE_PRESETS:
            args = argparse.Namespace(
                axis="ratio", bh=None if bh is None else float(bh), bc=None,
                ratio_min=None if lo is None else float(lo), ratio_max=None,
                ratio_steps=steps, models=models, hot=None, cold=None,
                carnot=carnot, raw=None,
            )
            want_code, want_lines, file_err = reference_run(args, command == "tradeoff")
            want_err += file_err
            assert code == want_code
            if want_code == 0:
                lines = (Path(tmp) / name).read_text().splitlines()
                assert lines[1:] == want_lines
        assert err == want_err
        if code == 0:
            beta_h = 0.2 if bh is None else float(bh)
            unrestricted = RestrictionModel.unrestricted()
            _, want_json, _ = reference_perf(
                beta_h, float(f"{3 * beta_h:.15g}"), unrestricted, unrestricted
            )
            assert (Path(tmp) / "reference_point.json").read_text() == want_json


@given(st.floats(allow_nan=True, allow_infinity=True))
@example(-0.0)
@example(math.nan)
@example(-math.inf)
@example(5e-324)
def test_percent_and_format_agree_at_nine_digits(x):
    assert "%.9g" % x == format(x, ".9g")


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--bh", "0.2", "--ratio-steps", str(cli.MAX_RATIO_STEPS + 1)],
        ["tradeoff", "--bh", "0.2", "--ratio-steps", str(cli.MAX_RATIO_STEPS + 1)],
        ["figures", "--ratio-steps", str(cli.MAX_RATIO_STEPS + 1)],
        # five models at the largest step count: 5 000 000 cells, each model about 62 MB
        ["sweep", "--ratio-steps", str(cli.MAX_RATIO_STEPS), "--models", "jc,fb:1,fb:2,fb:3,fb:4"],
        ["verify", "--only", "thm2", "--grid", str(cli.MAX_VERIFY_GRID + 1)],
        ["figures", "--bh", "nan"],
        ["figures", "--ratio-min", "3", "--ratio-max", "2"],
        ["figures", "--bh", "-1"],
        # 3 * beta_h is finite, the presets' beta_h * ratio_max is not
        ["figures", "--bh", "5e307", "--ratio-steps", "3"],
    ],
)
def test_size_limits_fail_before_allocating(argv, tmp_path, capsys):
    if argv[0] == "figures":
        argv = argv + ["--out", str(tmp_path / "figs")]
    tracemalloc.start()
    try:
        code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("error:")
    # the swept values alone would take 8 MB, the brute-force grid 32 MB
    assert peak < 1_000_000
    assert not (tmp_path / "figs").exists()
