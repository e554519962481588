"""scripts/reproduce_figures.py: the figure CSVs and the reference point."""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from threestroke import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reproduce_figures_writes_the_csvs_and_the_reference_point(tmp_path):
    out_dir = tmp_path / "figs"
    with contextlib.redirect_stdout(io.StringIO()):
        assert load_script().main(["--out", str(out_dir), "--ratio-steps", "5"]) == 0
    written = sorted(path.name for path in out_dir.iterdir())
    assert written == ["fig2.csv", "fig3.csv", "fig4.csv", "fig5.csv", "reference_point.json"]
    for name in written[:3]:  # sweeps keep every ratio; fig5 drops inoperative rows
        assert len((out_dir / name).read_text().splitlines()) == 2 + 5

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(["perf", "--bh", "0.2", "--bc", "0.6"]) == 0
    assert json.loads((out_dir / "reference_point.json").read_text()) == json.loads(
        buffer.getvalue()
    )
