"""Regenerate every figure-data CSV plus a reference-point summary.

Thin driver over the command-line interface so the whole data set behind the
plots comes out of one command:

    python3 scripts/reproduce_figures.py --out figures-data
"""

import argparse
import contextlib
import io
import pathlib
import sys

from threestroke import cli


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="figures-data", help="output directory")
    parser.add_argument("--bh", type=float, default=0.2, help="hot-bath beta times the splitting")
    parser.add_argument("--ratio-steps", type=int, default=200, help="points per sweep")
    args = parser.parse_args(argv)

    code = cli.main(
        [
            "figures",
            "--out", args.out,
            "--bh", str(args.bh),
            "--ratio-steps", str(args.ratio_steps),
        ]
    )
    if code != 0:
        return code

    # one closed-form reference point next to the sweeps, for spot checks, at
    # beta_c = 3 beta_h to 15 digits: 0.6 for 0.2, where 3 * 0.2 is 0.6000000000000001
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(["perf", "--bh", str(args.bh), "--bc", f"{3 * args.bh:.15g}"])
    if code != 0:
        return code
    target = pathlib.Path(args.out) / "reference_point.json"
    target.write_text(buffer.getvalue())
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
