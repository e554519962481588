"""Smoke test of the benchmark: every workload at tiny sizes, traced and not.

    python3 perfbench/smoke.py

Checks that each run reports correct results and every metric BENCHMARK.json
names. It is a plain script, outside the pytest suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run  # pins the BLAS threads before numpy loads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    run.import_package()
    import workloads

    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload, "--seed", "1", "--seconds", "0.5", "--trace", str(trace)]
            with contextlib.redirect_stdout(io.StringIO()) as out:
                run.main(argv, sizes=workloads.TINY)
            result = json.loads(out.getvalue().splitlines()[-1])
            wanted = {m["name"] for m in SPEC[kind]}
            missing = sorted(wanted - set(result["metrics"]))
            unexpected = sorted(set(result["metrics"]) - wanted)
            empty = sorted(k for k, v in result["metrics"].items() if v["value"] is None)
            status = "ok"
            if missing or unexpected or empty or not result["correct"] or result["attempted"] < 1:
                status = f"FAIL missing={missing} unexpected={unexpected} empty={empty} " \
                         f"correct={result['correct']} attempted={result['attempted']}"
                problems.append(f"{workload} trace={trace}")
            print(f"{workload:<7} trace={trace} {status}")
    print("smoke:", "FAIL " + ", ".join(problems) if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
