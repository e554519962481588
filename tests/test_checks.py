"""The verify checks: verify prints their records, and the seeded checks pass at any seed."""

import pytest
from hypothesis import given, settings, strategies as st

from threestroke import checks, cli


@pytest.mark.parametrize("seed", [0, 1])
def test_verify_prints_the_records_lines(seed, capsys):
    records = [record for check in checks.CHECKS.values() for record in check(seed, 64)]
    code = cli.main(["verify", "--seed", str(seed), "--grid", "64"])
    assert capsys.readouterr().out == "".join(record.line + "\n" for record in records)
    failed = any(record.level == "FAIL" for record in records)
    assert code == (cli.EXIT_VERIFY if failed else cli.EXIT_OK)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_seeded_checks_pass_at_any_seed(seed):
    (thm2,) = checks.CHECKS["thm2"](seed, 200)
    (carnot,) = checks.CHECKS["carnot"](seed, 200)
    assert thm2.level == carnot.level == "PASS", (thm2.line, carnot.line)
    assert thm2.worst <= thm2.tol
