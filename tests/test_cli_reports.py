"""The exit code and exact stdout of `mmulrv run` and `mmulrv compare` on a
fixed set of commands, against the table pinned in tests/cli_reports.json.
A change to how reports are built must leave that table alone unless it
means to change a report."""

import contextlib
import io
import json
from pathlib import Path

import pytest

from mmulrv.cli import main

TABLE = Path(__file__).resolve().parent / "cli_reports.json"
SMALL = ["--guest", "montmul_once", "--set", "modulus=239", "--set", "words=1"]
COMMANDS = {
    "run-BA": ["run", *SMALL, "--config", "BA"],
    "run-CI-AE": ["run", *SMALL, "--config", "CI-AE"],
    "run-CI-PE": ["run", *SMALL, "--config", "CI-PE"],
    "run-CI-PE-table": ["run", *SMALL, "--config", "CI-PE",
                        "--format", "table"],
    # CI-PE stops by budget; under CI-AE only the BA reference does
    "run-modexp128-budget-500": ["run", "--guest", "modexp128",
                                 "--config", "CI-PE", "--budget", "500"],
    "run-modexp128-budget-8000": ["run", "--guest", "modexp128",
                                  "--config", "CI-AE", "--budget", "8000"],
    "run-irq": ["run", "--guest", "irq_sweep_atomic", "--config", "CI-AE",
                "--irq", "200"],
    "run-sweep": ["run", "--guest", "irq_sweep_partial", "--config", "CI-PE",
                  "--sweep", "100:160:20"],
    # an 8-word MMUL on a 4-word engine traps
    "run-trap": ["run", "--guest", "montmul_once", "--config", "CI-AE",
                 "--words", "4"],
    "run-budget-0": ["run", *SMALL, "--config", "CI-AE", "--budget", "0"],
    "compare": ["compare", *SMALL],
    "compare-table": ["compare", *SMALL, "--format", "table"],
    "compare-no-BA": ["compare", *SMALL, "--configs", "CI-AE", "CI-PE"],
    "compare-BA-last": ["compare", *SMALL, "--configs", "CI-PE", "BA"],
    "compare-modexp128-budget-2000": ["compare", "--guest", "modexp128",
                                      "--budget", "2000"],
    "compare-modexp128-budget-2000-table": [
        "compare", "--guest", "modexp128", "--budget", "2000",
        "--format", "table"],
}


def report(argv):
    """The exit code and stdout of `mmulrv <argv>`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def reports():
    """`PYTHONPATH=src python3 tests/test_cli_reports.py >
    tests/cli_reports.json` rewrites the table."""
    return {key: report(argv) for key, argv in COMMANDS.items()}


def test_table_covers_every_command():
    assert set(json.loads(TABLE.read_text())) == set(COMMANDS)


@pytest.mark.parametrize("key", COMMANDS)
def test_cli_report_matches_pin(key):
    assert report(COMMANDS[key]) == json.loads(TABLE.read_text())[key]


if __name__ == "__main__":
    print(json.dumps(reports(), indent=1))
