"""Pytest wiring: import paths, and one PASS/FAIL summary line per acceptance check."""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
# Scorer doubles, scripts and `python -m mbrforge.cli` run as child processes;
# they import the same uninstalled source tree as the tests.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, [os.environ.get("PYTHONPATH")])]
)

_ACCEPTANCE_FILE = "test_acceptance.py"
_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if _ACCEPTANCE_FILE not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _results[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_results):
        outcome = _results[nodeid]
        label = "PASS" if outcome == "passed" else "FAIL"
        name = nodeid.rsplit("::", 1)[-1]
        terminalreporter.write_line(f"{label} {name}")
