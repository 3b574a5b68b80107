"""The benchmark's own output check, run as a test.

Each workload that BENCHMARK.json declares, and mbr-bridge, the only
workload that runs the external scorer path, runs once through
``perfbench/run.py --seconds 0``, which makes the fewest invocations the
harness allows.  The harness checks every output against the oracles and
the default seed's outputs against ``perfbench/digests.json``, so a change
that alters any benchmarked output byte fails here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]
] + ["mbr-bridge"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_outputs_are_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0, proc.stdout
    assert (result["correct"], result["failed"]) == (True, 0), proc.stdout + proc.stderr
