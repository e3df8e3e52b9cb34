"""Smoke tests of the benchmark harness: one short run of a workload each.

Runs `perfbench/run.py` the way the benchmark does, from the root of the
checkout, and asserts only that the run checked its outputs and that no
operation failed. There is no timing gate.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_workload(name: str) -> None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr


def test_k3_search_runs_correctly():
    _run_workload("k3-search")


def test_k4_bulk_runs_correctly():
    _run_workload("k4-bulk")


def test_k3_roundtrip_runs_correctly():
    _run_workload("k3-roundtrip")
