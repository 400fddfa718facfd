"""Smoke test of the benchmark script: it binds names across the library
(model.cells[0], masked_layers(), the head's forward/backward, ...), so a
change that breaks one of them fails here first."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload,trace", [("default", "0"), ("cpu_mode", "1")])
def test_bench_runs_clean(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout[-2000:]
    assert result["attempted"] > 0
