"""Smoke runs of `perfbench/run.py` in its traced mode.

A traced run exits 1 when a layer its workload requires recorded no calls
(for example when plans stop being made inside a traced pass) or when the
self times do not add up, so these runs guard the layer-coverage check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["four-step", "blocks", "krylov-mc", "detinv"])
def test_traced_benchmark_run(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
