"""The benchmark's own checks, run on this checkout.

bench/tracer.py binds the functions it hooks by parameter name, so a
change to src/ can break a traced benchmark pass while every other test
passes.  Each workload of BENCHMARK.json runs one short traced pass here
(about 2 s each on a 2-core host), and its rows and counters must pass
the checks of bench/workloads.py.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_benchmark_pass_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0 and lines, proc.stderr[-2000:]
    result = json.loads(lines[-1])
    assert result["correct"] is True, lines[-1]
    assert result["failed"] == 0, lines[-1]
