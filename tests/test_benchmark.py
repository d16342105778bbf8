"""The benchmark's smoke mode, run as the benchmark runs it: a changed
verdict vector or a broken metric path fails here, not only in a benchmark
run.  Only reads perfbench/; its work directory is .perfbench_work."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["verify-catenoid", "sweep-enneper", "ingest-helicoid"])
def test_smoke_run_is_correct(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, result
