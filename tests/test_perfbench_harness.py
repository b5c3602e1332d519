"""The benchmark harness runs against the current package."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["open-census", "closed-census", "verify-suites"])
def test_trace_run_is_correct(workload):
    # A trace run takes no speed samples, so its exit code and its
    # `correct` flag depend only on the harness's set-up and payload checks:
    # an API the harness calls (tllab.hamiltonian, a dense
    # transfer_matrix(...).matrix, the suites, ...) that breaks fails here.
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", "1", "--seconds", "0.01", "--trace", "1",
    ]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stdout[-2000:]
