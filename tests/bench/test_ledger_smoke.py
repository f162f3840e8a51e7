"""The wall-clock ledger (``benchmarks/ledger``, the repo's perf record)
still runs end to end and passes its own correctness gate."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_ledger_smoke_passes_its_gate():
    result = subprocess.run(
        [sys.executable, "benchmarks/ledger/run.py", "--smoke"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert "gate passed" in result.stdout
