"""The benchmark's smoke run: its oracles, computed apart from the package,
check one pass of every workload."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_smoke_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = proc.stdout.strip().splitlines()[-1]
    assert '"correct": true' in last
    results = json.loads(last)
    assert results and all(r["correct"] for r in results.values())
