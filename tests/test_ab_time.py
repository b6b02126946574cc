"""Smoke test of the timing instrument: ``tools/ab_time.py`` loads one
tree as both of its sides, times a packaged preset over two pairs and
finds the two sides' final states bit-equal.  It drives
``integrators.integrate`` directly, so a change to its signature shows
here first."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_time_runs_one_tree_against_itself():
    proc = subprocess.run(
        [sys.executable, "tools/ab_time.py", "src", "src", "fig2-desk", "0", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    assert "final states bit-equal: yes" in proc.stdout.splitlines(), proc.stdout
