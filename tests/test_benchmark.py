"""The pipeline benchmark still drives the package it measures."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    # the traced runs wrap package attributes by name, so a renamed
    # function fails here rather than as failed searches in a benchmark run
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
