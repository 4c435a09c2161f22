"""The scripts under scripts/ run against the package as it is.

A script that imports a name the package no longer has fails here, not at
its next manual run.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=path))


def test_estimator_recovery_runs():
    result = run_script("estimator_recovery.py", "--seeds", "2", "--length", "1024")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split()[:2] == ["planted", "H"]
    assert [float(row.split()[0]) for row in rows] == [0.5, 0.6, 0.75, 0.85]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split())
