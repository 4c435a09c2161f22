"""The scripts under scripts/ run against the package as it is.

A script that imports a name the package no longer has fails here, not at
its next manual run.
"""

import ast
import math
import subprocess

from conftest import MICRO_MUTUAL_F_OF_Q, ROOT, run_python


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return run_python(ROOT / "scripts" / name, *args)


def test_estimator_recovery_runs():
    result = run_script("estimator_recovery.py", "--seeds", "2", "--length", "1024")
    assert result.returncode == 0, result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split()[:2] == ["planted", "H"]
    assert [float(row.split()[0]) for row in rows] == [0.5, 0.6, 0.75, 0.85]
    assert all(math.isfinite(float(v)) for row in rows for v in row.split())


def test_verify_micro_corpus_runs():
    result = run_script("verify_micro_corpus.py")
    assert result.returncode == 0, result.stderr
    (line,) = [row for row in result.stdout.splitlines() if row.startswith("F[n(Q)]:")]
    assert ast.literal_eval(line.split(":", 1)[1].strip()) == [
        f"{v:.12g}" for v in MICRO_MUTUAL_F_OF_Q
    ]
