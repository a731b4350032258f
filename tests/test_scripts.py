"""The scripts under ``scripts/`` run from a checkout and fail cleanly on
arguments they cannot serve."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import spas

SWEEP = Path(__file__).resolve().parent.parent / "scripts" / "sweep_stable_counts.py"


def run_sweep(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(spas.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(SWEEP), *argv], env=env, capture_output=True,
        text=True, stdin=subprocess.DEVNULL, timeout=120,
    )


@pytest.mark.parametrize("students", ["0", "21"])
def test_sweep_rejects_students_outside_the_guard(students):
    # a draw above the guard would raise SizeGuardError mid-sweep
    proc = run_sweep("--seeds", "30", "--students", students)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "enumeration size guard, DEFAULT_SIZE_GUARD = 20" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_runs_at_the_guard():
    proc = run_sweep("--seeds", "5", "--students", "20")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("instances: 5\n")
    assert proc.stderr == ""


@pytest.mark.parametrize("flag, value", [
    ("--seeds", "-1"), ("--projects", "0"), ("--lecturers", "0"),
])
def test_sweep_rejects_counts_below_one(flag, value):
    # --projects 0 and --lecturers 0 used to die in randrange, and
    # --seeds -1 used to report "instances: -1"
    proc = run_sweep("--seeds", "3", flag, value)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"argument {flag}: must be at least 1, got {value}" in proc.stderr
    assert "Traceback" not in proc.stderr
