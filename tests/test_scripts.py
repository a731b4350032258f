"""The scripts under ``scripts/`` run from a checkout and fail cleanly on
arguments they cannot serve."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spas

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SWEEP = SCRIPTS / "sweep_stable_counts.py"
COUNT = SCRIPTS / "count_code_lines.py"
MUTANTS = SCRIPTS / "mutants.py"


def run_script(script: Path, *argv: str) -> subprocess.CompletedProcess:
    src = str(Path(spas.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(script), *argv], env=env, capture_output=True,
        text=True, stdin=subprocess.DEVNULL, timeout=120,
    )


def run_sweep(*argv: str) -> subprocess.CompletedProcess:
    return run_script(SWEEP, *argv)


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


# nine code lines: the import, the def, the four lines of the call that
# are not blank, the class line and the two lines of a string that is not
# a docstring
COUNTED = '''\
"""Module docstring
over two lines."""

# a comment
import os  # trailing comment


def f(x):
    """One-line docstring."""
    # a comment inside
    return os.path.join(
        x,

        "y",
    )


class C:
    """Class
    docstring."""

    value = """not a docstring,
    but a string on two lines"""
'''


def test_count_code_lines_per_file_and_total(tmp_path):
    counted = tmp_path / "counted.py"
    counted.write_text(COUNTED)
    package = tmp_path / "package"
    package.mkdir()
    (package / "b.py").write_text("x = 1\n")
    (package / "a.py").write_text('"""Only a docstring."""\n')
    (package / "notes.txt").write_text("not python\n")
    proc = run_script(COUNT, str(counted), str(package))
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["9", str(counted)],
        ["0", str(package / "a.py")],
        ["1", str(package / "b.py")],
        ["10", "total"],
    ]


def test_mutants_reports_stale_and_killed(tmp_path):
    # one test file, not the suite: the script runs pytest on the paths it
    # is given, in a copy of the repository with the mutant applied
    table = tmp_path / "table.json"
    table.write_text(json.dumps([
        dict(name="stale", file="src/spas/stability.py",
             old="text that is not in the file", new="", reason="stale"),
        dict(name="inclusive", file="src/spas/stability.py",
             old="if ranks[s] < bound:", new="if ranks[s] <= bound:",
             reason="P3 and P4 need strict lecturer preference"),
    ]))
    proc = run_script(MUTANTS, "--table", str(table), "tests/test_stability.py")
    assert proc.stderr == ""
    assert proc.returncode == 1
    stale, killed = map(json.loads, proc.stdout.splitlines())
    assert (stale["name"], stale["result"]) == ("stale", "stale")
    assert (killed["name"], killed["result"]) == ("inclusive", "killed")
    assert killed["killed_by"].startswith("tests/test_stability.py::")
