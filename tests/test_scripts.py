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


def test_every_module_has_its_test_file():
    # scripts/mutants.py runs tests/test_<stem>.py first against a mutant
    # of src/spas/<stem>.py; fileio's tests, named before that rule, are in
    # tests/test_io.py, and this pins that one exception
    tests = Path(__file__).resolve().parent
    stems = {p.stem for p in Path(spas.__file__).parent.glob("*.py")}
    missing = sorted(stem for stem in stems - {"__init__", "__main__"}
                     if not (tests / f"test_{stem}.py").is_file())
    assert missing == ["fileio"]


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


@pytest.mark.parametrize("tests", [
    ("tests/test_acceptance.py", "tests/test_stability.py"),
    ("tests/test_acceptance.py", "tests"),
], ids=["files", "directory"])
def test_mutants_run_the_module_test_file_first(tmp_path, tests):
    # tests/test_acceptance.py kills this mutant too, and is listed first
    table = tmp_path / "table.json"
    table.write_text(json.dumps([
        dict(name="inclusive", file="src/spas/stability.py",
             old="if ranks[s] < bound:", new="if ranks[s] <= bound:",
             reason="P3 and P4 need strict lecturer preference"),
    ]))
    proc = run_script(MUTANTS, "--table", str(table), *tests)
    assert (proc.returncode, proc.stderr) == (0, "")
    (killed,) = map(json.loads, proc.stdout.splitlines())
    assert killed["result"] == "killed"
    assert killed["killed_by"].startswith("tests/test_stability.py::")


BENCH_RECORD = SCRIPTS / "bench_record.py"

# stands in for bench/run.py: prints the env line and the JSON result line
# that bench/run.py ends with, and a wall time of SCALE times the seed, so
# each side and seed reads its own value
STUB_RUNNER = '''\
import json, sys
SCALE = {scale}
opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, trace = int(opts["--seed"]), opts["--trace"]
print("# " + opts["--workload"])
print("env " + json.dumps({{"python": "stub", "seed": seed, "trace": int(trace)}}))
metrics = ({{"verification.run_all_checks.busy_s": {{"value": SCALE, "unit": "s"}}}}
           if trace == "1" else {{"wall_s": {{"value": SCALE * seed, "unit": "s"}}}})
print(json.dumps({{"correct": SCALE > 0, "attempted": 4, "failed": 0,
                  "metrics": metrics}}))
'''


def stub_repository(tmp_path: Path, parent_scale: float, change_scale: float):
    """A git repository holding the script and a stub ``bench/run.py``:
    committed with ``parent_scale``, and ``change_scale`` in the working
    tree.  Returns the script's path and the commit."""
    repo = tmp_path / "repo"
    (repo / "bench").mkdir(parents=True)
    (repo / "scripts").mkdir()
    script = repo / "scripts" / BENCH_RECORD.name
    script.write_text(BENCH_RECORD.read_text())
    runner = repo / "bench" / "run.py"
    runner.write_text(STUB_RUNNER.format(scale=parent_scale))

    def git(*argv: str) -> str:
        return subprocess.run(
            ["git", "-C", str(repo), "-c", "user.name=stub",
             "-c", "user.email=stub@example.org", "-c", "commit.gpgsign=false",
             *argv], check=True, capture_output=True, text=True).stdout.strip()

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    runner.write_text(STUB_RUNNER.format(scale=change_scale))
    return script, git("rev-parse", "HEAD")


def test_bench_record_alternates_the_sides_and_writes_the_file(tmp_path):
    script, commit = stub_repository(tmp_path, 2.0, 1.0)
    proc = run_script(script, "--pr", "7", "--parent", "HEAD", "--seconds", "0",
                      "--first-seed", "3", "demo=3")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((script.parent.parent / "BENCH_7.json").read_text())
    assert record["pr"] == 7
    # the working tree's runner differs from HEAD's
    assert record["commits"] == {"parent": commit, "change": commit + "-dirty"}
    # the seed and the trace flag vary between runs, so only the host
    # fields stay
    assert record["env"] == {"python": "stub"}
    demo = record["workloads"]["demo"]
    assert demo["seeds"] == [3, 4, 5]
    assert demo["first"] == ["parent", "change", "parent"]
    for side, scale in (("parent", 2.0), ("change", 1.0)):
        got = demo[side]
        assert got["commands"] == [
            f"{Path(sys.executable).name} bench/run.py --workload demo "
            f"--seed {seed} --seconds 0 --trace 0" for seed in (3, 4, 5)]
        assert (got["correct"], got["attempted"], got["failed"]) == (
            True, [4, 4, 4], [0, 0, 0])
        assert got["metrics"] == {"wall_s": {
            "unit": "s", "runs": [scale * 3, scale * 4, scale * 5],
            "median": scale * 4}}
        assert got["traced"] == {
            "command": f"{Path(sys.executable).name} bench/run.py --workload "
                       f"demo --seed 3 --seconds 0 --trace 1",
            "correct": True, "attempted": 4, "failed": 0,
            "per_layer": {"verification.run_all_checks.busy_s": {
                "value": scale, "unit": "s"}}}
    # the runs went in alternating order: parent first in even pairs
    sides = [line.split(": ")[0].split()[-1] for line in proc.stderr.splitlines()
             if line.startswith("demo seed ")]
    assert sides == ["parent", "change", "change", "parent", "parent", "change"]


def test_bench_record_reports_an_incorrect_side(tmp_path):
    # a stub whose scale is 0 reports "correct": false
    script, _ = stub_repository(tmp_path, 1.0, 0.0)
    out = tmp_path / "bench.json"
    proc = run_script(script, "--pr", "1", "--parent", "HEAD", "--seconds", "0",
                      "--out", str(out), "demo=1")
    assert proc.returncode == 0, proc.stderr
    demo = json.loads(out.read_text())["workloads"]["demo"]
    assert (demo["parent"]["correct"], demo["change"]["correct"]) == (True, False)


def test_bench_record_stops_on_a_run_without_a_result(tmp_path):
    script, _ = stub_repository(tmp_path, 1.0, 1.0)
    (script.parent.parent / "bench" / "run.py").write_text("import sys; sys.exit(3)\n")
    proc = run_script(script, "--pr", "1", "--parent", "HEAD", "--seconds", "0",
                      "demo=1")
    assert proc.returncode == 1
    assert "exited 3 without a result" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (script.parent.parent / "BENCH_1.json").exists()
