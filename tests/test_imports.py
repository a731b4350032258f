"""What importing ``spas`` loads: the lazy package namespace, the modules
each CLI command pulls in, and the ``python -m spas`` entry module; and the
help and usage errors of argparse, which no well-formed command loads."""

import argparse
import gc
import importlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import spas

DATA = Path(__file__).parent / "data"
A = str(DATA / "instance_a.spa")
B = str(DATA / "instance_b.spa")

PUBLIC = [
    "BlockingPair", "DEFAULT_SIZE_GUARD", "EMPTY_MATCHING", "GenParams",
    "HasseDiagram", "Instance", "LecturerComparison", "Matching", "ParseError",
    "PropertyReport", "RawInstance", "SizeGuardError", "ValidationReport",
    "Violation", "build_hasse", "build_instance",
    "check_lattice_axioms", "check_lemma_pref_reversal",
    "check_lemma_rank_boundaries", "check_lemma_same_lecturer",
    "check_prop_full_project", "check_unpopular_projects", "emit_dot",
    "enumerate_all", "find_blocking_pairs", "generate", "is_stable",
    "is_valid_matching", "join", "join_all", "lecturer_compare",
    "lecturer_dominates", "meet", "meet_all", "parse_instance_file",
    "parse_matching_file", "parse_raw_instance", "run_all_checks",
    "serialize_instance", "serialize_matching", "solve_lecturer_optimal",
    "solve_student_optimal", "stable_pairs", "student_dominates",
    "validate_raw",
]


class TestLazyNamespace:
    def test_all_is_unchanged(self):
        assert spas.__all__ == PUBLIC

    def test_every_public_name_resolves(self):
        for name in PUBLIC:
            value = getattr(spas, name)
            module = sys.modules[f"spas.{spas._SUBMODULE[name]}"]
            assert value is getattr(module, name)

    def test_star_import(self):
        namespace: dict = {}
        exec("from spas import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert namespace["meet"] is spas.meet

    def test_dir_lists_the_public_names(self):
        assert set(PUBLIC) <= set(dir(spas))
        assert "__version__" in dir(spas)

    def test_unknown_names_raise_attribute_error(self):
        assert not hasattr(spas, "SolveMethod")
        with pytest.raises(AttributeError, match="SolveMethod"):
            spas.SolveMethod


BASE = {"spas", "spas.cli", "spas.fileio", "spas.model"}
ENUMERATE = BASE | {"spas.enumeration", "spas.solvers"}

COMMANDS = {
    "validate": (["validate", A], BASE),
    "check": (["check", A, str(DATA / "a_m1.match")], BASE | {"spas.stability"}),
    "solve": (["solve", "--optimal", "lecturer", B], BASE | {"spas.solvers"}),
    "enumerate": (["enumerate", B], ENUMERATE),
    "lattice": (["lattice", B], ENUMERATE | {"spas.lattice", "spas.stability"}),
    "verify": (["verify", B], ENUMERATE | {"spas.verification"}),
    "meet": (["meet", B, str(DATA / "b_m2.match"), str(DATA / "b_m3.match")],
             BASE | {"spas.lattice", "spas.stability"}),
    "join": (["join", B, str(DATA / "b_m4.match"), str(DATA / "b_m5.match")],
             BASE | {"spas.lattice", "spas.stability"}),
    "gen": (["gen", "--students", "4", "--projects", "3", "--lecturers", "2",
             "--seed", "1"], BASE | {"spas.generator"}),
}

# Runs one command in a fresh interpreter, then prints the loaded modules
# as the last line of stderr.
CHILD = """
import sys
from spas.cli import main
main(sys.argv[1:])
print(" ".join(sys.modules), file=sys.stderr)
"""


def python(*argv: str, **env: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this checkout's ``src`` on the path."""
    src = str(Path(spas.__file__).resolve().parent.parent)
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True,
        stdin=subprocess.DEVNULL, timeout=60,
    )


def loaded_modules(child: str, *argv: str) -> set[str]:
    """Module names a fresh interpreter running ``child`` lists on the last
    line of its stderr.  It runs without ``site`` (``-S``), so that no
    ``.pth`` file loads anything before the command does."""
    proc = python("-S", "-c", child, *argv)
    proc.check_returncode()
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_its_layers(command):
    argv, expected = COMMANDS[command]
    loaded = loaded_modules(CHILD, *argv)
    assert {m for m in loaded if m.split(".")[0] == "spas"} == expected


# modules that cost start-up and that no command needs; argparse, with the
# gettext and locale it imports, is for help and usage errors only
HEAVY = {"dataclasses", "inspect", "pathlib", "typing",
         "argparse", "gettext", "locale"}


@pytest.fixture(scope="module")
def bare_heavy() -> set[str]:
    """What of HEAVY a bare interpreter already loads here, so that it
    does not count against a command."""
    return HEAVY & loaded_modules(
        "import sys; print(' '.join(sys.modules), file=sys.stderr)")


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_no_heavy_stdlib_module(command, bare_heavy):
    argv, _ = COMMANDS[command]
    assert HEAVY & loaded_modules(CHILD, *argv) <= bare_heavy


def test_importing_main_module_does_not_run_the_cli():
    module = importlib.import_module("spas.__main__")
    assert module.run is spas.cli.run
    assert gc.isenabled()  # run, which turns the collector off, did not run


def parser_written_out() -> argparse.ArgumentParser:
    """The parser as it was written, call by call, before the grammar moved
    into one table; ``spas`` must print its help byte for byte."""
    parser = argparse.ArgumentParser(
        prog="spas",
        description="Student-project allocation with lecturer preferences: "
                    "stability checking, optimal solvers, enumeration, and "
                    "the lattice of stable matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("instance")
    p = sub.add_parser("check", help="report stability of a matching")
    p.add_argument("instance")
    p.add_argument("matching")
    p = sub.add_parser("solve", help="student- or lecturer-optimal matching")
    p.add_argument("--optimal", required=True, choices=("student", "lecturer"))
    p.add_argument("instance")
    p = sub.add_parser("enumerate", help="all stable matchings")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--force", action="store_true", help="ignore the size guard")
    p.add_argument("instance")
    for name in ("meet", "join"):
        p = sub.add_parser(name, help=f"{name} of two stable matchings")
        p.add_argument("instance")
        p.add_argument("m1")
        p.add_argument("m2")
    p = sub.add_parser("lattice", help="Hasse diagram of the stable set")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT file")
    p.add_argument("--force", action="store_true", help="ignore the size guard")
    p.add_argument("instance")
    p = sub.add_parser("verify", help="run the structural property checks")
    p.add_argument("--pairs", action="store_true", help="pairwise checks only")
    p.add_argument("--force", action="store_true", help="ignore the size guard")
    p.add_argument("instance")
    p = sub.add_parser("gen", help="generate a pseudo-random instance")
    p.add_argument("--students", type=int, required=True)
    p.add_argument("--projects", type=int, required=True)
    p.add_argument("--lecturers", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--out", metavar="PATH")
    return parser


@pytest.mark.parametrize("command", ["", *COMMANDS])
def test_help_is_unchanged(command, monkeypatch):
    argv = [command, "--help"] if command else ["--help"]
    monkeypatch.setenv("COLUMNS", "80")
    expected = io.StringIO()
    with redirect_stdout(expected), pytest.raises(SystemExit):
        parser_written_out().parse_args(argv)
    proc = python("-m", "spas", *argv, COLUMNS="80")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected.getvalue(), "")


def test_usage_error_names_the_missing_option():
    proc = python("-m", "spas", "solve", "x.spa")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--optimal" in proc.stderr
