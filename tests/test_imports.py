"""What importing ``spas`` loads: the lazy package namespace, the modules
each CLI command pulls in, and the ``python -m spas`` entry module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spas

DATA = Path(__file__).parent / "data"
A = str(DATA / "instance_a.spa")
B = str(DATA / "instance_b.spa")

PUBLIC = [
    "BlockingPair", "DEFAULT_SIZE_GUARD", "EMPTY_MATCHING", "GenParams",
    "HasseDiagram", "Instance", "LecturerComparison", "Matching", "ParseError",
    "PropertyReport", "RawInstance", "SizeGuardError", "StableSet",
    "ValidationReport", "Violation", "build_hasse", "build_instance",
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

# Runs one command in a fresh interpreter, then prints the loaded spas
# modules as the last line of stderr.
CHILD = """
import sys
from spas.cli import main
main(sys.argv[1:])
print(" ".join(m for m in sys.modules if m.split(".")[0] == "spas"),
      file=sys.stderr)
"""


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_loads_only_its_layers(command):
    argv, expected = COMMANDS[command]
    src = str(Path(spas.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv], env=env, capture_output=True,
        text=True, stdin=subprocess.DEVNULL, timeout=60, check=True,
    )
    assert set(proc.stderr.splitlines()[-1].split()) == expected


def test_importing_main_module_does_not_run_the_cli():
    module = importlib.import_module("spas.__main__")
    assert module.main is spas.cli.main
