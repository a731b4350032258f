import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from known_instances import (
    A_M1,
    B_M,
    INSTANCE_A,
    UNIONS,
    disjoint_union,
    one_student_markets,
    union_stable_set,
)
from oracles import _dominates_def
from spas import (
    GenParams,
    generate,
    parse_instance_file,
    serialize_instance,
    serialize_matching,
)
from spas.cli import main

DATA = Path(__file__).parent / "data"

A = str(DATA / "instance_a.spa")
B = str(DATA / "instance_b.spa")


# `spas verify` and `spas verify --pairs` stdout on the bundled instances,
# captured before the lattice check dropped its clauses that cannot fail;
# the CLI prints only the first five failures of each report
VERIFY_A = """\
PASS unpopular-projects
PASS full-project
PASS same-lecturer
FAIL preference-reversal: 4 violation(s)
  (M2, M3) s2 left l1 while preferring this side, but l1 does not prefer the other matching
  (M2, M3) s3 left l2 while preferring this side, but l2 does not prefer the other matching
  (M3, M2) s5 left l1 while preferring this side, but l1 does not prefer the other matching
  (M3, M2) s4 left l2 while preferring this side, but l2 does not prefer the other matching
PASS rank-boundaries
PASS lattice-axioms
"""
VERIFY_A_PAIRS = """\
PASS full-project
PASS same-lecturer
FAIL preference-reversal: 4 violation(s)
  (M2, M3) s2 left l1 while preferring this side, but l1 does not prefer the other matching
  (M2, M3) s3 left l2 while preferring this side, but l2 does not prefer the other matching
  (M3, M2) s5 left l1 while preferring this side, but l1 does not prefer the other matching
  (M3, M2) s4 left l2 while preferring this side, but l2 does not prefer the other matching
PASS rank-boundaries
"""
VERIFY_B = """\
PASS unpopular-projects
PASS full-project
PASS same-lecturer
FAIL preference-reversal: 8 violation(s)
  (M3, M4) s2 left l1 while preferring this side, but l1 does not prefer the other matching
  (M3, M4) s4 left l2 while preferring this side, but l2 does not prefer the other matching
  (M3, M6) s1 left l1 while preferring this side, but l1 does not prefer the other matching
  (M3, M6) s3 left l2 while preferring this side, but l2 does not prefer the other matching
  (M5, M6) s1 left l1 while preferring this side, but l1 does not prefer the other matching
PASS rank-boundaries
FAIL lattice-axioms: 2 violation(s)
  dominance reversal fails between members 3 and 2
  dominance reversal fails between members 5 and 4
"""
VERIFY_B_PAIRS = """\
PASS full-project
PASS same-lecturer
FAIL preference-reversal: 8 violation(s)
  (M3, M4) s2 left l1 while preferring this side, but l1 does not prefer the other matching
  (M3, M4) s4 left l2 while preferring this side, but l2 does not prefer the other matching
  (M3, M6) s1 left l1 while preferring this side, but l1 does not prefer the other matching
  (M3, M6) s3 left l2 while preferring this side, but l2 does not prefer the other matching
  (M5, M6) s1 left l1 while preferring this side, but l1 does not prefer the other matching
PASS rank-boundaries
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_instance(self, capsys):
        code, out, _ = run(capsys, "validate", A)
        assert code == 0
        assert out.strip().endswith("VALID")

    def test_invalid_instance(self, capsys):
        code, out, _ = run(capsys, "validate", str(DATA / "instance_a_bad.spa"))
        assert code == 1
        assert "capacity-bound" in out
        assert out.strip().endswith("INVALID")

    def test_warning_does_not_fail(self, capsys, tmp_path):
        text = ("students 1\nprojects 1\nlecturers 1\ns1 :\n"
                "p1 : capacity 1 lecturer l1\nl1 : capacity 1 :\n")
        path = tmp_path / "warn.spa"
        path.write_text(text)
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0
        assert "WARNING" in out


class TestCheck:
    def test_stable(self, capsys):
        code, out, _ = run(capsys, "check", A, str(DATA / "a_m1.match"))
        assert code == 0
        assert out == "STABLE\n"

    def test_unstable_lists_blocking_pairs(self, capsys):
        code, out, _ = run(capsys, "check", A, str(DATA / "unstable_a.match"))
        assert code == 1
        assert "s1 p1 S2 P1" in out.splitlines()

    def test_invalid_matching(self, capsys, tmp_path):
        path = tmp_path / "bad.match"
        path.write_text("s1 p3\n")
        code, out, _ = run(capsys, "check", A, str(path))
        assert code == 1
        assert "unacceptable-pair" in out


class TestSolve:
    def test_student_optimal(self, capsys):
        from spas import serialize_matching

        code, out, _ = run(capsys, "solve", "--optimal", "student", A)
        assert code == 0
        assert out == serialize_matching(A_M1)

    def test_lecturer_optimal_da(self, capsys):
        from spas import serialize_matching

        code, out, _ = run(
            capsys, "solve", "--optimal", "lecturer", B)
        assert code == 0
        assert out == serialize_matching(B_M[6])


class TestEnumerate:
    def test_count_only(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--count-only", B)
        assert code == 0
        assert out == "7\n"

    def test_blocks_are_labelled_and_parseable(self, capsys):
        from spas import parse_matching_file

        code, out, _ = run(capsys, "enumerate", B)
        assert code == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 7
        assert blocks[0].startswith("# M1\n")
        instance = parse_instance_file(Path(B).read_text())
        for i, block in enumerate(blocks):
            body = "\n".join(block.splitlines()[1:]) + "\n"
            assert parse_matching_file(body, instance) == B_M[i]

    def test_size_guard_exit_code(self, capsys, tmp_path):
        big = generate(GenParams(
            students=21, projects=3, lecturers=1, pref_len=(1, 1), seed=5))
        path = tmp_path / "big.spa"
        path.write_text(serialize_instance(big))
        code, _, err = run(capsys, "enumerate", str(path))
        assert code == 3
        assert "guard" in err

    def test_force_flag_accepted(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--count-only", "--force", A)
        assert code == 0
        assert out == "4\n"

    def test_search_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        deep = disjoint_union(INSTANCE_A, one_student_markets(1000))
        path = tmp_path / "deep.spa"
        path.write_text(serialize_instance(deep))
        code, out, _ = run(capsys, "enumerate", "--count-only", "--force", str(path))
        assert code == 0
        assert out == "4\n"


class TestMeetJoin:
    def test_meet_of_table_rows(self, capsys):
        code, out, _ = run(
            capsys, "meet", B, str(DATA / "b_m3.match"), str(DATA / "b_m4.match"))
        assert code == 0
        assert out == (DATA / "b_m2.match").read_text()

    def test_join_of_table_rows(self, capsys):
        code, out, _ = run(
            capsys, "join", B, str(DATA / "b_m3.match"), str(DATA / "b_m4.match"))
        assert code == 0
        assert out == (DATA / "b_m5.match").read_text()

    def test_unstable_argument_rejected(self, capsys):
        code, _, err = run(
            capsys, "meet", A, str(DATA / "unstable_a.match"),
            str(DATA / "a_m2.match"))
        assert code == 1
        assert "not stable" in err


class TestLattice:
    def test_edges_as_text(self, capsys):
        code, out, _ = run(capsys, "lattice", B)
        assert code == 0
        assert out.splitlines() == [
            "M1 -> M2", "M2 -> M3", "M2 -> M4", "M3 -> M5",
            "M4 -> M5", "M4 -> M6", "M5 -> M7", "M6 -> M7",
        ]

    def test_dot_output(self, capsys, tmp_path):
        from spas import build_hasse, emit_dot, enumerate_all
        from known_instances import INSTANCE_B

        dot_path = tmp_path / "lattice.dot"
        code, _, _ = run(capsys, "lattice", "--dot", str(dot_path), B)
        assert code == 0
        expected = emit_dot(build_hasse(INSTANCE_B, enumerate_all(INSTANCE_B)))
        assert dot_path.read_text() == expected


# one incomparable pair of members of each union (indices into
# union_stable_set), so meet and join differ from both
UNION_PAIRS = {"a+b": (9, 10), "a+a+a": (19, 41), "b+b": (16, 17)}
TABLE_ROWS = ("b_m2", "b_m3", "b_m4", "b_m5")


def lattice_cases(tmp: Path) -> dict[str, tuple[str, ...]]:
    """Case name -> argv of every pinned ``lattice``, ``lattice --dot``,
    ``meet``, ``join``, ``verify`` and ``verify --pairs`` run.  The union
    instances and their member matchings are written to ``tmp``; a
    ``--dot`` run writes ``tmp/<case>.dot``."""
    cases: dict[str, tuple[str, ...]] = {}
    for name, (parts, sets) in UNIONS.items():
        i, j = UNION_PAIRS[name]
        instance = disjoint_union(*parts)
        stable = union_stable_set(parts, sets)
        x, y = stable[i], stable[j]
        assert not _dominates_def(instance, x, y)
        assert not _dominates_def(instance, y, x)
        path = tmp / f"{name}.spa"
        path.write_text(serialize_instance(instance))
        files = []
        for k, m in ((i, x), (j, y)):
            files.append(tmp / f"{name}_m{k + 1}.match")
            files[-1].write_text(serialize_matching(m))
        cases[f"lattice_{name}"] = ("lattice", str(path))
        cases[f"lattice_dot_{name}"] = (
            "lattice", "--dot", str(tmp / f"lattice_dot_{name}.dot"), str(path))
        for op in ("meet", "join"):
            cases[f"{op}_{name}"] = (op, str(path), *map(str, files))
        cases[f"verify_{name}"] = ("verify", str(path))
        cases[f"verify_pairs_{name}"] = ("verify", "--pairs", str(path))
    for k, first in enumerate(TABLE_ROWS):
        for second in TABLE_ROWS[k + 1:]:
            for op in ("meet", "join"):
                cases[f"{op}_{first}_{second}"] = (
                    op, B, str(DATA / f"{first}.match"),
                    str(DATA / f"{second}.match"))
    return cases


def lattice_output(tmp: Path, case: str, argv: tuple[str, ...]) -> str:
    """Stdout of one case, or the DOT file it wrote.  The exit code must be
    0, except for ``verify``: every union refutes preference reversal, so
    it must be 1."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    assert code == (argv[0] == "verify"), case
    dot = tmp / f"{case}.dot"
    return dot.read_text() if dot.exists() else out.getvalue()


def lattice_golden(case: str) -> Path:
    return DATA / "golden" / f"{case}.out"


def write_lattice_golden(tmp: str) -> None:
    """Write the output of every case of :func:`lattice_cases`, using the
    scratch directory ``tmp``.  Regenerate with

        PYTHONPATH=src:tests python -c "import test_cli as t; t.write_lattice_golden('/tmp')"
    """
    lattice_golden("").parent.mkdir(exist_ok=True)
    for case, argv in lattice_cases(Path(tmp)).items():
        lattice_golden(case).write_text(lattice_output(Path(tmp), case, argv))


class TestLatticeGolden:
    """Byte-stable ``lattice``, ``lattice --dot``, ``meet`` and ``join``
    output: each case equals its golden file, written before the lattice
    layer moved onto rank tables.  The ``verify`` files were written before
    verification split its checks by component."""

    def test_every_case_has_a_golden_file(self, tmp_path):
        cases = set(lattice_cases(tmp_path))
        files = {p.stem for p in lattice_golden("").parent.glob("*.out")}
        assert cases == files

    def test_outputs_are_byte_identical(self, tmp_path):
        for case, argv in lattice_cases(tmp_path).items():
            text = lattice_output(tmp_path, case, argv)
            assert text == lattice_golden(case).read_text(), case

    def test_dot_run_prints_the_edges(self, capsys, tmp_path):
        cases = lattice_cases(tmp_path)
        for name in UNIONS:
            _, out, _ = run(capsys, *cases[f"lattice_dot_{name}"])
            assert out == lattice_golden(f"lattice_{name}").read_text()


class TestVerify:
    def test_clean_instance_passes(self, capsys, tmp_path):
        from corpus import corpus_instance

        path = tmp_path / "clean.spa"
        path.write_text(serialize_instance(corpus_instance(7, 6, 5, 3)))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

    def test_pairs_only(self, capsys, tmp_path):
        from corpus import corpus_instance

        path = tmp_path / "clean.spa"
        path.write_text(serialize_instance(corpus_instance(7, 6, 5, 3)))
        code, out, _ = run(capsys, "verify", "--pairs", str(path))
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_failing_property_nonzero_exit(self, capsys):
        # the small instance genuinely refutes the universal
        # preference-reversal claim on its swap pair
        code, out, _ = run(capsys, "verify", A)
        assert code == 1
        assert any(line.startswith("FAIL preference-reversal")
                   for line in out.splitlines())

    @pytest.mark.parametrize("path, flags, expected", [
        (A, [], VERIFY_A),
        (A, ["--pairs"], VERIFY_A_PAIRS),
        (B, [], VERIFY_B),
        (B, ["--pairs"], VERIFY_B_PAIRS),
    ], ids=["a", "a-pairs", "b", "b-pairs"])
    def test_pinned_output(self, capsys, path, flags, expected):
        # both instances refute preference reversal, so every run exits 1
        assert run(capsys, "verify", *flags, path)[:2] == (1, expected)


class TestGen:
    def test_deterministic_and_parseable(self, capsys):
        code, out, _ = run(
            capsys, "gen", "--students", "4", "--projects", "3",
            "--lecturers", "2", "--seed", "7")
        assert code == 0
        code2, out2, _ = run(
            capsys, "gen", "--students", "4", "--projects", "3",
            "--lecturers", "2", "--seed", "7")
        assert out == out2
        assert parse_instance_file(out) == generate(
            GenParams(students=4, projects=3, lecturers=2, seed=7))

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "gen.spa"
        code, out, _ = run(
            capsys, "gen", "--students", "3", "--projects", "2",
            "--lecturers", "1", "--seed", "1", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.exists()

    def test_infeasible_params(self, capsys):
        code, _, err = run(
            capsys, "gen", "--students", "2", "--projects", "1",
            "--lecturers", "2", "--seed", "0")
        assert code == 1
        assert "lecturer" in err


class TestUsageAndErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_option(self, capsys):
        assert main(["solve", A]) == 2

    def test_unknown_option(self, capsys):
        assert main(["verify", "--all", A]) == 2

    def test_parse_error_exit(self, capsys, tmp_path):
        path = tmp_path / "broken.spa"
        path.write_text("students x\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 1
        assert "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.spa")
        assert code == 1

    def test_invalid_instance_blocks_other_commands(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", str(DATA / "instance_a_bad.spa"))
        assert code == 1
        assert "capacity-bound" in out
