import gc
import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from known_instances import (
    A_M1,
    B_M,
    INSTANCE_A,
    INSTANCE_B,
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
import spas
from spas.cli import _COMMANDS, _fast_args, build_parser, main

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
  (M4, M3) dominance reversal fails
  (M6, M5) dominance reversal fails
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


# The golden commands on the bundled instances.  ``spas.cli.run`` leaves
# the cyclic collector off for the whole process, so none may leave
# cyclic garbage; only help and usage errors, which build argparse's
# parser, leave some (382 objects for ``spas solve x.spa`` on CPython 3.11).
GOLDEN_COMMANDS = [
    ("validate", A),
    ("validate", str(DATA / "instance_a_bad.spa")),
    ("check", A, str(DATA / "a_m1.match")),
    ("check", A, str(DATA / "unstable_a.match")),
    ("solve", "--optimal", "student", A),
    ("solve", "--optimal", "lecturer", B),
    ("enumerate", B),
    ("enumerate", "--count-only", B),
    ("lattice", B),
    ("lattice", "--dot", "{tmp}/b.dot", B),
    ("verify", B),
    ("verify", "--pairs", A),
    ("meet", B, str(DATA / "b_m2.match"), str(DATA / "b_m3.match")),
    ("join", B, str(DATA / "b_m4.match"), str(DATA / "b_m5.match")),
    ("gen", "--students", "4", "--projects", "3", "--lecturers", "2", "--seed", "1"),
]


def garbage_after(argv: list[str], enabled: bool) -> int:
    """What ``gc.collect()`` finds after ``main(argv)`` runs with the cyclic
    collector on or off, having checked that ``main`` left the collector
    and its freeze count as it found them.  The caller's setting is
    restored."""
    gc.collect()
    frozen = gc.get_freeze_count()
    was = gc.isenabled()
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            main(argv)
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        return gc.collect()
    finally:
        if was:
            gc.enable()
        else:
            gc.disable()


# Runs spas.cli.run on its arguments in a fresh interpreter.  The atexit
# hook runs after run's SystemExit and prints the collector's state.
RUN_CHILD = """
import atexit, gc, sys
atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count(), file=sys.stderr))
from spas.cli import run
run()
"""


class TestCollector:
    @pytest.mark.parametrize("argv", GOLDEN_COMMANDS,
                             ids=lambda argv: " ".join(Path(w).name for w in argv))
    def test_no_command_leaves_cyclic_garbage(self, argv, tmp_path):
        argv = [word.replace("{tmp}", str(tmp_path)) for word in argv]
        garbage_after(argv, enabled=True)  # also loads the command's layers
        assert garbage_after(argv, enabled=False) == 0

    def test_usage_error_keeps_the_collector_setting(self):
        garbage_after(["solve", "x.spa"], enabled=True)
        garbage_after(["solve", "x.spa"], enabled=False)

    @pytest.mark.parametrize("argv", [("validate", A), ("verify", B), ("solve", "x.spa")],
                             ids=lambda argv: argv[0])
    def test_run_exits_with_the_collector_off_and_the_heap_frozen(self, argv, capsys):
        code, out, _ = run(capsys, *argv)
        env = dict(os.environ, PYTHONPATH=str(Path(spas.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-c", RUN_CHILD, *argv], env=env,
            capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=60)
        enabled, frozen = proc.stderr.splitlines()[-1].split()
        assert (proc.returncode, proc.stdout) == (code, out)
        assert enabled == "False"
        assert int(frozen) > 0


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

    def test_reads_utf8_whatever_the_locale(self, tmp_path):
        path = tmp_path / "cafe.spa"
        path.write_bytes("# café\n".encode() + Path(A).read_bytes())
        # an ASCII locale with neither C-locale coercion nor UTF-8 mode
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(spas.__file__).resolve().parent.parent))
        proc = subprocess.run(
            [sys.executable, "-m", "spas", "validate", str(path)], env=env,
            capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "VALID\n", "")


    @pytest.mark.parametrize("argv, text, place", [
        # a Latin-1 comment line before an instance
        (("validate", "{}"), b"# caf\xe9\n" + Path(A).read_bytes(), "line 1, column 6"),
        (("solve", "--optimal", "student", "{}"), b"# caf\xe9\n" + Path(A).read_bytes(),
         "line 1, column 6"),
        # a matching file: the column counts the two-byte "ü" as one
        (("check", A, "{}"), b"s1 p1\n# \xc3\xbc\xe9\n", "line 2, column 4"),
        # only "\n", "\r\n" and "\r" end a line, as the parsers read it
        (("validate", "{}"), b"# a\x0cb \xe9\n" + Path(A).read_bytes(),
         "line 1, column 7"),
        (("check", A, "{}"), b"s1 p1\r# \xe9\r", "line 2, column 3"),
    ], ids=["validate", "solve", "check", "form-feed", "lone-cr"])
    def test_bytes_that_are_not_utf8_are_placed(self, capsys, tmp_path, argv, text, place):
        path = tmp_path / "latin1.txt"
        path.write_bytes(text)
        code, out, err = run(capsys, *(arg.format(path) for arg in argv))
        assert (code, out) == (1, "")
        assert err == f"ERROR {place}: byte 0xe9 in {path} is not UTF-8\n"

    @pytest.mark.parametrize("argv", [
        ("validate", A),
        ("solve", "--optimal", "student", A),
        ("check", A, str(DATA / "a_m1.match")),
    ], ids=["validate", "solve", "check"])
    def test_a_byte_order_mark_is_ignored(self, capsys, tmp_path, argv):
        # as Windows editors write UTF-8: the same exit code and stdout as
        # the plain files
        marked = []
        for arg in argv:
            if arg.startswith(str(DATA)):
                path = tmp_path / Path(arg).name
                path.write_bytes(b"\xef\xbb\xbf" + Path(arg).read_bytes())
                arg = str(path)
            marked.append(arg)
        plain = run(capsys, *argv)
        assert plain[0] == 0
        assert run(capsys, *marked)[:2] == plain[:2]

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
    def test_crlf_and_lone_cr_files_read_as_the_originals(
            self, capsys, tmp_path, newline):
        names = ("instance_a.spa", "instance_a_bad.spa", "a_m1.match",
                 "unstable_a.match")
        for name in names:
            (tmp_path / name).write_bytes(
                (DATA / name).read_bytes().replace(b"\n", newline))
        for argv in (("validate", "instance_a.spa"),
                     ("validate", "instance_a_bad.spa"),
                     ("check", "instance_a.spa", "a_m1.match"),
                     ("check", "instance_a.spa", "unstable_a.match")):
            plain = run(capsys, argv[0], *(str(DATA / a) for a in argv[1:]))
            copy = run(capsys, argv[0], *(str(tmp_path / a) for a in argv[1:]))
            assert copy == plain

    def test_bytes_after_a_byte_order_mark_are_placed(self, capsys, tmp_path):
        # the mark is not counted in the column
        path = tmp_path / "latin1.spa"
        path.write_bytes(b"\xef\xbb\xbf# caf\xe9\n" + Path(A).read_bytes())
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (1, "")
        assert err == f"ERROR line 1, column 6: byte 0xe9 in {path} is not UTF-8\n"


class TestCheck:
    def test_stable(self, capsys):
        code, out, _ = run(capsys, "check", A, str(DATA / "a_m1.match"))
        assert code == 0
        assert out == "STABLE\n"

    def test_unstable_lists_blocking_pairs(self, capsys):
        code, out, _ = run(capsys, "check", A, str(DATA / "unstable_a.match"))
        assert code == 1
        assert out == (
            "s1 p1 S2 P1\ns2 p3 S1 P1\ns3 p1 S1 P1\ns3 p3 S1 P1\n"
            "s4 p4 S1 P1\ns4 p5 S1 P1\ns5 p4 S1 P1\ns5 p5 S1 P1\n")

    def test_invalid_matching(self, capsys, tmp_path):
        # two rules broken: the whole report, in report order, not only the
        # first violation that the stability check raises on
        path = tmp_path / "bad.match"
        path.write_text("s1 p3\ns2 p1\ns3 p1\n")
        code, out, err = run(capsys, "check", A, str(path))
        assert code == 1
        assert out == (
            "ERROR unacceptable-pair [s1,p3]: p3 is not on the list of s1\n"
            "ERROR unacceptable-pair [s2,p1]: p1 is not on the list of s2\n"
            "ERROR project-capacity [p1]: 2 students assigned, capacity is 1\n")
        assert err == ""


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

    # every command that enumerates honours the guard and --force
    @pytest.mark.parametrize("command", ["enumerate", "lattice", "verify"])
    def test_size_guard_exit_code(self, capsys, tmp_path, command):
        big = disjoint_union(INSTANCE_B, INSTANCE_B, INSTANCE_A)
        path = tmp_path / "big.spa"
        path.write_text(serialize_instance(big))
        code, _, err = run(capsys, command, str(path))
        assert code == 3
        assert "guard" in err

    def test_size_guard_waits_for_the_search(self, capsys, tmp_path):
        # both optimal matchings coincide on this 21-student draw
        big = generate(GenParams(
            students=21, projects=3, lecturers=1, pref_len=(1, 1), seed=5))
        path = tmp_path / "big.spa"
        path.write_text(serialize_instance(big))
        assert run(capsys, "enumerate", "--count-only", str(path)) == (0, "1\n", "")

    @pytest.mark.parametrize("args, code, out", [
        (["enumerate", "--count-only"], 0, "4\n"),
        (["lattice"], 0, None),
        (["verify"], 1, VERIFY_A),
    ], ids=["enumerate", "lattice", "verify"])
    def test_force_flag_accepted(self, capsys, args, code, out):
        forced = run(capsys, *args, "--force", A)
        assert forced == run(capsys, *args, A)
        assert forced[0] == code
        assert out is None or forced[1] == out

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

    def test_unwritable_dot_file_prints_nothing(self, capsys, tmp_path):
        dot_path = tmp_path / "missing" / "lattice.dot"
        code, out, err = run(capsys, "lattice", "--dot", str(dot_path), A)
        assert (code, out) == (1, "")
        assert err.startswith("ERROR ")

    def test_empty_dot_path_is_unwritable(self, capsys):
        # an empty path is a path that cannot be written, not an absent one
        code, out, err = run(capsys, "lattice", "--dot", "", A)
        assert (code, out) == (1, "")
        assert err.startswith("ERROR ")


# one incomparable pair of members of each union (indices into
# union_stable_set), so meet and join differ from both
UNION_PAIRS = {"a+b": (9, 10), "a+a+a": (19, 41), "b+b": (16, 17)}
TABLE_ROWS = ("b_m2", "b_m3", "b_m4", "b_m5")


def lattice_cases(tmp: Path) -> dict[str, tuple[str, ...]]:
    """Case name -> argv of every pinned ``lattice``, ``lattice --dot``,
    ``meet``, ``join``, ``verify``, ``verify --pairs`` and ``verify
    --force`` run.  The union instances and their member matchings are
    written to ``tmp``; a ``--dot`` run writes ``tmp/<case>.dot``."""
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
    # five copies of instance_a: 1024 members, past the size guard
    path = tmp / "a^5.spa"
    path.write_text(serialize_instance(disjoint_union(*(INSTANCE_A,) * 5)))
    cases["verify_force_a^5"] = ("verify", "--force", str(path))
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
    verification split its checks by component, and ``verify_force_a^5``
    (1,310,720 failures, of which it prints five) before verification sized
    its reports from the component tables; ``verify_a+b`` and ``verify_b+b``
    were relabelled when the lattice-axioms report took the ``(Mi, Mj)``
    prefix of the other reports."""

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

    def test_empty_out_path_is_unwritable(self, capsys):
        code, out, err = run(
            capsys, "gen", "--students", "2", "--projects", "1",
            "--lecturers", "1", "--seed", "1", "--out", "")
        assert (code, out) == (1, "")
        assert err.startswith("ERROR ")

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

    def test_an_id_outside_its_count_is_placed(self, capsys, tmp_path):
        # line 4's error is reported, not the later one on line 7
        path = tmp_path / "range.spa"
        path.write_text("students 1\nprojects 1\nlecturers 1\ns7 : p1\n"
                        "p1 : capacity 1 lecturer l1\nl1 : capacity 1 : s1\n"
                        "zzz\n")
        assert run(capsys, "validate", str(path)) == (
            1, "", "ERROR line 4, column 1: s7 is outside the declared range 1..1\n")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-file.spa")
        assert code == 1

    def test_invalid_instance_blocks_other_commands(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", str(DATA / "instance_a_bad.spa"))
        assert code == 1
        assert "capacity-bound" in out


# Command lines as README, the CI workflow and the cli_desk benchmark write
# them; each must be read without argparse.
DOCUMENTED = [
    "validate instance.spa",
    "check instance.spa matching.match",
    "solve --optimal student instance.spa",
    "solve --optimal lecturer instance.spa",
    "enumerate instance.spa",
    "enumerate --count-only instance.spa",
    "enumerate --count-only --force instance.spa",
    "meet instance.spa m1.match m2.match",
    "join instance.spa m1.match m2.match",
    "lattice instance.spa",
    "lattice --dot out.dot instance.spa",
    "lattice --dot out.dot --force instance.spa",
    "verify instance.spa",
    "verify --pairs instance.spa",
    "verify --force a6.spa",
    "verify --pairs --force instance.spa",
    "gen --students 8 --projects 5 --lecturers 2 --seed 42",
    "gen --students 8 --projects 5 --lecturers 2 --seed 42 --density 0.5 --out f",
    "gen --students 4000 --projects 1000 --lecturers 200 --seed 1 --out g.spa",
    "gen --students 12 --projects 6 --lecturers 3 --seed 7",
]

# tokens that argparse reads in its own way, besides file names
ODD = ["-h", "--help", "--count", "--optimal=student", "--", "-", "-5", "1e-3",
       "\u0663", ""]
FILES = [A, "x.spa", "m.match"]
VALUES = ["student", "lecturer", "both", "0", "3", "12", " 7", "1_0", "0.5",
          "x", *ODD, *FILES]
TOKENS = [*_COMMANDS, *{name for _, _, arguments in _COMMANDS.values()
                        for name, _ in arguments}, *VALUES]


def draw_argv(rng: random.Random) -> list[str]:
    """A command line of one command, its arguments, some options given
    twice, in a shuffled order, with up to three tokens then inserted,
    replaced or deleted."""
    command = rng.choice(list(_COMMANDS))
    groups = []
    for name, kwargs in _COMMANDS[command][2]:
        if name[0] != "-":
            groups.append([rng.choice(FILES)])
        elif kwargs.get("required") or rng.random() < 0.5:
            store_true = kwargs.get("action") == "store_true"
            for _ in range(rng.choice((1, 1, 2))):  # the last repeat wins
                groups.append([name] if store_true else [name, rng.choice(VALUES)])
    rng.shuffle(groups)
    argv = [command, *(token for group in groups for token in group)]
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        i = rng.randrange(len(argv) + 1)
        edit = rng.choice(("insert", "replace", "delete"))
        if edit == "insert" or i == len(argv):
            argv.insert(i, rng.choice(TOKENS))
        elif edit == "replace":
            argv[i] = rng.choice(TOKENS)
        else:
            del argv[i]
    return argv


class TestFastArgs:
    """``main`` reads a well-formed command line straight from the command
    table and leaves every other one to argparse."""

    def test_agrees_with_argparse(self):
        parser = build_parser()
        rng = random.Random(27)
        accepted = 0
        for _ in range(20_000):
            argv = draw_argv(rng)
            args = _fast_args(argv)
            if args is not None:
                accepted += 1
                assert vars(args) == vars(parser.parse_args(argv)), argv
        assert accepted > 5_000

    @pytest.mark.parametrize("line", DOCUMENTED)
    def test_documented_command_lines_take_the_fast_path(self, line):
        argv = line.split()
        args = _fast_args(argv)
        assert args is not None
        assert vars(args) == vars(build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        [],
        ["frobnicate", A],
        ["-h"],
        ["validate", "--help"],
        ["validate", "--", A],
        ["validate", "-"],
        ["solve", "--opt", "student", A],
        ["solve", "--optimal=student", A],
        ["solve", "--optimal", "both", A],
        ["solve", A],
        ["check", A],
        ["meet", A, "m1.match", "m2.match", "m3.match"],
        ["lattice", A, "--dot"],
        ["lattice", "--dot", "--force", A],
        ["gen", "--students", "4", "--projects", "3", "--lecturers", "2",
         "--seed", "-5"],
        ["gen", "--students", "four", "--projects", "3", "--lecturers", "2",
         "--seed", "1"],
    ])
    def test_declines_what_argparse_reads_in_its_own_way(self, argv):
        assert _fast_args(argv) is None
