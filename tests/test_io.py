import pickle
import random
import re
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_instance
from known_instances import (
    A_HASSE_EDGES,
    A_M1,
    B_HASSE_EDGES,
    B_M,
    INSTANCE_A,
    INSTANCE_B,
)
from oracles import (
    random_valid_matching,
    token_parse_matching_file,
    token_parse_raw_instance,
)
from spas import (
    GenParams,
    HasseDiagram,
    Instance,
    Matching,
    ParseError,
    ValidationReport,
    build_hasse,
    build_instance,
    emit_dot,
    enumerate_all,
    generate,
    parse_instance_file,
    parse_matching_file,
    parse_raw_instance,
    serialize_instance,
    serialize_matching,
    solve_lecturer_optimal,
    solve_student_optimal,
    validate_raw,
)

DATA = Path(__file__).parent / "data"

# Numbers that stress the grammar: a count far too large to walk, one past
# int()'s 4300-digit limit, a non-ASCII digit, a sign and a zero; small ones
# keep the syntax and move an id or a capacity, which the validator meets.
HOSTILE_NUMBERS = ("100000000000", "1" + "0" * 4999, "\u00b2", "-1", "0",
                   "1", "2")
EDITS = ("drop", "duplicate", "swap", "drop-line", "duplicate-line")
# str.splitlines ends a line at each of these; the parsers end one only at
# "\n", "\r\n" or "\r", and take these for spaces between tokens
NOT_LINE_ENDS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                 "\u2029")


def mutated(text: str, seed: int) -> str:
    """``text`` after one to three edits: drop, duplicate or swap tokens,
    drop or duplicate lines, or put a hostile number in place of a token's
    digits (so ids keep their letter).  Places come from ``Random(seed)``
    because plain integer draws favour the first line, the header, whose
    errors stop the parse before the rest of the grammar is reached; a
    drawn seed keeps a failure replayable and shows in its report."""
    rng = random.Random(seed)
    lines = [line.split() for line in text.splitlines()] or [[]]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        toks = lines[i]
        # half the edits are numbers: they alone can keep the syntax valid
        edit = "number" if rng.random() < 0.5 else rng.choice(EDITS)
        if edit == "drop-line" and len(lines) > 1:
            del lines[i]
        elif edit == "duplicate-line":
            lines.insert(i, list(toks))
        elif toks:
            j = rng.randrange(len(toks))
            if edit == "drop":
                del toks[j]
            elif edit == "duplicate":
                toks.insert(j, toks[j])
            elif edit == "swap":
                k = rng.randrange(len(toks))
                toks[j], toks[k] = toks[k], toks[j]
            elif edit == "number" and toks[j][-1].isdigit():
                toks[j] = toks[j].rstrip("0123456789") + rng.choice(HOSTILE_NUMBERS)
    return "".join(" ".join(toks) + "\n" for toks in lines)


class TestInstanceFiles:
    def test_parse_known_file_matches_programmatic_instance(self):
        parsed = parse_instance_file((DATA / "instance_a.spa").read_text())
        assert parsed == INSTANCE_A

    def test_empty_file_is_empty_instance(self):
        parsed = parse_instance_file("")
        assert parsed.num_students == 0
        assert parsed.num_projects == 0
        parsed = parse_instance_file("# only a comment\n\n")
        assert parsed.num_lecturers == 0

    def test_serialize_parse_round_trip_bytes(self):
        for path in ("instance_a.spa", "instance_b.spa"):
            text = (DATA / path).read_text()
            assert serialize_instance(parse_instance_file(text)) == text

    def test_comments_blanks_and_order_tolerated(self):
        text = (DATA / "instance_b.spa").read_text()
        lines = text.splitlines()
        shuffled = lines[:3] + lines[3:][::-1]  # entity lines reversed
        noisy = "\n# noise\n".join(shuffled) + "\n"
        assert parse_instance_file(noisy) == INSTANCE_B

    def test_a_leading_byte_order_mark_is_ignored(self):
        # as Windows editors write UTF-8: the instance is unchanged, and
        # line 1 is read from after the mark, here as a header
        text = (DATA / "instance_a.spa").read_text()
        assert parse_instance_file("\ufeff" + text) == INSTANCE_A
        with pytest.raises(ParseError, match="students <count>") as err:
            parse_instance_file("\ufeffstudents x\n")
        assert (err.value.line, err.value.column) == (1, 1)

    @pytest.mark.parametrize("text,line", [
        ("\ufeff\ufeffstudents 0\nprojects 0\nlecturers 0\n", 1),
        ("students 0\n\ufeffprojects 0\nlecturers 0\n", 2),
    ])
    def test_a_byte_order_mark_elsewhere_is_an_error(self, text, line):
        with pytest.raises(ParseError) as err:
            parse_raw_instance(text)
        assert (err.value.line, err.value.column) == (line, 1)

    @pytest.mark.parametrize("c", NOT_LINE_ENDS, ids=ascii)
    def test_only_cr_and_lf_end_a_line(self, c):
        # the comment runs on past c, so lines are counted as grep -n does
        text = (DATA / "instance_a.spa").read_text()
        assert parse_instance_file(f"# comment{c}more words\n" + text) == INSTANCE_A
        with pytest.raises(ParseError, match="students <count>") as err:
            parse_instance_file(f"# comment{c}more words\nstudents x\n")
        assert (err.value.line, err.value.column) == (2, 1)

    def test_semantic_errors_deferred_to_validation(self):
        report = parse_instance_file((DATA / "instance_a_bad.spa").read_text())
        assert isinstance(report, ValidationReport)
        assert any(v.rule == "capacity-bound" for v in report.violations)

    @pytest.mark.parametrize("text,fragment", [
        ("students 2\nprojects x\n", "count"),
        ("students 1\nprojects 1\nlecturers 1\ns1 p1\n", "':'"),
        ("s1 : p1\n", "header"),
        ("students 1\nprojects 1\nlecturers 1\nq1 : p1\n", "unrecognised"),
        ("students 0\nprojects 1\nlecturers 1\np1 : capacity 1 lecturer l1\n"
         "l1 : capacity 1 :\np1 : capacity 1 lecturer l1\n", "duplicate"),
        ("students 1\nprojects 0\nlecturers 0\n", "missing line for s1"),
        ("students 1\nstudents 1\n", "duplicate"),
        ("students 1\n", "missing 'projects' header"),
    ])
    def test_syntax_errors(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_instance_file(text)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_instance_file(
                "students 1\nprojects 1\nlecturers 1\ns1 : bad\n")
        assert err.value.line == 4
        assert err.value.column is not None

    @pytest.mark.parametrize("text,line,fragment", [
        ("students \u00b2\nprojects 1\nlecturers 1\n", 1, "students <count>"),
        ("students 1\nprojects 1\nlecturers 1\ns1 : p1\n"
         "p1 : capacity \u00b9 lecturer l1\nl1 : capacity 1 : s1\n", 5,
         "capacity <c>"),
        ("students 1\nprojects 1\nlecturers 1\ns1 : p1\n"
         "p1 : capacity 1 lecturer l1\nl1 : capacity \u00b9 : s1\n", 6,
         "capacity <d>"),
    ])
    def test_non_ascii_digits_are_parse_errors(self, text, line, fragment):
        # str.isdigit accepts superscripts, which int() then rejects
        with pytest.raises(ParseError) as err:
            parse_instance_file(text)
        assert err.value.line == line
        assert err.value.column is not None
        assert fragment in str(err.value)

    @pytest.mark.parametrize("line,message", [
        ("s6 : p1", "s6 is outside the declared range 1..5"),
        ("p6 : capacity 1 lecturer l1", "p6 is outside the declared range 1..5"),
        ("l3 : capacity 1 : s1", "l3 is outside the declared range 1..2"),
    ], ids=["student", "project", "lecturer"])
    def test_an_id_one_past_its_count_is_placed(self, line, message):
        # instance_a declares 5 students, 5 projects and 2 lecturers
        lines = (DATA / "instance_a.spa").read_text().splitlines()
        text = "\n".join(lines + [line]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_raw_instance(text)
        assert (err.value.line, err.value.column) == (len(lines) + 1, 1)
        assert str(err.value) == f"line {len(lines) + 1}, column 1: {message}"

    def test_the_first_error_in_file_order_is_reported(self):
        # the id out of range on line 4 is found before line 7's garbage
        text = ("students 1\nprojects 1\nlecturers 1\ns7 : p1\n"
                "p1 : capacity 1 lecturer l1\nl1 : capacity 1 : s1\nzzz\n")
        with pytest.raises(ParseError) as err:
            parse_raw_instance(text)
        assert (err.value.line, err.value.column) == (4, 1)
        assert "s7 is outside the declared range 1..1" in str(err.value)

    @pytest.mark.parametrize("text,missing", [
        ("students 100000000000\nprojects 0\nlecturers 0\n", "s1"),
        ("students 100000000000\nprojects 0\nlecturers 0\ns1 :\ns2 :\n", "s3"),
    ], ids=["no-lines", "two-lines"])
    def test_missing_line_in_a_huge_declared_range(self, text, missing):
        # the first free id is at most one past the lines present, so the
        # declared range is never walked
        start = perf_counter()
        with pytest.raises(ParseError, match=f"missing line for {missing}$"):
            parse_raw_instance(text)
        assert perf_counter() - start < 1.0

    @pytest.mark.parametrize("text,line,column", [
        ("students 1\nprojects 1\nlecturers 1\ns1" + "0" * 5000 + " : p1\n",
         4, 1),
        ("students 1" + "0" * 5000 + "\nprojects 1\nlecturers 1\n", 1, 10),
        ("students 1\nprojects 1\nlecturers 1\ns1 : p1\n"
         "p1 : capacity 1" + "0" * 5000 + " lecturer l1\n", 5, 15),
    ], ids=["student-id", "count-header", "capacity"])
    def test_numbers_past_the_int_digit_limit_are_parse_errors(
            self, text, line, column):
        # int() refuses more than 4300 digits with a bare ValueError
        with pytest.raises(ParseError) as err:
            parse_raw_instance(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert "5001 digits" in str(err.value)

    @given(st.integers(1, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_round_trip_on_generated_instances(self, seed):
        instance = corpus_instance(seed, 7, 6, 3)
        assert parse_instance_file(serialize_instance(instance)) == instance


class TestMatchingFiles:
    def test_parse_known_matching(self):
        text = (DATA / "a_m1.match").read_text()
        assert parse_matching_file(text, INSTANCE_A) == A_M1

    def test_a_leading_byte_order_mark_is_ignored(self):
        text = (DATA / "a_m1.match").read_text()
        assert parse_matching_file("\ufeff" + text, INSTANCE_A) == A_M1
        # columns on line 1 count from after the mark
        with pytest.raises(ParseError) as err:
            parse_matching_file("\ufeffs1 p99\n", INSTANCE_A)
        assert (err.value.line, err.value.column) == (1, 4)
        with pytest.raises(ParseError) as err:
            parse_matching_file("s1 p1\n\ufeffs2 p2\n", INSTANCE_A)
        assert (err.value.line, err.value.column) == (2, 1)

    @pytest.mark.parametrize("c", NOT_LINE_ENDS, ids=ascii)
    def test_only_cr_and_lf_end_a_line(self, c):
        text = (DATA / "a_m1.match").read_text()
        assert parse_matching_file(f"# comment{c}s9 p9\n" + text, INSTANCE_A) == A_M1
        with pytest.raises(ParseError, match="unknown project p99") as err:
            parse_matching_file(f"# comment{c}s9 p9\ns1 p99\n", INSTANCE_A)
        assert (err.value.line, err.value.column) == (2, 4)

    def test_empty_file_empty_matching(self):
        assert parse_matching_file("", INSTANCE_A) == Matching(())

    def test_unassigned_marker_and_omission(self):
        text = "s1 p1\ns2 -\n"
        assert parse_matching_file(text, INSTANCE_A) == Matching(((1, 1),))

    def test_round_trip_all_table_rows(self):
        for m in B_M:
            assert parse_matching_file(serialize_matching(m), INSTANCE_B) == m

    def test_unknown_ids_rejected(self):
        with pytest.raises(ParseError):
            parse_matching_file("s9 p1\n", INSTANCE_A)
        with pytest.raises(ParseError):
            parse_matching_file("s1 p9\n", INSTANCE_A)

    def test_parsed_matching_is_canonical(self):
        # lines in any order, with comments, blank lines and s<i> - lines,
        # give the matching the constructor makes of the same pairs
        rng = random.Random(23)
        for seed in range(1, 41):
            instance = corpus_instance(seed, 12, 8, 4)
            pairs = list(random_valid_matching(instance, rng).pairs)
            held = dict(pairs)
            lines = [f"s{s} p{held[s]}" if s in held else f"s{s} -"
                     for s in instance.students()]
            lines += ["# a comment", "", "   ", "#s1 p1"]
            rng.shuffle(lines)
            rng.shuffle(pairs)
            got = parse_matching_file("\n".join(lines) + "\n", instance)
            want = Matching(tuple(pairs))
            assert got == want
            assert got.pairs == want.pairs
            assert hash(got) == hash(want)
            assert pickle.dumps(got) == pickle.dumps(want)

    def test_duplicate_student_rejected(self):
        with pytest.raises(ParseError):
            parse_matching_file("s1 p1\ns1 p2\n", INSTANCE_A)
        with pytest.raises(ParseError):
            parse_matching_file("s1 -\ns1 p2\n", INSTANCE_A)


SEEDS = st.integers(0, 2**32 - 1)


class TestHostileInput:
    """Mutated files fail only with a typed error: a ParseError from the
    parse, or a ValidationReport from the validator; never a stray
    ValueError (of which ParseError is a subclass) or a hang."""

    @given(st.integers(1, 10**6), SEEDS)
    @settings(max_examples=300, deadline=None)
    def test_instance_files(self, seed, edit_seed):
        text = serialize_instance(corpus_instance(seed, 7, 6, 3))
        try:
            raw = parse_raw_instance(mutated(text, edit_seed))
        except ParseError:
            return
        assert isinstance(validate_raw(raw), ValidationReport)
        assert isinstance(build_instance(raw), (Instance, ValidationReport))

    @given(st.integers(1, 10**6), SEEDS)
    @settings(max_examples=300, deadline=None)
    def test_matching_files(self, seed, edit_seed):
        instance = corpus_instance(seed, 7, 6, 3)
        text = serialize_matching(solve_student_optimal(instance))
        try:
            matching = parse_matching_file(mutated(text, edit_seed), instance)
        except ParseError:
            return
        assert isinstance(matching, Matching)


def outcome(parse, *args):
    """What a parser gives: its result, or its error's text and place."""
    try:
        return parse(*args)
    except ParseError as err:
        return (str(err), err.line, err.column)


# Token separators: str.split() breaks on each, and none ends a line,
# although str.splitlines ends one at "\x0b", "\x0c", "\x1c", "\x85" and
# "\u2028"; "\xa0" and "\u3000" are not ASCII.
SPACES = ("\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028",
          "\u3000", "  ")
VARIANTS = {
    **{f"space-{ascii(c)}": (lambda t, c=c: t.replace(" ", c)) for c in SPACES},
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "cr": lambda t: t.replace("\n", "\r"),
    "blanks": lambda t: "".join(f" \t{line}\u3000 \n" for line in t.splitlines()),
    "comments": lambda t: "".join(f"# note\n{line}\n \u3000\n  #\n"
                                  for line in t.splitlines()),
    "zero-padded": lambda t: re.sub(
        r"(students|projects|lecturers|capacity) ", r"\1 00", t),
    "zero-padded-ids": lambda t: re.sub(r"\b([spl])(\d)", r"\g<1>0\2", t),
    "byte-order-mark": lambda t: "\ufeff" + t,
    "unchanged": lambda t: t,
}


class TestParserOracle:
    """The split-and-test parsers against the token-and-regex parsers they
    replaced: equal results, or equal ParseError text, line and column."""

    @given(st.integers(1, 10**6), SEEDS, st.sampled_from(sorted(VARIANTS)))
    @settings(max_examples=300, deadline=None)
    def test_mutated_instance_files(self, seed, edit_seed, variant):
        text = VARIANTS[variant](mutated(
            serialize_instance(corpus_instance(seed, 7, 6, 3)), edit_seed))
        assert (outcome(parse_raw_instance, text)
                == outcome(token_parse_raw_instance, text))

    @given(st.integers(1, 10**6), SEEDS, st.sampled_from(sorted(VARIANTS)))
    @settings(max_examples=300, deadline=None)
    def test_mutated_matching_files(self, seed, edit_seed, variant):
        instance = corpus_instance(seed, 7, 6, 3)
        text = VARIANTS[variant](mutated(
            serialize_matching(solve_student_optimal(instance)), edit_seed))
        assert (outcome(parse_matching_file, text, instance)
                == outcome(token_parse_matching_file, text, instance))

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    @pytest.mark.parametrize("name", ["instance_a", "instance_b"])
    def test_format_variants(self, variant, name):
        instance = parse_instance_file((DATA / f"{name}.spa").read_text())
        text = VARIANTS[variant]((DATA / f"{name}.spa").read_text())
        assert (outcome(parse_raw_instance, text)
                == outcome(token_parse_raw_instance, text))
        text = VARIANTS[variant](serialize_matching(enumerate_all(instance)[0]))
        assert (outcome(parse_matching_file, text, instance)
                == outcome(token_parse_matching_file, text, instance))

    @pytest.mark.parametrize("line", [
        "s5 : s1", "s5 : l1", "s5 : p5 p5", "s5 : p05", "s5 : p1 p4 p1x",
        "p5 : capacity 1 lecturer p1", "p5 : capacity 1 lecturer s1",
        "p5 : capacity 01 lecturer l1", "l2 : capacity 2 : l1",
        "l2 : capacity 2 : p2 s3", "l2 : capacity 2 : s2 s3 s5 s4 s02",
        "l2 : capacity 02 : s2 s3 s5 s4", "s1 : p1 p2", "l1 :",
    ])
    def test_instance_lines_at_the_edges(self, line):
        # the line replaces the last of its kind in instance_a, so every id
        # before it has been read, in its own role and in the others
        lines = (DATA / "instance_a.spa").read_text().splitlines()
        last = max(i for i, old in enumerate(lines) if old[:2] == line[:2])
        text = "\n".join(lines[:last] + lines[last + 1:] + [line]) + "\n"
        assert (outcome(parse_raw_instance, text)
                == outcome(token_parse_raw_instance, text))

    @pytest.mark.parametrize("line", [
        "s5 p5", "s6 p1", "s1 p6", "s0 p1", "s1 p0", "s1 -", "s5 -", "s6 -",
        "s1", "s1 p1 p2", "s1 p1 # note", "p1 s1", "s1 l1", "s1 s2", "s-1 p1",
        "S1 p1", "s1 p\u0663", "s\u0663 p1", "s1 p\u00b2", "s01 p1", "s1 p01",
        "s1 -x",
        # more digits than int converts from a string by default (4300)
        pytest.param("s" + "1" * 5000 + " p1", id="s<5000 digits> p1"),
        pytest.param("s1 p" + "1" * 5000, id="s1 p<5000 digits>"),
    ])
    def test_matching_lines_at_the_edges(self, line):
        # INSTANCE_A has five students and five projects
        for text in (line + "\n", "s2 p2\n" + line, f"# x\n\t{line}\r\n"):
            assert (outcome(parse_matching_file, text, INSTANCE_A)
                    == outcome(token_parse_matching_file, text, INSTANCE_A))

    def test_zero_padded_counts_and_capacities_are_accepted(self):
        text = (DATA / "instance_b.spa").read_text()
        padded = VARIANTS["zero-padded"](text)
        assert "capacity 00" in padded and "students 00" in padded
        assert parse_instance_file(padded) == INSTANCE_B

    def test_large_generated_instance_and_its_matchings(self):
        instance = generate(GenParams(
            students=2000, projects=500, lecturers=100, pref_len=(3, 6),
            project_cap=(1, 4), seed=1, density=0.009))
        text = serialize_instance(instance)
        raw = parse_raw_instance(text)
        assert raw == token_parse_raw_instance(text)
        assert serialize_instance(build_instance(raw)) == text
        for m in (solve_student_optimal(instance),
                  solve_lecturer_optimal(instance)):
            text = serialize_matching(m)
            parsed = parse_matching_file(text, instance)
            assert parsed == token_parse_matching_file(text, instance) == m
            assert serialize_matching(parsed) == text


class TestDot:
    def test_table_instance_dot(self):
        diagram = build_hasse(INSTANCE_B, enumerate_all(INSTANCE_B))
        dot = emit_dot(diagram)
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(edge_lines) == 8
        assert dot.startswith("digraph hasse {")
        assert dot.endswith("}\n")
        for a, b in B_HASSE_EDGES:
            assert f"  M{a + 1} -> M{b + 1};" in dot

    def test_singleton_dot(self):
        diagram = HasseDiagram(nodes=(A_M1,), edges=())
        dot = emit_dot(diagram)
        assert "M1;" in dot
        assert "->" not in dot

    def test_small_instance_dot_is_the_diamond(self):
        diagram = build_hasse(INSTANCE_A, enumerate_all(INSTANCE_A))
        dot = emit_dot(diagram)
        edge_lines = [l.strip() for l in dot.splitlines() if "->" in l]
        assert edge_lines == [
            f"M{a + 1} -> M{b + 1};" for a, b in A_HASSE_EDGES
        ]

    def test_deterministic(self):
        diagram = build_hasse(INSTANCE_B, enumerate_all(INSTANCE_B))
        assert emit_dot(diagram) == emit_dot(diagram)
