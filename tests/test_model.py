import copy
import hashlib
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from known_instances import A_M1, A_M2, INSTANCE_A, INSTANCE_B, disjoint_union
from oracles import (
    naive_blocking_pairs,
    naive_is_valid_matching,
    naive_list_correspondence,
    random_valid_matching,
    reference_tables,
)
from corpus import corpus_instance
from spas import (
    GenParams,
    Instance,
    Matching,
    RawInstance,
    ValidationReport,
    Violation,
    build_instance,
    find_blocking_pairs,
    generate,
    is_valid_matching,
    validate_raw,
)


def raw_a() -> RawInstance:
    return RawInstance(
        student_prefs=[[1, 2], [2, 3], [3, 1], [4, 5], [5, 4]],
        project_capacity=[1, 1, 1, 1, 1],
        project_owner=[1, 1, 2, 2, 1],
        lecturer_capacity=[3, 2],
        lecturer_prefs=[[4, 5, 3, 1, 2], [2, 3, 5, 4]],
    )


class TestBuildInstance:
    def test_known_instance_builds(self):
        built = build_instance(raw_a())
        assert isinstance(built, Instance)
        assert built == INSTANCE_A

    def test_empty_instance_is_valid(self):
        built = build_instance(RawInstance([], [], [], [], []))
        assert isinstance(built, Instance)
        assert built.num_students == 0

    def test_lecturer_capacity_below_max_project_capacity(self):
        raw = raw_a()
        raw.lecturer_capacity[0] = 0
        report = build_instance(raw)
        assert isinstance(report, ValidationReport)
        assert any(v.rule == "capacity-bound" for v in report.violations)

    def test_lecturer_capacity_above_sum(self):
        raw = raw_a()
        raw.lecturer_capacity[1] = 3  # l2 offers p3, p4 with capacity 1 each
        report = build_instance(raw)
        assert isinstance(report, ValidationReport)
        assert any(v.rule == "capacity-bound" for v in report.violations)

    def test_dangling_project_in_student_list(self):
        raw = raw_a()
        raw.student_prefs[0] = [1, 9]
        report = build_instance(raw)
        assert isinstance(report, ValidationReport)
        assert any(v.rule == "dangling-identifier" for v in report.violations)

    def test_duplicate_preference(self):
        raw = raw_a()
        raw.student_prefs[0] = [1, 1]
        report = build_instance(raw)
        assert isinstance(report, ValidationReport)
        assert any(v.rule == "duplicate-preference" for v in report.violations)

    def test_lecturer_list_mismatch_both_directions(self):
        missing = raw_a()
        missing.lecturer_prefs[0] = [4, 5, 3, 1]  # s2 ranks p2 but is missing
        report = build_instance(missing)
        assert isinstance(report, ValidationReport)
        assert any(v.rule == "lecturer-list-mismatch" for v in report.violations)

        extra = raw_a()
        extra.lecturer_prefs[1] = [2, 3, 5, 4, 1]  # s1 ranks nothing of l2
        report = build_instance(extra)
        assert isinstance(report, ValidationReport)
        assert any(v.rule == "lecturer-list-mismatch" for v in report.violations)

    def test_lecturer_without_projects(self):
        raw = raw_a()
        raw.lecturer_capacity.append(1)
        raw.lecturer_prefs.append([])
        report = build_instance(raw)
        assert isinstance(report, ValidationReport)
        assert any(v.rule == "no-offered-projects" for v in report.violations)

    def test_empty_student_list_is_warning_only(self):
        raw = RawInstance(
            student_prefs=[[1], []],
            project_capacity=[1],
            project_owner=[1],
            lecturer_capacity=[1],
            lecturer_prefs=[[1]],
        )
        report = validate_raw(raw)
        assert report.ok
        assert any(w.rule == "empty-preference-list" for w in report.warnings)
        assert isinstance(build_instance(raw), Instance)

    def test_all_violations_reported_at_once(self):
        raw = raw_a()
        raw.lecturer_capacity[0] = 0
        raw.student_prefs[0] = [1, 1]
        report = build_instance(raw)
        assert isinstance(report, ValidationReport)
        rules = {v.rule for v in report.violations}
        assert {"capacity-bound", "duplicate-preference"} <= rules

    def test_ragged_project_lists_are_reported(self):
        raw = RawInstance([[1]], [1], [], [1], [[1]])
        report = validate_raw(raw)
        assert [v.rule for v in report.violations] == [
            "length-mismatch", "no-offered-projects"]
        assert report.violations[0].subject == "project_owner"

    def test_no_capacity_bound_over_a_non_positive_project(self):
        report = validate_raw(RawInstance([[1]], [0, 1], [1, 1], [1], [[1]]))
        assert [v.render() for v in report.violations] == [
            "project-capacity [p1]: capacity must be positive, got 0"]

    def test_ragged_lecturer_lists_are_reported(self):
        raw = RawInstance([[1]], [1], [1], [1, 1], [[1]])
        report = validate_raw(raw)
        assert [v.rule for v in report.violations] == [
            "length-mismatch", "no-offered-projects"]
        assert report.violations[0].subject == "lecturer_prefs"
        assert isinstance(build_instance(raw), ValidationReport)

    @pytest.mark.parametrize("field, row, col, value, violation", [
        ("student_prefs", 0, 1, 1.5, Violation(
            "non-integer", "s1", "ranked project 1.5 is not an integer")),
        ("project_capacity", 2, None, 1.0, Violation(
            "non-integer", "p3", "capacity 1.0 is not an integer")),
        ("project_owner", 0, None, True, Violation(
            "non-integer", "p1", "owner True is not an integer")),
        ("lecturer_capacity", 1, None, 2.0, Violation(
            "non-integer", "l2", "capacity 2.0 is not an integer")),
        ("lecturer_prefs", 1, 0, "2", Violation(
            "non-integer", "l2", "ranked student '2' is not an integer")),
    ], ids=["student_prefs", "project_capacity", "project_owner",
            "lecturer_capacity", "lecturer_prefs"])
    def test_non_integer_entry_is_reported(self, field, row, col, value, violation):
        raw = raw_a()
        if col is None:
            getattr(raw, field)[row] = value
        else:
            getattr(raw, field)[row][col] = value
        report = build_instance(raw)
        assert isinstance(report, ValidationReport)
        assert report.violations == (violation,)

    def test_bool_is_not_an_integer(self):
        report = build_instance(RawInstance([[True]], [1], [1], [1], [[1]]))
        assert isinstance(report, ValidationReport)
        assert [v.render() for v in report.violations] == [
            "non-integer [s1]: ranked project True is not an integer"]

    @pytest.mark.parametrize("raw, violations", [
        (RawInstance([1], [1], [1], [1], [[1]]), [
            Violation("non-list", "s1", "preference list is int, not a list")]),
        (RawInstance([[1]], [1], [1], [1], [None, 2]), [
            Violation("non-list", "l1",
                      "preference list is NoneType, not a list"),
            Violation("non-list", "l2", "preference list is int, not a list")]),
        (RawInstance(None, [1], [1], [1], [[1]]), [
            Violation("non-list", "student_prefs", "got NoneType, not a list")]),
        (RawInstance([[1]], 1, [1], [1], [[1]]), [
            Violation("non-list", "project_capacity", "got int, not a list")]),
        (RawInstance([[1]], [1], None, [1], [[1]]), [
            Violation("non-list", "project_owner", "got NoneType, not a list")]),
        (RawInstance([[1]], [1], [1], "1", [[1]]), [
            Violation("non-list", "lecturer_capacity", "got str, not a list")]),
        (RawInstance([1], [1], [1], [1], None), [
            Violation("non-list", "lecturer_prefs", "got NoneType, not a list")]),
    ], ids=["student-row", "lecturer-rows", "student_prefs", "project_capacity",
            "project_owner", "lecturer_capacity", "lecturer_prefs"])
    def test_non_list_field_or_row_is_reported(self, raw, violations):
        # the rows of a field are checked only once every field is a list
        report = build_instance(raw)
        assert isinstance(report, ValidationReport)
        assert list(report.violations) == violations

    def test_tuple_rows_and_fields_are_lists(self):
        raw = raw_a()
        raw.student_prefs = tuple(tuple(prefs) for prefs in raw.student_prefs)
        raw.project_capacity = tuple(raw.project_capacity)
        assert build_instance(raw) == INSTANCE_A

    @given(
        st.integers(0, 6).flatmap(lambda n1: st.integers(1, 5).flatmap(
            lambda n2: st.integers(1, 3).flatmap(lambda n3: st.tuples(
                st.lists(st.lists(st.integers(0, n2 + 1), max_size=5),
                         min_size=n1, max_size=n1),
                st.lists(st.integers(0, n3 + 1), min_size=n2, max_size=n2),
                st.lists(st.lists(st.integers(0, n1 + 1), max_size=7),
                         min_size=n3, max_size=n3),
            ))))
    )
    @settings(max_examples=200, deadline=None)
    def test_list_correspondence_matches_naive_loop(self, lists):
        student_prefs, owner, lecturer_prefs = lists
        raw = RawInstance(student_prefs, [1] * len(owner), owner,
                          [1] * len(lecturer_prefs), lecturer_prefs)
        mismatches = [v for v in validate_raw(raw).violations
                      if v.rule == "lecturer-list-mismatch"]
        assert mismatches == naive_list_correspondence(raw)


def hostile_raw(seed: int) -> RawInstance:
    """A small instance description that breaks the rules at random: ids
    in [-1, n + 1], repeated entries, empty lists, capacities below 1 and
    parallel lists one entry too long or too short."""
    rng = random.Random(seed)
    n1, n2, n3 = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 4)

    def length(n: int) -> int:
        return max(0, n + rng.choice((-1, 0, 0, 0, 0, 1)))

    def some_id(n: int, stray: float) -> int:
        if rng.random() < stray:
            return rng.randint(-1, n + 1)
        return rng.randint(1, max(n, 1))

    def ids(n: int) -> list[int]:
        out = [some_id(n, 0.15) for _ in range(rng.randint(0, 4))]
        if out and rng.random() < 0.2:
            out.append(rng.choice(out))
        return out

    def capacity() -> int:
        return rng.randint(-1, 0) if rng.random() < 0.1 else rng.randint(1, 3)

    return RawInstance(
        [ids(n2) for _ in range(n1)],
        [capacity() for _ in range(n2)],
        [some_id(n3, 0.1) for _ in range(length(n2))],
        [capacity() for _ in range(n3)],
        [ids(n1) for _ in range(length(n3))],
    )


def report_lines() -> list[str]:
    """Every violation, then every warning, of ``validate_raw`` on
    ``hostile_raw(seed)`` for seeds 0-2999, rendered and prefixed by the
    seed."""
    lines = []
    for seed in range(3000):
        report = validate_raw(hostile_raw(seed))
        for v in report.violations + report.warnings:
            lines.append(f"{seed} {v.render()}")
    return lines


class TestPinnedOutput:
    """The full reports of ``validate_raw`` on 3000 hostile inputs, pinned
    before each rule was written once for the roles it applies to.  To
    recompute the digest:

        PYTHONPATH=src:tests python -c "import hashlib; from test_model import *; print(hashlib.sha256('\\n'.join(report_lines()).encode()).hexdigest())"
    """

    def test_reports_on_hostile_inputs(self):
        lines = report_lines()
        assert {line.split()[1] for line in lines} == {
            "length-mismatch", "project-capacity", "lecturer-capacity",
            "dangling-identifier", "duplicate-preference",
            "no-offered-projects", "capacity-bound",
            "lecturer-list-mismatch", "empty-preference-list",
        }
        text = "\n".join(lines)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "6ef579816fab978a360f151e4a23be83095d56382e41d848aac70d20c70e9ce0")


class TestQueries:
    def test_acceptable_pair(self):
        assert 1 in INSTANCE_A.srank[0]
        assert 3 not in INSTANCE_A.srank[0]

    def test_acceptable_pair_empty_list(self):
        built = build_instance(RawInstance(
            student_prefs=[[], [1]],
            project_capacity=[1],
            project_owner=[1],
            lecturer_capacity=[1],
            lecturer_prefs=[[2]],
        ))
        assert isinstance(built, Instance)
        assert built.srank[0] == {}

    def test_unknown_identifiers_raise(self):
        with pytest.raises(ValueError, match="^unknown student s9$"):
            INSTANCE_A.student_rank(9, 1)
        with pytest.raises(ValueError, match="^p3 is not on the list of s1$"):
            INSTANCE_A.student_rank(1, 3)
        with pytest.raises(ValueError, match="^unknown lecturer l3$"):
            INSTANCE_A.lecturer_rank(3, 1)
        with pytest.raises(ValueError, match="^s1 is not on the list of l2$"):
            INSTANCE_A.lecturer_rank(2, 1)  # s1 ranks no project of l2

    @pytest.mark.parametrize("bad", [True, 1.0, "1"])
    def test_non_int_identifiers_are_unknown(self, bad):
        # True and 1.0 used to read the rank of id 1, and a float or a
        # string in the first place raised a stray TypeError
        with pytest.raises(ValueError, match=f"^unknown lecturer l{bad}$"):
            INSTANCE_B.lecturer_rank(bad, 1)
        with pytest.raises(ValueError, match=f"^s{bad} is not on the list of l1$"):
            INSTANCE_B.lecturer_rank(1, bad)
        with pytest.raises(ValueError, match=f"^unknown student s{bad}$"):
            INSTANCE_B.student_rank(bad, 1)
        with pytest.raises(ValueError, match=f"^p{bad} is not on the list of s1$"):
            INSTANCE_B.student_rank(1, bad)

    def test_projected_list_quoted_example(self):
        assert INSTANCE_A.projected[0] == (3, 1)

    def test_projected_list_filtered_example(self):
        # l2's list (s2 s3 s5 s4) restricted to students ranking p4
        assert INSTANCE_A.projected[3] == (5, 4)

    def test_projected_list_can_be_empty(self):
        built = build_instance(RawInstance(
            student_prefs=[[1]],
            project_capacity=[1, 1],
            project_owner=[1, 1],
            lecturer_capacity=[1],
            lecturer_prefs=[[1]],
        ))
        assert isinstance(built, Instance)
        assert built.projected[1] == ()

    @given(st.integers(1, 300))
    @settings(max_examples=60, deadline=None)
    def test_rank_tables_match_naive_derivation(self, seed):
        # three corpus shapes: tiny, wide lecturer lists, many projects
        for shape in ((6, 5, 3), (12, 4, 2), (8, 10, 5)):
            instance = corpus_instance(seed, *shape)
            for s in instance.students():
                prefs = instance.student_prefs[s - 1]
                assert instance.srank[s - 1] == {p: prefs.index(p) for p in prefs}
            for k in instance.lecturers():
                prefs = instance.lecturer_prefs[k - 1]
                assert instance.lrank[k - 1] == {t: prefs.index(t) for t in prefs}
            for p in instance.projects():
                k = instance.project_owner[p - 1]
                assert instance.projected[p - 1] == tuple(
                    s for s in instance.lecturer_prefs[k - 1]
                    if p in instance.student_prefs[s - 1])

    @pytest.mark.parametrize("table", ["srank", "lrank", "projected"])
    def test_rank_tables_are_read_only(self, table):
        instance = corpus_instance(1, 6, 5, 3)
        before = getattr(instance, table)
        with pytest.raises(AttributeError):
            setattr(instance, table, ())
        with pytest.raises(AttributeError):
            delattr(instance, table)
        assert getattr(instance, table) is before


TABLES = ("lecturer_projects", "srank", "lrank", "projected")
FIELDS = ("student_prefs", "project_capacity", "project_owner",
          "lecturer_capacity", "lecturer_prefs")


def assert_reference_tables(instance: Instance) -> None:
    """Each table of ``instance`` equals the reference builder's, down to
    the container types: a tuple holding dicts or tuples."""
    for name, table in reference_tables(instance).items():
        got = getattr(instance, name)
        assert type(got) is tuple
        assert all(type(x) is type(y) for x, y in zip(got, table))
        assert got == table, name


def ladder_instance(n: int, seed: int) -> Instance:
    """The benchmark's department shape at ``n`` students."""
    projects = max(2, n // 4)
    return generate(GenParams(
        students=n, projects=projects, lecturers=max(1, n // 20),
        pref_len=(3, 6), project_cap=(1, 4), seed=seed * 10_007 + n,
        density=min(1.0, 4.5 / projects)))


class TestTablesFromTheWalk:
    """The validating walk builds the derived tables that the reference
    builders of ``oracles`` make one at a time, and ``build_instance``
    hands them to the instance."""

    @pytest.mark.parametrize("shape", [(6, 5, 3), (12, 4, 2), (8, 10, 5),
                                       (12, 8, 4)])
    def test_corpus_shapes(self, shape):
        for seed in range(1, 61):
            instance = corpus_instance(seed, *shape)
            assert set(TABLES) <= instance.__dict__.keys()
            assert_reference_tables(instance)

    def test_department_shape(self):
        for seed in range(3):
            assert_reference_tables(ladder_instance(250, seed))

    @pytest.mark.parametrize("parts", [
        (INSTANCE_A, INSTANCE_A, INSTANCE_A), (INSTANCE_A, INSTANCE_B),
        (INSTANCE_B, INSTANCE_B)], ids=["a+a+a", "a+b", "b+b"])
    def test_unions(self, parts):
        assert_reference_tables(disjoint_union(*parts))

    def test_empty_student_lists(self):
        for raw in (
                RawInstance([[], [2], []], [1, 1], [1, 1], [1], [[2]]),
                RawInstance([[], []], [1], [1], [1], [[]]),
                RawInstance([[1], []], [2, 1], [1, 2], [2, 1], [[1], []])):
            built = build_instance(raw)
            assert isinstance(built, Instance), built
            assert_reference_tables(built)

    def test_direct_construction_builds_them(self):
        for instance in (INSTANCE_A, INSTANCE_B, ladder_instance(250, 1)):
            direct = Instance(*(getattr(instance, f) for f in FIELDS))
            assert set(TABLES) <= direct.__dict__.keys()
            assert_reference_tables(direct)

    def test_invalid_direct_construction_raises(self):
        with pytest.raises(ValueError, match=(
                r"^invalid instance: lecturer-list-mismatch \[l1\]: s1 ranks "
                r"an offered project but is missing from the list$")):
            Instance(((1,),), (1,), (1,), (1,), ((),))

    @pytest.mark.parametrize("roundtrip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_and_pickles_carry_them(self, roundtrip):
        for instance in (INSTANCE_B, ladder_instance(250, 2)):
            back = roundtrip(instance)
            assert set(TABLES) <= back.__dict__.keys()
            assert_reference_tables(back)


class TestConstructor:
    """``Instance(...)`` walks the fields it is given, as lists or tuples,
    raises on the first violation, and otherwise stores them as tuples;
    ``build_instance`` is that constructor, returning the report in place
    of raising."""

    def test_stores_tuples_the_caller_cannot_change(self):
        raw = raw_a()
        built = Instance(*(getattr(raw, f) for f in FIELDS))
        for f in FIELDS:
            assert type(getattr(built, f)) is tuple
        for row in built.student_prefs + built.lecturer_prefs:
            assert type(row) is tuple
        assert built == build_instance(raw_a()) == INSTANCE_A
        assert hash(built) == hash(build_instance(raw_a())) == hash(INSTANCE_A)
        raw.student_prefs[0].append(1)  # s1 now ranks p1 twice
        raw.student_prefs.append([2])
        raw.project_capacity[0] = 0
        raw.lecturer_prefs[1].reverse()
        assert built == INSTANCE_A
        assert hash(built) == hash(INSTANCE_A)
        assert_reference_tables(built)

    def test_hostile_inputs(self):
        invalid = 0
        for seed in range(3000):
            raw = hostile_raw(seed)
            report = validate_raw(raw)
            built = build_instance(raw)
            if report.ok:
                assert built == Instance(*(getattr(raw, f) for f in FIELDS))
                continue
            invalid += 1
            assert built == report
            with pytest.raises(ValueError) as raised:
                Instance(*(getattr(raw, f) for f in FIELDS))
            assert str(raised.value) == (
                f"invalid instance: {report.violations[0].render()}")
        assert invalid == 2985

    @pytest.mark.parametrize("raw, first", [
        (RawInstance([1], [1], [1], [1], [[1]]),
         "non-list [s1]: preference list is int, not a list"),
        (RawInstance([[1]], [1], [1], [1], [None]),
         "non-list [l1]: preference list is NoneType, not a list"),
        (RawInstance(None, [1], [1], [1], [[1]]),
         "non-list [student_prefs]: got NoneType, not a list"),
        (RawInstance([[1]], [1], [1], "1", [[1]]),
         "non-list [lecturer_capacity]: got str, not a list"),
    ], ids=["student-row", "lecturer-row", "student_prefs", "lecturer_capacity"])
    def test_walks_before_it_freezes(self, raw, first):
        # freezing first would raise TypeError on the first three, and
        # would turn the string into a tuple of one non-integer
        message = f"invalid instance: {first}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Instance(*(getattr(raw, f) for f in FIELDS))


class TestMatching:
    def test_canonical_order_and_hash(self):
        shuffled = Matching(((5, 5), (1, 1), (3, 3), (2, 2), (4, 4)))
        assert shuffled == A_M1
        assert hash(shuffled) == hash(A_M1)
        assert shuffled.pairs == tuple(sorted(shuffled.pairs))

    @given(st.permutations([(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]))
    def test_construction_order_irrelevant(self, perm):
        assert Matching(tuple(perm)) == A_M1

    def test_duplicate_pairs_collapse(self):
        assert Matching(((1, 1), (1, 1))) == Matching(((1, 1),))

    def test_malformed_pair_rejected(self):
        with pytest.raises(ValueError):
            Matching(((0, 1),))

    @pytest.mark.parametrize(
        "pair", [(True, 1), (1, True), (1.0, 1), (1, 2, 3), 5],
        ids=["bool-student", "bool-project", "float", "triple", "not-a-pair"])
    def test_non_int_ids_rejected(self, pair):
        with pytest.raises(ValueError, match="malformed pair"):
            Matching((pair,))


class TestIsValidMatching:
    def test_known_matching_valid(self):
        assert is_valid_matching(INSTANCE_A, A_M1).ok
        assert is_valid_matching(INSTANCE_A, A_M2).ok

    def test_project_capacity_violation(self):
        report = is_valid_matching(INSTANCE_A, Matching(((1, 1), (3, 1))))
        assert not report.ok
        assert any(v.rule == "project-capacity" for v in report.violations)

    def test_unacceptable_pair(self):
        report = is_valid_matching(INSTANCE_A, Matching(((1, 3),)))
        assert not report.ok
        assert any(v.rule == "unacceptable-pair" for v in report.violations)

    def test_multiple_assignment(self):
        report = is_valid_matching(INSTANCE_A, Matching(((1, 1), (1, 2))))
        assert not report.ok
        assert any(v.rule == "multiple-assignment" for v in report.violations)

    def test_lecturer_capacity_violation(self):
        # five students on l1's projects without oversubscribing any project,
        # against lecturer capacity 4
        report = is_valid_matching(
            INSTANCE_B, Matching(((1, 1), (2, 1), (9, 2), (6, 5), (8, 6))))
        assert not report.ok
        assert [v.rule for v in report.violations] == ["lecturer-capacity"]

    def test_dangling_identifier(self):
        report = is_valid_matching(INSTANCE_A, Matching(((9, 1),)))
        assert not report.ok
        assert any(v.rule == "dangling-identifier" for v in report.violations)


    def test_matches_per_student_grouping(self):
        # random valid matchings, and random pair sets over ids up to two
        # past each range: dangling students and projects, unacceptable
        # pairs, students on several projects, over-full projects/lecturers.
        # The stability check reads the same walk: it names the oracle's
        # first violation, and on a valid matching its tally gives the
        # oracle's blocking pairs
        rules = set()
        for seed in range(1, 301):
            instance = corpus_instance(seed, 7, 6, 3)
            rng = random.Random(seed)
            valid = random_valid_matching(instance, rng)
            pairs = tuple(
                (rng.randint(1, instance.num_students + 2),
                 rng.randint(1, instance.num_projects + 2))
                for _ in range(rng.randint(0, 2 * instance.num_students))
            )
            for m in (valid, Matching(pairs), Matching(valid.pairs + pairs)):
                report = is_valid_matching(instance, m)
                expected = naive_is_valid_matching(instance, m)
                assert report == expected, seed
                rules.update(v.rule for v in report.violations)
                if expected.ok:
                    assert list(find_blocking_pairs(instance, m)) == (
                        naive_blocking_pairs(instance, m)), seed
                    continue
                with pytest.raises(ValueError) as caught:
                    find_blocking_pairs(instance, m)
                assert str(caught.value) == (
                    f"invalid matching: {expected.violations[0].render()}"), seed
        assert rules == {
            "multiple-assignment", "dangling-identifier", "unacceptable-pair",
            "project-capacity", "lecturer-capacity",
        }
