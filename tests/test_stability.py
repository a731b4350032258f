import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_instance
from known_instances import A_M1, A_M2, B_M, INSTANCE_A, INSTANCE_B
from oracles import (
    lecturer_prefers,
    naive_blocking_pairs,
    random_valid_matching,
    student_prefers,
)
from spas import BlockingPair, Matching, find_blocking_pairs, is_stable


class TestKnownMatchings:
    def test_both_reference_matchings_stable(self):
        assert find_blocking_pairs(INSTANCE_A, A_M1) == ()
        assert find_blocking_pairs(INSTANCE_A, A_M2) == ()
        assert is_stable(INSTANCE_A, A_M1)
        assert is_stable(INSTANCE_A, A_M2)

    def test_all_seven_table_rows_stable(self):
        for m in B_M:
            assert is_stable(INSTANCE_B, m)

    def test_empty_matching_unstable(self):
        blocking = find_blocking_pairs(INSTANCE_A, Matching(()))
        assert not is_stable(INSTANCE_A, Matching(()))
        assert BlockingPair(1, 1, "S1", "P1") in blocking

    def test_ordering_by_student_then_project(self):
        blocking = find_blocking_pairs(INSTANCE_A, Matching(()))
        keys = [(bp.student, bp.project) for bp in blocking]
        assert keys == sorted(keys)

    def test_invalid_matching_rejected(self):
        with pytest.raises(ValueError):
            find_blocking_pairs(INSTANCE_A, Matching(((1, 1), (3, 1))))
        with pytest.raises(ValueError):
            is_stable(INSTANCE_A, Matching(((1, 3),)))


class TestBlockingPairValue:
    VALUE = BlockingPair(1, 2, "S2", "P4")

    def test_fields_and_repr(self):
        assert BlockingPair._fields == (
            "student", "project", "student_condition", "project_condition")
        assert repr(self.VALUE) == (
            "BlockingPair(student=1, project=2, student_condition='S2', "
            "project_condition='P4')")

    def test_equal_and_hashed_like_the_plain_tuple(self):
        assert self.VALUE == (1, 2, "S2", "P4")
        assert hash(self.VALUE) == hash((1, 2, "S2", "P4"))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.VALUE.student = 3
        with pytest.raises(AttributeError):
            self.VALUE.extra = 1

    @pytest.mark.parametrize("roundtrip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_roundtrip(self, roundtrip):
        back = roundtrip(self.VALUE)
        assert type(back) is BlockingPair
        assert back == self.VALUE
        assert repr(back) == repr(self.VALUE)


class TestConditionLabels:
    @pytest.mark.parametrize("pairs, pair, labels", [
        # s9 holds p3 but prefers p2, which is full with s6; l1 ranks s9 far
        # above s6
        (((6, 2), (9, 3)), (9, 2), ("S2", "P4")),
        # s1 holds p3 and prefers p1, which has room; l1 is full with s4 s5
        # s6 s7, and ranks s1 above its worst, s6
        (((1, 3), (4, 2), (5, 1), (6, 5), (7, 6)), (1, 1), ("S2", "P3")),
        # s6 is unassigned and p5 is empty; l1 is full with s1 s3 s4 s8, and
        # ranks s6 above its worst, s8
        (((1, 2), (3, 1), (4, 1), (8, 6)), (6, 5), ("S1", "P3")),
        # s3 holds p2 and prefers p1, which has room; l1 is full, but s3 is
        # already one of its students
        (((1, 1), (3, 2), (6, 5), (8, 6)), (3, 1), ("S2", "P2")),
    ], ids=["s9-p2-S2-P4", "s1-p1-S2-P3", "s6-p5-S1-P3", "s3-p1-S2-P2"])
    def test_labels_on_worked_instance(self, pairs, pair, labels):
        blocking = find_blocking_pairs(INSTANCE_B, Matching(pairs))
        labelled = {(bp.student, bp.project): (bp.student_condition,
                                               bp.project_condition)
                    for bp in blocking}
        assert labelled[pair] == labels

    def test_s1_never_with_p2(self):
        for seed in range(1, 120):
            instance = corpus_instance(seed, 6, 5, 3)
            matching = random_valid_matching(instance, random.Random(seed))
            for bp in find_blocking_pairs(instance, matching):
                assert (bp.student_condition, bp.project_condition) != ("S1", "P2")

    def test_condition_soundness_on_random_matchings(self):
        for seed in range(1, 120):
            instance = corpus_instance(seed, 6, 5, 3)
            matching = random_valid_matching(instance, random.Random(seed * 31))
            assigned = matching.as_dict()
            for bp in find_blocking_pairs(instance, matching):
                s, p = bp.student, bp.project
                assert p in instance.srank[s - 1]
                assert (s, p) not in set(matching.pairs)
                if bp.student_condition == "S2":
                    assert s in assigned
                    assert student_prefers(instance, s, p, assigned[s])
                else:
                    assert s not in assigned
                if bp.project_condition == "P4":
                    k = instance.project_owner[p - 1]
                    holders = {t for t, q in matching.pairs if q == p}
                    assert len(holders) == instance.project_capacity[p - 1]
                    worst = max(
                        holders, key=lambda t: instance.lecturer_rank(k, t))
                    assert lecturer_prefers(instance, k, s, worst)


FIELDS = ("student", "project", "student_condition", "project_condition")


def labelled_tuples(instance, matching):
    """The blocking pairs as plain tuples, after checking that each one is
    a ``BlockingPair`` itself, with its fields and its repr."""
    found = find_blocking_pairs(instance, matching)
    for bp in found:
        assert type(bp) is BlockingPair
        assert bp._fields == FIELDS
        assert repr(bp) == (
            f"BlockingPair(student={bp[0]!r}, project={bp[1]!r}, "
            f"student_condition={bp[2]!r}, project_condition={bp[3]!r})")
    return [
        (bp.student, bp.project, bp.student_condition, bp.project_condition)
        for bp in found
    ]


class TestAgainstOracle:
    @pytest.mark.parametrize("n1, n2, n3", [(5, 5, 3), (12, 8, 4)])
    @given(st.integers(1, 10**6), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_double_loop(self, n1, n2, n3, seed, mseed):
        instance = corpus_instance(seed, n1, n2, n3)
        matching = random_valid_matching(instance, random.Random(mseed))
        assert labelled_tuples(instance, matching) == naive_blocking_pairs(
            instance, matching)

    def test_matches_naive_on_known_instances(self):
        for instance, matchings in (
            (INSTANCE_A, (A_M1, A_M2, Matching(()))),
            (INSTANCE_B, B_M),
        ):
            for m in matchings:
                assert labelled_tuples(instance, m) == naive_blocking_pairs(
                    instance, m)

    def test_every_condition_pair_is_reported(self):
        # at this shape every branch of the P-condition is taken: all seven
        # legal (S, P) combinations occur, S2/P3 22 times
        seen = set()
        for seed in range(1, 151):
            instance = corpus_instance(seed, 12, 8, 4)
            matching = random_valid_matching(instance, random.Random(seed * 7))
            got = labelled_tuples(instance, matching)
            assert got == naive_blocking_pairs(instance, matching)
            seen.update((s_cond, p_cond) for _, _, s_cond, p_cond in got)
        assert seen == {
            ("S1", "P1"), ("S1", "P3"), ("S1", "P4"),
            ("S2", "P1"), ("S2", "P2"), ("S2", "P3"), ("S2", "P4"),
        }
