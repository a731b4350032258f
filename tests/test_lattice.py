import copy
import gc
import pickle
import sys
import threading
import weakref
from itertools import combinations
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_instance
from known_instances import (
    A_HASSE_EDGES,
    A_M1,
    A_M2,
    A_STABLE,
    B_HASSE_EDGES,
    B_M,
    INSTANCE_A,
    INSTANCE_B,
    UNIONS,
    disjoint_union,
    union_stable_set,
)
from oracles import (
    _combine_def,
    _dominates_def,
    _lect_dominates_def,
    _lect_set,
    _prefers_first_sets,
    hasse_def,
)
from spas import (
    GenParams,
    Instance,
    LecturerComparison,
    Matching,
    RawInstance,
    build_hasse,
    build_instance,
    enumerate_all,
    generate,
    join,
    join_all,
    lecturer_compare,
    lecturer_dominates,
    meet,
    meet_all,
    solve_lecturer_optimal,
    solve_student_optimal,
    student_dominates,
)
from spas import lattice


class TestStudentDominance:
    def test_quoted_example(self):
        assert student_dominates(INSTANCE_A, A_M1, A_M2)
        assert not student_dominates(INSTANCE_A, A_M2, A_M1)

    def test_reflexive(self):
        for m in B_M:
            assert student_dominates(INSTANCE_B, m, m)

    def test_incomparable_siblings(self):
        assert not student_dominates(INSTANCE_B, B_M[2], B_M[3])
        assert not student_dominates(INSTANCE_B, B_M[3], B_M[2])

    def test_unstable_input_rejected(self):
        with pytest.raises(ValueError):
            student_dominates(INSTANCE_A, Matching(()), A_M1)

    def test_partial_order_on_enumerated_sets(self):
        for seed in range(1, 40):
            instance = corpus_instance(seed, 6, 5, 3)
            stable = list(enumerate_all(instance))
            dom = {
                (i, j): student_dominates(instance, x, y)
                for i, x in enumerate(stable)
                for j, y in enumerate(stable)
            }
            n = len(stable)
            for i in range(n):
                assert dom[(i, i)]
                for j in range(n):
                    if i != j and dom[(i, j)] and dom[(j, i)]:
                        raise AssertionError("anti-symmetry violated")
                    for k in range(n):
                        if dom[(i, j)] and dom[(j, k)]:
                            assert dom[(i, k)], "transitivity violated"


class TestLecturerComparison:
    def test_quoted_example(self):
        assert lecturer_compare(
            INSTANCE_A, 1, A_M2, A_M1) is LecturerComparison.PREFERS_FIRST
        assert lecturer_compare(
            INSTANCE_A, 1, A_M1, A_M2) is LecturerComparison.PREFERS_SECOND

    def test_indifferent_on_equal_sets(self):
        for m in B_M:
            for k in INSTANCE_B.lecturers():
                assert lecturer_compare(
                    INSTANCE_B, k, m, m) is LecturerComparison.INDIFFERENT

    def test_table_instance_example(self):
        # l1 swaps s7 for s6 between these rows and ranks s7 first
        assert lecturer_compare(
            INSTANCE_B, 1, B_M[2], B_M[1]) is LecturerComparison.PREFERS_FIRST

    @pytest.mark.parametrize("k", [0, INSTANCE_A.num_lecturers + 1])
    def test_unknown_lecturer_raises(self, k):
        # the id is checked before the stability gate, so an unstable
        # member does not change the error
        for second in (A_M2, Matching(((1, 2),))):
            with pytest.raises(ValueError, match=f"^unknown lecturer l{k}$"):
                lecturer_compare(INSTANCE_A, k, A_M1, second)

    @pytest.mark.parametrize("k", [True, 1.0, "1"])
    def test_non_int_lecturer_is_unknown(self, k):
        # True and 1.0 used to answer for l1, and "1" raised a TypeError
        with pytest.raises(ValueError, match=f"^unknown lecturer l{k}$"):
            lecturer_compare(INSTANCE_B, k, B_M[0], B_M[1])

    def test_size_mismatch_signals_unstable(self):
        with pytest.raises(ValueError):
            lecturer_compare(INSTANCE_A, 1, Matching(((1, 1),)), A_M2)

    def test_incomparable_between_stable_matchings(self):
        # two stable pairs with interleaved rank differences: the sibling
        # swap matchings of the small instance under l1, and table rows 3
        # and 6 under l1
        swap1, swap2 = A_STABLE[1], A_STABLE[2]
        assert lecturer_compare(
            INSTANCE_A, 1, swap1, swap2) is LecturerComparison.INCOMPARABLE
        assert lecturer_compare(
            INSTANCE_B, 1, B_M[2], B_M[5]) is LecturerComparison.INCOMPARABLE


class TestLecturerDominance:
    def test_derived_example(self):
        assert lecturer_dominates(INSTANCE_A, A_M2, A_M1)
        assert not lecturer_dominates(INSTANCE_A, A_M1, A_M2)

    def test_reflexive(self):
        assert lecturer_dominates(INSTANCE_B, B_M[3], B_M[3])

    def test_extreme_pair(self):
        assert lecturer_dominates(INSTANCE_B, B_M[6], B_M[0])

    def test_unstable_input_rejected(self):
        with pytest.raises(ValueError):
            lecturer_dominates(INSTANCE_A, A_M1, Matching(()))

    @given(st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_student_dominance_implies_reversed_lecturer_dominance(self, seed):
        # the one-way reversal holds everywhere; the converse does not (the
        # table instance refutes it, see the verification suite)
        instance = corpus_instance(seed, 7, 6, 3)
        stable = enumerate_all(instance)
        for x in stable:
            for y in stable:
                if student_dominates(instance, x, y):
                    assert lecturer_dominates(instance, y, x)

    def test_one_way_reversal_on_table_instance(self):
        for x in B_M:
            for y in B_M:
                if student_dominates(INSTANCE_B, x, y):
                    assert lecturer_dominates(INSTANCE_B, y, x)

    def test_converse_reversal_refuted_by_table_instance(self):
        # both lecturers strictly prefer row 3 over row 4, yet the student
        # side is split (s2 against s6), so lecturer dominance does not
        # imply reversed student dominance
        assert lecturer_dominates(INSTANCE_B, B_M[2], B_M[3])
        assert not student_dominates(INSTANCE_B, B_M[3], B_M[2])

    @given(st.integers(1, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_join_is_lecturer_dominant_and_meet_dominated(self, seed):
        instance = corpus_instance(seed, 6, 5, 3)
        stable = enumerate_all(instance)
        top = join_all(instance, stable)
        bottom = meet_all(instance, stable)
        for m in stable:
            assert lecturer_dominates(instance, top, m)
            assert lecturer_dominates(instance, m, bottom)


class TestMeetJoin:
    def test_quoted_meet_and_join(self):
        assert meet(INSTANCE_B, B_M[2], B_M[3]) == B_M[1]
        assert join(INSTANCE_B, B_M[2], B_M[3]) == B_M[4]

    def test_idempotent(self):
        for m in (A_M1, A_M2):
            assert meet(INSTANCE_A, m, m) == m
            assert join(INSTANCE_A, m, m) == m

    def test_commutative(self):
        assert meet(INSTANCE_B, B_M[3], B_M[2]) == B_M[1]
        assert join(INSTANCE_B, B_M[3], B_M[2]) == B_M[4]

    def test_unstable_input_rejected(self):
        with pytest.raises(ValueError):
            meet(INSTANCE_A, A_M1, Matching(()))
        with pytest.raises(ValueError):
            join(INSTANCE_A, Matching(()), A_M1)

    @given(st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_closure_and_bounds(self, seed):
        instance = corpus_instance(seed, 6, 5, 3)
        stable = enumerate_all(instance)
        members = set(stable)
        for x, y in combinations(stable, 2):
            lo = meet(instance, x, y)
            hi = join(instance, x, y)
            assert lo in members and hi in members
            assert student_dominates(instance, lo, x)
            assert student_dominates(instance, lo, y)
            assert student_dominates(instance, x, hi)
            assert student_dominates(instance, y, hi)


class TestMeetAllJoinAll:
    def test_table_instance_extremes(self):
        assert meet_all(INSTANCE_B, B_M) == B_M[0]
        assert join_all(INSTANCE_B, B_M) == B_M[6]

    def test_two_element_set(self):
        assert meet_all(INSTANCE_A, (A_M1, A_M2)) == A_M1
        assert join_all(INSTANCE_A, (A_M1, A_M2)) == A_M2

    def test_singleton(self):
        assert meet_all(INSTANCE_B, (B_M[3],)) == B_M[3]
        assert join_all(INSTANCE_B, (B_M[3],)) == B_M[3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            meet_all(INSTANCE_A, ())
        with pytest.raises(ValueError):
            join_all(INSTANCE_A, ())


class TestHasse:
    def test_table_instance_diagram(self):
        diagram = build_hasse(INSTANCE_B, enumerate_all(INSTANCE_B))
        assert diagram.nodes == B_M
        assert diagram.edges == B_HASSE_EDGES
        assert diagram.source_indices() == (0,)
        assert diagram.sink_indices() == (6,)
        assert diagram.label(0) == "M1"

    def test_small_instance_diamond(self):
        diagram = build_hasse(INSTANCE_A, enumerate_all(INSTANCE_A))
        assert diagram.nodes == A_STABLE
        assert diagram.edges == A_HASSE_EDGES

    def test_empty(self):
        diagram = build_hasse(INSTANCE_A, ())
        assert diagram.edges == hasse_def(INSTANCE_A, ()) == ()

    def test_singleton(self):
        diagram = build_hasse(INSTANCE_A, (A_M1,))
        assert diagram.edges == ()
        assert diagram.source_indices() == diagram.sink_indices() == (0,)

    @given(st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_unique_source_and_sink_are_the_extremes(self, seed):
        instance = corpus_instance(seed, 6, 5, 3)
        stable = enumerate_all(instance)
        diagram = build_hasse(instance, stable)
        (src,) = diagram.source_indices()
        (snk,) = diagram.sink_indices()
        assert diagram.nodes[src] == meet_all(instance, stable)
        assert diagram.nodes[snk] == join_all(instance, stable)

    @given(st.integers(1, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_edges_are_covers(self, seed):
        instance = corpus_instance(seed, 6, 5, 3)
        stable = enumerate_all(instance)
        diagram = build_hasse(instance, stable)
        nodes = diagram.nodes
        edge_set = set(diagram.edges)
        for i, x in enumerate(nodes):
            for j, y in enumerate(nodes):
                if i == j:
                    continue
                dominates = _dominates_def(instance, x, y)
                between = any(
                    k != i and k != j
                    and _dominates_def(instance, x, nodes[k])
                    and _dominates_def(instance, nodes[k], y)
                    for k in range(len(nodes))
                )
                assert ((i, j) in edge_set) == (dominates and not between)

    @given(st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_equals_definition_on_corpus(self, seed):
        instance = corpus_instance(seed, 7, 6, 3)
        stable = enumerate_all(instance)
        assert build_hasse(instance, stable).edges == hasse_def(instance, stable)

    @pytest.mark.parametrize("name", sorted(UNIONS))
    def test_equals_definition_on_unions(self, name):
        parts, sets = UNIONS[name]
        instance = disjoint_union(*parts)
        stable = union_stable_set(parts, sets)
        assert build_hasse(instance, stable).edges == hasse_def(instance, stable)


def fresh(instance: Instance) -> Instance:
    """An equal instance that no matching is certified for yet."""
    return copy.copy(instance)


def a_with_s1_above_s3() -> Instance:
    # s1 prefers p1, which l1 would take from s3 when l1 ranks s1 first
    raw = RawInstance(
        student_prefs=[list(p) for p in INSTANCE_A.student_prefs],
        project_capacity=list(INSTANCE_A.project_capacity),
        project_owner=list(INSTANCE_A.project_owner),
        lecturer_capacity=list(INSTANCE_A.lecturer_capacity),
        lecturer_prefs=[[4, 5, 1, 3, 2], [2, 3, 5, 4]],
    )
    return build_instance(raw)


class TestStabilityMemo:
    """The lattice operations remember a proved member on the matching
    itself, as its certificate for the instance, and never remember a
    rejection."""

    UNSTABLE = Matching(((1, 2),))
    MESSAGE = "matching is not stable, e.g. blocking pair (s1, p1)"

    @pytest.mark.parametrize("call", [
        lambda i, m: meet(i, A_M1, m),
        lambda i, m: join(i, m, A_M1),
        lambda i, m: student_dominates(i, A_M1, m),
        lambda i, m: lecturer_dominates(i, m, A_M1),
        lambda i, m: meet_all(i, [A_M1, A_M2, m]),
        lambda i, m: join_all(i, [m, A_M2]),
        lambda i, m: lecturer_compare(i, 2, A_M1, m),
        lambda i, m: build_hasse(i, [A_M2, m, A_M1]),
    ], ids=["meet", "join", "student_dominates", "lecturer_dominates",
            "meet_all", "join_all", "lecturer_compare", "build_hasse"])
    def test_unstable_rejected_on_every_call(self, call):
        instance = fresh(INSTANCE_A)
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                call(instance, self.UNSTABLE)
            assert str(exc.value) == self.MESSAGE
        assert not instance._certifies(self.UNSTABLE)

    def test_each_member_checked_once(self, monkeypatch):
        checked = []

        def counting(instance, m):
            checked.append(m)
            return find(instance, m)

        find = lattice.find_blocking_pairs
        monkeypatch.setattr(lattice, "find_blocking_pairs", counting)
        instance = fresh(INSTANCE_B)
        for x, y in combinations(B_M, 2):
            meet(instance, x, y)
            join(instance, y, x)
        meet_all(instance, B_M)
        assert sorted(checked, key=B_M.index) == list(B_M)

    def test_hasse_then_meet_join_check_each_member_once(self, monkeypatch):
        checked = []

        def counting(instance, m):
            checked.append(m)
            return find(instance, m)

        find = lattice.find_blocking_pairs
        monkeypatch.setattr(lattice, "find_blocking_pairs", counting)
        parts, sets = UNIONS["a+b"]
        instance = disjoint_union(*parts)
        stable = union_stable_set(parts, sets)
        build_hasse(instance, stable)
        for x, y in combinations(stable, 2):
            meet(instance, x, y)
            join(instance, x, y)
        assert sorted(checked, key=stable.index) == list(stable)

    def test_equal_twin_checked_once_then_recognised(self, monkeypatch):
        # the certificate sits on the object, so an equal twin of a proved
        # member is checked once itself, and recognised from then on
        instance = fresh(INSTANCE_A)
        assert meet(instance, A_M1, A_M2) == A_M1
        checked = []

        def counting(instance, m):
            checked.append(m)
            return find(instance, m)

        find = lattice.find_blocking_pairs
        monkeypatch.setattr(lattice, "find_blocking_pairs", counting)
        twins = Matching(A_M1.pairs), Matching(tuple(reversed(A_M2.pairs)))
        assert twins[0] is not A_M1 and twins[1] is not A_M2
        for _ in range(3):
            assert join(instance, *twins) == A_M2
            assert meet(instance, A_M2, twins[0]) == A_M1
        assert [id(m) for m in checked] == [id(m) for m in twins]
        assert all(instance._certifies(m) for m in (A_M1, A_M2, *twins))

    def test_verdict_is_per_instance(self):
        other = a_with_s1_above_s3()
        assert other.student_prefs == INSTANCE_A.student_prefs
        instance = fresh(INSTANCE_A)
        assert meet(instance, A_M2, A_M2) == A_M2
        with pytest.raises(ValueError, match=r"blocking pair \(s1, p1\)"):
            meet(other, A_M2, A_M2)
        assert instance._certifies(A_M2)
        assert not other._certifies(A_M2)

    def test_certificates_keep_no_matching_alive(self):
        instance = fresh(INSTANCE_B)
        members = [Matching(m.pairs) for m in B_M]
        meet_all(instance, members)
        assert all(instance._certifies(m) for m in members)
        alive = [weakref.ref(m) for m in members]
        del members
        gc.collect()
        assert not any(ref() for ref in alive)

    def test_concurrent_callers_share_certificates(self):
        # check-then-add races only repeat a check; every call still gets
        # the right answer and an unstable argument is always rejected
        instance = fresh(INSTANCE_B)
        wrong = []

        def work():
            for x, y in combinations(B_M, 2):
                if meet(instance, x, y) != _combine_def(instance, x, y, True):
                    wrong.append((x, y))
                try:
                    join(instance, x, Matching(()))
                    wrong.append(x)
                except ValueError:
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert all(instance._certifies(m) for m in B_M)

    def test_copies_and_pickles_start_uncertified(self):
        instance = fresh(INSTANCE_B)
        meet_all(instance, B_M)
        for twin in (copy.deepcopy(instance),
                     pickle.loads(pickle.dumps(instance))):
            assert twin == instance
            assert not any(twin._certifies(m) for m in B_M)
            assert meet_all(twin, B_M) == B_M[0]


class TestCertificate:
    """A matching proved stable carries a certificate naming its instance;
    it leaves copies and pickles and keeps no instance alive."""

    @staticmethod
    def count_checks(monkeypatch) -> list[Matching]:
        checked = []
        find = lattice.find_blocking_pairs

        def counting(instance, m):
            checked.append(m)
            return find(instance, m)

        monkeypatch.setattr(lattice, "find_blocking_pairs", counting)
        return checked

    def test_pickle_bytes_match_an_uncertified_twin(self):
        instance = fresh(INSTANCE_B)
        stable = enumerate_all(instance)
        meet_all(instance, stable)
        for m in stable:
            hash(m)
            assert instance._certifies(m)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.dumps(m, protocol) == pickle.dumps(
                    Matching(m.pairs), protocol)
            back = pickle.loads(pickle.dumps(m))
            assert back == m and vars(back) == {"pairs": m.pairs}

    def test_deep_copy_is_rechecked_exactly_once(self, monkeypatch):
        instance = fresh(INSTANCE_B)
        twin, copies = copy.deepcopy((instance, enumerate_all(instance)))
        assert not any(twin._certifies(m) for m in copies)
        checked = self.count_checks(monkeypatch)
        for _ in range(3):
            build_hasse(twin, copies)
            for x, y in combinations(copies, 2):
                meet(twin, x, y)
                join(twin, y, x)
        assert sorted(checked, key=copies.index) == list(copies)
        assert all(twin._certifies(m) for m in copies)

    def test_meet_and_join_results_are_not_certified(self, monkeypatch):
        instance = fresh(INSTANCE_B)
        stable = enumerate_all(instance)
        checked = self.count_checks(monkeypatch)
        made = [op(instance, x, y) for x, y in combinations(stable, 2)
                for op in (meet, join)]
        assert checked == []
        assert not any(instance._certifies(m) for m in made)

    def test_certificate_keeps_no_instance_alive(self):
        instance = fresh(INSTANCE_B)
        stable = enumerate_all(instance)
        meet_all(instance, stable)
        alive = weakref.ref(instance)
        del instance
        gc.collect()
        assert alive() is None
        assert len(stable) == len(B_M)
        # a dead certificate names no instance, so the gate checks again
        assert meet_all(fresh(INSTANCE_B), stable) == B_M[0]


def assert_student_side_is_definitional(
    instance: Instance, stable: Sequence[Matching]
) -> None:
    for x in stable:
        for y in stable:
            assert meet(instance, x, y) == _combine_def(instance, x, y, True)
            assert join(instance, x, y) == _combine_def(instance, x, y, False)
            assert student_dominates(instance, x, y) == _dominates_def(
                instance, x, y)


def assert_lecturer_side_is_definitional(
    instance: Instance, stable: Sequence[Matching]
) -> None:
    for x in stable:
        for y in stable:
            assert lecturer_dominates(instance, x, y) == _lect_dominates_def(
                instance, x, y)
            for k in instance.lecturers():
                sx, sy = _lect_set(instance, x, k), _lect_set(instance, y, k)
                want = (
                    LecturerComparison.INDIFFERENT if sx == sy else
                    LecturerComparison.PREFERS_FIRST
                    if _prefers_first_sets(instance, k, sx, sy) else
                    LecturerComparison.PREFERS_SECOND
                    if _prefers_first_sets(instance, k, sy, sx) else
                    LecturerComparison.INCOMPARABLE
                )
                assert lecturer_compare(instance, k, x, y) is want


class TestAgainstDefinitions:
    """The rank-table comparisons against the definitions in the oracles,
    on whole stable sets."""

    @given(st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_student_side_on_corpus_pairs(self, seed):
        instance = corpus_instance(seed, 6, 5, 3)
        assert_student_side_is_definitional(instance, enumerate_all(instance))

    @given(st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_lecturer_side_on_corpus_pairs(self, seed):
        instance = corpus_instance(seed, 7, 6, 3)
        assert_lecturer_side_is_definitional(instance, enumerate_all(instance))

    @pytest.mark.parametrize("name", sorted(UNIONS))
    def test_on_unions(self, name):
        parts, sets = UNIONS[name]
        instance = disjoint_union(*parts)
        stable = union_stable_set(parts, sets)
        assert_student_side_is_definitional(instance, stable)
        assert_lecturer_side_is_definitional(instance, stable)

    def test_where_the_das_differ(self):
        # most corpus draws have one stable matching; these 51 of 300 dense
        # draws have M_s != M_l, so their stable sets have several members
        split = 0
        for seed in range(300):
            instance = generate(GenParams(
                8, 6, 3, pref_len=(2, 5), project_cap=(1, 2), seed=seed,
                density=0.8))
            if solve_student_optimal(instance) == solve_lecturer_optimal(instance):
                continue
            split += 1
            stable = enumerate_all(instance)
            assert_student_side_is_definitional(instance, stable)
            assert_lecturer_side_is_definitional(instance, stable)
        assert split == 51
