import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_instance
from known_instances import (
    A_M1,
    A_M2,
    B_M,
    INSTANCE_A,
    INSTANCE_B,
    irving_leather,
    irving_leather_paired,
)
from oracles import dfs_stable_set, naive_blocking_pairs
from spas import (
    GenParams,
    Instance,
    Matching,
    RawInstance,
    build_instance,
    generate,
    is_stable,
    join_all,
    meet_all,
    solve_lecturer_optimal,
    solve_student_optimal,
    student_dominates,
)


def assert_da_matches_fold(instance: Instance) -> None:
    # meet and join of the whole unseeded stable set: every student's best
    # and every student's worst stable project
    stable = dfs_stable_set(instance)
    assert solve_student_optimal(instance) == meet_all(instance, stable)
    assert solve_lecturer_optimal(instance) == join_all(instance, stable)


class TestKnownInstances:
    def test_small_instance_extremes(self):
        assert solve_student_optimal(INSTANCE_A) == A_M1
        assert solve_lecturer_optimal(INSTANCE_A) == A_M2
        assert_da_matches_fold(INSTANCE_A)

    def test_table_instance_extremes(self):
        assert solve_student_optimal(INSTANCE_B) == B_M[0]
        assert solve_lecturer_optimal(INSTANCE_B) == B_M[6]
        assert_da_matches_fold(INSTANCE_B)

    def test_empty_instance(self):
        built = build_instance(RawInstance([], [], [], [], []))
        assert isinstance(built, Instance)
        assert solve_student_optimal(built) == Matching(())
        assert solve_lecturer_optimal(built) == Matching(())
        assert_da_matches_fold(built)

    def test_unique_stable_matching(self):
        built = build_instance(RawInstance(
            student_prefs=[[1]],
            project_capacity=[1],
            project_owner=[1],
            lecturer_capacity=[1],
            lecturer_prefs=[[1]],
        ))
        assert isinstance(built, Instance)
        assert solve_student_optimal(built) == Matching(((1, 1),))
        assert solve_lecturer_optimal(built) == Matching(((1, 1),))
        assert_da_matches_fold(built)

    def test_outputs_stable(self):
        assert is_stable(INSTANCE_B, solve_student_optimal(INSTANCE_B))
        assert is_stable(INSTANCE_B, solve_lecturer_optimal(INSTANCE_B))


def first_and_last(instance: Instance) -> tuple[Matching, Matching]:
    # every student on the first project of their list, and on the last
    prefs = list(enumerate(instance.student_prefs, start=1))
    return (Matching(tuple((s, mine[0]) for s, mine in prefs)),
            Matching(tuple((s, mine[-1]) for s, mine in prefs)))


class TestIrvingLeather:
    """Complete lists on which SPA-student gives every student their first
    project, and in IL(n) SPA-lecturer their last; each IL2(n) lecturer
    offers two projects."""

    @pytest.mark.parametrize("n", [2 ** e for e in range(1, 9)])
    def test_extremes_are_first_and_last(self, n):
        instance = irving_leather(n)
        best, worst = first_and_last(instance)
        assert solve_student_optimal(instance) == best
        assert solve_lecturer_optimal(instance) == worst
        if n <= 64:
            assert naive_blocking_pairs(instance, best) == []
            assert naive_blocking_pairs(instance, worst) == []

    @pytest.mark.parametrize("n", [2 ** e for e in range(2, 9)])
    def test_paired_extremes(self, n):
        instance = irving_leather_paired(n)
        assert all(len(mine) == 2 for mine in instance.lecturer_projects)
        best, _ = first_and_last(instance)
        assert solve_student_optimal(instance) == best
        worst = solve_lecturer_optimal(instance)
        if n <= 8:
            assert worst == join_all(instance, dfs_stable_set(instance))
        if n <= 64:
            assert naive_blocking_pairs(instance, best) == []
            assert naive_blocking_pairs(instance, worst) == []


class TestMethodAgreement:
    """Deferred acceptance against the meet/join fold over the stable set
    of the unseeded search, which never calls deferred acceptance."""

    @given(st.integers(1, 10**6))
    @settings(max_examples=120, deadline=None)
    def test_methods_agree(self, seed):
        assert_da_matches_fold(corpus_instance(seed, 7, 6, 3))

    @given(st.integers(1, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_da_agrees_on_wider_corpus(self, seed):
        assert_da_matches_fold(corpus_instance(seed, 12, 8, 4))

    @given(st.integers(1, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_da_agrees_when_lecturers_fill(self, seed):
        # at most two lecturers: they fill early, so a proposal often
        # overfills a lecturer while its project has room, and the
        # lecturer rejects
        assert_da_matches_fold(corpus_instance(seed, 12, 8, 2))

    @given(st.integers(1, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_extremes_are_fold_of_stable_set(self, seed):
        instance = corpus_instance(seed, 6, 5, 3)
        stable = dfs_stable_set(instance)
        assert solve_student_optimal(instance) == meet_all(instance, stable)
        assert solve_lecturer_optimal(instance) == join_all(instance, stable)

    @given(st.integers(1, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_sandwich_property(self, seed):
        instance = corpus_instance(seed, 6, 5, 3)
        stable = dfs_stable_set(instance)
        best = solve_student_optimal(instance)
        worst = solve_lecturer_optimal(instance)
        for m in stable:
            assert student_dominates(instance, best, m)
            assert student_dominates(instance, m, worst)

    def test_da_scales_past_the_guard(self):
        # far beyond the enumeration guard: a sparse 120-student draw, and
        # the largest rung of the benchmark's solve ladder (2000 students,
        # 500 projects, 100 lecturers, lists of 3-6 projects)
        instances = [
            generate(GenParams(
                students=120, projects=40, lecturers=8, pref_len=(2, 6),
                project_cap=(1, 3), seed=11, density=0.2)),
            generate(GenParams(
                students=2000, projects=500, lecturers=100, pref_len=(3, 6),
                project_cap=(1, 4), seed=12_007, density=4.5 / 500)),
        ]
        for instance in instances:
            best = solve_student_optimal(instance)
            worst = solve_lecturer_optimal(instance)
            assert is_stable(instance, best)
            assert is_stable(instance, worst)
            assert student_dominates(instance, best, worst)
