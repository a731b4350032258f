import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_instance
from known_instances import (
    A_STABLE,
    A_STABLE_PAIRS,
    B_M,
    INSTANCE_A,
    INSTANCE_B,
    disjoint_union,
    one_student_markets,
    union_stable_set,
)
from oracles import brute_force_stable_set, dfs_stable_set
from spas import (
    GenParams,
    Instance,
    Matching,
    RawInstance,
    SizeGuardError,
    build_instance,
    enumerate_all,
    generate,
    is_stable,
    parse_matching_file,
    serialize_matching,
    solve_student_optimal,
    stable_pairs,
)

DATA = Path(__file__).parent / "data"


class TestKnownInstances:
    def test_small_instance_stable_set(self):
        # the two sub-markets are independent, so four stable matchings
        assert enumerate_all(INSTANCE_A).matchings == A_STABLE

    def test_table_instance_stable_set(self):
        assert enumerate_all(INSTANCE_B).matchings == B_M

    def test_empty_instance(self):
        built = build_instance(RawInstance([], [], [], [], []))
        assert isinstance(built, Instance)
        assert enumerate_all(built).matchings == (Matching(()),)

    def test_unique_stable_matching(self):
        built = build_instance(RawInstance(
            student_prefs=[[1]],
            project_capacity=[1],
            project_owner=[1],
            lecturer_capacity=[1],
            lecturer_prefs=[[1]],
        ))
        assert isinstance(built, Instance)
        assert enumerate_all(built).matchings == (Matching(((1, 1),)),)


class TestStableSetShape:
    def test_lexicographic_order_and_no_duplicates(self):
        for seed in range(1, 60):
            stable = enumerate_all(corpus_instance(seed, 6, 5, 3))
            pair_lists = [m.pairs for m in stable]
            assert pair_lists == sorted(pair_lists)
            assert len(set(pair_lists)) == len(pair_lists)

    def test_every_member_stable_and_same_size(self):
        for seed in range(1, 60):
            instance = corpus_instance(seed, 6, 5, 3)
            stable = enumerate_all(instance)
            assert len(stable) >= 1  # a stable matching always exists
            sizes = {len(m) for m in stable}
            assert len(sizes) == 1
            for m in stable:
                assert is_stable(instance, m)

    def test_container_protocol(self):
        stable = enumerate_all(INSTANCE_B)
        assert len(stable) == 7
        assert stable[2] == B_M[2]
        assert B_M[5] in stable
        assert stable.index(B_M[5]) == 5
        assert list(iter(stable)) == list(B_M)


class TestSizeGuard:
    def test_guard_trips(self):
        instance = generate(GenParams(
            students=21, projects=3, lecturers=1, pref_len=(1, 1), seed=5))
        with pytest.raises(SizeGuardError):
            enumerate_all(instance)

    def test_guard_overridable(self):
        parts, sets = (INSTANCE_B, INSTANCE_B, INSTANCE_A), (B_M, B_M, A_STABLE)
        instance = disjoint_union(*parts)
        assert instance.num_students == 23
        with pytest.raises(SizeGuardError):
            enumerate_all(instance)
        assert enumerate_all(instance, force=True).matchings == union_stable_set(
            parts, sets)


class TestStablePairs:
    def test_small_instance_union(self):
        assert stable_pairs(INSTANCE_A) == A_STABLE_PAIRS

    def test_table_instance_union(self):
        assert stable_pairs(INSTANCE_B) == frozenset(
            pair for m in B_M for pair in m.pairs
        )

    def test_unique_instance(self):
        built = build_instance(RawInstance(
            student_prefs=[[1]],
            project_capacity=[1],
            project_owner=[1],
            lecturer_capacity=[1],
            lecturer_prefs=[[1]],
        ))
        assert isinstance(built, Instance)
        assert stable_pairs(built) == {(1, 1)}


class TestAgainstBruteForce:
    @given(st.integers(1, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_equals_oracle(self, seed):
        instance = corpus_instance(seed, 5, 5, 3)
        assert enumerate_all(instance).matchings == brute_force_stable_set(instance)

    def test_equals_oracle_on_known_instance(self):
        assert brute_force_stable_set(INSTANCE_A) == A_STABLE

    @given(st.integers(1, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_unseeded_search_equals_oracle(self, seed):
        instance = corpus_instance(seed, 5, 5, 3)
        assert dfs_stable_set(instance) == brute_force_stable_set(instance)


def enum_bench_instances(n: int) -> list[Instance]:
    """The enumeration benchmark's shape at n students: generator seeds
    n*1000 + b for b < 2, lecturer counts from random.Random(n)."""
    rng = random.Random(n)
    projects = max(2, n // 2)
    return [
        generate(GenParams(
            students=n, projects=projects,
            lecturers=rng.randint(1, max(1, projects // 2)),
            pref_len=(1, min(5, projects)), project_cap=(1, 2),
            seed=n * 1000 + b, density=0.4))
        for b in range(2)
    ]


# the unseeded search takes 30-40 s at this size, so its output is pinned
GOLDEN_N = 18


def golden_path(n: int, b: int) -> Path:
    return DATA / f"enum_bench_{n}_{b}.stable"


def write_golden(n: int) -> None:
    """Write ``dfs_stable_set`` of each bench-shape instance at n students,
    in the ``spas enumerate`` block format.  Regenerate with

        PYTHONPATH=src:tests python -c "import test_enumeration as t; t.write_golden(18)"
    """
    for b, instance in enumerate(enum_bench_instances(n)):
        blocks = [
            f"# M{i}\n" + serialize_matching(m)
            for i, m in enumerate(dfs_stable_set(instance), start=1)
        ]
        golden_path(n, b).write_text(
            f"# dfs_stable_set of enum_bench_instances({n})[{b}]\n"
            + "\n".join(blocks))


def read_golden(n: int, b: int, instance: Instance) -> tuple[Matching, ...]:
    text = golden_path(n, b).read_text()
    return tuple(parse_matching_file(block, instance) for block in text.split("\n\n"))


class TestSeededSearch:
    """The search seeded by both deferred-acceptance matchings against the
    unseeded search, at sizes the brute force cannot reach."""

    @pytest.mark.parametrize("n", range(14, 19))
    def test_equals_unseeded_on_bench_shape(self, n):
        for b, instance in enumerate(enum_bench_instances(n)):
            if n == GOLDEN_N:
                reference = read_golden(n, b, instance)
            else:
                reference = dfs_stable_set(instance)
            assert enumerate_all(instance).matchings == reference

    @pytest.mark.parametrize("parts, count, search_union", [
        ((INSTANCE_A, INSTANCE_B), 28, True),
        ((INSTANCE_A, INSTANCE_A, INSTANCE_A), 64, True),
        ((INSTANCE_B, INSTANCE_B), 49, False),
    ], ids=["a+b", "a+a+a", "b+b"])
    def test_equals_unseeded_on_unions(self, parts, count, search_union):
        # the reference is the product of the parts' unseeded stable sets;
        # the unseeded search over the whole union agrees with it where it
        # takes seconds, and takes about two minutes on b+b
        instance = disjoint_union(*parts)
        reference = union_stable_set(parts, [dfs_stable_set(p) for p in parts])
        assert len(reference) == count
        if search_union:
            assert dfs_stable_set(instance) == reference
        assert enumerate_all(instance).matchings == reference

    def test_one_project_lists_past_the_guard(self):
        # one project per list: the stable matching is unique, and the
        # unseeded search ran for minutes at this size without finishing
        instance = generate(GenParams(
            students=1200, projects=400, lecturers=40, pref_len=(1, 1),
            seed=1200))
        stable = enumerate_all(instance, force=True)
        assert stable.matchings == (solve_student_optimal(instance),)
        assert is_stable(instance, stable[0])

    def test_search_deeper_than_the_recursion_limit(self):
        # INSTANCE_A's four-member diamond next to 1000 trivial markets:
        # the search descends through all 1005 students
        parts = (INSTANCE_A, one_student_markets(1000))
        trivial = Matching(tuple((i, i) for i in range(1, 1001)))
        stable = enumerate_all(disjoint_union(*parts), force=True)
        assert stable.matchings == union_stable_set(parts, [A_STABLE, [trivial]])
        assert len(stable) == 4
