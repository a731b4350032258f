import random
import sys
from collections import Counter
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
    irving_leather,
    irving_leather_paired,
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
    build_hasse,
    build_instance,
    enumerate_all,
    find_blocking_pairs,
    generate,
    is_stable,
    lattice,
    parse_matching_file,
    serialize_matching,
    solve_lecturer_optimal,
    solve_student_optimal,
    stable_pairs,
)

DATA = Path(__file__).parent / "data"


class TestKnownInstances:
    def test_small_instance_stable_set(self):
        # the two sub-markets are independent, so four stable matchings
        assert enumerate_all(INSTANCE_A) == A_STABLE

    def test_table_instance_stable_set(self):
        assert enumerate_all(INSTANCE_B) == B_M

    def test_empty_instance(self):
        built = build_instance(RawInstance([], [], [], [], []))
        assert isinstance(built, Instance)
        assert enumerate_all(built) == (Matching(()),)

    def test_unique_stable_matching(self):
        built = build_instance(RawInstance(
            student_prefs=[[1]],
            project_capacity=[1],
            project_owner=[1],
            lecturer_capacity=[1],
            lecturer_prefs=[[1]],
        ))
        assert isinstance(built, Instance)
        assert enumerate_all(built) == (Matching(((1, 1),)),)


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
        assert type(stable) is tuple
        assert len(stable) == 7
        assert stable[2] == B_M[2]
        assert B_M[5] in stable
        assert stable.index(B_M[5]) == 5
        assert list(iter(stable)) == list(B_M)


class TestSizeGuard:
    def test_guard_trips(self):
        instance = disjoint_union(INSTANCE_B, INSTANCE_B, INSTANCE_A)
        with pytest.raises(SizeGuardError):
            enumerate_all(instance)

    def test_guard_waits_for_the_search(self):
        # both optimal matchings coincide on this 21-student draw, so its
        # one member needs no search and no force
        instance = generate(GenParams(
            students=21, projects=3, lecturers=1, pref_len=(1, 1), seed=5))
        best = solve_student_optimal(instance)
        assert best == solve_lecturer_optimal(instance)
        assert enumerate_all(instance) == (best,)

    def test_guard_overridable(self):
        parts, sets = (INSTANCE_B, INSTANCE_B, INSTANCE_A), (B_M, B_M, A_STABLE)
        instance = disjoint_union(*parts)
        assert instance.num_students == 23
        with pytest.raises(SizeGuardError):
            enumerate_all(instance)
        assert enumerate_all(instance, force=True) == union_stable_set(
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
        assert enumerate_all(instance) == brute_force_stable_set(instance)

    def test_equals_oracle_on_known_instance(self):
        assert brute_force_stable_set(INSTANCE_A) == A_STABLE

    @given(st.integers(1, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_unseeded_search_equals_oracle(self, seed):
        instance = corpus_instance(seed, 5, 5, 3)
        assert dfs_stable_set(instance) == brute_force_stable_set(instance)


class TestIrvingLeather:
    """Stable sets with no product structure (Irving & Leather, 1986)."""

    @pytest.mark.parametrize("family, n, size", [
        (irving_leather, 2, 2),
        (irving_leather, 4, 10),
        (irving_leather, 8, 268),
        (irving_leather_paired, 4, 3),
        (irving_leather_paired, 8, 25),
    ])
    def test_stable_set_size(self, family, n, size):
        instance = family(n)
        stable = dfs_stable_set(instance)
        assert len(stable) == size
        assert enumerate_all(instance) == stable

    @pytest.mark.parametrize("family", [irving_leather, irving_leather_paired])
    def test_equals_oracle_at_four_students(self, family):
        instance = family(4)
        assert brute_force_stable_set(instance) == dfs_stable_set(instance)


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
    unseeded search.  Random draws rarely reach the search: it runs only
    where the two DAs differ."""

    def test_equals_unseeded_where_the_das_differ(self):
        # dense lists over few projects: 51 of these 300 draws have
        # M_s != M_l, and in 10 of them M_s leaves a lecturer
        # undersubscribed, the only case where the load bounds differ
        # from the capacities
        searched = undersubscribed = 0
        for seed in range(300):
            instance = generate(GenParams(
                8, 6, 3, pref_len=(2, 5), project_cap=(1, 2), seed=seed,
                density=0.8))
            best = solve_student_optimal(instance)
            if best == solve_lecturer_optimal(instance):
                continue
            searched += 1
            load = Counter(instance.project_owner[p - 1] for _, p in best.pairs)
            undersubscribed += any(
                load[k] < d for k, d in enumerate(instance.lecturer_capacity, 1))
            assert enumerate_all(instance) == dfs_stable_set(instance), seed
        assert (searched, undersubscribed) == (51, 10)

    @pytest.mark.parametrize("n", range(14, 19))
    def test_equals_unseeded_on_bench_shape(self, n):
        # M_s = M_l on every one of these instances, so they pin the early
        # return after the two DAs, and the 18-student golden file, not the
        # search itself
        for b, instance in enumerate(enum_bench_instances(n)):
            if n == GOLDEN_N:
                reference = read_golden(n, b, instance)
            else:
                reference = dfs_stable_set(instance)
            assert enumerate_all(instance) == reference

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
        assert enumerate_all(instance) == reference

    def test_one_project_lists_past_the_guard(self):
        # one project per list: the stable matching is unique, and the
        # unseeded search ran for minutes at this size without finishing
        instance = generate(GenParams(
            students=1200, projects=400, lecturers=40, pref_len=(1, 1),
            seed=1200))
        stable = enumerate_all(instance, force=True)
        assert stable == (solve_student_optimal(instance),)
        assert is_stable(instance, stable[0])

    def test_search_deeper_than_the_recursion_limit(self):
        # INSTANCE_A's four-member diamond next to 1000 trivial markets:
        # the search descends through all 1005 students
        parts = (INSTANCE_A, one_student_markets(1000))
        trivial = Matching(tuple((i, i) for i in range(1, 1001)))
        stable = enumerate_all(disjoint_union(*parts), force=True)
        assert stable == union_stable_set(parts, [A_STABLE, [trivial]])
        assert len(stable) == 4


def search_work(instance: Instance) -> tuple[int, int]:
    """How often ``enumerate_all`` enters its nested ``level`` and
    ``blocked`` on ``instance``: the profiler's ``call`` events on their
    code objects, which a generator fires each time it starts or resumes.
    The profiler in place before is restored afterwards."""
    nested = {c: c.co_name for c in enumerate_all.__code__.co_consts
              if hasattr(c, "co_name")}
    counts: Counter[str] = Counter()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in nested:
            counts[nested[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        enumerate_all(instance)
    finally:
        sys.setprofile(previous)
    return counts["level"], counts["blocked"]


class TestSearchWork:
    """The search's work on unions of the bundled instances, pinned as
    (level, blocked) entries: a cut that stops pruning still finds the
    same stable set, so only the work shows it.  Without the project-fill
    cut, for example, ``b`` reads (449, 478) and ``b+b`` (3599, 3824)."""

    @pytest.mark.parametrize("parts, work", [
        ((INSTANCE_A, INSTANCE_A), (119, 95)),
        ((INSTANCE_B,), (253, 294)),
        ((INSTANCE_A, INSTANCE_B), (1039, 1195)),
        ((INSTANCE_B, INSTANCE_B), (2031, 2352)),
        ((INSTANCE_A, INSTANCE_A, INSTANCE_A), (503, 399)),
    ], ids=["a+a", "b", "a+b", "b+b", "a^3"])
    def test_pinned_entries(self, parts, work):
        assert search_work(disjoint_union(*parts)) == work


class TestCertificates:
    """``enumerate_all`` certifies every member it returns as stable for
    the instance, and the lattice layer never checks a certified member
    again, so each certificate must be sound."""

    @staticmethod
    def assert_certificates_sound(monkeypatch, instances):
        certified = []
        certify = Instance._certify

        def recording(instance, *matchings):
            certified.extend((instance, m) for m in matchings)
            certify(instance, *matchings)

        monkeypatch.setattr(Instance, "_certify", recording)
        for instance in instances:
            del certified[:]
            stable = enumerate_all(instance)
            assert certified == [(instance, m) for m in stable]
            for m in stable:
                assert instance._certifies(m)
                assert find_blocking_pairs(instance, m) == ()

    @pytest.mark.parametrize("shape", [(5, 5, 3), (6, 5, 3), (7, 6, 3)])
    def test_sound_on_corpus_shapes(self, monkeypatch, shape):
        self.assert_certificates_sound(
            monkeypatch, (corpus_instance(seed, *shape) for seed in range(1, 80)))

    def test_sound_on_unions(self, monkeypatch):
        self.assert_certificates_sound(monkeypatch, (
            disjoint_union(*parts) for parts in (
                (INSTANCE_A, INSTANCE_B), (INSTANCE_A, INSTANCE_A, INSTANCE_A),
                (INSTANCE_B, INSTANCE_B))))

    def test_sound_where_the_das_differ(self, monkeypatch):
        # the 51 draws of TestSeededSearch that reach the search
        draws = [generate(GenParams(
            8, 6, 3, pref_len=(2, 5), project_cap=(1, 2), seed=seed,
            density=0.8)) for seed in range(300)]
        split = [i for i in draws
                 if solve_student_optimal(i) != solve_lecturer_optimal(i)]
        assert len(split) == 51
        self.assert_certificates_sound(monkeypatch, split)

    def test_hasse_checks_no_enumerated_member(self, monkeypatch):
        checked = []
        find = lattice.find_blocking_pairs

        def counting(instance, m):
            checked.append(m)
            return find(instance, m)

        monkeypatch.setattr(lattice, "find_blocking_pairs", counting)
        instance = disjoint_union(INSTANCE_A, INSTANCE_B)
        stable = enumerate_all(instance)
        build_hasse(instance, stable)
        assert checked == []
        unstable = Matching(((1, 2),))
        for n in range(1, 4):
            with pytest.raises(ValueError, match="not stable"):
                build_hasse(instance, stable + (unstable,))
            assert checked == [unstable] * n
