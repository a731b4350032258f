import copy
import hashlib
import pickle
import random
import re
from itertools import islice, permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_instance
from known_instances import (
    A_M1,
    A_M2,
    A_STABLE,
    B_M,
    INSTANCE_A,
    INSTANCE_B,
    UNIONS,
    disjoint_union,
    irving_leather,
    irving_leather_paired,
)
from oracles import (
    _PAIRWISE_CHECKS,
    naive_lattice_axioms,
    naive_run_all_checks,
    random_valid_matching,
)
from spas import (
    Instance,
    Matching,
    RawInstance,
    build_instance,
    check_lattice_axioms,
    check_lemma_pref_reversal,
    check_lemma_rank_boundaries,
    check_lemma_same_lecturer,
    check_prop_full_project,
    check_unpopular_projects,
    enumerate_all,
    find_blocking_pairs,
    lecturer_dominates,
    run_all_checks,
    student_dominates,
    verification,
)

PAIRWISE = (
    check_prop_full_project,
    check_lemma_same_lecturer,
    check_lemma_pref_reversal,
    check_lemma_rank_boundaries,
)


class TestUnpopularProjects:
    def test_known_instances_pass(self):
        assert check_unpopular_projects(INSTANCE_A, A_STABLE).passed
        assert check_unpopular_projects(INSTANCE_B, B_M).passed

    def test_two_element_subset_passes(self):
        assert check_unpopular_projects(INSTANCE_A, (A_M1, A_M2)).passed

    def test_singleton_passes(self):
        assert check_unpopular_projects(INSTANCE_A, (A_M1,)).passed

    def test_detects_count_drift(self):
        # a valid but unstable member with a different lecturer load
        report = check_unpopular_projects(
            INSTANCE_A, (A_M1, Matching(((1, 1),))))
        assert not report.passed
        assert report.failures
        again = check_unpopular_projects(INSTANCE_A, (A_M1, Matching(((1, 1),))))
        assert again == report  # deterministic re-failure

    def test_detects_unassigned_drift(self):
        # same per-lecturer counts, different unassigned students
        first = Matching(((1, 1), (4, 4)))
        second = Matching(((3, 1), (5, 4)))
        report = check_unpopular_projects(INSTANCE_A, (first, second))
        assert not report.passed
        assert report.failures == (
            "(M1, M2) unassigned students differ: s1 s3 s4 s5",)


class TestPairwiseChecksOnKnownInstances:
    def test_reference_pair_passes_every_check(self):
        for fn in PAIRWISE:
            assert fn(INSTANCE_A, A_M1, A_M2).passed
            assert fn(INSTANCE_A, A_M2, A_M1).passed

    def test_small_instance_all_ordered_pairs(self):
        # the swap pair (indices 1 and 2) refutes the universal
        # preference-reversal claim in both orientations: s2 leaves l1
        # preferring the swap-1 side while s4 leaves preferring the other,
        # so l1's element-wise comparison is mixed
        stable = enumerate_all(INSTANCE_A)
        refuted = {(1, 2), (2, 1)}
        for i, x in enumerate(stable):
            for j, y in enumerate(stable):
                if i == j:
                    continue
                for fn in PAIRWISE:
                    report = fn(INSTANCE_A, x, y)
                    if fn is check_lemma_pref_reversal and (i, j) in refuted:
                        assert not report.passed, (i, j)
                    else:
                        assert report.passed, (fn.__name__, i, j, report.failures)

    def test_table_instance_all_ordered_pairs(self):
        # check_lemma_pref_reversal encodes a universal element-wise claim
        # that this very stable set refutes: e.g. between rows 3 and 4,
        # s2 leaves l1 while preferring row 3, yet l1's sorted differences
        # ({s7,s2} against {s4,s6}, ranks [0,6] against [3,7]) favour row 3
        # as well.  The refuting ordered pairs are pinned below; everything
        # else holds on every ordered pair.
        refuted = {(2, 3), (2, 5), (4, 5), (5, 2)}
        for i, x in enumerate(B_M):
            for j, y in enumerate(B_M):
                if i == j:
                    continue
                for fn in PAIRWISE:
                    report = fn(INSTANCE_B, x, y)
                    if fn is check_lemma_pref_reversal and (i, j) in refuted:
                        assert not report.passed, (i, j)
                    else:
                        assert report.passed, (fn.__name__, i, j, report.failures)

    def test_identical_pair_vacuous(self):
        for fn in PAIRWISE:
            assert fn(INSTANCE_B, B_M[3], B_M[3]).passed

    def test_rank_boundaries_universal_form_refuted_by_seed_3903(self):
        # the universal part-(b) claim fails on this generated instance:
        # s3 prefers the first matching, its second-side project p2 is
        # undersubscribed on the first side, yet s4 in the lecturer set
        # difference outranks s3; only the existential bound (the
        # same-lecturer check) survives
        instance = corpus_instance(3903, 6, 5, 3)
        stable = enumerate_all(instance)
        assert len(stable) == 3
        report = check_lemma_rank_boundaries(instance, stable[0], stable[2])
        assert not report.passed
        assert any("s4" in f and "l2" in f for f in report.failures)
        assert check_lemma_same_lecturer(instance, stable[0], stable[2]).passed


class TestFailurePaths:
    def test_same_lecturer_violation_on_unstable_pair(self):
        # s1 moves between p1 and p2 (both l1's) with equal assigned sets;
        # the inputs are valid but unstable, which the checks do not police
        first = Matching(((1, 1),))
        second = Matching(((1, 2),))
        report = check_lemma_same_lecturer(INSTANCE_A, first, second)
        assert not report.passed
        assert check_lemma_same_lecturer(INSTANCE_A, first, second) == report

    def test_rank_boundaries_violation(self):
        # s1 prefers the second side (holding p1) and sits on p2 in the
        # first; s3 replaces nobody on p2 yet appears in the project set
        # difference and outranks s1 on l1's list, violating part (a)
        first = Matching(((1, 2),))
        second = Matching(((1, 1), (3, 2)))
        report = check_lemma_rank_boundaries(INSTANCE_B, second, first)
        assert report.failures == (
            "s3 in the project set difference of p2 outranks s1",)
        assert check_lemma_rank_boundaries(INSTANCE_B, second, first) == report

    def test_pref_reversal_vacuous_when_mover_unassigned(self):
        # s1 is in the first l2 set but unassigned on the other side, so
        # nobody "prefers" either matching and the check passes vacuously
        first = Matching(((2, 4), (1, 3)))
        second = Matching(((2, 3), (9, 3)))
        assert check_lemma_pref_reversal(INSTANCE_B, first, second).passed

    def test_pref_reversal_violation(self):
        # s1 leaves l1 while preferring the first side (p2 over p4), and l1
        # compares {s2} against {s1} with s1 ranked higher, so l1 does not
        # prefer the second matching
        first = Matching(((1, 2),))
        second = Matching(((1, 4), (2, 1)))
        report = check_lemma_pref_reversal(INSTANCE_B, first, second)
        assert not report.passed
        assert check_lemma_pref_reversal(INSTANCE_B, first, second) == report

    def test_full_project_violation(self):
        # s1 holds p1 in first and prefers it, sits with l1 in second, yet
        # p1 is left empty in second
        first = Matching(((1, 1),))
        second = Matching(((1, 2),))
        report = check_prop_full_project(INSTANCE_A, first, second)
        assert not report.passed

    def test_lattice_axioms_closure_violation(self):
        swap1 = Matching(((1, 1), (2, 2), (3, 3), (4, 5), (5, 4)))
        swap2 = Matching(((1, 2), (2, 3), (3, 1), (4, 4), (5, 5)))
        report = check_lattice_axioms(INSTANCE_A, (swap1, swap2))
        assert not report.passed
        assert any("stable set" in f for f in report.failures)


class TestLatticeAxioms:
    def test_small_instance_passes(self):
        assert check_lattice_axioms(INSTANCE_A, A_STABLE).passed

    def test_table_instance_fails_only_on_dominance_reversal(self):
        # bounds, closure and distributivity all hold; the two-way
        # dominance-reversal claim does not: between rows 3 and 4 both
        # lecturers strictly prefer row 3 although the students are split
        report = check_lattice_axioms(INSTANCE_B, B_M)
        assert not report.passed
        assert all("dominance reversal" in f for f in report.failures)
        assert len(report.failures) == 2

    def test_dominance_reversal_names_its_pairs_as_enumerate_does(self):
        # (Mi, Mj) counts from 1, as spas enumerate and spas lattice do
        stable = enumerate_all(INSTANCE_B)
        named = set()
        for f in check_lattice_axioms(INSTANCE_B, stable).failures:
            match = re.fullmatch(r"\(M(\d+), M(\d+)\) dominance reversal fails", f)
            assert match, f
            named.add((int(match[1]), int(match[2])))
        refuted = {
            (i, j) for i, x in enumerate(stable, start=1)
            for j, y in enumerate(stable, start=1)
            if (student_dominates(INSTANCE_B, x, y)
                != lecturer_dominates(INSTANCE_B, y, x))}
        assert named == refuted == {(4, 3), (6, 5)}

    def test_singleton_passes(self):
        assert check_lattice_axioms(INSTANCE_B, (B_M[0],)).passed

    def test_two_element_subset_passes(self):
        # a sublattice: comparable pair together with its meet and join
        assert check_lattice_axioms(INSTANCE_B, (B_M[0], B_M[1])).passed
        assert check_lattice_axioms(INSTANCE_A, (A_M1, A_M2)).passed


class TestRunAllChecks:
    def test_clean_instance_green(self):
        instance = corpus_instance(7, 6, 5, 3)
        reports = run_all_checks(instance, enumerate_all(instance))
        assert [r.name for r in reports] == [
            "unpopular-projects",
            "full-project",
            "same-lecturer",
            "preference-reversal",
            "rank-boundaries",
            "lattice-axioms",
        ]
        assert all(r.passed for r in reports)

    def test_small_instance_fails_only_preference_reversal(self):
        reports = {r.name: r for r in run_all_checks(
            INSTANCE_A, enumerate_all(INSTANCE_A))}
        assert not reports["preference-reversal"].passed
        for name in ("unpopular-projects", "full-project", "same-lecturer",
                     "rank-boundaries", "lattice-axioms"):
            assert reports[name].passed, reports[name].failures

    def test_table_instance_fails_exactly_the_refuted_claims(self):
        reports = {r.name: r for r in run_all_checks(
            INSTANCE_B, enumerate_all(INSTANCE_B))}
        assert not reports["preference-reversal"].passed
        assert not reports["lattice-axioms"].passed
        for name in ("unpopular-projects", "full-project", "same-lecturer",
                     "rank-boundaries"):
            assert reports[name].passed, reports[name].failures

    def test_empty_set_passes(self):
        reports = run_all_checks(INSTANCE_A, ())
        assert len(reports) == 6
        assert all(r.passed for r in reports)
        assert check_unpopular_projects(INSTANCE_A, []).passed

    def test_pairs_only_subset(self):
        reports = run_all_checks(
            INSTANCE_A, enumerate_all(INSTANCE_A), pairs_only=True)
        assert [r.name for r in reports] == [
            "full-project",
            "same-lecturer",
            "preference-reversal",
            "rank-boundaries",
        ]

    @given(st.integers(1, 3000))
    @settings(max_examples=40, deadline=None)
    def test_random_instances_green(self, seed):
        # seeds above ~3900 at this shape can refute the universal claims
        # (see the pinned counterexamples); this range is scanned clean
        instance = corpus_instance(seed, 6, 5, 3)
        assert all(
            r.passed for r in run_all_checks(instance, enumerate_all(instance)))

    @given(st.integers(1, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_robust_checks_green_at_any_seed(self, seed):
        instance = corpus_instance(seed, 7, 6, 3)
        stable = list(enumerate_all(instance))
        assert check_unpopular_projects(instance, stable).passed
        for x, y in permutations(stable, 2):
            assert check_prop_full_project(instance, x, y).passed
            assert check_lemma_same_lecturer(instance, x, y).passed


def mixed_sets(corpus7):
    """Each corpus7 stable set plus 1-4 random valid matchings, shuffled,
    all drawn from random.Random(seed)."""
    for seed, instance, stable in corpus7:
        rng = random.Random(seed)
        members = list(stable) + [
            random_valid_matching(instance, rng) for _ in range(rng.randint(1, 4))
        ]
        rng.shuffle(members)
        yield seed, instance, members


def digest(reports) -> str:
    text = "\n".join(f for r in reports for f in r.failures)
    return hashlib.sha256(text.encode()).hexdigest()


class TestAgainstNaiveLatticeAxioms:
    """The rank-vector check against the Matching-by-Matching original."""

    def test_equal_on_every_corpus_stable_set(self, corpus7):
        for seed, instance, stable in corpus7:
            expected = naive_lattice_axioms(instance, stable)
            assert check_lattice_axioms(instance, stable) == expected, seed

    def test_equal_on_mixed_sets(self, corpus7):
        # elementwise min and max over a chain always distribute and always
        # bound every common bound, so only these kinds of failure can occur
        kinds = dict.fromkeys((
            "left the stable set", "is not a lower bound",
            "is not an upper bound", "dominance reversal"), 0)
        for seed, instance, members in mixed_sets(corpus7):
            report = check_lattice_axioms(instance, members)
            assert report == naive_lattice_axioms(instance, members), seed
            for f in report.failures:
                for kind in kinds:
                    kinds[kind] += kind in f
        assert all(kinds.values()), kinds


class TestAgainstNaiveRunAllChecks:
    """The shared views and better-off scan against the per-pair rebuild."""

    def test_equal_on_every_corpus_stable_set(self, corpus7):
        for seed, instance, stable in corpus7:
            expected = naive_run_all_checks(instance, stable)
            assert run_all_checks(instance, stable) == expected, seed

    def test_equal_on_mixed_sets(self, corpus7):
        for seed, instance, members in mixed_sets(corpus7):
            expected = naive_run_all_checks(instance, members)
            assert run_all_checks(instance, members) == expected, seed
            assert run_all_checks(instance, members, pairs_only=True) == (
                naive_run_all_checks(instance, members, pairs_only=True)), seed

    @pytest.mark.parametrize("family", [irving_leather, irving_leather_paired])
    def test_equal_on_irving_leather(self, family):
        instance = family(4)
        stable = enumerate_all(instance)
        assert run_all_checks(instance, stable) == naive_run_all_checks(instance, stable)


def test_pair_checks_equal_their_oracles_on_mixed_sets(corpus7):
    # each public pair check keeps one lemma's share of the walk that
    # run_all_checks makes, so compare each on its own
    for seed, instance, members in mixed_sets(corpus7):
        for x, y in permutations(members, 2):
            for fn, (name, oracle) in zip(PAIRWISE, _PAIRWISE_CHECKS):
                report = fn(instance, x, y)
                assert report.name == name
                assert report == oracle(instance, x, y), (seed, name)


class TestInvalidMembers:
    """Every check validates its members, whatever their place."""

    @pytest.mark.parametrize("bad", [
        Matching(((99, 1),)),
        Matching(((1, 99),)),
        Matching(((1, 2), (2, 2), (3, 2), (4, 2))),
    ], ids=["unknown-student", "unknown-project", "unacceptable-over-capacity"])
    def test_typed_error_in_either_place(self, bad):
        with pytest.raises(ValueError) as expected:
            find_blocking_pairs(INSTANCE_A, bad)
        message = str(expected.value)
        assert message.startswith("invalid matching: ")
        calls = [
            lambda first, second, fn=fn: fn(INSTANCE_A, first, second)
            for fn in PAIRWISE
        ] + [
            lambda first, second, fn=fn: fn(INSTANCE_A, (first, second))
            for fn in (check_unpopular_projects, check_lattice_axioms,
                       run_all_checks)
        ]
        for call in calls:
            for first, second in ((bad, A_M1), (A_M1, bad)):
                with pytest.raises(ValueError) as got:
                    call(first, second)
                assert str(got.value) == message


def test_run_all_checks_reads_each_member_once(monkeypatch):
    # the pairwise lemmas used to rebuild both members' assignee sets in
    # each check of each ordered pair: 28352 builds on this 64-member set
    instance = disjoint_union(INSTANCE_A, INSTANCE_A, INSTANCE_A)
    stable = enumerate_all(instance)
    assert len(stable) == 64
    built = []
    validated = verification._validated

    def counting_validated(instance, m):
        built.append(m)
        return validated(instance, m)

    monkeypatch.setattr(verification, "_validated", counting_validated)
    run_all_checks(instance, stable)
    assert built == list(stable)


@pytest.mark.parametrize("members", [B_M, B_M + (Matching(()),)],
                         ids=["stable", "with-empty"])
@pytest.mark.parametrize("check", [
    run_all_checks, check_unpopular_projects, check_lattice_axioms])
def test_set_checks_read_a_one_shot_iterator_whole(check, members):
    # the members used to be read twice, so an iterator's second pass saw
    # none of them and every check passed; the empty matching makes
    # unpopular-projects fail as well
    assert check(INSTANCE_B, iter(members)) == check(INSTANCE_B, members)


def test_run_all_checks_validates_only_uncertified_members(monkeypatch):
    # enumerate_all certifies its members stable, and stable implies valid;
    # equal but uncertified matchings are validated as before
    instance = disjoint_union(INSTANCE_A, INSTANCE_A)
    stable = enumerate_all(instance)
    assert len(stable) == 16
    validated = []
    require = verification.require_valid_matching

    def counting_require(instance, m):
        validated.append(m)
        return require(instance, m)

    monkeypatch.setattr(verification, "require_valid_matching", counting_require)
    reports = run_all_checks(instance, stable)
    assert validated == []
    twins = [Matching(m.pairs) for m in stable]
    assert run_all_checks(instance, twins) == reports
    assert validated == twins


def test_lattice_axioms_compare_each_unordered_pair_once(monkeypatch):
    # instance_b has 7 restrictions and 2 lecturers: 41 lecturer comparisons
    # decide both orders of every pair, where deciding each order on its
    # own made 62 calls
    compared = []
    prefers = verification._lecturer_prefers

    def counting_prefers(rank, first, second):
        compared.append((id(rank), frozenset((frozenset(first), frozenset(second)))))
        return prefers(rank, first, second)

    monkeypatch.setattr(verification, "_lecturer_prefers", counting_prefers)
    assert check_lattice_axioms(INSTANCE_B, B_M) == naive_lattice_axioms(
        INSTANCE_B, B_M)
    assert len(compared) == len(set(compared)) == 41


def test_run_all_checks_decides_each_pair_of_restrictions_once(monkeypatch):
    # a+a+a splits into three components of four restrictions each, so the
    # pairwise lemmas run on 3 * 4 * 3 pairs of restrictions, not on the
    # 64 * 63 ordered pairs of members
    instance = disjoint_union(INSTANCE_A, INSTANCE_A, INSTANCE_A)
    stable = enumerate_all(instance)
    assert len(stable) == 64
    calls = []
    pair_failures = verification._pair_failures

    def counting_pair_failures(instance, a, b):
        calls.append((a, b))
        return pair_failures(instance, a, b)

    monkeypatch.setattr(verification, "_pair_failures", counting_pair_failures)
    run_all_checks(instance, stable)
    assert len(calls) == 36


def interleaved(instance, seed):
    """``instance`` with its students and its lecturers renumbered by a
    seeded shuffle, so that the parts of a union interleave."""
    rng = random.Random(seed)
    snew = list(instance.students())
    lnew = list(instance.lecturers())
    rng.shuffle(snew)
    rng.shuffle(lnew)
    sprefs = [[] for _ in snew]
    for s, prefs in zip(snew, instance.student_prefs):
        sprefs[s - 1] = list(prefs)
    lcap, lprefs = [0] * len(lnew), [[] for _ in lnew]
    for k, cap, prefs in zip(lnew, instance.lecturer_capacity,
                             instance.lecturer_prefs):
        lcap[k - 1] = cap
        lprefs[k - 1] = [snew[s - 1] for s in prefs]
    built = build_instance(RawInstance(
        student_prefs=sprefs,
        project_capacity=list(instance.project_capacity),
        project_owner=[lnew[k - 1] for k in instance.project_owner],
        lecturer_capacity=lcap,
        lecturer_prefs=lprefs,
    ))
    assert isinstance(built, Instance), built
    return built


def assert_counts_are_lengths(reports):
    for r in reports:
        assert len(r.failures) == len(tuple(r.failures)), r.name
        assert r.passed == (len(r.failures) == 0), r.name


class TestFailureCounts:
    """Each report's count, taken from the component tables, is the length
    of the failure list its walk formats."""

    @pytest.mark.parametrize("name", UNIONS)
    def test_unions(self, name):
        instance = disjoint_union(*UNIONS[name][0])
        stable = enumerate_all(instance)
        assert_counts_are_lengths(run_all_checks(instance, stable))
        assert_counts_are_lengths(run_all_checks(instance, stable, pairs_only=True))

    @pytest.mark.parametrize("seed", range(3))
    def test_sets_that_repeat_a_member(self, seed):
        # a repeated member is not a new tuple of restrictions, so such a
        # set is never taken for the product of its restrictions
        rng = random.Random(seed)
        members = list(B_M) + rng.choices(B_M, k=3) + [
            random_valid_matching(INSTANCE_B, rng)] * 2
        rng.shuffle(members)
        reports = run_all_checks(INSTANCE_B, members)
        assert_counts_are_lengths(reports)
        assert reports == naive_run_all_checks(INSTANCE_B, members)
        instance = disjoint_union(INSTANCE_A, INSTANCE_A, INSTANCE_A)
        stable = enumerate_all(instance)
        members = list(stable) + rng.sample(stable, 5)
        rng.shuffle(members)
        assert_counts_are_lengths(run_all_checks(instance, members))


def test_counts_walk_no_pair_and_a_slice_stops_at_its_end(monkeypatch):
    # a^4 has 256 members; preference reversal fails on 4 pairs of
    # restrictions of each of its 4 components, 64 * 64 times each
    instance = disjoint_union(*(INSTANCE_A,) * 4)
    stable = enumerate_all(instance)
    assert len(stable) == 256
    walked = []

    def counting(walk):
        def counted(*args):
            for item in walk(*args):
                walked.append(item)
                yield item
        return counted

    for name in ("_pair_entries", "_axiom_walk"):
        monkeypatch.setattr(verification, name, counting(getattr(verification, name)))
    reports = run_all_checks(instance, stable)
    assert [len(r.failures) for r in reports] == [0, 0, 0, 4 * 4 * 64 * 64, 0, 0]
    assert [r.passed for r in reports] == [True, True, True, False, True, True]
    assert walked == []
    first = reports[3].failures[:5]
    assert walked == list(first) and len(first) == 5
    assert first == tuple(islice(reports[3].failures, 5))


def test_lazy_failures_behave_as_their_tuple():
    instance = disjoint_union(INSTANCE_B, INSTANCE_B)
    reports = run_all_checks(instance, enumerate_all(instance))
    for r in reports[3], reports[5]:
        lazy, text = r.failures, tuple(r.failures)
        assert len(text) in (784, 104)
        assert lazy == text and text == lazy and not lazy != text
        assert lazy != text[:-1] and lazy != text + ("x",) and lazy != list(text)
        assert hash(lazy) == hash(text) and repr(lazy) == repr(text)
        n = len(text)
        for i in (0, 1, n // 2, n - 1, -1, -n):
            assert lazy[i] == text[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                lazy[i]
        for cut in (slice(5), slice(3, 9), slice(-4, None), slice(None, None, 7),
                    slice(10, 2), slice(None, None, -3), slice(n - 2, n + 5)):
            assert lazy[cut] == text[cut]
        assert text[1] in lazy and list(lazy) == list(text)
        for back in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert back == r and back.failures == text and hash(back) == hash(r)
    assert reports[0].failures == () and not reports[0].failures
    # a walk shorter than its count is not equal to a tuple of that count
    short = verification._Failures(3, lambda: iter(("a", "b")))
    assert short != ("a", "b", "c") and short != ("a", "b")


class TestAgainstNaiveOnComponents:
    """The per-component split against the oracles, as full lists, on sets
    that are not products of their projections and on failures that span
    components."""

    PARTS = {
        "a+b": (INSTANCE_A, INSTANCE_B),
        "a+a+a": (INSTANCE_A, INSTANCE_A, INSTANCE_A),
    }

    @staticmethod
    def projections(parts, members):
        """The number of distinct restrictions of ``members`` to each part."""
        counts, s0 = [], 0
        for part in parts:
            students = range(s0 + 1, s0 + part.num_students + 1)
            counts.append(len({
                tuple(p for s, p in m.pairs if s in students) for m in members}))
            s0 += part.num_students
        return counts

    @staticmethod
    def assert_equal_to_oracles(instance, members):
        # the last report is the lattice check's, against naive_lattice_axioms
        reports = run_all_checks(instance, members)
        assert_counts_are_lengths(reports)
        assert reports == naive_run_all_checks(instance, members)

    @pytest.mark.parametrize("name", PARTS)
    @pytest.mark.parametrize("seed", range(3))
    def test_non_product_subsets(self, name, seed):
        parts = self.PARTS[name]
        instance = disjoint_union(*parts)
        rng = random.Random(seed)
        members = rng.sample(enumerate_all(instance), 8)
        assert len(members) != prod(self.projections(parts, members))
        self.assert_equal_to_oracles(instance, members)
        # padded with valid matchings, so that every lemma fails somewhere,
        # and some pairs fail in several components
        members += [random_valid_matching(instance, rng) for _ in range(2)]
        rng.shuffle(members)
        self.assert_equal_to_oracles(instance, members)

    @pytest.mark.parametrize("seed", range(3))
    def test_interleaved_components(self, seed):
        # students and lecturers of the parts interleave, so a pair whose
        # failures span components must merge them by key
        instance = interleaved(disjoint_union(INSTANCE_A, INSTANCE_B), seed)
        stable = enumerate_all(instance)
        assert len(stable) == 28
        reports = run_all_checks(instance, stable, pairs_only=True)
        assert_counts_are_lengths(reports)
        assert reports == naive_run_all_checks(instance, stable, pairs_only=True)
        rng = random.Random(seed)
        members = rng.sample(stable, 8) + [
            random_valid_matching(instance, rng) for _ in range(2)]
        rng.shuffle(members)
        self.assert_equal_to_oracles(instance, members)


class TestPinnedOutput:
    """Failure counts and text of run_all_checks as the checks gave them
    before the rank-vector rewrite, which reproduces them byte for byte,
    with every report since naming members ``(Mi, Mj)`` from 1.
    To recompute a digest, for a+b:

        PYTHONPATH=src:tests python -c "from test_verification import *; u = disjoint_union(INSTANCE_A, INSTANCE_B); print(digest(run_all_checks(u, enumerate_all(u))))"
    """

    @pytest.mark.parametrize("parts, reversals, axioms, sha", [
        ((INSTANCE_A, INSTANCE_B), 324, 18,
         "716e2eabd153e1e431809371b4538815195f4302955d95fb629be153a1dc9621"),
        ((INSTANCE_A, INSTANCE_A, INSTANCE_A), 3072, 0,
         "21ed3e0efb59360e77fa9aa997f4359e0760f9e52dfe84cec1d0586c36ff530b"),
        ((INSTANCE_B, INSTANCE_B), 784, 104,
         "a01e5725c6ff48fc202e6af204579de8a50bb53ccd8b5723aa1166012195c14e"),
    ], ids=["a+b", "a+a+a", "b+b"])
    def test_unions(self, parts, reversals, axioms, sha):
        instance = disjoint_union(*parts)
        reports = run_all_checks(instance, enumerate_all(instance))
        counts = {r.name: len(r.failures) for r in reports}
        assert counts == {
            "unpopular-projects": 0,
            "full-project": 0,
            "same-lecturer": 0,
            "preference-reversal": reversals,
            "rank-boundaries": 0,
            "lattice-axioms": axioms,
        }
        assert digest(reports) == sha

    def test_mixed_sets(self, corpus7):
        # every report fails somewhere here, so every failure path is pinned
        reports = [
            r for _, instance, members in mixed_sets(corpus7)
            for r in run_all_checks(instance, members)
        ]
        counts = dict.fromkeys((r.name for r in reports), 0)
        for r in reports:
            counts[r.name] += len(r.failures)
        assert counts == {
            "unpopular-projects": 2260,
            "full-project": 544,
            "same-lecturer": 695,
            "preference-reversal": 574,
            "rank-boundaries": 588,
            "lattice-axioms": 5842,
        }
        assert digest(reports) == (
            "b1dbfed547803e64bfb2eb0508c814717fc66e002dcc6dbec8d3816c245e818c")
