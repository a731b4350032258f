"""Acceptance gate: one test per pinned criterion, budgets included.

Run with ``pytest tests/test_acceptance.py -v`` for one line per criterion.

Criterion 1a pins the whole stable set of the small worked instance: four
matchings.  The instance splits into two independent sub-markets
(s1-s3 over p1-p3, s4/s5 over p4/p5).  Every project has capacity 1 and all
five students are matched, so only blocking condition (iii) can apply: p is
full and its lecturer prefers s to p's assignee.  In A_SWAP1 s4 wants p4 but
l2 ranks s5 above s4, and s5 wants p5 but l1 ranks s4 above s5.  In A_SWAP2
s1, s2 and s3 want p1, p2 and p3, but l1 ranks s3 above s1 and s1 above s2,
and l2 ranks s2 above s3.  Neither swap variant has a blocking pair, so the
set is the 2x2 diamond with A_M1 at the bottom and A_M2 at the top.
"""

import subprocess
import sys
from itertools import permutations
from pathlib import Path
from time import perf_counter

from corpus import corpus_instance
from known_instances import (
    A_M1,
    A_M2,
    A_STABLE,
    B_HASSE_EDGES,
    B_M,
    INSTANCE_A,
    INSTANCE_B,
)
from oracles import brute_force_stable_set, dfs_stable_set
from spas import (
    build_hasse,
    check_lattice_axioms,
    check_lemma_pref_reversal,
    check_lemma_rank_boundaries,
    check_lemma_same_lecturer,
    check_prop_full_project,
    check_unpopular_projects,
    enumerate_all,
    find_blocking_pairs,
    is_stable,
    join,
    join_all,
    meet,
    meet_all,
    parse_instance_file,
    serialize_instance,
    solve_lecturer_optimal,
    solve_student_optimal,
    student_dominates,
)

DATA = Path(__file__).parent / "data"


def test_c1a_small_instance_pinned_stable_count():
    t0 = perf_counter()
    stable = enumerate_all(INSTANCE_A)
    assert perf_counter() - t0 < 1.0
    print(f"criterion 1a: enumerated {len(stable)} stable matchings, "
          f"pinned count is {len(A_STABLE)}")
    for m in A_STABLE:
        assert find_blocking_pairs(INSTANCE_A, m) == (), m
    assert list(stable) == list(A_STABLE), (
        "pinned: exactly the four-member diamond A_M1, A_SWAP1, A_SWAP2, "
        f"A_M2 in enumeration order (got {len(stable)} matchings)"
    )


def test_c1b_small_instance_extremes_and_dominance():
    t0 = perf_counter()
    stable = enumerate_all(INSTANCE_A)
    assert A_M1 in stable and A_M2 in stable
    assert solve_student_optimal(INSTANCE_A) == A_M1
    assert solve_lecturer_optimal(INSTANCE_A) == A_M2
    assert student_dominates(INSTANCE_A, A_M1, A_M2)
    assert perf_counter() - t0 < 1.0
    print("criterion 1b: PASS (extremes and dominance, < 1 s)")


def test_c2_table_instance_structure():
    t0 = perf_counter()
    stable = enumerate_all(INSTANCE_B)
    assert stable.matchings == B_M
    assert meet(INSTANCE_B, B_M[2], B_M[3]) == B_M[1]
    assert join(INSTANCE_B, B_M[2], B_M[3]) == B_M[4]
    diagram = build_hasse(INSTANCE_B, stable)
    assert diagram.edges == B_HASSE_EDGES
    assert diagram.source_indices() == (0,)
    assert diagram.sink_indices() == (6,)
    assert perf_counter() - t0 < 5.0
    print("criterion 2: PASS (7 matchings, meet/join, 8 cover edges, < 5 s)")


def test_c3_oracle_equivalence_500_instances():
    t0 = perf_counter()
    mismatches = []
    for seed in range(1, 501):
        instance = corpus_instance(seed, 5, 5, 3)
        if enumerate_all(instance).matchings != brute_force_stable_set(instance):
            mismatches.append(seed)
    elapsed = perf_counter() - t0
    assert mismatches == []
    assert elapsed < 60.0
    print(f"criterion 3: PASS (500 instances, 0 mismatches, {elapsed:.1f} s)")


def test_c4_unpopular_projects_suite(corpus7):
    failures = [
        seed for seed, instance, stable in corpus7
        if not check_unpopular_projects(instance, stable).passed
    ]
    assert failures == []
    print(f"criterion 4: PASS ({len(corpus7)} instances, 0 failures)")


def test_c5_lattice_axioms_suite(corpus7):
    failures = [
        seed for seed, instance, stable in corpus7
        if not check_lattice_axioms(instance, stable).passed
    ]
    assert failures == []
    print(f"criterion 5: PASS ({len(corpus7)} instances, 0 failures)")


def test_c6_lemma_suite(corpus7):
    checks = (
        check_prop_full_project,
        check_lemma_same_lecturer,
        check_lemma_pref_reversal,
        check_lemma_rank_boundaries,
    )
    failures = []
    for seed, instance, stable in corpus7:
        for x, y in permutations(stable, 2):
            for fn in checks:
                if not fn(instance, x, y).passed:
                    failures.append((seed, fn.__name__))
    assert failures == []
    print(f"criterion 6: PASS ({len(corpus7)} instances, all ordered pairs, "
          f"0 failures)")


def test_c7_solver_consistency(corpus7):
    # the reference set comes from the unseeded search, so deferred
    # acceptance is checked against a set it took no part in building
    for seed, instance, stable in corpus7:
        reference = dfs_stable_set(instance)
        assert stable.matchings == reference, seed
        best = solve_student_optimal(instance)
        worst = solve_lecturer_optimal(instance)
        assert best == meet_all(instance, reference), seed
        assert worst == join_all(instance, reference), seed
        assert is_stable(instance, best), seed
        assert is_stable(instance, worst), seed
    print(f"criterion 7: PASS ({len(corpus7)} instances, 0 failures)")


def test_c8_round_trips_and_cli_byte_stability(corpus7, tmp_path):
    for instance in (INSTANCE_A, INSTANCE_B):
        assert parse_instance_file(serialize_instance(instance)) == instance
    for _, instance, _ in corpus7:
        assert parse_instance_file(serialize_instance(instance)) == instance

    a, b = str(DATA / "instance_a.spa"), str(DATA / "instance_b.spa")
    commands = [
        ["enumerate", a],
        ["enumerate", b],
        ["enumerate", "--count-only", b],
        ["lattice", b],
        ["solve", "--optimal", "student", a],
        ["meet", b, str(DATA / "b_m3.match"), str(DATA / "b_m4.match")],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "spas", *argv],
                capture_output=True, check=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, argv
    ref = subprocess.run(
        [sys.executable, "-m", "spas", "enumerate", "--count-only", b],
        capture_output=True, check=True)
    assert ref.stdout == b"7\n"
    print("criterion 8: PASS (round trips identity, CLI outputs byte-stable)")
