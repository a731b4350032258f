"""Two hand-checked instances whose stable structure is fully worked out.

INSTANCE_A: 5 students, 5 unit-capacity projects, 2 lecturers.  A_M1 is
student-optimal and A_M2 lecturer-optimal.  The instance decomposes into
two independent sub-markets (the s1-s2-s3 rotation and the s4/s5 swap),
each with two stable configurations, so the full stable set has four
members forming a diamond; the swap variants A_SWAP1/A_SWAP2 are stable
because neither lecturer consents to undoing the swap.

INSTANCE_B: 9 students, 8 projects, 2 lecturers; exactly seven stable
matchings B_M[0..6] whose cover graph is B_HASSE_EDGES.

``irving_leather(n)`` is the Irving-Leather stable-marriage family IL(n)
inside SPA-S, and ``irving_leather_paired(n)`` its variant IL2(n) with two
projects per lecturer: inputs with many stable matchings and no product
structure.

``disjoint_union`` places independent markets side by side.  No pair,
project or lecturer crosses parts, so every blocking pair lies inside one
part and the stable set of a union is the product of the parts' stable
sets (``union_stable_set``).  ``one_student_markets`` is a union of
trivial markets, for unions deeper than Python's recursion limit.
"""

from itertools import product
from typing import Sequence

from spas import Instance, Matching, RawInstance, build_instance


def _build(raw: RawInstance) -> Instance:
    built = build_instance(raw)
    assert isinstance(built, Instance), built
    return built


def disjoint_union(*parts: Instance) -> Instance:
    """Side-by-side copies of independent markets, renumbered consecutively."""
    out = RawInstance()
    for part in parts:
        s0, p0, k0 = (len(out.student_prefs), len(out.project_capacity),
                      len(out.lecturer_capacity))
        out.student_prefs += [[p + p0 for p in x] for x in part.student_prefs]
        out.project_capacity += part.project_capacity
        out.project_owner += [k + k0 for k in part.project_owner]
        out.lecturer_capacity += part.lecturer_capacity
        out.lecturer_prefs += [[s + s0 for s in x] for x in part.lecturer_prefs]
    return _build(out)


def union_stable_set(
    parts: Sequence[Instance], stable_sets: Sequence[Sequence[Matching]]
) -> tuple[Matching, ...]:
    """Every choice of one matching per part, renumbered as in
    ``disjoint_union``, in lexicographic order."""
    offsets, s0, p0 = [], 0, 0
    for part in parts:
        offsets.append((s0, p0))
        s0, p0 = s0 + part.num_students, p0 + part.num_projects
    found = [
        Matching(tuple(
            (s + ds, p + dp)
            for (ds, dp), m in zip(offsets, choice) for s, p in m.pairs
        ))
        for choice in product(*stable_sets)
    ]
    return tuple(sorted(found, key=lambda m: m.pairs))


def one_student_markets(n: int) -> Instance:
    """n markets of one student, one unit-capacity project and one
    lecturer: student i ranks only p_i, so the stable matching is unique."""
    ids = list(range(1, n + 1))
    return _build(RawInstance(
        student_prefs=[[i] for i in ids],
        project_capacity=[1] * n,
        project_owner=ids,
        lecturer_capacity=[1] * n,
        lecturer_prefs=[[i] for i in ids],
    ))


def _il_lists(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """The student lists m_i and project rankings w_j of IL(n), n a power
    of two: IL(1) is one student ranking one project, and IL(2n) comes
    from IL(n) by m_i -> m_i, m_i + n; m_{i+n} -> m_i + n, m_i and
    w_j -> w_j + n, w_j; w_{j+n} -> w_j, w_j + n."""
    if n & (n - 1) or n < 1:
        raise ValueError(f"n must be a power of two, not {n}")
    m, w = [[1]], [[1]]
    while len(m) < n:
        h = len(m)
        m = ([x + [y + h for y in x] for x in m]
             + [[y + h for y in x] + x for x in m])
        w = ([[y + h for y in x] + x for x in w]
             + [x + [y + h for y in x] for x in w])
    return m, w


def irving_leather(n: int) -> Instance:
    """IL(n) (Irving & Leather, SIAM J. Comput. 15(3), 1986) as stable
    marriage: project j has capacity 1 and its own lecturer j, of capacity
    1, who ranks the students as w_j.  Every list is complete."""
    m, w = _il_lists(n)
    return _build(RawInstance(
        student_prefs=m,
        project_capacity=[1] * n,
        project_owner=list(range(1, n + 1)),
        lecturer_capacity=[1] * n,
        lecturer_prefs=w,
    ))


def irving_leather_paired(n: int) -> Instance:
    """IL2(n), n >= 2: the student lists of IL(n), with lecturer j owning
    projects 2j - 1 and 2j (capacity 1 each), of capacity 2, and ranking
    the students as project 2j - 1 does in IL(n)."""
    m, w = _il_lists(n)
    return _build(RawInstance(
        student_prefs=m,
        project_capacity=[1] * n,
        project_owner=[(j + 1) // 2 for j in range(1, n + 1)],
        lecturer_capacity=[2] * (n // 2),
        lecturer_prefs=w[::2],
    ))


INSTANCE_A = _build(RawInstance(
    student_prefs=[[1, 2], [2, 3], [3, 1], [4, 5], [5, 4]],
    project_capacity=[1, 1, 1, 1, 1],
    project_owner=[1, 1, 2, 2, 1],
    lecturer_capacity=[3, 2],
    lecturer_prefs=[[4, 5, 3, 1, 2], [2, 3, 5, 4]],
))

A_M1 = Matching(((1, 1), (2, 2), (3, 3), (4, 4), (5, 5)))
A_M2 = Matching(((1, 2), (2, 3), (3, 1), (4, 5), (5, 4)))
A_SWAP1 = Matching(((1, 1), (2, 2), (3, 3), (4, 5), (5, 4)))
A_SWAP2 = Matching(((1, 2), (2, 3), (3, 1), (4, 4), (5, 5)))

# lexicographic enumeration order
A_STABLE = (A_M1, A_SWAP1, A_SWAP2, A_M2)
A_HASSE_EDGES = ((0, 1), (0, 2), (1, 3), (2, 3))

A_STABLE_PAIRS = frozenset({
    (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1),
    (4, 4), (4, 5), (5, 5), (5, 4),
})


INSTANCE_B = _build(RawInstance(
    student_prefs=[
        [1, 2, 4, 3],
        [1, 4, 3, 2],
        [3, 1, 2, 4],
        [3, 2, 1, 4],
        [4, 3, 1],
        [5, 2, 7],
        [7, 3, 6],
        [6, 8],
        [8, 2, 3],
    ],
    project_capacity=[2, 1, 2, 1, 1, 1, 1, 1],
    project_owner=[1, 1, 2, 2, 1, 1, 2, 2],
    lecturer_capacity=[4, 5],
    lecturer_prefs=[
        [7, 9, 3, 4, 5, 1, 2, 6, 8],
        [6, 1, 2, 5, 3, 4, 7, 8, 9],
    ],
))

_B_TABLE = (
    {1: 1, 2: 1, 3: 3, 4: 3, 5: 4, 6: 5, 7: 7, 8: 6, 9: 8},
    {1: 1, 2: 1, 3: 3, 4: 3, 5: 4, 6: 5, 7: 7, 8: 8, 9: 2},
    {1: 1, 2: 1, 3: 3, 4: 3, 5: 4, 6: 7, 7: 6, 8: 8, 9: 2},
    {1: 1, 2: 4, 3: 3, 4: 1, 5: 3, 6: 5, 7: 7, 8: 8, 9: 2},
    {1: 1, 2: 4, 3: 3, 4: 1, 5: 3, 6: 7, 7: 6, 8: 8, 9: 2},
    {1: 4, 2: 3, 3: 1, 4: 1, 5: 3, 6: 5, 7: 7, 8: 8, 9: 2},
    {1: 4, 2: 3, 3: 1, 4: 1, 5: 3, 6: 7, 7: 6, 8: 8, 9: 2},
)
B_M = tuple(Matching(tuple(row.items())) for row in _B_TABLE)

B_HASSE_EDGES = (
    (0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (3, 5), (4, 6), (5, 6),
)

# the unions the lattice suites pin, with the parts' stable sets
UNIONS = {
    "a+b": ((INSTANCE_A, INSTANCE_B), (A_STABLE, B_M)),
    "a+a+a": ((INSTANCE_A,) * 3, (A_STABLE,) * 3),
    "b+b": ((INSTANCE_B,) * 2, (B_M,) * 2),
}
