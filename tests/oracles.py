"""Independent reference implementations used only to check the library.

Blocking pairs come from a full double loop re-deriving every condition,
and the stable set comes from filtering every assignment function; neither
reuses the library's stability or enumeration logic.  ``dfs_stable_set`` is
the pruned search without the deferred-acceptance seed: every student
branches over their whole list plus unassigned.  It is pinned to the
brute-force set at small sizes and reaches sizes the brute force cannot;
meet and join over that set give the optimal matchings without calling
the two proposal algorithms.  The list-correspondence
check is the quadratic loop that one pass in ``validate_raw`` replaced, and
``naive_is_valid_matching`` the per-student grouping that the one-pass
``is_valid_matching`` replaced.  ``naive_lattice_axioms`` is the
lattice-axioms check as first written, combining ``Matching`` objects
student by student for every pair and triple, which the rank-vector check
in ``verification`` replaced.  ``naive_run_all_checks`` is the
full verification report as first written: the pairwise checks rebuild
both matchings' assignee sets and rescan for the better-off students on
every ordered pair, which the per-member views in ``verification``
replaced.  ``hasse_def`` is the Hasse diagram as first written: pairwise
``_dominates_def``, then a third-member loop per edge, which the bitset
reduction in ``lattice`` replaced.  These stay deliberately naive; the
production code must agree with them.  ``token_parse_raw_instance`` and
``token_parse_matching_file`` are the file parsers as first written: every
token goes through a regex with its column attached, and ids through a
second regex, which the split-and-test parsers in ``fileio`` replaced;
they must accept the same files and raise the same errors at the same
places.
"""

import random
import re
from itertools import product
from typing import Iterator, Sequence

from spas import (
    Instance,
    Matching,
    ParseError,
    PropertyReport,
    RawInstance,
    ValidationReport,
    Violation,
    is_stable,
    is_valid_matching,
)
from spas.model import lecturer_name, project_name, student_name


def owner_of(instance: Instance, p: int) -> int:
    return instance.project_owner[p - 1]


def student_prefers(instance: Instance, s: int, p: int, q: int) -> bool:
    return instance.student_rank(s, p) < instance.student_rank(s, q)


def lecturer_prefers(instance: Instance, k: int, s: int, t: int) -> bool:
    return instance.lecturer_rank(k, s) < instance.lecturer_rank(k, t)


def naive_blocking_pairs(instance: Instance, matching: Matching):
    """(student, project, S-condition, P-condition) tuples from the raw
    definitions, all acceptable pairs scanned, lowest P reported."""
    assigned = matching.as_dict()
    in_matching = set(matching.pairs)
    out = []
    for s in instance.students():
        for p in instance.projects():
            if p not in instance.student_prefs[s - 1] or (s, p) in in_matching:
                continue
            cur = assigned.get(s)
            if cur is None:
                s_cond = "S1"
            elif student_prefers(instance, s, p, cur):
                s_cond = "S2"
            else:
                continue
            k = owner_of(instance, p)
            proj = {t for t, q in matching.pairs if q == p}
            lect = {t for t, q in matching.pairs if owner_of(instance, q) == k}
            p_under = len(proj) < instance.project_capacity[p - 1]
            l_under = len(lect) < instance.lecturer_capacity[k - 1]
            worst_lect = (
                max(lect, key=lambda t: instance.lecturer_rank(k, t))
                if lect else None
            )
            worst_proj = (
                max(proj, key=lambda t: instance.lecturer_rank(k, t))
                if proj else None
            )
            p1 = p_under and l_under
            p2 = p_under and not l_under and s in lect
            p3 = (
                p_under and not l_under and worst_lect is not None
                and lecturer_prefers(instance, k, s, worst_lect)
            )
            p4 = (
                not p_under and worst_proj is not None
                and lecturer_prefers(instance, k, s, worst_proj)
            )
            for name, hit in (("P1", p1), ("P2", p2), ("P3", p3), ("P4", p4)):
                if hit:
                    out.append((s, p, s_cond, name))
                    break
    out.sort()
    return out


def brute_force_stable_set(instance: Instance) -> tuple[Matching, ...]:
    """Every function from students to acceptable projects plus unassigned,
    filtered by validity then stability."""
    choices = [
        [None] + list(instance.student_prefs[s - 1]) for s in instance.students()
    ]
    stable = []
    for combo in product(*choices):
        m = Matching(tuple((s, p) for s, p in enumerate(combo, start=1) if p))
        if not is_valid_matching(instance, m).ok:
            continue
        if is_stable(instance, m):
            stable.append(m)
    stable.sort(key=lambda m: m.pairs)
    return tuple(stable)


def random_valid_matching(instance: Instance, rng: random.Random) -> Matching:
    """Greedy random assignment respecting all capacities."""
    order = list(instance.students())
    rng.shuffle(order)
    pload: dict[int, int] = {}
    lload: dict[int, int] = {}
    pairs = []
    for s in order:
        options = [None] + [
            p for p in instance.student_prefs[s - 1]
            if pload.get(p, 0) < instance.project_capacity[p - 1]
            and lload.get(owner_of(instance, p), 0)
            < instance.lecturer_capacity[owner_of(instance, p) - 1]
        ]
        p = rng.choice(options)
        if p is None:
            continue
        pairs.append((s, p))
        pload[p] = pload.get(p, 0) + 1
        k = owner_of(instance, p)
        lload[k] = lload.get(k, 0) + 1
    return Matching(tuple(pairs))


def dfs_stable_set(instance: Instance) -> tuple[Matching, ...]:
    """The stable set by depth-first search over every student's whole list
    plus unassigned, with no size guard and no deferred-acceptance seed.

    Students are assigned in index order.  A branch dies once a blocking
    pair is decided by state that can no longer change: a full project
    (P4) or a full lecturer (P2, P3); P1 is checked at the leaves against
    the recorded skipped pairs.
    """
    n1 = instance.num_students
    prefs = instance.student_prefs
    cap = (0,) + instance.project_capacity
    dcap = (0,) + instance.lecturer_capacity
    owner = (0,) + instance.project_owner
    lrank = [{s: r for r, s in enumerate(prefs)}
             for prefs in instance.lecturer_prefs]

    assigned = [0] * (n1 + 1)
    pload = [0] * len(cap)
    lload = [0] * len(dcap)
    pworst = [-1] * len(cap)  # worst (largest) lecturer rank assigned to p
    lworst = [-1] * len(dcap)
    envy: list[list[tuple[int, int]]] = [[] for _ in range(len(dcap))]
    found: list[Matching] = []

    def blocked(s: int, p: int) -> bool:
        # (s, p) skipped earlier; decide P-conditions that are already final
        k = owner[p]
        if pload[p] == cap[p]:
            return lrank[k - 1][s] < pworst[p]
        if lload[k] == dcap[k]:
            a = assigned[s]
            if a and owner[a] == k:
                return True
            return lrank[k - 1][s] < lworst[k]
        return False

    def extend(i: int) -> None:
        if i > n1:
            for k in range(1, len(dcap)):
                if lload[k] < dcap[k]:
                    for _, p in envy[k]:
                        if pload[p] < cap[p]:
                            return  # P1 blocks; everything else was settled
            found.append(
                Matching(tuple((s, assigned[s]) for s in range(1, n1 + 1) if assigned[s]))
            )
            return
        plist = prefs[i - 1]
        for idx in range(len(plist) + 1):
            choice = plist[idx] if idx < len(plist) else 0
            skipped = plist[:idx]
            if choice:
                k0 = owner[choice]
                if pload[choice] == cap[choice] or lload[k0] == dcap[k0]:
                    continue
                assigned[i] = choice
                pload[choice] += 1
                lload[k0] += 1
                old_pw, old_lw = pworst[choice], lworst[k0]
                r = lrank[k0 - 1][i]
                if r > pworst[choice]:
                    pworst[choice] = r
                if r > lworst[k0]:
                    lworst[k0] = r
            else:
                k0 = 0
                assigned[i] = 0

            dead = any(blocked(i, p) for p in skipped)
            if not dead and choice:
                if pload[choice] == cap[choice]:
                    dead = any(
                        p == choice and blocked(s, p) for s, p in envy[k0]
                    )
                if not dead and lload[k0] == dcap[k0]:
                    dead = any(blocked(s, p) for s, p in envy[k0])

            if not dead:
                pushed = []
                for p in skipped:
                    envy[owner[p]].append((i, p))
                    pushed.append(owner[p])
                extend(i + 1)
                for kp in reversed(pushed):
                    envy[kp].pop()

            if choice:
                pload[choice] -= 1
                lload[k0] -= 1
                pworst[choice], lworst[k0] = old_pw, old_lw
            assigned[i] = 0

    extend(1)
    found.sort(key=lambda m: m.pairs)
    return tuple(found)


def naive_is_valid_matching(instance: Instance, matching: Matching) -> ValidationReport:
    """Matching violations by per-student grouping, sorted key walks and
    membership tests on the raw preference lists."""
    violations: list[Violation] = []

    per_student: dict[int, list[int]] = {}
    for s, p in matching.pairs:
        per_student.setdefault(s, []).append(p)
    for s in sorted(per_student):
        if len(per_student[s]) > 1:
            names = " ".join(project_name(p) for p in per_student[s])
            violations.append(Violation(
                "multiple-assignment", student_name(s),
                f"assigned to more than one project: {names}"))

    for s, p in matching.pairs:
        subject = f"{student_name(s)},{project_name(p)}"
        if not 1 <= s <= instance.num_students:
            violations.append(Violation(
                "dangling-identifier", subject, "student does not exist"))
            continue
        if not 1 <= p <= instance.num_projects:
            violations.append(Violation(
                "dangling-identifier", subject, "project does not exist"))
            continue
        if p not in instance.student_prefs[s - 1]:
            violations.append(Violation(
                "unacceptable-pair", subject,
                f"{project_name(p)} is not on the list of {student_name(s)}"))

    load_p: dict[int, int] = {}
    load_l: dict[int, int] = {}
    for s, p in matching.pairs:
        if 1 <= p <= instance.num_projects:
            load_p[p] = load_p.get(p, 0) + 1
            k = instance.project_owner[p - 1]
            load_l[k] = load_l.get(k, 0) + 1
    for p in sorted(load_p):
        if load_p[p] > instance.project_capacity[p - 1]:
            violations.append(Violation(
                "project-capacity", project_name(p),
                f"{load_p[p]} students assigned, capacity is "
                f"{instance.project_capacity[p - 1]}"))
    for k in sorted(load_l):
        if load_l[k] > instance.lecturer_capacity[k - 1]:
            violations.append(Violation(
                "lecturer-capacity", lecturer_name(k),
                f"{load_l[k]} students assigned, capacity is "
                f"{instance.lecturer_capacity[k - 1]}"))

    return ValidationReport(tuple(violations))


def naive_list_correspondence(raw: RawInstance) -> list[Violation]:
    """Lecturer-list mismatches, lecturer by lecturer, rescanning every
    student list against the lecturer's offered projects each time."""
    n1, n3 = len(raw.student_prefs), len(raw.lecturer_capacity)
    offered: list[list[int]] = [[] for _ in range(n3)]
    for j, k in enumerate(raw.project_owner, start=1):
        if 1 <= k <= n3:
            offered[k - 1].append(j)
    out = []
    for k in range(1, n3 + 1):
        expected = {
            i for i, prefs in enumerate(raw.student_prefs, start=1)
            if any(p in prefs for p in offered[k - 1])
        }
        listed = {s for s in raw.lecturer_prefs[k - 1] if 1 <= s <= n1}
        for s in sorted(expected - listed):
            out.append(Violation(
                "lecturer-list-mismatch", f"l{k}",
                f"s{s} ranks an offered project but is missing from the list"))
        for s in sorted(listed - expected):
            out.append(Violation(
                "lecturer-list-mismatch", f"l{k}",
                f"s{s} is listed but ranks no offered project"))
    return out


def _lect_set(instance: Instance, m: Matching, k: int) -> set[int]:
    return {s for s, p in m.pairs if owner_of(instance, p) == k}


def _prefers_first_sets(
    instance: Instance, k: int, first: set[int], second: set[int]
) -> bool:
    """Definitional lecturer comparison: strictly better position by position."""
    if first == second:
        return False
    only_f = sorted(first - second, key=lambda s: instance.lecturer_rank(k, s))
    only_s = sorted(second - first, key=lambda s: instance.lecturer_rank(k, s))
    if len(only_f) != len(only_s):
        return False
    return all(
        instance.lecturer_rank(k, x) < instance.lecturer_rank(k, y)
        for x, y in zip(only_f, only_s)
    )


def _dominates_def(instance: Instance, first: Matching, second: Matching) -> bool:
    a, b = first.as_dict(), second.as_dict()
    for s in instance.students():
        pa, pb = a.get(s), b.get(s)
        if pa == pb:
            continue
        if pa is None or pb is None:
            return False
        if instance.student_rank(s, pa) >= instance.student_rank(s, pb):
            return False
    return True


def _lect_dominates_def(instance: Instance, first: Matching, second: Matching) -> bool:
    for k in instance.lecturers():
        sa = _lect_set(instance, first, k)
        sb = _lect_set(instance, second, k)
        if sa == sb:
            continue
        if not _prefers_first_sets(instance, k, sa, sb):
            return False
    return True


def _combine_def(
    instance: Instance, first: Matching, second: Matching, better: bool
) -> Matching:
    a, b = first.as_dict(), second.as_dict()
    pairs = []
    for s in instance.students():
        pa, pb = a.get(s), b.get(s)
        if pa is None and pb is None:
            continue
        if pa is None or pb is None:
            chosen = (pa or pb) if better else None
        elif pa == pb:
            chosen = pa
        elif instance.student_rank(s, pa) < instance.student_rank(s, pb):
            chosen = pa if better else pb
        else:
            chosen = pb if better else pa
        if chosen is not None:
            pairs.append((s, chosen))
    return Matching(tuple(pairs))


def hasse_def(
    instance: Instance, stable: Sequence[Matching]
) -> tuple[tuple[int, int], ...]:
    """Cover edges of dominance: pairwise dominance first; an edge survives
    when no third element sits strictly between its endpoints.  Cubic."""
    nodes = tuple(stable)
    n = len(nodes)
    dom = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                dom[i][j] = _dominates_def(instance, nodes[i], nodes[j])
    edges = []
    for i in range(n):
        for j in range(n):
            if not dom[i][j]:
                continue
            if any(dom[i][x] and dom[x][j] for x in range(n) if x != i and x != j):
                continue
            edges.append((i, j))
    return tuple(sorted(edges))


def naive_lattice_axioms(
    instance: Instance, stable: Sequence[Matching]
) -> PropertyReport:
    """The lattice-axioms report built from Matching objects: every
    per-student combination is a fresh ``Matching`` made through the
    id-checked ``student_rank``, pairs and triples alike.

    Bound characterisations, closure, distributivity, dominance reversal.

    For every pair: the per-student better (worse) combination is a member,
    below (above) both arguments, and every common lower (upper) bound sits
    below (above) it.  Both distributive identities hold for every triple,
    and student dominance of (x, y) coincides with lecturer dominance of
    (y, x).
    """
    failures: list[str] = []
    members = list(stable)
    member_set = set(members)
    n = len(members)

    dom = [
        [_dominates_def(instance, x, y) for y in members] for x in members
    ]

    for i in range(n):
        for j in range(n):
            x, y = members[i], members[j]
            mt = _combine_def(instance, x, y, better=True)
            jn = _combine_def(instance, x, y, better=False)
            if mt not in member_set:
                failures.append(f"meet of members {i} and {j} left the stable set")
                continue
            if jn not in member_set:
                failures.append(f"join of members {i} and {j} left the stable set")
                continue
            if not (_dominates_def(instance, mt, x) and _dominates_def(instance, mt, y)):
                failures.append(f"meet of {i} and {j} is not a lower bound")
            if not (_dominates_def(instance, x, jn) and _dominates_def(instance, y, jn)):
                failures.append(f"join of {i} and {j} is not an upper bound")
            for z in range(n):
                if dom[z][i] and dom[z][j] and not _dominates_def(instance, members[z], mt):
                    failures.append(
                        f"member {z} is a lower bound of {i} and {j} above their meet"
                    )
                if dom[i][z] and dom[j][z] and not _dominates_def(instance, jn, members[z]):
                    failures.append(
                        f"member {z} is an upper bound of {i} and {j} below their join"
                    )
            if dom[i][j] != _lect_dominates_def(instance, y, x):
                failures.append(
                    f"dominance reversal fails between members {i} and {j}"
                )

    for x in members:
        for y in members:
            for z in members:
                left = _combine_def(instance, x, _combine_def(instance, y, z, True), False)
                right = _combine_def(
                    instance,
                    _combine_def(instance, x, y, False),
                    _combine_def(instance, x, z, False),
                    True,
                )
                if left != right:
                    failures.append("join does not distribute over meet")
                left = _combine_def(instance, x, _combine_def(instance, y, z, False), True)
                right = _combine_def(
                    instance,
                    _combine_def(instance, x, y, True),
                    _combine_def(instance, x, z, True),
                    False,
                )
                if left != right:
                    failures.append("meet does not distribute over join")

    return PropertyReport("lattice-axioms", not failures, tuple(failures))


def _report(name: str, failures: list[str]) -> PropertyReport:
    return PropertyReport(name, not failures, tuple(failures))


def _held(instance: Instance, m: Matching) -> tuple[list[set[int]], list[set[int]]]:
    """Assignees of each project and of each lecturer, indexed by id (slot
    0 unused), in one pass over the pairs in canonical order."""
    proj: list[set[int]] = [set() for _ in range(instance.num_projects + 1)]
    lect: list[set[int]] = [set() for _ in range(instance.num_lecturers + 1)]
    owner = instance.project_owner
    for s, p in m.pairs:
        proj[p].add(s)
        lect[owner[p - 1]].add(s)
    return proj, lect


def _check_unpopular_projects(
    instance: Instance, stable: Sequence[Matching]
) -> PropertyReport:
    """Count and membership invariants shared by every stable matching.

    (i) each lecturer gets the same number of students everywhere,
    (ii) exactly the same students are unassigned everywhere, and
    (iii) each project of an undersubscribed lecturer gets the same number
    of students everywhere.  By (i) undersubscription is membership
    independent, so one member decides which lecturers part (iii) covers.
    """
    failures: list[str] = []
    members = list(stable)
    if not members:
        return _report("unpopular-projects", failures)
    held = [_held(instance, m) for m in members]

    for k in instance.lecturers():
        counts = {len(lect[k]) for _, lect in held}
        if len(counts) > 1:
            failures.append(
                f"{lecturer_name(k)}: assigned counts differ across the "
                f"stable set: {sorted(counts)}"
            )

    assigned_sets = [{s for s, _ in m.pairs} for m in members]
    unassigned = [set(instance.students()) - a for a in assigned_sets]
    for idx, u in enumerate(unassigned[1:], start=1):
        if u != unassigned[0]:
            diff = u ^ unassigned[0]
            names = " ".join(student_name(s) for s in sorted(diff))
            failures.append(
                f"unassigned students differ between members 0 and {idx}: {names}"
            )

    under = {
        k for _, lect in held for k in instance.lecturers()
        if len(lect[k]) < instance.lecturer_capacity[k - 1]
    }
    for k in sorted(under):
        for p in instance.lecturer_projects[k - 1]:
            counts = {len(proj[p]) for proj, _ in held}
            if len(counts) > 1:
                failures.append(
                    f"{project_name(p)} of undersubscribed {lecturer_name(k)}: "
                    f"assigned counts differ: {sorted(counts)}"
                )
    return _report("unpopular-projects", failures)


def _better_off(
    instance: Instance, m: Matching, m_alt: Matching
) -> Iterator[tuple[int, int, int]]:
    """(s, m(s), m_alt(s)) for each student, ascending, assigned in both
    matchings who strictly prefers m."""
    b = m_alt.as_dict()
    for s, p in m.as_dict().items():
        q = b.get(s)
        if q is not None and p != q and (
            instance.student_rank(s, p) < instance.student_rank(s, q)
        ):
            yield s, p, q


def _check_prop_full_project(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A project a strictly-better-off student holds must be full elsewhere.

    For each student with m(s) = p, owner k, who strictly prefers m and is
    either in m_alt(k) or ranked above someone in m_alt(k): p is full in
    m_alt.
    """
    failures: list[str] = []
    proj_alt, lect_alt = _held(instance, m_alt)
    for s, p, _ in _better_off(instance, m, m_alt):
        k = owner_of(instance, p)
        alt_students = lect_alt[k]
        rank_s = instance.lecturer_rank(k, s)
        triggered = s in alt_students or any(
            rank_s < instance.lecturer_rank(k, t) for t in alt_students
        )
        if triggered and len(proj_alt[p]) != instance.project_capacity[p - 1]:
            failures.append(
                f"{student_name(s)} holds {project_name(p)} and prefers it, "
                f"yet {project_name(p)} is not full in the other matching"
            )
    return _report("full-project", failures)


def _check_lemma_same_lecturer(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """Students moved between projects of one lecturer bound the diff sets.

    For s assigned in both matchings to different projects of the same
    lecturer k and preferring m: the sets differ, someone in
    m_alt(k) \\ m(k) outranks s, and someone in m(k) \\ m_alt(k) is
    outranked by s.
    """
    failures: list[str] = []
    lect_m, lect_alt = _held(instance, m)[1], _held(instance, m_alt)[1]
    for s, p, q in _better_off(instance, m, m_alt):
        k = owner_of(instance, p)
        if owner_of(instance, q) != k:
            continue
        set_m, set_alt = lect_m[k], lect_alt[k]
        if set_m == set_alt:
            failures.append(
                f"{student_name(s)} moved within {lecturer_name(k)} but the "
                f"assigned sets are identical"
            )
            continue
        rank_s = instance.lecturer_rank(k, s)
        if not any(
            instance.lecturer_rank(k, t) < rank_s for t in set_alt - set_m
        ):
            failures.append(
                f"no student above {student_name(s)} entered "
                f"{lecturer_name(k)} in the other matching"
            )
        if not any(
            instance.lecturer_rank(k, t) > rank_s for t in set_m - set_alt
        ):
            failures.append(
                f"no student below {student_name(s)} left "
                f"{lecturer_name(k)} in the other matching"
            )
    return _report("same-lecturer", failures)


def _check_lemma_pref_reversal(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A lecturer losing a strictly-better-off student prefers the other side.

    For each lecturer with different assigned sets: if some student in
    m(k) \\ m_alt(k) strictly prefers m, then k prefers m_alt to m.
    """
    failures: list[str] = []
    better = {s for s, _, _ in _better_off(instance, m, m_alt)}
    lect_m, lect_alt = _held(instance, m)[1], _held(instance, m_alt)[1]
    for k in instance.lecturers():
        set_m, set_alt = lect_m[k], lect_alt[k]
        if set_m == set_alt:
            continue
        mover = next((s for s in set_m - set_alt if s in better), None)
        if mover is None:
            continue
        if not _prefers_first_sets(instance, k, set_alt, set_m):
            failures.append(
                f"{student_name(mover)} left {lecturer_name(k)} while "
                f"preferring this side, but {lecturer_name(k)} does not "
                f"prefer the other matching"
            )
    return _report("preference-reversal", failures)


def _check_lemma_rank_boundaries(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A better-off student outranks whoever replaced them.

    For s assigned to different projects, preferring m, with p = m_alt(s)
    owned by k: (a) everyone in m(p) \\ m_alt(p) is ranked below s; (b) if
    p is undersubscribed in m, everyone in m(k) \\ m_alt(k) is ranked
    below s.
    """
    failures: list[str] = []
    (proj_m, lect_m), (proj_alt, lect_alt) = _held(instance, m), _held(instance, m_alt)
    for s, _, pj in _better_off(instance, m, m_alt):
        k = owner_of(instance, pj)
        rank_s = instance.lecturer_rank(k, s)
        for t in proj_m[pj] - proj_alt[pj]:
            if instance.lecturer_rank(k, t) < rank_s:
                failures.append(
                    f"{student_name(t)} in the project set difference of "
                    f"{project_name(pj)} outranks {student_name(s)}"
                )
        if len(proj_m[pj]) < instance.project_capacity[pj - 1]:
            for t in lect_m[k] - lect_alt[k]:
                if instance.lecturer_rank(k, t) < rank_s:
                    failures.append(
                        f"{student_name(t)} in the lecturer set difference of "
                        f"{lecturer_name(k)} outranks {student_name(s)}"
                    )
    return _report("rank-boundaries", failures)


_PAIRWISE_CHECKS = (
    ("full-project", _check_prop_full_project),
    ("same-lecturer", _check_lemma_same_lecturer),
    ("preference-reversal", _check_lemma_pref_reversal),
    ("rank-boundaries", _check_lemma_rank_boundaries),
)


def naive_run_all_checks(
    instance: Instance,
    stable: Sequence[Matching],
    *,
    pairs_only: bool = False,
) -> tuple[PropertyReport, ...]:
    """The full ``run_all_checks`` report as first written: each pairwise
    check rebuilds both matchings' assignee sets and rescans for the
    better-off students on every ordered pair, through the id-checked rank
    queries; the lattice axioms come from ``naive_lattice_axioms``."""
    members = list(stable)
    reports: list[PropertyReport] = []
    if not pairs_only:
        reports.append(_check_unpopular_projects(instance, members))
    for name, check in _PAIRWISE_CHECKS:
        failures: list[str] = []
        for i, x in enumerate(members):
            for j, y in enumerate(members):
                if i == j:
                    continue
                r = check(instance, x, y)
                failures.extend(f"(M{i + 1}, M{j + 1}) {f}" for f in r.failures)
        reports.append(_report(name, failures))
    if not pairs_only:
        reports.append(naive_lattice_axioms(instance, members))
    return tuple(reports)



_TOKEN = re.compile(r"\S+")
_ID = re.compile(r"^([spl])([1-9][0-9]*)$")
_COUNT_KEYWORDS = ("students", "projects", "lecturers")


def _tokens(raw_line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(raw_line)]


def _to_int(digits: str, line: int, column: int) -> int:
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number of {len(digits)} digits is too long", line, column
        ) from None


def _parse_id(token: str, kind: str, line: int, column: int) -> int:
    m = _ID.match(token)
    if not m or m.group(1) != kind:
        raise ParseError(
            f"expected {kind}<number> identifier, got {token!r}", line, column
        )
    return _to_int(m.group(2), line, column)


def _is_count(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _parse_count(tokens: list[tuple[str, int]], line: int) -> int:
    if len(tokens) != 2 or not _is_count(tokens[1][0]):
        raise ParseError(
            f"expected '{tokens[0][0]} <count>'", line, tokens[0][1]
        )
    return _to_int(tokens[1][0], line, tokens[1][1])


def token_parse_raw_instance(text: str) -> RawInstance:
    """The instance parser over ``(token, column)`` tuples."""
    counts: dict[str, int] = {}
    students: dict[int, list[int]] = {}
    projects: dict[int, tuple[int, int]] = {}
    lecturers: dict[int, tuple[int, list[int]]] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = _tokens(raw_line)
        head, head_col = toks[0]

        if head in _COUNT_KEYWORDS:
            if head in counts:
                raise ParseError(f"duplicate '{head}' header", line_no, head_col)
            counts[head] = _parse_count(toks, line_no)
            continue

        if len(counts) < 3:
            raise ParseError(
                "entity line before the three count headers", line_no, head_col
            )

        kind = head[0]
        if kind == "s":
            i = _parse_id(head, "s", line_no, head_col)
            if i in students:
                raise ParseError(f"duplicate line for s{i}", line_no, head_col)
            if len(toks) < 2 or toks[1][0] != ":":
                raise ParseError("expected ':' after student id", line_no, head_col)
            students[i] = [
                _parse_id(t, "p", line_no, c) for t, c in toks[2:]
            ]
        elif kind == "p":
            j = _parse_id(head, "p", line_no, head_col)
            if j in projects:
                raise ParseError(f"duplicate line for p{j}", line_no, head_col)
            words = [t for t, _ in toks[1:]]
            if (
                len(toks) != 6
                or words[0] != ":"
                or words[1] != "capacity"
                or not _is_count(words[2])
                or words[3] != "lecturer"
            ):
                raise ParseError(
                    "expected 'p<j> : capacity <c> lecturer l<k>'",
                    line_no, head_col,
                )
            k = _parse_id(toks[5][0], "l", line_no, toks[5][1])
            projects[j] = (_to_int(words[2], line_no, toks[3][1]), k)
        elif kind == "l":
            k = _parse_id(head, "l", line_no, head_col)
            if k in lecturers:
                raise ParseError(f"duplicate line for l{k}", line_no, head_col)
            words = [t for t, _ in toks[1:]]
            if (
                len(toks) < 5
                or words[0] != ":"
                or words[1] != "capacity"
                or not _is_count(words[2])
                or words[3] != ":"
            ):
                raise ParseError(
                    "expected 'l<k> : capacity <d> : s<a> ...'",
                    line_no, head_col,
                )
            ranked = [_parse_id(t, "s", line_no, c) for t, c in toks[5:]]
            lecturers[k] = (_to_int(words[2], line_no, toks[3][1]), ranked)
        else:
            raise ParseError(f"unrecognised line {stripped!r}", line_no, head_col)

    if not counts and not (students or projects or lecturers):
        return RawInstance([], [], [], [], [])
    for keyword in _COUNT_KEYWORDS:
        if keyword not in counts:
            raise ParseError(f"missing '{keyword}' header")

    def gather(found: dict, n: int, prefix: str) -> None:
        for ident in sorted(found):
            if not 1 <= ident <= n:
                raise ParseError(
                    f"{prefix}{ident} is outside the declared range 1..{n}"
                )
        if len(found) < n:
            missing = next(i for i in range(1, n + 1) if i not in found)
            raise ParseError(f"missing line for {prefix}{missing}")

    gather(students, counts["students"], "s")
    gather(projects, counts["projects"], "p")
    gather(lecturers, counts["lecturers"], "l")

    return RawInstance(
        student_prefs=[students[i] for i in range(1, counts["students"] + 1)],
        project_capacity=[projects[j][0] for j in range(1, counts["projects"] + 1)],
        project_owner=[projects[j][1] for j in range(1, counts["projects"] + 1)],
        lecturer_capacity=[lecturers[k][0] for k in range(1, counts["lecturers"] + 1)],
        lecturer_prefs=[lecturers[k][1] for k in range(1, counts["lecturers"] + 1)],
    )


def token_parse_matching_file(text: str, instance: Instance) -> Matching:
    """The matching parser over ``(token, column)`` tuples."""
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = _tokens(raw_line)
        if len(toks) != 2:
            raise ParseError(
                "expected 's<i> p<j>' or 's<i> -'", line_no, toks[0][1]
            )
        s = _parse_id(toks[0][0], "s", line_no, toks[0][1])
        if not 1 <= s <= instance.num_students:
            raise ParseError(f"unknown student s{s}", line_no, toks[0][1])
        if s in seen:
            raise ParseError(f"duplicate line for s{s}", line_no, toks[0][1])
        seen.add(s)
        if toks[1][0] == "-":
            continue
        p = _parse_id(toks[1][0], "p", line_no, toks[1][1])
        if not 1 <= p <= instance.num_projects:
            raise ParseError(f"unknown project p{p}", line_no, toks[1][1])
        pairs.append((s, p))
    return Matching(tuple(pairs))
