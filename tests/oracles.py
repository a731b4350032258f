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
in ``verification`` replaced.  These stay deliberately naive; the
production code must agree with them.
"""

import random
from itertools import product
from typing import Sequence

from spas import (
    Instance,
    Matching,
    PropertyReport,
    RawInstance,
    ValidationReport,
    Violation,
    is_stable,
    is_valid_matching,
)
from spas.model import lecturer_name, project_name, student_name


def naive_blocking_pairs(instance: Instance, matching: Matching):
    """(student, project, S-condition, P-condition) tuples from the raw
    definitions, all acceptable pairs scanned, lowest P reported."""
    assigned = matching.as_dict()
    in_matching = set(matching.pairs)
    out = []
    for s in instance.students():
        for p in instance.projects():
            if not instance.acceptable_pair(s, p) or (s, p) in in_matching:
                continue
            cur = assigned.get(s)
            if cur is None:
                s_cond = "S1"
            elif instance.student_prefers(s, p, cur):
                s_cond = "S2"
            else:
                continue
            k = instance.owner(p)
            proj = {t for t, q in matching.pairs if q == p}
            lect = {t for t, q in matching.pairs if instance.owner(q) == k}
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
                and instance.lecturer_prefers(k, s, worst_lect)
            )
            p4 = (
                not p_under and worst_proj is not None
                and instance.lecturer_prefers(k, s, worst_proj)
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
            and lload.get(instance.owner(p), 0)
            < instance.lecturer_capacity[instance.owner(p) - 1]
        ]
        p = rng.choice(options)
        if p is None:
            continue
        pairs.append((s, p))
        pload[p] = pload.get(p, 0) + 1
        k = instance.owner(p)
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
    lrank = instance._lrank

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
    """Matching violations by per-student grouping, sorted key walks and the
    id-checked ``acceptable_pair``."""
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
        if not instance.acceptable_pair(s, p):
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
    return {s for s, p in m.pairs if instance.owner(p) == k}


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
