"""Executable checks of the structural facts about stable sets.

Every check re-derives its claim from primitive rank queries and set
algebra over the raw pair sets, on purpose never calling the lattice
module, so a green check is independent evidence rather than an echo of
the code it guards.  Checks do not re-verify stability of their inputs;
the caller owns that precondition, which also makes the failure paths
testable with crafted unstable matchings.  Members must be valid
matchings of the instance.

The pairwise lemmas and the unpopular-projects check read each matching
through the assignee sets of every project and every lecturer, built in
one pass over its pairs.

The lattice-axioms check reads each member as a rank vector: entry s - 1
is the position of s's project on their list, or the list's length when
s is unassigned.  That marker ranks below every real position, so the
per-student better choice of two matchings is the elementwise min and
the worse choice the elementwise max, with a student assigned on one
side only counting as better off there and unassigned in the worse one.
A matching is below another when each entry equals the other's or is
smaller than an entry other than the marker (``a == b or a < b < top``),
so a student assigned on exactly one side breaks dominance.  Vectors are
interned by index, so each distinct pair is combined once and the checks
over pairs and triples are table lookups.  The check is cubic in the
number of members.  Min and max over a chain always distribute, and a
common lower (upper) bound of two vectors always sits below their min
(above their max), so on rank vectors those clauses hold by construction;
only closure, the meet and join bounding their arguments, and dominance
reversal can fail.  The others are kept as statements of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .enumeration import StableSet, enumerate_all
from .model import Instance, Matching, lecturer_name, project_name, student_name


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of one property check; failures carry the offending agents."""

    name: str
    passed: bool
    failures: tuple[str, ...] = ()


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


def check_unpopular_projects(
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


def check_prop_full_project(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A project a strictly-better-off student holds must be full elsewhere.

    For each student with m(s) = p, owner k, who strictly prefers m and is
    either in m_alt(k) or ranked above someone in m_alt(k): p is full in
    m_alt.
    """
    failures: list[str] = []
    a, b = m.as_dict(), m_alt.as_dict()
    proj_alt, lect_alt = _held(instance, m_alt)
    for s in instance.students():
        p = a.get(s)
        q = b.get(s)
        if p is None or q is None or p == q:
            continue
        if instance.student_rank(s, p) >= instance.student_rank(s, q):
            continue
        k = instance.owner(p)
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


def check_lemma_same_lecturer(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """Students moved between projects of one lecturer bound the diff sets.

    For s assigned in both matchings to different projects of the same
    lecturer k and preferring m: the sets differ, someone in
    m_alt(k) \\ m(k) outranks s, and someone in m(k) \\ m_alt(k) is
    outranked by s.
    """
    failures: list[str] = []
    a, b = m.as_dict(), m_alt.as_dict()
    lect_m, lect_alt = _held(instance, m)[1], _held(instance, m_alt)[1]
    for s in instance.students():
        p, q = a.get(s), b.get(s)
        if p is None or q is None or p == q:
            continue
        k = instance.owner(p)
        if instance.owner(q) != k:
            continue
        if instance.student_rank(s, p) >= instance.student_rank(s, q):
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


def check_lemma_pref_reversal(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A lecturer losing a strictly-better-off student prefers the other side.

    For each lecturer with different assigned sets: if some student in
    m(k) \\ m_alt(k) strictly prefers m, then k prefers m_alt to m.
    """
    failures: list[str] = []
    a, b = m.as_dict(), m_alt.as_dict()
    lect_m, lect_alt = _held(instance, m)[1], _held(instance, m_alt)[1]
    for k in instance.lecturers():
        set_m, set_alt = lect_m[k], lect_alt[k]
        if set_m == set_alt:
            continue
        mover = None
        for s in set_m - set_alt:
            q = b.get(s)
            p = a[s]
            if q is not None and instance.student_rank(s, p) < instance.student_rank(s, q):
                mover = s
                break
        if mover is None:
            continue
        if not _prefers_first_sets(instance, k, set_alt, set_m):
            failures.append(
                f"{student_name(mover)} left {lecturer_name(k)} while "
                f"preferring this side, but {lecturer_name(k)} does not "
                f"prefer the other matching"
            )
    return _report("preference-reversal", failures)


def check_lemma_rank_boundaries(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A better-off student outranks whoever replaced them.

    For s assigned to different projects, preferring m, with p = m_alt(s)
    owned by k: (a) everyone in m(p) \\ m_alt(p) is ranked below s; (b) if
    p is undersubscribed in m, everyone in m(k) \\ m_alt(k) is ranked
    below s.
    """
    failures: list[str] = []
    a, b = m.as_dict(), m_alt.as_dict()
    (proj_m, lect_m), (proj_alt, lect_alt) = _held(instance, m), _held(instance, m_alt)
    for s in instance.students():
        pm, pj = a.get(s), b.get(s)
        if pm is None or pj is None or pm == pj:
            continue
        if instance.student_rank(s, pm) >= instance.student_rank(s, pj):
            continue
        k = instance.owner(pj)
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


class _Table(dict[tuple[int, int], int]):
    """Index of the combination of two interned vectors, computed on the
    first lookup of each pair."""

    def __init__(self, combine: Callable[[int, int], int]) -> None:
        super().__init__()
        self.combine = combine

    def __missing__(self, key: tuple[int, int]) -> int:
        self[key] = value = self.combine(*key)
        return value


def check_lattice_axioms(
    instance: Instance, stable: Sequence[Matching]
) -> PropertyReport:
    """Bound characterisations, closure, distributivity, dominance reversal.

    For every pair: the per-student better (worse) combination is a member,
    below (above) both arguments, and every common lower (upper) bound sits
    below (above) it.  Both distributive identities hold for every triple,
    and student dominance of (x, y) coincides with lecturer dominance of
    (y, x).
    """
    failures: list[str] = []
    members = list(stable)
    n = len(members)
    top = tuple(len(prefs) for prefs in instance.student_prefs)
    vecs: list[tuple[int, ...]] = []
    ids: dict[tuple[int, ...], int] = {}

    def intern(v: tuple[int, ...]) -> int:
        if v not in ids:
            ids[v] = len(vecs)
            vecs.append(v)
        return ids[v]

    def vector(m: Matching) -> tuple[int, ...]:
        a = m.as_dict()
        return tuple(
            instance.student_rank(s, a[s]) if s in a else t
            for s, t in enumerate(top, start=1)
        )

    def leq(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
        return all(x == y or x < y < t for x, y, t in zip(v, w, top))

    idx = [intern(vector(m)) for m in members]
    distinct = len(vecs)  # ids below this are members
    meet = _Table(lambda a, b: intern(tuple(map(min, vecs[a], vecs[b]))))
    join = _Table(lambda a, b: intern(tuple(map(max, vecs[a], vecs[b]))))
    # bit z of below[v] (above[v]): member z sits below (above) member vector v
    below = [sum(1 << z for z in range(n) if leq(vecs[idx[z]], v)) for v in vecs]
    above = [sum(1 << z for z in range(n) if leq(v, vecs[idx[z]])) for v in vecs]
    lect = [_held(instance, m)[1] for m in members]

    for i, x in enumerate(idx):
        for j, y in enumerate(idx):
            mt, jn = meet[x, y], join[x, y]
            if mt >= distinct:
                failures.append(f"meet of members {i} and {j} left the stable set")
                continue
            if jn >= distinct:
                failures.append(f"join of members {i} and {j} left the stable set")
                continue
            if not (above[mt] >> i & above[mt] >> j & 1):
                failures.append(f"meet of {i} and {j} is not a lower bound")
            if not (below[jn] >> i & below[jn] >> j & 1):
                failures.append(f"join of {i} and {j} is not an upper bound")
            low = below[x] & below[y] & ~below[mt]
            high = above[x] & above[y] & ~above[jn]
            if low or high:
                for z in range(n):
                    if low >> z & 1:
                        failures.append(
                            f"member {z} is a lower bound of {i} and {j} above their meet"
                        )
                    if high >> z & 1:
                        failures.append(
                            f"member {z} is an upper bound of {i} and {j} below their join"
                        )
            lect_dom = all(
                lect[j][k] == lect[i][k]
                or _prefers_first_sets(instance, k, lect[j][k], lect[i][k])
                for k in instance.lecturers()
            )
            if bool(above[x] >> j & 1) != lect_dom:
                failures.append(
                    f"dominance reversal fails between members {i} and {j}"
                )

    for x in idx:
        for y in idx:
            jxy, mxy = join[x, y], meet[x, y]
            for z in idx:
                if join[x, meet[y, z]] != meet[jxy, join[x, z]]:
                    failures.append("join does not distribute over meet")
                if meet[x, join[y, z]] != join[mxy, meet[x, z]]:
                    failures.append("meet does not distribute over join")

    return _report("lattice-axioms", failures)


PAIRWISE_CHECKS = (
    ("full-project", check_prop_full_project),
    ("same-lecturer", check_lemma_same_lecturer),
    ("preference-reversal", check_lemma_pref_reversal),
    ("rank-boundaries", check_lemma_rank_boundaries),
)


def run_all_checks(
    instance: Instance,
    stable: StableSet | None = None,
    *,
    pairs_only: bool = False,
) -> tuple[PropertyReport, ...]:
    """Run every check over a stable set, quantifying pairwise checks over
    all ordered pairs of distinct members (the statements are
    orientation-sensitive)."""
    if stable is None:
        stable = enumerate_all(instance)
    members = list(stable)
    reports: list[PropertyReport] = []
    if not pairs_only:
        reports.append(check_unpopular_projects(instance, members))
    for name, check in PAIRWISE_CHECKS:
        failures: list[str] = []
        for i, x in enumerate(members):
            for j, y in enumerate(members):
                if i == j:
                    continue
                r = check(instance, x, y)
                failures.extend(f"(M{i + 1}, M{j + 1}) {f}" for f in r.failures)
        reports.append(_report(name, failures))
    if not pairs_only:
        reports.append(check_lattice_axioms(instance, members))
    return tuple(reports)
