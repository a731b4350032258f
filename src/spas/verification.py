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
so a student assigned on exactly one side breaks dominance.

The check is quadratic in the number of members and tests only what can
fail on rank vectors: closure, the meet and join bounding their
arguments, and dominance reversal.  The paper's other lattice clauses
hold for any rank vectors, so they are not re-tested.  Per entry, min
and max over integers distribute over each other, so both distributive
laws hold.  A vector z below x and y has, at each entry, z = x or
z < x < top, and likewise against y; then z equals min(x, y) there, or
z < min(x, y) < top, so z is below the meet.  Dually, anything above x
and y is above the join.  ``tests/oracles.py::naive_lattice_axioms``
still evaluates every clause on ``Matching`` objects, and the test suite
requires its report to equal this one on 1000 sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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


def check_prop_full_project(
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
    lect_m, lect_alt = _held(instance, m)[1], _held(instance, m_alt)[1]
    for s, p, q in _better_off(instance, m, m_alt):
        k = instance.owner(p)
        if instance.owner(q) != k:
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
    (proj_m, lect_m), (proj_alt, lect_alt) = _held(instance, m), _held(instance, m_alt)
    for s, _, pj in _better_off(instance, m, m_alt):
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


def check_lattice_axioms(
    instance: Instance, stable: Sequence[Matching]
) -> PropertyReport:
    """Closure, bounds and dominance reversal over every ordered pair.

    For every pair: the per-student better (worse) combination is a member
    and sits below (above) both arguments, and student dominance of (x, y)
    coincides with lecturer dominance of (y, x).  That every common lower
    (upper) bound sits below (above) the combination, and both
    distributive identities, hold for any rank vectors (see the module
    docstring), so they are not re-tested here.
    """
    failures: list[str] = []
    members = list(stable)
    top = tuple(len(prefs) for prefs in instance.student_prefs)

    def vector(m: Matching) -> tuple[int, ...]:
        a = m.as_dict()
        return tuple(
            instance.student_rank(s, a[s]) if s in a else t
            for s, t in enumerate(top, start=1)
        )

    def leq(v: tuple[int, ...], w: tuple[int, ...]) -> bool:
        return all(x == y or x < y < t for x, y, t in zip(v, w, top))

    vecs = [vector(m) for m in members]
    present = set(vecs)
    lect = [_held(instance, m)[1] for m in members]

    for i, x in enumerate(vecs):
        for j, y in enumerate(vecs):
            mt, jn = tuple(map(min, x, y)), tuple(map(max, x, y))
            if mt not in present:
                failures.append(f"meet of members {i} and {j} left the stable set")
                continue
            if jn not in present:
                failures.append(f"join of members {i} and {j} left the stable set")
                continue
            if not (leq(mt, x) and leq(mt, y)):
                failures.append(f"meet of {i} and {j} is not a lower bound")
            if not (leq(x, jn) and leq(y, jn)):
                failures.append(f"join of {i} and {j} is not an upper bound")
            lect_dom = all(
                lect[j][k] == lect[i][k]
                or _prefers_first_sets(instance, k, lect[j][k], lect[i][k])
                for k in instance.lecturers()
            )
            if leq(x, y) != lect_dom:
                failures.append(
                    f"dominance reversal fails between members {i} and {j}"
                )

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
