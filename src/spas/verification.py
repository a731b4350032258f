"""Executable checks of the structural facts about stable sets.

Every check re-derives its claim from primitive rank queries and set
algebra over the raw pair sets, on purpose never calling the lattice
module, so a green check is independent evidence rather than an echo of
the code it guards.  Checks do not re-verify stability of their inputs;
the caller owns that precondition, which also makes the failure paths
testable with crafted unstable matchings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def _lect_set(instance: Instance, m: Matching, k: int) -> set[int]:
    return {s for s, p in m.pairs if instance.owner(p) == k}


def _proj_set(m: Matching, p: int) -> set[int]:
    return {s for s, q in m.pairs if q == p}


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
    ref = members[0]

    for k in instance.lecturers():
        counts = {len(_lect_set(instance, m, k)) for m in members}
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
        k for m in members for k in instance.lecturers()
        if len(_lect_set(instance, m, k)) < instance.lecturer_capacity[k - 1]
    }
    for k in sorted(under):
        for p in instance.lecturer_projects[k - 1]:
            counts = {len(_proj_set(m, p)) for m in members}
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
    for s in instance.students():
        p = a.get(s)
        q = b.get(s)
        if p is None or q is None or p == q:
            continue
        if instance.student_rank(s, p) >= instance.student_rank(s, q):
            continue
        k = instance.owner(p)
        alt_students = _lect_set(instance, m_alt, k)
        rank_s = instance.lecturer_rank(k, s)
        triggered = s in alt_students or any(
            rank_s < instance.lecturer_rank(k, t) for t in alt_students
        )
        if triggered and len(_proj_set(m_alt, p)) != instance.project_capacity[p - 1]:
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
    for s in instance.students():
        p, q = a.get(s), b.get(s)
        if p is None or q is None or p == q:
            continue
        k = instance.owner(p)
        if instance.owner(q) != k:
            continue
        if instance.student_rank(s, p) >= instance.student_rank(s, q):
            continue
        set_m = _lect_set(instance, m, k)
        set_alt = _lect_set(instance, m_alt, k)
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
    for k in instance.lecturers():
        set_m = _lect_set(instance, m, k)
        set_alt = _lect_set(instance, m_alt, k)
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
    for s in instance.students():
        pm, pj = a.get(s), b.get(s)
        if pm is None or pj is None or pm == pj:
            continue
        if instance.student_rank(s, pm) >= instance.student_rank(s, pj):
            continue
        k = instance.owner(pj)
        rank_s = instance.lecturer_rank(k, s)
        proj_m = _proj_set(m, pj)
        proj_alt = _proj_set(m_alt, pj)
        for t in proj_m - proj_alt:
            if instance.lecturer_rank(k, t) < rank_s:
                failures.append(
                    f"{student_name(t)} in the project set difference of "
                    f"{project_name(pj)} outranks {student_name(s)}"
                )
        if len(proj_m) < instance.project_capacity[pj - 1]:
            set_m = _lect_set(instance, m, k)
            set_alt = _lect_set(instance, m_alt, k)
            for t in set_m - set_alt:
                if instance.lecturer_rank(k, t) < rank_s:
                    failures.append(
                        f"{student_name(t)} in the lecturer set difference of "
                        f"{lecturer_name(k)} outranks {student_name(s)}"
                    )
    return _report("rank-boundaries", failures)


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

