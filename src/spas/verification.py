"""Executable checks of the structural facts about stable sets.

Every check re-derives its claim from primitive rank queries and set
algebra over the raw pair sets, on purpose never calling the lattice
module, so a green check is independent evidence rather than an echo of
the code it guards.  Checks do not re-verify stability of their inputs;
the caller owns that precondition, which also makes the failure paths
testable with crafted unstable matchings.

Each member is validated and read once, into a view: its assignments
(``as_dict``) and the assignee sets of every project and every lecturer.
A member that is not a valid matching of the instance raises
``ValueError`` when its view is built, so the checks then read the rank
tables without bounds checks.  ``run_all_checks`` builds one view per
member and shares it across every check and every pair; the public
``check_*`` functions build views of their own arguments.  Each pairwise
lemma quantifies over the students assigned in both matchings who are
strictly better off in the first, so ``_pair_failures`` decides all four
on an ordered pair in one walk over the first member's assignments;
``run_all_checks`` and each public pairwise check call it, the latter
keeping only its own lemma's failures.

The lattice-axioms check reads each member as a rank vector: entry s - 1
is the position of s's project on their list, or the list's length when
s is unassigned.  That marker ranks below every real position, so the
per-student better choice of two matchings is the elementwise min and
the worse choice the elementwise max, with a student assigned on one
side only counting as better off there and unassigned in the worse one.
A matching is below another when each entry equals the other's or is
smaller than an entry other than the marker (``a == b or a < b < top``),
so a student assigned on exactly one side breaks dominance.  Equivalently,
it is entrywise at most the other and both assign the same students, and
that is how the check tests it.  The meet and join are entrywise at most
and at least both arguments and assign their union and intersection, so
they bound both exactly when the two assign the same students.  Lecturer
dominance is decided once per pair of distinct assignee sets of each
lecturer, not once per pair of members.

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

from collections import namedtuple
from operator import le, lt

from .model import (
    Instance,
    Matching,
    _Frozen,
    lecturer_name,
    project_name,
    require_valid_matching,
    student_name,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Sequence, Set as AbstractSet


class PropertyReport(_Frozen):
    """Outcome of one property check; failures carry the offending agents."""

    __match_args__ = ("name", "passed", "failures")

    def __init__(self, name: str, passed: bool, failures: tuple[str, ...] = ()) -> None:
        self.__dict__.update(name=name, passed=passed, failures=failures)


def _report(name: str, failures: list[str]) -> PropertyReport:
    return PropertyReport(name, not failures, tuple(failures))


# One member as the checks read it: ``assigned`` maps each assigned student
# to their project, and ``proj`` and ``lect`` hold the assignee set of each
# project and lecturer, indexed by id, slot 0 unused.
_View = namedtuple("_View", "assigned proj lect")


def _view(instance: Instance, m: Matching) -> _View:
    """Validate ``m`` and read it in one pass over the pairs in canonical
    order."""
    require_valid_matching(instance, m)
    proj: list[set[int]] = [set() for _ in range(instance.num_projects + 1)]
    lect: list[set[int]] = [set() for _ in range(instance.num_lecturers + 1)]
    owner = instance.project_owner
    for s, p in m.pairs:
        proj[p].add(s)
        lect[owner[p - 1]].add(s)
    return _View(m.as_dict(), proj, lect)


def _prefers_first_sets(
    rank: dict[int, int], first: AbstractSet[int], second: AbstractSet[int]
) -> bool:
    """Definitional lecturer comparison, ``rank`` the lecturer's rank
    table: strictly better position by position."""
    # the two differences have equal sizes exactly when the sets do
    if first == second or len(first) != len(second):
        return False
    only_f = sorted(map(rank.__getitem__, first - second))
    only_s = sorted(map(rank.__getitem__, second - first))
    return all(map(lt, only_f, only_s))


def _unpopular_projects(instance: Instance, views: list[_View]) -> list[str]:
    failures: list[str] = []
    if not views:
        return failures

    for k in instance.lecturers():
        counts = {len(v.lect[k]) for v in views}
        if len(counts) > 1:
            failures.append(
                f"{lecturer_name(k)}: assigned counts differ across the "
                f"stable set: {sorted(counts)}"
            )

    # every assignee is a student of the instance, so the unassigned sets
    # differ exactly where the assigned sets do
    first = views[0].assigned.keys()
    for idx, v in enumerate(views[1:], start=1):
        if v.assigned.keys() != first:
            names = " ".join(
                student_name(s) for s in sorted(v.assigned.keys() ^ first))
            failures.append(
                f"unassigned students differ between members 0 and {idx}: {names}"
            )

    under = {
        k for v in views for k in instance.lecturers()
        if len(v.lect[k]) < instance.lecturer_capacity[k - 1]
    }
    for k in sorted(under):
        for p in instance.lecturer_projects[k - 1]:
            counts = {len(v.proj[p]) for v in views}
            if len(counts) > 1:
                failures.append(
                    f"{project_name(p)} of undersubscribed {lecturer_name(k)}: "
                    f"assigned counts differ: {sorted(counts)}"
                )
    return failures


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
    views = [_view(instance, m) for m in stable]
    return _report("unpopular-projects", _unpopular_projects(instance, views))


# report order of the pairwise lemmas
_PAIR_NAMES = (
    "full-project", "same-lecturer", "preference-reversal", "rank-boundaries")


def _pair_failures(
    instance: Instance, a: _View, b: _View
) -> tuple[list[str], list[str], list[str], list[str]]:
    """The four pairwise lemmas' failures on (a, b), in report order.

    Every lemma quantifies over the students assigned in both matchings
    who strictly prefer a, so one walk over a's assignments, in ascending
    student order, visits each of them once.  Full-project, same-lecturer
    and rank-boundaries are decided per student; preference-reversal
    afterwards, over the lecturers those students leave, ascending."""
    owner, cap, srank, lrank = (
        instance.project_owner, instance.project_capacity, instance._srank,
        instance._lrank)
    full, same, reversal, bounds = failures = ([], [], [], [])
    movers: set[int] = set()
    losing: set[int] = set()
    for s, p in a.assigned.items():
        q = b.assigned.get(s)
        if q is None or srank[s - 1][p] >= srank[s - 1][q]:
            continue
        movers.add(s)
        k, kq = owner[p - 1], owner[q - 1]
        rank = lrank[k - 1]
        rank_s = rank[s]
        held, alt = a.lect[k], b.lect[k]
        if len(b.proj[p]) != cap[p - 1] and (
            s in alt or any(rank_s < rank[t] for t in alt)
        ):
            full.append(
                f"{student_name(s)} holds {project_name(p)} and prefers it, "
                f"yet {project_name(p)} is not full in the other matching"
            )
        if kq != k:
            # s leaves exactly the lecturer they hold in a
            losing.add(k)
        elif held == alt:
            same.append(
                f"{student_name(s)} moved within {lecturer_name(k)} but the "
                f"assigned sets are identical"
            )
        else:
            if not any(rank[t] < rank_s for t in alt - held):
                same.append(
                    f"no student above {student_name(s)} entered "
                    f"{lecturer_name(k)} in the other matching"
                )
            if not any(rank[t] > rank_s for t in held - alt):
                same.append(
                    f"no student below {student_name(s)} left "
                    f"{lecturer_name(k)} in the other matching"
                )
        rank = lrank[kq - 1]
        rank_s = rank[s]
        for t in a.proj[q] - b.proj[q]:
            if rank[t] < rank_s:
                bounds.append(
                    f"{student_name(t)} in the project set difference of "
                    f"{project_name(q)} outranks {student_name(s)}"
                )
        if len(a.proj[q]) < cap[q - 1]:
            for t in a.lect[kq] - b.lect[kq]:
                if rank[t] < rank_s:
                    bounds.append(
                        f"{student_name(t)} in the lecturer set difference of "
                        f"{lecturer_name(kq)} outranks {student_name(s)}"
                    )
    for k in sorted(losing):
        set_m, set_alt = a.lect[k], b.lect[k]
        mover = next(s for s in set_m - set_alt if s in movers)
        if not _prefers_first_sets(lrank[k - 1], set_alt, set_m):
            reversal.append(
                f"{student_name(mover)} left {lecturer_name(k)} while "
                f"preferring this side, but {lecturer_name(k)} does not "
                f"prefer the other matching"
            )
    return failures


def _check_pair(
    lemma: int, instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    a, b = _view(instance, m), _view(instance, m_alt)
    return _report(_PAIR_NAMES[lemma], _pair_failures(instance, a, b)[lemma])


def check_prop_full_project(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A project a strictly-better-off student holds must be full elsewhere.

    For each student with m(s) = p, owner k, who strictly prefers m and is
    either in m_alt(k) or ranked above someone in m_alt(k): p is full in
    m_alt.
    """
    return _check_pair(0, instance, m, m_alt)


def check_lemma_same_lecturer(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """Students moved between projects of one lecturer bound the diff sets.

    For s assigned in both matchings to different projects of the same
    lecturer k and preferring m: the sets differ, someone in
    m_alt(k) \\ m(k) outranks s, and someone in m(k) \\ m_alt(k) is
    outranked by s.
    """
    return _check_pair(1, instance, m, m_alt)


def check_lemma_pref_reversal(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A lecturer losing a strictly-better-off student prefers the other side.

    For each lecturer with different assigned sets: if some student in
    m(k) \\ m_alt(k) strictly prefers m, then k prefers m_alt to m.
    """
    return _check_pair(2, instance, m, m_alt)


def check_lemma_rank_boundaries(
    instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """A better-off student outranks whoever replaced them.

    For s assigned to different projects, preferring m, with p = m_alt(s)
    owned by k: (a) everyone in m(p) \\ m_alt(p) is ranked below s; (b) if
    p is undersubscribed in m, everyone in m(k) \\ m_alt(k) is ranked
    below s.
    """
    return _check_pair(3, instance, m, m_alt)


def _class_ids(
    sets: Sequence[Iterable[int]],
) -> tuple[list[int], list[frozenset[int]]]:
    """One id per distinct set, in order of first appearance, and the
    distinct sets by id."""
    ids: dict[frozenset[int], int] = {}
    return [ids.setdefault(frozenset(x), len(ids)) for x in sets], list(ids)


def _lattice_axioms(instance: Instance, views: list[_View]) -> list[str]:
    failures: list[str] = []
    srank = instance._srank
    top = tuple(len(prefs) for prefs in instance.student_prefs)
    vecs = [
        tuple(srank[s - 1][a[s]] if s in a else t
              for s, t in enumerate(top, start=1))
        for a in (v.assigned for v in views)
    ]
    present = set(vecs)
    assigned, _ = _class_ids([v.assigned.keys() for v in views])
    # per lecturer: each member's assignee set id, and whether the lecturer
    # weakly prefers one set to another
    weak = []
    for k in instance.lecturers():
        ids, sets = _class_ids([v.lect[k] for v in views])
        rank = instance._lrank[k - 1]
        weak.append((ids, [
            [c == d or _prefers_first_sets(rank, c, d) for d in sets]
            for c in sets
        ]))

    for i, x in enumerate(vecs):
        for j, y in enumerate(vecs):
            if tuple(map(min, x, y)) not in present:
                failures.append(f"meet of members {i} and {j} left the stable set")
                continue
            if tuple(map(max, x, y)) not in present:
                failures.append(f"join of members {i} and {j} left the stable set")
                continue
            same = assigned[i] == assigned[j]
            if not same:
                failures.append(f"meet of {i} and {j} is not a lower bound")
                failures.append(f"join of {i} and {j} is not an upper bound")
            student_dom = same and all(map(le, x, y))
            lect_dom = all(table[ids[j]][ids[i]] for ids, table in weak)
            if student_dom != lect_dom:
                failures.append(
                    f"dominance reversal fails between members {i} and {j}"
                )
    return failures


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
    views = [_view(instance, m) for m in stable]
    return _report("lattice-axioms", _lattice_axioms(instance, views))


def run_all_checks(
    instance: Instance, stable: Sequence[Matching], *, pairs_only: bool = False
) -> tuple[PropertyReport, ...]:
    """Run every check over a stable set, quantifying pairwise checks over
    all ordered pairs of distinct members (the statements are
    orientation-sensitive)."""
    views = [_view(instance, m) for m in stable]
    reports: list[PropertyReport] = []
    if not pairs_only:
        reports.append(
            _report("unpopular-projects", _unpopular_projects(instance, views)))
    pair_failures: list[list[str]] = [[] for _ in _PAIR_NAMES]
    for i, x in enumerate(views, start=1):
        for j, y in enumerate(views, start=1):
            if i == j:
                continue
            for failures, found in zip(
                    pair_failures, _pair_failures(instance, x, y)):
                failures.extend(f"(M{i}, M{j}) {f}" for f in found)
    reports += map(_report, _PAIR_NAMES, pair_failures)
    if not pairs_only:
        reports.append(
            _report("lattice-axioms", _lattice_axioms(instance, views)))
    return tuple(reports)
