"""Executable checks of the structural facts about stable sets.

Every check re-derives its claim from the instance's rank tables and set
algebra over the raw pair sets, on purpose never calling the lattice
module, so a green check is independent evidence rather than an echo of
the code it guards.  Checks do not re-verify stability of their inputs;
the caller owns that precondition, which also makes the failure paths
testable with crafted unstable matchings.

Each member is validated and read once, into a view: its assignments
(``as_dict``) and the assignee sets of every project and every lecturer.
A member that is not a valid matching of the instance raises
``ValueError`` when its view is built, so the checks then read the rank
tables without bounds checks.  A member certified stable for the
instance (``Instance._certify``, as every member ``enumerate_all``
returns is) is not validated again: stable implies valid.
``run_all_checks`` builds one view per member and shares it across every
check and every pair; the public ``check_*`` functions build views of
their own arguments.  Each pairwise lemma quantifies over the students
assigned in both matchings who are strictly better off in the first, so
``_pair_failures`` decides all four on an ordered pair in one walk over
the first member's assignments; ``run_all_checks`` and each public
pairwise check call it, the latter keeping only its own lemma's
failures.

Both the pairwise lemmas and the lattice check run per component.  Two
lecturers share a component when some student holds a project of each
across the members, and a component's students are those it assigns, so
every assignee of its projects and lecturers is one of its students.  A
member's restriction to a component is what it assigns those students.
Every pairwise failure names a student who is better off, or a lecturer
such a student leaves, and reads only the assignee sets of that
student's component; so the failures of a pair of members are the union,
over the components where their restrictions differ, of the failures of
those two restrictions.  ``_pair_failures`` therefore runs once per
ordered pair of distinct restrictions of each component, and each pair
of members merges its components' failures by student (by lecturer for
preference-reversal).  Components own disjoint students and lecturers,
so the merge gives the order of one walk over the whole pair.  This
holds for any set of members, not only for products of their
restrictions.

The lattice-axioms check reads each member as a rank vector: entry s - 1
is the position of s's project on their list, or the number of projects
when s is unassigned.  That marker ranks below every real position, so
the per-student better choice of two matchings is the elementwise min
and the worse choice the elementwise max, with a student assigned on one
side only counting as better off there and unassigned in the worse one.
A matching is below another when each entry equals the other's or is
smaller than an entry other than the marker (``a == b or a < b < top``),
so a student assigned on exactly one side breaks dominance.  Equivalently,
it is entrywise at most the other and both assign the same students, and
that is how the check tests it.  The meet and join are entrywise at most
and at least both arguments and assign their union and intersection, so
they bound both exactly when the two assign the same students.

Every one of these is decided per component, on the restrictions' rank
vectors, once per pair of distinct restrictions.  A student outside every
component is unassigned in every member, so the whole meet (join) of two
members is a member exactly when, in each component, the min (max) of
their restrictions is a restriction and the tuple of those restrictions
is some member's.  Two members assign the same students, are ordered for
the students, or are ordered (reversed) for the lecturers exactly when
that holds in every component.  Only the lookups run once per pair of
members.

The check tests only what can fail on rank vectors: closure, the meet
and join bounding their arguments, and dominance reversal.  The paper's
other lattice clauses hold for any rank vectors, so they are not
re-tested.  Per entry, min and max over integers distribute over each
other, so both distributive laws hold.  A vector z below x and y has, at
each entry, z = x or z < x < top, and likewise against y; then z equals
min(x, y) there, or z < min(x, y) < top, so z is below the meet.
Dually, anything above x and y is above the join.
``tests/oracles.py::naive_lattice_axioms`` still evaluates every clause
on ``Matching`` objects, and the test suite requires its report to equal
this one on 1000 sets.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations
from operator import getitem, itemgetter, le, lt

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
    from collections.abc import Sequence, Set as AbstractSet


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
    """Validate ``m``, unless it is certified stable for the instance, and
    read it in one pass over the pairs in canonical order."""
    if not instance._certifies(m):
        require_valid_matching(instance, m)
    proj: list[set[int]] = [set() for _ in range(instance.num_projects + 1)]
    lect: list[set[int]] = [set() for _ in range(instance.num_lecturers + 1)]
    owner = instance.project_owner
    for s, p in m.pairs:
        proj[p].add(s)
        lect[owner[p - 1]].add(s)
    return _View(m.as_dict(), proj, lect)


# One component of a set of members: its students in ascending order, and
# by restriction id, ``ids`` maps each restriction (the tuple of the
# students' projects, None where unassigned) to its id and ``views`` holds
# its view, whose ``assigned`` has only those students.
_Component = namedtuple("_Component", "students ids views")


def _components(
    instance: Instance, views: list[_View]
) -> tuple[list[tuple[int, ...]], list[_Component]]:
    """Each member's restriction id in every component, and the components.

    Two lecturers share a component when some student holds a project of
    each across the members; a component's students are those it assigns.
    A restricted view shares ``proj`` and ``lect`` with the first member
    that has the restriction: every assignee of the component's projects
    and lecturers is a student of the component, so those sets are the
    same in every member with the restriction."""
    owner = instance.project_owner
    root = list(range(instance.num_lecturers + 1))

    def find(k: int) -> int:
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    held: dict[int, int] = {}  # a lecturer each student holds somewhere
    for v in views:
        for s, p in v.assigned.items():
            k = owner[p - 1]
            if held.setdefault(s, k) != k:
                root[find(k)] = find(held[s])
    students: dict[int, list[int]] = {}
    for s in sorted(held):
        students.setdefault(find(held[s]), []).append(s)

    keys: list[list[int]] = [[] for _ in views]
    comps = []
    for comp in students.values():
        part = _Component(comp, {}, [])
        for key, v in zip(keys, views):
            projects = tuple(map(v.assigned.get, comp))
            if projects not in part.ids:
                part.ids[projects] = len(part.views)
                part.views.append(_View(
                    {s: p for s, p in zip(comp, projects) if p is not None},
                    v.proj, v.lect))
            key.append(part.ids[projects])
        comps.append(part)
    return list(map(tuple, keys)), comps


def _lecturer_prefers(
    rank: dict[int, int], first: AbstractSet[int], second: AbstractSet[int]
) -> tuple[bool, bool]:
    """Definitional lecturer comparison both ways, ``rank`` the lecturer's
    rank table: whether the lecturer prefers ``first``, and whether
    ``second``, each strictly better position by position.  Both read the
    same two sorted differences."""
    # the two differences have equal sizes exactly when the sets do
    if first == second or len(first) != len(second):
        return False, False
    only_f = sorted(map(rank.__getitem__, first - second))
    only_s = sorted(map(rank.__getitem__, second - first))
    return all(map(lt, only_f, only_s)), all(map(lt, only_s, only_f))


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
) -> tuple[list[tuple[int, str]], ...]:
    """The four pairwise lemmas' failures on (a, b), in report order.

    Every lemma quantifies over the students assigned in both matchings
    who strictly prefer a, so one walk over a's assignments, in ascending
    student order, visits each of them once.  Full-project, same-lecturer
    and rank-boundaries are decided per student; preference-reversal
    afterwards, over the lecturers those students leave, ascending.  Each
    failure comes keyed by its student, or its lecturer for
    preference-reversal, so keys ascend in each list."""
    owner, cap = instance.project_owner, instance.project_capacity
    srank, lrank = instance.srank, instance.lrank
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
            full.append((s,
                f"{student_name(s)} holds {project_name(p)} and prefers it, "
                f"yet {project_name(p)} is not full in the other matching"
            ))
        if kq != k:
            # s leaves exactly the lecturer they hold in a
            losing.add(k)
        elif held == alt:
            same.append((s,
                f"{student_name(s)} moved within {lecturer_name(k)} but the "
                f"assigned sets are identical"
            ))
        else:
            if not any(rank[t] < rank_s for t in alt - held):
                same.append((s,
                    f"no student above {student_name(s)} entered "
                    f"{lecturer_name(k)} in the other matching"
                ))
            if not any(rank[t] > rank_s for t in held - alt):
                same.append((s,
                    f"no student below {student_name(s)} left "
                    f"{lecturer_name(k)} in the other matching"
                ))
        rank = lrank[kq - 1]
        rank_s = rank[s]
        for t in a.proj[q] - b.proj[q]:
            if rank[t] < rank_s:
                bounds.append((s,
                    f"{student_name(t)} in the project set difference of "
                    f"{project_name(q)} outranks {student_name(s)}"
                ))
        if len(a.proj[q]) < cap[q - 1]:
            for t in a.lect[kq] - b.lect[kq]:
                if rank[t] < rank_s:
                    bounds.append((s,
                        f"{student_name(t)} in the lecturer set difference of "
                        f"{lecturer_name(kq)} outranks {student_name(s)}"
                    ))
    for k in sorted(losing):
        set_m, set_alt = a.lect[k], b.lect[k]
        mover = next(s for s in set_m - set_alt if s in movers)
        if not _lecturer_prefers(lrank[k - 1], set_alt, set_m)[0]:
            reversal.append((k,
                f"{student_name(mover)} left {lecturer_name(k)} while "
                f"preferring this side, but {lecturer_name(k)} does not "
                f"prefer the other matching"
            ))
    return failures


def _pair_table(instance: Instance, views: list[_View]) -> list[list]:
    """The failures of each ordered pair of distinct restrictions of one
    component, None where there are none.  Every such pair is the
    restriction of some ordered pair of members, so none is decided in
    vain."""
    table = [[_pair_failures(instance, a, b) if a is not b else ()
              for b in views] for a in views]
    return [[found if any(found) else None for found in row] for row in table]


def _check_pair(
    lemma: int, instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    a, b = _view(instance, m), _view(instance, m_alt)
    found = _pair_failures(instance, a, b)[lemma]
    return _report(_PAIR_NAMES[lemma], [text for _, text in found])


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


def _restriction_tables(instance: Instance, comp: _Component) -> tuple[list, ...]:
    """Over each ordered pair (x, y) of the component's restrictions: the
    ids of their meet and join, None when no restriction is one, whether
    they assign the same students, whether x is below y for the students,
    and whether each of the component's lecturers weakly prefers y's
    assignee set to x's, which is y below x for the lecturers."""
    srank, top, views = instance.srank, instance.num_projects, comp.views
    vecs = [tuple(srank[s - 1][p] if p is not None else top
                  for s, p in zip(comp.students, projects))
            for projects in comp.ids]
    ids = {vec: c for c, vec in enumerate(vecs)}
    meet = [[ids.get(tuple(map(min, x, y))) for y in vecs] for x in vecs]
    join = [[ids.get(tuple(map(max, x, y))) for y in vecs] for x in vecs]
    keys = [v.assigned.keys() for v in views]
    same = [[x == y for y in keys] for x in keys]
    student_dom = [[eq and all(map(le, x, y)) for eq, y in zip(row, vecs)]
                   for row, x in zip(same, vecs)]
    owner, lrank = instance.project_owner, instance.lrank
    lecturers = {owner[p - 1] for v in views for p in v.assigned.values()}
    # one comparison per lecturer and unordered pair decides both orders
    lecturer_dom = [[True] * len(views) for _ in views]
    for i, j in combinations(range(len(views)), 2):
        x, y = views[i], views[j]
        for k in lecturers:
            if x.lect[k] != y.lect[k]:
                to_x, to_y = _lecturer_prefers(lrank[k - 1], x.lect[k], y.lect[k])
                lecturer_dom[i][j] &= to_y
                lecturer_dom[j][i] &= to_x
                if not (lecturer_dom[i][j] or lecturer_dom[j][i]):
                    break
    return meet, join, same, student_dom, lecturer_dom


def _lattice_axioms(
    instance: Instance, keys: list[tuple[int, ...]], comps: list[_Component]
) -> list[str]:
    failures: list[str] = []
    present = set(keys)
    tables = [_restriction_tables(instance, comp) for comp in comps]
    for i, x in enumerate(keys):
        meet, join, same, student_dom, lecturer_dom = (
            [t[field][c] for t, c in zip(tables, x)] for field in range(5))
        for j, y in enumerate(keys):
            if tuple(map(getitem, meet, y)) not in present:
                failures.append(f"meet of members {i} and {j} left the stable set")
                continue
            if tuple(map(getitem, join, y)) not in present:
                failures.append(f"join of members {i} and {j} left the stable set")
                continue
            if not all(map(getitem, same, y)):
                failures.append(f"meet of {i} and {j} is not a lower bound")
                failures.append(f"join of {i} and {j} is not an upper bound")
            if (all(map(getitem, student_dom, y))
                    != all(map(getitem, lecturer_dom, y))):
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
    return _report(
        "lattice-axioms", _lattice_axioms(instance, *_components(instance, views)))


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
    keys, comps = _components(instance, views)
    tables = [_pair_table(instance, comp.views) for comp in comps]
    pair_failures: list[list[str]] = [[] for _ in _PAIR_NAMES]
    for i, x in enumerate(keys, start=1):
        rows = [t[c] for t, c in zip(tables, x)]
        for j, y in enumerate(keys, start=1):
            parts = [p for p in map(getitem, rows, y) if p]
            if not parts:
                continue
            prefix = f"(M{i}, M{j}) "
            for lemma, failures in enumerate(pair_failures):
                # components own disjoint students and lecturers, so a
                # stable sort by key restores the order of one walk over the
                # whole pair
                runs = [p[lemma] for p in parts]
                found = runs[0] if len(runs) == 1 else sorted(
                    [f for run in runs for f in run], key=itemgetter(0))
                failures.extend(prefix + text for _, text in found)
    reports += map(_report, _PAIR_NAMES, pair_failures)
    if not pairs_only:
        reports.append(
            _report("lattice-axioms", _lattice_axioms(instance, keys, comps)))
    return tuple(reports)
