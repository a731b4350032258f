"""Executable checks of the structural facts about stable sets.

Every check re-derives its claim from the instance's rank tables and set
algebra over the raw pair sets, on purpose never calling the lattice
module, so a green check is independent evidence rather than an echo of
the code it guards.  The one definition the two share, a lecturer's
preference between two assignee sets, is ``model._lecturer_prefers``,
which the lattice module reads too.  Checks do not re-verify stability
of their inputs; the caller owns that precondition, which also makes the
failure paths testable with crafted unstable matchings.

Each member is validated once, unless it is certified stable for the
instance (``Instance._certify``, as every member ``enumerate_all``
returns is): stable implies valid.  A member that is not a valid
matching of the instance raises ``ValueError`` before any check runs, so
the checks then read the rank tables without bounds checks.  Over a set
of members, the checks read each member only to find its restrictions
(below), and read each distinct restriction once, into a view: its
assignments and the assignee sets of its component's projects and
lecturers.  The public pairwise checks build views of their own
arguments.  Each pairwise lemma quantifies over the students assigned in
both matchings who are strictly better off in the first.  A student
assigned on both sides to different projects is strictly better off on
exactly one side, so ``_pair_failures`` decides all four lemmas on both
orders of an unordered pair in one walk over the first member's
assignments, each such student once, for the side they are better off
on.  ``run_all_checks`` calls it for both orders, and each public
pairwise check for its own order only, keeping its own lemma's failures.

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
unordered pair of distinct restrictions of each component and fills the
cells of both orders, and each pair of members merges its components'
failures by student (by lecturer for preference-reversal).  Components
own disjoint students and lecturers, so the merge gives the order of one
walk over the whole pair.  This holds for any set of members, not only
for products of their restrictions.

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
vectors.  The meet, join and same-students cells are symmetric, so each
unordered pair of restrictions decides them once for both orders, as one
comparison per lecturer decides lecturer dominance both ways; student
dominance is read per ordered pair.  A student outside every component
is unassigned in every member, so the whole meet (join) of two members
is a member exactly when, in each component, the min (max) of their
restrictions is a restriction and the tuple of those restrictions is
some member's.  Two members assign the same students, are ordered for
the students, or are ordered (reversed) for the lecturers exactly when
that holds in every component.

Each report is sized from these tables, not from the member pairs.  A
lemma's count is the sum, over the components and their ordered pairs
(c, d) of distinct restrictions, of the failures of (c, d) times the
number of members whose restriction is c times the number whose
restriction is d; that is exact for any set of members.  When the set is
the product of its restrictions (distinct members, as many as the
product of the restriction counts), each lattice-axiom count is a sum of
products of counts over the components' tables; any other set walks its
member pairs once to count them.  The failure text is formatted only as
it is read: iterating, indexing or slicing a report's ``failures`` walks
the member pairs in report order, skips members whose restrictions are
all clean, and stops where the read stops.  So a product set costs time
linear in its size times the number of components, plus the tables,
which grow with the square of each component's restriction count.  On
five side-by-side copies of ``instance_a`` (1024 members and 1,310,720
preference-reversal failures) ``spas verify --force`` runs in 0.2 s end
to end, within 5% of the peak RSS of ``spas enumerate --force``; on six
copies (4096 members) in 0.5 s (2-core x86-64, CPython 3.11.7).

A failure of an ordered pair of members starts with ``(Mi, Mj)``, the
members counted from 1 in the order given, as ``spas enumerate``,
``spas lattice`` and the DOT file number them (``_members``).  So do the
four lemmas' failures, the lattice-axiom failures (``(M4, M3) dominance
reversal fails``) and the unpopular-projects failures that name students
unassigned in one member but not in the first (``(M1, M6) unassigned
students differ: s3 s5``).

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

from collections import Counter, namedtuple
from functools import partial
from itertools import (
    chain, combinations, combinations_with_replacement, islice, starmap, zip_longest)
from math import prod
from operator import eq, getitem, index, itemgetter, le, mul

from .model import (
    Instance,
    Matching,
    _Frozen,
    _lecturer_prefers,
    lecturer_name,
    project_name,
    require_valid_matching,
    student_name,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable, Iterable, Iterator, Sequence


class PropertyReport(_Frozen):
    """Outcome of one property check; failures carry the offending agents.

    ``run_all_checks`` and ``check_lattice_axioms`` give a lazy sequence as
    ``failures``: its length is known up front, its text is formatted only
    as it is read, and it equals, hashes and prints as the tuple of that
    text."""

    __match_args__ = ("name", "passed", "failures")

    def __init__(self, name: str, passed: bool, failures: Sequence[str] = ()) -> None:
        self.__dict__.update(name=name, passed=passed, failures=failures)


def _report(name: str, failures: list[str]) -> PropertyReport:
    return PropertyReport(name, not failures, tuple(failures))


class _Failures:
    """A report's failures read on demand: ``len`` is ``count``, and
    iterating, indexing or slicing runs ``entries()`` afresh, which yields
    the text in report order and formats only what is read."""

    __slots__ = ("_count", "_entries")

    def __init__(self, count: int, entries: Callable[[], Iterator[str]]) -> None:
        self._count, self._entries = count, entries

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[str]:
        return self._entries() if self._count else iter(())

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self._count)
            return (tuple(islice(self, start, stop, step)) if step > 0
                    else tuple(self)[key])
        i = index(key)  # what is not an integer raises TypeError, as in a tuple
        if not -self._count <= i < self._count:
            raise IndexError("failure index out of range")
        return next(islice(self, i % self._count, None))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (tuple, _Failures)):
            return NotImplemented
        # zip_longest pads a short walk with None, which equals no text
        return len(self) == len(other) and all(starmap(eq, zip_longest(self, other)))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self) -> tuple:
        # copies and pickles hold the text, not the tables it is read from
        return tuple, (tuple(self),)


def _members(i: int, j: int) -> str:
    """The prefix of a failure of the ordered pair of members at indices i
    and j, which names them counted from 1, as ``spas enumerate`` does."""
    return f"(M{i + 1}, M{j + 1}) "


# An assignment as the checks read it: ``assigned`` maps each assigned
# student to their project, and ``proj`` and ``lect`` map projects and
# lecturers, at least every one that ``assigned`` uses, to their assignees.
_View = namedtuple("_View", "assigned proj lect")


def _validated(instance: Instance, m: Matching) -> tuple[tuple[int, int], ...]:
    """``m``'s pairs, after validating ``m`` unless it is certified stable
    for the instance."""
    if not instance._certifies(m):
        require_valid_matching(instance, m)
    return m.pairs


def _view(
    instance: Instance, assigned: dict[int, int],
    projects: Iterable[int], lecturers: Iterable[int],
) -> _View:
    """The view of ``assigned`` over ``projects`` and ``lecturers``."""
    owner = instance.project_owner
    view = _View(assigned, {p: set() for p in projects},
                 {k: set() for k in lecturers})
    for s, p in assigned.items():
        view.proj[p].add(s)
        view.lect[owner[p - 1]].add(s)
    return view


# One component of a set of members: its students in ascending order, and
# by restriction id, ``ids`` maps each restriction (the tuple of the
# students' projects, None where unassigned) to its id and ``views`` holds
# its view, over the projects and lecturers of the component.
_Component = namedtuple("_Component", "students ids views")


def _components(
    instance: Instance, stable: Iterable[Matching]
) -> tuple[list[tuple[int, ...]], list[_Component]]:
    """Each member's restriction id in every component, and the components.

    Two lecturers share a component when some student holds a project of
    each across the members; a component's students are those it assigns,
    and its projects are those its lecturers offer.  Every assignee of the
    component's projects and lecturers is one of its students, so their
    assignee sets are the same in every member with the restriction.  The
    members are read twice, so a one-shot iterator is read into a tuple
    first."""
    stable = tuple(stable)
    owner = instance.project_owner
    root = list(range(instance.num_lecturers + 1))

    def find(k: int) -> int:
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    pairs: set[tuple[int, int]] = set()
    for m in stable:
        pairs.update(_validated(instance, m))
    held: dict[int, int] = {}  # a lecturer each student holds somewhere
    for s, p in pairs:
        k = owner[p - 1]
        if held.setdefault(s, k) != k:
            root[find(k)] = find(held[s])
    students: dict[int, list[int]] = {}
    for s in sorted(held):
        students.setdefault(find(held[s]), []).append(s)
    lecturers: dict[int, list[int]] = {}
    for k in instance.lecturers():
        lecturers.setdefault(find(k), []).append(k)

    comps, scopes = [], []
    for r, comp in students.items():
        comps.append(_Component(comp, {}, []))
        scopes.append((
            [p for k in lecturers[r] for p in instance.lecturer_projects[k - 1]],
            lecturers[r]))
    keys = []
    for m in stable:
        assigned = m.as_dict()
        key = []
        for part, scope in zip(comps, scopes):
            restriction = tuple(map(assigned.get, part.students))
            if restriction not in part.ids:
                part.ids[restriction] = len(part.views)
                part.views.append(_view(instance, {
                    s: p for s, p in zip(part.students, restriction)
                    if p is not None}, *scope))
            key.append(part.ids[restriction])
        keys.append(tuple(key))
    return keys, comps


def _unpopular_projects(
    instance: Instance, keys: list[tuple[int, ...]], comps: list[_Component]
) -> list[str]:
    failures: list[str] = []
    if not keys:
        return failures

    # a member's assignee counts of a component's lecturers and projects are
    # those of its restriction, and every restriction is some member's; the
    # lecturers outside every component, and their projects, assign no one
    # anywhere, so they cannot fail
    loads: dict[int, set[int]] = {}
    sizes: dict[int, set[int]] = {}
    for comp in comps:
        for v in comp.views:
            for k, assignees in v.lect.items():
                loads.setdefault(k, set()).add(len(assignees))
            for p, assignees in v.proj.items():
                sizes.setdefault(p, set()).add(len(assignees))
    for k, load in sorted(loads.items()):
        if len(load) > 1:
            failures.append(
                f"{lecturer_name(k)}: assigned counts differ across the "
                f"stable set: {sorted(load)}"
            )

    # every assignee is a student of the instance, so the unassigned sets
    # differ exactly where the assigned sets do
    first = keys[0]
    for idx, key in enumerate(keys[1:], start=1):
        moved: set[int] = set()
        for comp, c, c0 in zip(comps, key, first):
            if c != c0:
                moved |= comp.views[c].assigned.keys() ^ comp.views[c0].assigned.keys()
        if moved:
            names = " ".join(student_name(s) for s in sorted(moved))
            failures.append(
                f"{_members(0, idx)}unassigned students differ: {names}")

    for k, load in sorted(loads.items()):
        if min(load) >= instance.lecturer_capacity[k - 1]:
            continue
        for p in instance.lecturer_projects[k - 1]:
            size = sizes[p]
            if len(size) > 1:
                failures.append(
                    f"{project_name(p)} of undersubscribed {lecturer_name(k)}: "
                    f"assigned counts differ: {sorted(size)}"
                )
    return failures


def check_unpopular_projects(
    instance: Instance, stable: Iterable[Matching]
) -> PropertyReport:
    """Count and membership invariants shared by every stable matching.

    (i) each lecturer gets the same number of students everywhere,
    (ii) exactly the same students are unassigned everywhere, and
    (iii) each project of an undersubscribed lecturer gets the same number
    of students everywhere.  By (i) undersubscription is membership
    independent, so one member decides which lecturers part (iii) covers.
    """
    return _report("unpopular-projects",
                   _unpopular_projects(instance, *_components(instance, stable)))


# report order of the pairwise lemmas
_PAIR_NAMES = (
    "full-project", "same-lecturer", "preference-reversal", "rank-boundaries")


def _pair_failures(
    instance: Instance, a: _View, b: _View, reverse: bool = True
) -> tuple[tuple[list[tuple[int, str]], ...], ...]:
    """The four pairwise lemmas' failures on (a, b) and on (b, a), each in
    report order; those on (b, a) stay empty unless ``reverse``.

    Every lemma quantifies over the students assigned in both matchings
    who strictly prefer the first.  A student assigned on both sides to
    different projects strictly prefers exactly one side, and a student on
    one project in both prefers neither, so one walk over a's assignments,
    in ascending student order, visits each of them once, for the side
    they prefer.  Full-project, same-lecturer and rank-boundaries are
    decided per student; preference-reversal afterwards, per side, over
    the lecturers that side's students leave, ascending.  Each failure
    comes keyed by its student, or its lecturer for preference-reversal,
    so keys ascend in each list."""
    owner, cap = instance.project_owner, instance.project_capacity
    srank, lrank = instance.srank, instance.lrank
    # per side: the matching preferred, the other, the four lemmas'
    # failures, the students who prefer it and the lecturers they leave
    sides = [(a, b, ([], [], [], []), set(), set()),
             (b, a, ([], [], [], []), set(), set())]
    for s, p in a.assigned.items():
        q = b.assigned.get(s)
        if q is None or q == p:
            continue
        flip = srank[s - 1][p] > srank[s - 1][q]
        if flip and not reverse:
            continue
        x, y, (full, same, _, bounds), movers, losing = sides[flip]
        if flip:
            p, q = q, p
        movers.add(s)
        k, kq = owner[p - 1], owner[q - 1]
        rank = lrank[k - 1]
        rank_s = rank[s]
        held, alt = x.lect[k], y.lect[k]
        if len(y.proj[p]) != cap[p - 1] and (
            s in alt or any(rank_s < rank[t] for t in alt)
        ):
            full.append((s,
                f"{student_name(s)} holds {project_name(p)} and prefers it, "
                f"yet {project_name(p)} is not full in the other matching"
            ))
        if kq != k:
            # s leaves exactly the lecturer they hold on their side
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
        for t in x.proj[q] - y.proj[q]:
            if rank[t] < rank_s:
                bounds.append((s,
                    f"{student_name(t)} in the project set difference of "
                    f"{project_name(q)} outranks {student_name(s)}"
                ))
        if len(x.proj[q]) < cap[q - 1]:
            for t in x.lect[kq] - y.lect[kq]:
                if rank[t] < rank_s:
                    bounds.append((s,
                        f"{student_name(t)} in the lecturer set difference of "
                        f"{lecturer_name(kq)} outranks {student_name(s)}"
                    ))
    for x, y, failures, movers, losing in sides:
        for k in sorted(losing):
            set_m, set_alt = x.lect[k], y.lect[k]
            mover = next(s for s in set_m - set_alt if s in movers)
            if not _lecturer_prefers(lrank[k - 1], set_alt, set_m)[0]:
                failures[2].append((k,
                    f"{student_name(mover)} left {lecturer_name(k)} while "
                    f"preferring this side, but {lecturer_name(k)} does not "
                    f"prefer the other matching"
                ))
    return sides[0][2], sides[1][2]


def _pair_tables(instance: Instance, views: list[_View]) -> list[list[list]]:
    """For each lemma, the failures of each ordered pair of restrictions of
    one component, empty on the diagonal.  One walk decides both orders of
    each unordered pair of distinct restrictions, and every such pair is
    the restriction of some pair of members, so none is decided in vain."""
    table = [[((),) * 4] * len(views) for _ in views]
    for i, j in combinations(range(len(views)), 2):
        table[i][j], table[j][i] = _pair_failures(instance, views[i], views[j])
    return [[[found[lemma] for found in row] for row in table]
            for lemma in range(len(_PAIR_NAMES))]


def _check_pair(
    lemma: int, instance: Instance, m: Matching, m_alt: Matching
) -> PropertyReport:
    """One lemma's report on (m, m_alt), from the walk over the pair with
    the (m_alt, m) side left undecided."""
    a, b = (_view(instance, dict(_validated(instance, x)), instance.projects(),
                  instance.lecturers()) for x in (m, m_alt))
    found = _pair_failures(instance, a, b, reverse=False)[0][lemma]
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
    assignee set to x's, which is y below x for the lecturers.  The meet,
    join and same-students cells are symmetric, so each is decided once
    per unordered pair and fills both orders."""
    srank, top, views = instance.srank, instance.num_projects, comp.views
    vecs = [tuple(srank[s - 1][p] if p is not None else top
                  for s, p in zip(comp.students, projects))
            for projects in comp.ids]
    ids = {vec: c for c, vec in enumerate(vecs)}
    keys = [v.assigned.keys() for v in views]
    meet, join, same = ([[None] * len(vecs) for _ in vecs] for _ in range(3))
    for i, j in combinations_with_replacement(range(len(vecs)), 2):
        x, y = vecs[i], vecs[j]
        meet[i][j] = meet[j][i] = ids.get(tuple(map(min, x, y)))
        join[i][j] = join[j][i] = ids.get(tuple(map(max, x, y)))
        same[i][j] = same[j][i] = keys[i] == keys[j]
    student_dom = [[eq and all(map(le, x, y)) for eq, y in zip(row, vecs)]
                   for row, x in zip(same, vecs)]
    lrank = instance.lrank
    # one comparison per lecturer and unordered pair decides both orders
    lecturer_dom = [[True] * len(views) for _ in views]
    for i, j in combinations(range(len(views)), 2):
        x, y = views[i], views[j]
        for k in x.lect:
            if x.lect[k] != y.lect[k]:
                to_x, to_y = _lecturer_prefers(lrank[k - 1], x.lect[k], y.lect[k])
                lecturer_dom[i][j] &= to_y
                lecturer_dom[j][i] &= to_x
                if not (lecturer_dom[i][j] or lecturer_dom[j][i]):
                    break
    return meet, join, same, student_dom, lecturer_dom


# the lattice-axiom failures of an ordered pair of members, by kind
_AXIOM_TEXT = (
    "meet left the stable set",
    "join left the stable set",
    "meet is not a lower bound",
    "join is not an upper bound",
    "dominance reversal fails",
)


def _axiom_walk(
    keys: list[tuple[int, ...]], tables: list[tuple[list, ...]]
) -> Iterator[tuple[int, int, int]]:
    """Each lattice-axiom failure as (kind, i, j), i and j the members'
    indices, in report order: a meet that leaves the set, else a join that
    does, else both bounds where the two assign different students, and
    then dominance reversal."""
    present = set(keys)
    for i, x in enumerate(keys):
        meet, join, same, student_dom, lecturer_dom = (
            [t[field][c] for t, c in zip(tables, x)] for field in range(5))
        for j, y in enumerate(keys):
            if tuple(map(getitem, meet, y)) not in present:
                yield 0, i, j
                continue
            if tuple(map(getitem, join, y)) not in present:
                yield 1, i, j
                continue
            if not all(map(getitem, same, y)):
                yield 2, i, j
                yield 3, i, j
            if (all(map(getitem, student_dom, y))
                    != all(map(getitem, lecturer_dom, y))):
                yield 4, i, j


def _product_axiom_count(tables: list[tuple[list, ...]]) -> int:
    """The number of lattice-axiom failures of a set that is the product of
    its components' restrictions.  Each ordered pair of members is then a
    tuple of per-component pairs, and both its meet and join are members
    exactly when they are restrictions in every component, so each count
    below is a product over the components."""
    totals = [1] * 6
    for table in tables:
        cells = list(zip(*map(chain.from_iterable, table)))
        closed = [c for c in cells if c[0] is not None and c[1] is not None]
        counts = (len(cells), len(closed), sum(c[2] for c in closed),
                  sum(c[3] for c in closed), sum(c[4] for c in closed),
                  sum(c[3] and c[4] for c in closed))
        totals = list(map(mul, totals, counts))
    pairs, closed, same, student_dom, lecturer_dom, both = totals
    # one failure where the meet or the join leaves the set, two bound
    # failures where the students assigned differ, and one where exactly
    # one of the two dominances holds
    return (pairs - closed + 2 * (closed - same)
            + student_dom + lecturer_dom - 2 * both)


def _lattice_report(
    instance: Instance, keys: list[tuple[int, ...]], comps: list[_Component]
) -> PropertyReport:
    tables = [_restriction_tables(instance, comp) for comp in comps]
    if len(keys) == prod(len(comp.views) for comp in comps) == len(set(keys)):
        count = _product_axiom_count(tables)
    else:
        count = sum(1 for _ in _axiom_walk(keys, tables))

    def entries() -> Iterator[str]:
        for kind, i, j in _axiom_walk(keys, tables):
            yield _members(i, j) + _AXIOM_TEXT[kind]

    return PropertyReport("lattice-axioms", count == 0, _Failures(count, entries))


def check_lattice_axioms(
    instance: Instance, stable: Iterable[Matching]
) -> PropertyReport:
    """Closure, bounds and dominance reversal over every ordered pair.

    For every pair: the per-student better (worse) combination is a member
    and sits below (above) both arguments, and student dominance of (x, y)
    coincides with lecturer dominance of (y, x).  That every common lower
    (upper) bound sits below (above) the combination, and both
    distributive identities, hold for any rank vectors (see the module
    docstring), so they are not re-tested here.
    """
    return _lattice_report(instance, *_components(instance, stable))


def _pair_entries(
    keys: list[tuple[int, ...]], tables: list[list[list]]
) -> Iterator[str]:
    """The failures of one lemma over the ordered pairs of members, in
    report order; ``tables`` holds that lemma's table of each component.
    A member whose restrictions all pass against every other restriction
    is skipped whole.  Each pair's component failures merge by a stable
    sort on their keys: components own disjoint students and lecturers, so
    that restores the order of one walk over the whole pair."""
    for i, x in enumerate(keys):
        rows = [t[c] for t, c in zip(tables, x)]
        if not any(map(any, rows)):
            continue
        for j, y in enumerate(keys):
            runs = [found for found in map(getitem, rows, y) if found]
            if runs:
                prefix = _members(i, j)
                for _, text in sorted(chain.from_iterable(runs), key=itemgetter(0)):
                    yield prefix + text


def run_all_checks(
    instance: Instance, stable: Iterable[Matching], *, pairs_only: bool = False
) -> tuple[PropertyReport, ...]:
    """Run every check over a stable set, quantifying pairwise checks over
    all ordered pairs of distinct members (the statements are
    orientation-sensitive)."""
    keys, comps = _components(instance, stable)
    reports: list[PropertyReport] = []
    if not pairs_only:
        reports.append(_report(
            "unpopular-projects", _unpopular_projects(instance, keys, comps)))
    tables = [_pair_tables(instance, comp.views) for comp in comps]
    # the number of members with each restriction of each component
    weights = [Counter(column) for column in zip(*keys)]
    for lemma, name in enumerate(_PAIR_NAMES):
        # a failure of a pair of members is a failure of their restrictions
        # to one component where the two differ
        lemma_tables = [t[lemma] for t in tables]
        count = sum(
            len(found) * w[c] * w[d]
            for table, w in zip(lemma_tables, weights)
            for c, row in enumerate(table)
            for d, found in enumerate(row) if found)
        reports.append(PropertyReport(name, count == 0, _Failures(
            count, partial(_pair_entries, keys, lemma_tables))))
    if not pairs_only:
        reports.append(_lattice_report(instance, keys, comps))
    return tuple(reports)
