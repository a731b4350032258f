"""Dominance relations, meet/join, and the Hasse diagram of stable matchings.

One stable matching dominates another (student side) when every student is
indifferent or strictly better off.  Per-student better/worse selection
between two stable matchings yields the meet and join; folded over the
whole stable set they give the student-optimal and lecturer-optimal
extremes.  The operations require stable inputs: the constructions are
only guaranteed on those, so unstable arguments are rejected unless the
caller opts out (``check=False``, meant for oracle-style tests).

Each instance keeps a weak memo of the matchings that passed the stability
check, and only passes are recorded: a member is checked once however many
operations take it, while an unstable argument is checked, and rejected,
on every call.  The memo lives on the instance (``_known_stable``, left
out of pickles) but belongs to this module: nothing else reads or fills
it.  The student-side comparisons read the instance's rank tables
directly: ``meet``, ``join``, ``student_dominates`` and ``build_hasse``
look a student's rank up only where two matchings give them different
projects.  A project missing from a student's list raises the error of
:meth:`Instance.student_rank`, and students outside the instance are
ignored.

Dominance of x over y is: both assign the same students, and each
student's rank in x is at most their rank in y (the argument is in the
``verification`` module's docstring).  ``build_hasse`` decides it for all
pairs at once with bitsets, one column of ranks per student.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Sequence

from .model import Instance, Matching, _Frozen
from .stability import find_blocking_pairs


class LecturerComparison(Enum):
    PREFERS_FIRST = "prefers-first"
    PREFERS_SECOND = "prefers-second"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


def _require_stable(instance: Instance, *matchings: Matching) -> None:
    known = instance._known_stable
    for m in matchings:
        if m in known:
            continue
        blocking = find_blocking_pairs(instance, m)
        if blocking:
            bp = blocking[0]
            raise ValueError(
                "matching is not stable, e.g. blocking pair "
                f"(s{bp.student}, p{bp.project})"
            )
        known.add(m)


def _pairs_in_range(
    instance: Instance, first: Matching, second: Matching
) -> Iterator[tuple[int, int | None, int | None]]:
    """(s, project in first, project in second) for every student of the
    instance assigned in either matching, ascending."""
    a, b = first.as_dict(), second.as_dict()
    n = instance.num_students
    for s in sorted(a.keys() | b.keys()):
        if s > n:
            return
        yield s, a.get(s), b.get(s)


def _prefers(instance: Instance, s: int, p: int, q: int) -> bool:
    rank = instance._srank[s - 1]
    try:
        return rank[p] < rank[q]
    except KeyError:
        return instance.student_prefers(s, p, q)  # raises the accessor's error


def student_dominates(
    instance: Instance, first: Matching, second: Matching, *, check: bool = True
) -> bool:
    """True iff every student weakly prefers ``first`` to ``second``."""
    if check:
        _require_stable(instance, first, second)
    for s, pa, pb in _pairs_in_range(instance, first, second):
        if pa == pb:
            continue
        if pa is None or pb is None or not _prefers(instance, s, pa, pb):
            return False
    return True


def _sets_by_lecturer(instance: Instance, matching: Matching, k: int) -> set[int]:
    return {s for s, p in matching.pairs if instance.owner(p) == k}


def lecturer_compare(
    instance: Instance, k: int, first: Matching, second: Matching
) -> LecturerComparison:
    """How lecturer ``k`` ranks two stable matchings.

    The symmetric differences are listed in the lecturer's preference order
    and compared position by position; a mixed outcome is surfaced as
    ``INCOMPARABLE`` rather than collapsed.
    """
    instance._check_lecturer(k)
    sa = _sets_by_lecturer(instance, first, k)
    sb = _sets_by_lecturer(instance, second, k)
    if sa == sb:
        return LecturerComparison.INDIFFERENT
    only_a = sorted(sa - sb, key=lambda s: instance.lecturer_rank(k, s))
    only_b = sorted(sb - sa, key=lambda s: instance.lecturer_rank(k, s))
    if len(only_a) != len(only_b):
        raise ValueError(
            f"lecturer l{k} is assigned {len(sa)} and {len(sb)} students; "
            "stable matchings always agree on this, so some input is unstable"
        )
    first_all = all(
        instance.lecturer_prefers(k, x, y) for x, y in zip(only_a, only_b)
    )
    if first_all:
        return LecturerComparison.PREFERS_FIRST
    second_all = all(
        instance.lecturer_prefers(k, y, x) for x, y in zip(only_a, only_b)
    )
    if second_all:
        return LecturerComparison.PREFERS_SECOND
    return LecturerComparison.INCOMPARABLE


def lecturer_dominates(
    instance: Instance, first: Matching, second: Matching, *, check: bool = True
) -> bool:
    """True iff every lecturer prefers ``first`` or is indifferent."""
    if check:
        _require_stable(instance, first, second)
    return all(
        lecturer_compare(instance, k, first, second)
        in (LecturerComparison.PREFERS_FIRST, LecturerComparison.INDIFFERENT)
        for k in instance.lecturers()
    )


def _combine(
    instance: Instance, first: Matching, second: Matching, better: bool
) -> Matching:
    pairs = []
    for s, pa, pb in _pairs_in_range(instance, first, second):
        if pa is None or pb is None:
            # never happens for stable inputs; assigned counts as better
            chosen = (pa or pb) if better else None
        elif pa == pb:
            chosen = pa
        else:
            chosen = pa if _prefers(instance, s, pa, pb) == better else pb
        if chosen is not None:
            pairs.append((s, chosen))
    return Matching._canonical(tuple(pairs))


def meet(
    instance: Instance, first: Matching, second: Matching, *, check: bool = True
) -> Matching:
    """Per-student better choice between two stable matchings; stable itself."""
    if check:
        _require_stable(instance, first, second)
    return _combine(instance, first, second, better=True)


def join(
    instance: Instance, first: Matching, second: Matching, *, check: bool = True
) -> Matching:
    """Per-student worse choice between two stable matchings; stable itself."""
    if check:
        _require_stable(instance, first, second)
    return _combine(instance, first, second, better=False)


def _fold(
    instance: Instance, matchings: Iterable[Matching], *, check: bool,
    better: bool, name: str,
) -> Matching:
    ms = list(matchings)
    if not ms:
        raise ValueError(f"{name} needs at least one matching")
    if check:
        _require_stable(instance, *ms)
    out = ms[0]
    for m in ms[1:]:
        out = _combine(instance, out, m, better=better)
    return out


def meet_all(
    instance: Instance, matchings: Iterable[Matching], *, check: bool = True
) -> Matching:
    """Fold of :func:`meet`: per-student best over the whole collection."""
    return _fold(instance, matchings, check=check, better=True, name="meet_all")


def join_all(
    instance: Instance, matchings: Iterable[Matching], *, check: bool = True
) -> Matching:
    """Fold of :func:`join`: per-student worst over the whole collection."""
    return _fold(instance, matchings, check=check, better=False, name="join_all")


class HasseDiagram(_Frozen):
    """Transitive reduction of student-side dominance over a stable set.

    ``edges`` holds 0-based index pairs into ``nodes``; an edge (i, j)
    means node i dominates node j with nothing strictly between them.
    Rendered labels are ``M1``..``Mk`` in stable-set order.
    """

    __match_args__ = ("nodes", "edges")

    def __init__(
        self, nodes: tuple[Matching, ...], edges: tuple[tuple[int, int], ...]
    ) -> None:
        self.__dict__.update(nodes=nodes, edges=edges)

    def label(self, i: int) -> str:
        return f"M{i + 1}"

    def source_indices(self) -> tuple[int, ...]:
        targets = {j for _, j in self.edges}
        return tuple(i for i in range(len(self.nodes)) if i not in targets)

    def sink_indices(self) -> tuple[int, ...]:
        origins = {i for i, _ in self.edges}
        return tuple(i for i in range(len(self.nodes)) if i not in origins)


def _bits(x: int) -> Iterator[int]:
    """Indices of the set bits of ``x``, ascending."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _dominated(instance: Instance, nodes: Sequence[Matching]) -> list[int]:
    """Bitset per node of the other nodes it dominates.

    Node i dominates j when, for every student, j gives them a project
    ranked no better than i's, or both leave them unassigned.  So per
    student, i keeps the nodes whose rank there is at least its own (with
    unassigned, rank -1, keeping only the unassigned).  Students on whom
    every node agrees are skipped, and ranks are read only where two nodes
    give a student different projects: a project missing from the
    student's list raises :meth:`Instance.student_rank`'s error there, as
    a pairwise comparison would, and nowhere else.
    """
    everyone = (1 << len(nodes)) - 1
    dom = [everyone ^ (1 << i) for i in range(len(nodes))]
    reads = [m.as_dict() for m in nodes]
    for s, rank in enumerate(instance._srank, start=1):
        projects = [a.get(s) for a in reads]
        held = set(projects)
        if len(held) < 2:
            continue
        held.discard(None)
        if len(held) > 1 and not held <= rank.keys():
            instance.student_rank(s, min(held - rank.keys()))  # raises
        value = {p: rank.get(p, 0) for p in held}
        value[None] = -1
        column = [value[p] for p in projects]
        exactly: dict[int, int] = {}
        for i, r in enumerate(column):
            exactly[r] = exactly.get(r, 0) | (1 << i)
        keep = {-1: exactly.pop(-1, 0)}
        at_least = 0
        for r in sorted(exactly, reverse=True):
            at_least |= exactly[r]
            keep[r] = at_least
        for i, r in enumerate(column):
            dom[i] &= keep[r]
    return dom


def build_hasse(instance: Instance, stable: Sequence[Matching]) -> HasseDiagram:
    """Cover edges of the dominance order over an enumerated stable set.

    A bitset transitive reduction: the covers of node i are the nodes it
    dominates, less every node dominated by one of those.  Dominance takes
    O(n·|S|) operations on |S|-bit integers, n the number of students, and
    the reduction one per dominating pair.
    """
    nodes = tuple(stable)
    dom = _dominated(instance, nodes)
    edges = []
    for i, below in enumerate(dom):
        covered = below
        for x in _bits(below):
            covered &= ~dom[x]
        edges.extend((i, j) for j in _bits(covered))
    return HasseDiagram(nodes=nodes, edges=tuple(edges))
