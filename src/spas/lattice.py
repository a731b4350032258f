"""Dominance relations, meet/join, and the Hasse diagram of stable matchings.

One stable matching dominates another (student side) when every student is
indifferent or strictly better off.  Per-student better/worse selection
between two stable matchings yields the meet and join; folded over the
whole stable set they give the student-optimal and lecturer-optimal
extremes.

Every operation takes stable matchings of the instance only: the
constructions are lattice operations on those and nothing else.  Any
other argument raises ``ValueError`` naming a blocking pair, or the
``invalid matching`` error when it is not a matching of the instance.
The precondition is also what makes one pass enough.  Every stable
matching of an instance assigns the same students (Abraham, Irving &
Manlove, 2007), so the canonical pair lists of two members name the same
students in the same order; the student side reads them in step, and
looks a rank up only where two members give a student different
projects, both on the student's list.  Each lecturer, too, holds the
same number of students in every stable matching, so the lecturer side
pairs off the students two members do not share, best with best.  That
comparison is ``model._lecturer_prefers``, the same definition that the
``verification`` module uses.

Only matchings proved stable are certified, through
``Instance._certify``: those that pass the stability check here and every
member :func:`~spas.enumeration.enumerate_all` returns, whose search
proves each leaf stable.  The certificate sits on the matching object and
names its instance, so the gate recognises it with one dict read.  So a
matching object is checked at most once while it serves one instance,
however many operations take it, and an enumerated one never.  It carries
one certificate at a time: an equal matching that is a distinct object is
checked once itself, and a matching last certified for another instance
is checked again.  An unstable argument is checked, and rejected, on
every call.  Meets and joins are not certified on the strength of the
lattice theorem: the gate checks them like any other argument.

Dominance of x over y is: each student's rank in x is at most their rank
in y (the argument is in the ``verification`` module's docstring).
``build_hasse`` decides it for all pairs at once with bitsets, one column
of ranks per student.
"""

from __future__ import annotations

from enum import Enum

from .model import Instance, Matching, _Frozen, _lecturer_prefers, lecturer_name
from .stability import find_blocking_pairs

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator, Sequence


class LecturerComparison(Enum):
    PREFERS_FIRST = "prefers-first"
    PREFERS_SECOND = "prefers-second"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


def _require_stable(instance: Instance, *matchings: Matching) -> None:
    for m in matchings:
        if instance._certifies(m):
            continue
        blocking = find_blocking_pairs(instance, m)
        if blocking:
            bp = blocking[0]
            raise ValueError(
                "matching is not stable, e.g. blocking pair "
                f"(s{bp.student}, p{bp.project})"
            )
        instance._certify(m)


def student_dominates(instance: Instance, first: Matching, second: Matching) -> bool:
    """True iff every student weakly prefers ``first`` to ``second``."""
    _require_stable(instance, first, second)
    srank = instance.srank
    for (s, p), (_, q) in zip(first.pairs, second.pairs, strict=True):
        if p != q and srank[s - 1][p] > srank[s - 1][q]:
            return False
    return True


def _students_by_lecturer(instance: Instance, matching: Matching) -> list[set[int]]:
    """The students each lecturer holds, index k - 1, in one pass."""
    owner = instance.project_owner
    held: list[set[int]] = [set() for _ in instance.lecturer_capacity]
    for s, p in matching.pairs:
        held[owner[p - 1] - 1].add(s)
    return held


def lecturer_compare(
    instance: Instance, k: int, first: Matching, second: Matching
) -> LecturerComparison:
    """How lecturer ``k`` ranks two stable matchings.

    The symmetric differences are listed in the lecturer's preference order
    and compared position by position (``model._lecturer_prefers``); a
    mixed outcome is surfaced as ``INCOMPARABLE`` rather than collapsed.  A
    ``k`` that is not a plain ``int`` (a ``bool`` or a float is not) is an
    unknown lecturer.
    """
    if type(k) is not int or not 1 <= k <= instance.num_lecturers:
        raise ValueError(f"unknown lecturer {lecturer_name(k)}")
    _require_stable(instance, first, second)
    a, b = (_students_by_lecturer(instance, m)[k - 1] for m in (first, second))
    to_a, to_b = _lecturer_prefers(instance.lrank[k - 1], a, b)
    if to_a:
        return LecturerComparison.PREFERS_FIRST
    if to_b:
        return LecturerComparison.PREFERS_SECOND
    if a == b:
        return LecturerComparison.INDIFFERENT
    return LecturerComparison.INCOMPARABLE


def lecturer_dominates(instance: Instance, first: Matching, second: Matching) -> bool:
    """True iff every lecturer prefers ``first`` or is indifferent."""
    _require_stable(instance, first, second)
    return all(
        a == b or _lecturer_prefers(rank, a, b)[0]
        for rank, a, b in zip(instance.lrank,
                              _students_by_lecturer(instance, first),
                              _students_by_lecturer(instance, second))
    )


def _combine(
    instance: Instance, first: Matching, second: Matching, better: bool
) -> Matching:
    srank = instance.srank
    pairs = []
    for a, b in zip(first.pairs, second.pairs, strict=True):
        if a != b:
            rank = srank[a[0] - 1]
            if (rank[a[1]] < rank[b[1]]) != better:
                a = b
        pairs.append(a)
    return Matching._canonical(tuple(pairs))


def meet(instance: Instance, first: Matching, second: Matching) -> Matching:
    """Per-student better choice between two stable matchings; stable itself."""
    _require_stable(instance, first, second)
    return _combine(instance, first, second, better=True)


def join(instance: Instance, first: Matching, second: Matching) -> Matching:
    """Per-student worse choice between two stable matchings; stable itself."""
    _require_stable(instance, first, second)
    return _combine(instance, first, second, better=False)


def _fold(
    instance: Instance, matchings: Iterable[Matching], *, better: bool, name: str
) -> Matching:
    ms = list(matchings)
    if not ms:
        raise ValueError(f"{name} needs at least one matching")
    _require_stable(instance, *ms)
    out = ms[0]
    for m in ms[1:]:
        out = _combine(instance, out, m, better=better)
    return out


def meet_all(instance: Instance, matchings: Iterable[Matching]) -> Matching:
    """Fold of :func:`meet`: per-student best over the whole collection."""
    return _fold(instance, matchings, better=True, name="meet_all")


def join_all(instance: Instance, matchings: Iterable[Matching]) -> Matching:
    """Fold of :func:`join`: per-student worst over the whole collection."""
    return _fold(instance, matchings, better=False, name="join_all")


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
    ranked no better than i's.  So per student, i keeps the nodes whose
    rank there is at least its own.  The nodes' pair lists are read in
    step, one student at a time; students on whom every node agrees are
    skipped.
    """
    everyone = (1 << len(nodes)) - 1
    dom = [everyone ^ (1 << i) for i in range(len(nodes))]
    srank = instance.srank
    for column in zip(*(m.pairs for m in nodes), strict=True):
        if len(set(column)) < 2:
            continue
        rank = srank[column[0][0] - 1]
        ranks = [rank[p] for _, p in column]
        exactly: dict[int, int] = {}
        for i, r in enumerate(ranks):
            exactly[r] = exactly.get(r, 0) | (1 << i)
        keep = {}
        at_least = 0
        for r in sorted(exactly, reverse=True):
            at_least |= exactly[r]
            keep[r] = at_least
        for i, r in enumerate(ranks):
            dom[i] &= keep[r]
    return dom


def build_hasse(instance: Instance, stable: Sequence[Matching]) -> HasseDiagram:
    """Cover edges of the dominance order over an enumerated stable set.

    The members must be distinct: two equal nodes would dominate each
    other, and the diagram would hold a cycle, so a repeated member raises
    ``ValueError`` naming both (``M8 repeats M1``).  A bitset transitive
    reduction: the covers of node i are the nodes it dominates, less every
    node dominated by one of those.  Dominance takes O(n·|S|) operations on
    |S|-bit integers, n the number of students, and the reduction one per
    dominating pair.
    """
    nodes = tuple(stable)
    first: dict[tuple[tuple[int, int], ...], int] = {}
    for i, m in enumerate(nodes):
        if (j := first.setdefault(m.pairs, i)) != i:
            raise ValueError(f"M{i + 1} repeats M{j + 1}")
    _require_stable(instance, *nodes)
    dom = _dominated(instance, nodes)
    edges = []
    for i, below in enumerate(dom):
        covered = below
        for x in _bits(below):
            covered &= ~dom[x]
        edges.extend((i, j) for j in _bits(covered))
    return HasseDiagram(nodes=nodes, edges=tuple(edges))
