"""Dominance relations, meet/join, and the Hasse diagram of stable matchings.

One stable matching dominates another (student side) when every student is
indifferent or strictly better off.  Per-student better/worse selection
between two stable matchings yields the meet and join; folded over the
whole stable set they give the student-optimal and lecturer-optimal
extremes.  The operations require stable inputs: the constructions are
only guaranteed on those, so unstable arguments are rejected unless the
caller opts out (``check=False``, meant for oracle-style tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .model import Instance, Matching
from .stability import find_blocking_pairs


class LecturerComparison(Enum):
    PREFERS_FIRST = "prefers-first"
    PREFERS_SECOND = "prefers-second"
    INDIFFERENT = "indifferent"
    INCOMPARABLE = "incomparable"


def _require_stable(instance: Instance, *matchings: Matching) -> None:
    for m in matchings:
        blocking = find_blocking_pairs(instance, m)
        if blocking:
            bp = blocking[0]
            raise ValueError(
                "matching is not stable, e.g. blocking pair "
                f"(s{bp.student}, p{bp.project})"
            )


def student_dominates(
    instance: Instance, first: Matching, second: Matching, *, check: bool = True
) -> bool:
    """True iff every student weakly prefers ``first`` to ``second``."""
    if check:
        _require_stable(instance, first, second)
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
    a, b = first.as_dict(), second.as_dict()
    pairs = []
    for s in instance.students():
        pa, pb = a.get(s), b.get(s)
        if pa is None and pb is None:
            continue
        if pa is None or pb is None:
            # never happens for stable inputs; assigned counts as better
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


@dataclass(frozen=True)
class HasseDiagram:
    """Transitive reduction of student-side dominance over a stable set.

    ``edges`` holds 0-based index pairs into ``nodes``; an edge (i, j)
    means node i dominates node j with nothing strictly between them.
    Rendered labels are ``M1``..``Mk`` in stable-set order.
    """

    nodes: tuple[Matching, ...]
    edges: tuple[tuple[int, int], ...]

    def label(self, i: int) -> str:
        return f"M{i + 1}"

    def source_indices(self) -> tuple[int, ...]:
        targets = {j for _, j in self.edges}
        return tuple(i for i in range(len(self.nodes)) if i not in targets)

    def sink_indices(self) -> tuple[int, ...]:
        origins = {i for i, _ in self.edges}
        return tuple(i for i in range(len(self.nodes)) if i not in origins)


def build_hasse(instance: Instance, stable: Sequence[Matching]) -> HasseDiagram:
    """Cover edges of the dominance order over an enumerated stable set.

    Pairwise dominance first; an edge survives when no third element sits
    strictly between its endpoints.  Quadratic-ish and fine at desk scale.
    """
    nodes = tuple(stable)
    n = len(nodes)
    dom = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                dom[i][j] = student_dominates(
                    instance, nodes[i], nodes[j], check=False
                )
    edges = []
    for i in range(n):
        for j in range(n):
            if not dom[i][j]:
                continue
            if any(dom[i][x] and dom[x][j] for x in range(n) if x != i and x != j):
                continue
            edges.append((i, j))
    return HasseDiagram(nodes=nodes, edges=tuple(sorted(edges)))
