"""Exhaustive enumeration of all stable matchings at desk scale.

The stable matchings form a distributive lattice whose bottom is the
student-optimal matching M_s and whose top is the lecturer-optimal
matching M_l, both found in linear time by deferred acceptance.  Every
stable matching M therefore gives each student s a project no better than
M_s(s) and no worse than M_l(s) (the sandwich), and the same students are
assigned in every stable matching (Abraham, Irving & Manlove, 2007).  So
the search starts from the two DAs: if M_s equals M_l it is the only
stable matching; otherwise a student unassigned in M_s stays unassigned,
and every other student branches only over the positions of their list
from M_s(s) down to M_l(s).

Depth-first search assigns students in index order, on an explicit stack
so that the depth is not bounded by the interpreter's recursion limit.  A
branch dies as soon as a blocking pair is already decided by the frozen
prefix:

* once a project is full its assignee set can no longer change, so a
  skipped project that is full and whose lecturer prefers the skipping
  student blocks every completion (P4);
* once a lecturer is full, their student set and all their project loads
  are final, which settles the two conditions that pair an
  undersubscribed project with a full lecturer (P2, P3).

Only the both-undersubscribed condition (P1) stays open until the leaves,
where it is checked against the recorded skipped pairs.  A student skips
every project above their choice, not only those from M_s(s) on: the
sandwich bounds what a student may hold, not what they may envy, and a
pair above M_s(s) can still block a matching the narrowed search builds,
so it still feeds the cuts and the leaf check.  (In stable marriage some
pair inside the bands then blocks as well; that argument is not carried
over to SPA-S here.)  Cuts fire only on state that can no longer change,
so they are conservative; equality with a brute-force oracle and with the
unseeded search is pinned in the test suite.  The worst case stays
exponential.
"""

from __future__ import annotations

from .model import Instance, Matching, _Frozen
from .solvers import solve_lecturer_optimal, solve_student_optimal

TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Iterator

DEFAULT_SIZE_GUARD = 20


class SizeGuardError(RuntimeError):
    """Instance exceeds the enumeration size guard."""

    def __init__(self, students: int, guard: int) -> None:
        super().__init__(
            f"instance has {students} students, enumeration guard is {guard}; "
            "rerun with force to search anyway"
        )
        self.students = students
        self.guard = guard


class StableSet(_Frozen):
    """All stable matchings of one instance.

    Deduplicated and ordered lexicographically on the canonical pair lists,
    so repeated runs and golden files agree byte for byte.
    """

    __match_args__ = ("matchings",)

    def __init__(self, matchings: tuple[Matching, ...]) -> None:
        self.__dict__["matchings"] = matchings

    def __len__(self) -> int:
        return len(self.matchings)

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.matchings)

    def __getitem__(self, i: int) -> Matching:
        return self.matchings[i]

    def __contains__(self, m: object) -> bool:
        return m in self.matchings

    def index(self, m: Matching) -> int:
        return self.matchings.index(m)


def enumerate_all(instance: Instance, *, force: bool = False) -> StableSet:
    """Exactly the stable matchings of the instance.

    Raises :class:`SizeGuardError` beyond :data:`DEFAULT_SIZE_GUARD`
    students unless ``force`` is set; the search is exponential in the
    worst case.
    """
    n1 = instance.num_students
    if not force and n1 > DEFAULT_SIZE_GUARD:
        raise SizeGuardError(n1, DEFAULT_SIZE_GUARD)
    best = solve_student_optimal(instance)
    worst = solve_lecturer_optimal(instance)
    if best == worst:
        return StableSet((best,))

    prefs = instance.student_prefs
    cap = (0,) + instance.project_capacity
    dcap = (0,) + instance.lecturer_capacity
    owner = (0,) + instance.project_owner
    lrank = instance._lrank
    srank = instance._srank

    # list positions each student branches over, position len(list) meaning
    # unassigned: from M_s(s) down to M_l(s), or unassigned if M_s leaves s so
    span = [range(0)] + [range(len(plist), len(plist) + 1) for plist in prefs]
    last = worst.as_dict()
    for s, p in best.pairs:
        span[s] = range(srank[s - 1][p], srank[s - 1][last[s]] + 1)

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

    def retract(
        i: int, choice: int, old: tuple[int, int], skipped: tuple[int, ...]
    ) -> None:
        for p in reversed(skipped):
            envy[owner[p]].pop()
        if choice:
            k0 = owner[choice]
            pload[choice] -= 1
            lload[k0] -= 1
            pworst[choice], lworst[k0] = old
        assigned[i] = 0

    # the path from student 1 down, on explicit stacks: per student the
    # list positions still to try, and what undoes the one being explored
    todo = [iter(span[1])]
    undo: list[tuple[int, int, tuple[int, int], tuple[int, ...]]] = []
    while todo:
        i = len(todo)
        idx = next(todo[-1], None)
        if idx is None:
            todo.pop()
            if undo:
                retract(*undo.pop())
            continue
        plist = prefs[i - 1]
        choice = plist[idx] if idx < len(plist) else 0
        skipped = plist[:idx]
        old = (0, 0)
        if choice:
            k0 = owner[choice]
            if pload[choice] == cap[choice] or lload[k0] == dcap[k0]:
                continue
            assigned[i] = choice
            pload[choice] += 1
            lload[k0] += 1
            old = pworst[choice], lworst[k0]
            r = lrank[k0 - 1][i]
            if r > pworst[choice]:
                pworst[choice] = r
            if r > lworst[k0]:
                lworst[k0] = r

        dead = any(blocked(i, p) for p in skipped)
        if not dead and choice:
            if pload[choice] == cap[choice]:
                dead = any(
                    p == choice and blocked(s, p) for s, p in envy[k0]
                )
            if not dead and lload[k0] == dcap[k0]:
                dead = any(blocked(s, p) for s, p in envy[k0])
        if dead:
            retract(i, choice, old, ())
            continue

        for p in skipped:
            envy[owner[p]].append((i, p))
        if i < n1:
            undo.append((i, choice, old, skipped))
            todo.append(iter(span[i + 1]))
            continue
        for k in range(1, len(dcap)):
            if lload[k] < dcap[k] and any(pload[p] < cap[p] for _, p in envy[k]):
                break  # P1 blocks; everything else was settled
        else:
            found.append(Matching._canonical(
                tuple((s, assigned[s]) for s in range(1, n1 + 1) if assigned[s])
            ))
        retract(i, choice, old, skipped)

    found.sort(key=lambda m: m.pairs)
    return StableSet(tuple(found))


def stable_pairs(
    instance: Instance, *, force: bool = False
) -> frozenset[tuple[int, int]]:
    """Pairs that belong to at least one stable matching."""
    stable = enumerate_all(instance, force=force)
    return frozenset(pair for m in stable for pair in m.pairs)
