"""Exhaustive enumeration of all stable matchings at desk scale.

The stable matchings form a distributive lattice whose bottom is the
student-optimal matching M_s and whose top is the lecturer-optimal
matching M_l, both found in linear time by deferred acceptance.  Every
stable matching M therefore gives each student s a project no better than
M_s(s) and no worse than M_l(s) (the sandwich).  Every stable matching
also assigns the same students, gives each lecturer the same number of
students, and gives each project of an undersubscribed lecturer the same
number of students (Abraham, Irving & Manlove, 2007;
``verification.check_unpopular_projects`` checks all three on a stable
set).  So the search starts from the two DAs: if M_s equals M_l it is the
only stable matching.  Otherwise a student unassigned in M_s stays
unassigned, every other student branches only over the positions of their
list from M_s(s) down to M_l(s), and the loads of M_s bound the search:
lecturer k takes at most |M_s(k)| students, a project p of a lecturer
with |M_s(k)| < d_k at most |M_s(p)|, and every other project at most its
capacity c_p.

Depth-first search assigns students in index order.  Each student's level
is a generator: it applies one choice, yields the level below it, and
undoes the choice in the lines after the ``yield``.  The open levels sit on
an explicit stack of generators, so the depth is not bounded by the
interpreter's recursion limit.  A branch dies as soon as a blocking pair
is already decided by the frozen prefix:

* once a project is at its bound its assignee set can no longer change,
  so a skipped project at its bound whose lecturer prefers the skipping
  student blocks every completion (P4);
* once a lecturer is at their bound, their student set and all their
  project loads are final, which settles the two conditions that pair an
  undersubscribed project with a full lecturer (P2, P3).

A student skips every project above their choice, not only those from
M_s(s) on: the sandwich bounds what a student may hold, not what they may
envy, so a pair above M_s(s) still feeds the cuts.  The search finds
every stable matching, and every leaf it reaches is stable:

* Every stable matching meets the bounds, so the search prunes none of
  them.  A cut that fires at a bound below the capacity is still sound:
  its pair is P1 in every completion.
* A leaf M assigns exactly M_s's students (the spans), so it meets every
  bound with equality, and a lecturer or project is full at M exactly
  when its bound is its capacity.  The cuts saw each skipped pair once
  its project or lecturer had reached that bound, so they have decided
  P2, P3 and P4 at M.
* Suppose (s, p) were a P1 pair at M, and k owns p.  Then k is
  undersubscribed, so |M_l(k)| = |M_s(k)| < d_k and
  |M_l(p)| = |M_s(p)| = |M(p)| < c_p.  s prefers p to M(s), and M(s)
  weakly to M_l(s), or s is unassigned in both.  So (s, p) blocks M_l by
  P1, but M_l is stable.

So every member returned is certified stable for the instance
(``Instance._certify``), and the lattice layer never re-checks it.
Equality with a brute-force oracle and with the unseeded search is pinned
in the test suite.  The worst case stays exponential.
"""

from __future__ import annotations

from .model import Instance, Matching
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


def enumerate_all(instance: Instance, *, force: bool = False) -> tuple[Matching, ...]:
    """Exactly the stable matchings of the instance, without duplicates and
    ordered lexicographically on their canonical pair lists, so repeated
    runs and golden files agree byte for byte.

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
        instance._certify(best)
        return (best,)

    prefs = instance.student_prefs
    owner = (0,) + instance.project_owner
    lrank = instance.lrank
    srank = instance.srank

    # the bounds: M_s's load on each lecturer, and on each project of a
    # lecturer M_s leaves undersubscribed; other projects keep c_p
    pmax = [0] * len(owner)
    lmax = [0] * (instance.num_lecturers + 1)
    for _, p in best.pairs:
        pmax[p] += 1
        lmax[owner[p]] += 1
    for p, c in enumerate(instance.project_capacity, start=1):
        if lmax[owner[p]] == instance.lecturer_capacity[owner[p] - 1]:
            pmax[p] = c

    # list positions each student branches over, position len(list) meaning
    # unassigned: from M_s(s) down to M_l(s), or unassigned if M_s leaves s so
    span = [range(0)] + [range(len(plist), len(plist) + 1) for plist in prefs]
    last = worst.as_dict()
    for s, p in best.pairs:
        span[s] = range(srank[s - 1][p], srank[s - 1][last[s]] + 1)

    assigned = [0] * (n1 + 1)
    pload = [0] * len(pmax)
    lload = [0] * len(lmax)
    pworst = [-1] * len(pmax)  # worst (largest) lecturer rank assigned to p
    lworst = [-1] * len(lmax)
    envy: list[list[tuple[int, int]]] = [[] for _ in range(len(lmax))]
    found: list[Matching] = []

    def blocked(s: int, p: int) -> bool:
        # (s, p) skipped earlier; decide P-conditions that are already final
        k = owner[p]
        if pload[p] == pmax[p]:
            return lrank[k - 1][s] < pworst[p]
        if lload[k] == lmax[k]:
            return owner[assigned[s]] == k or lrank[k - 1][s] < lworst[k]
        return False

    def level(i: int) -> Iterator[Iterator]:
        # student i's choices in list order: apply one, yield the level
        # below it unless a cut kills it, then undo it
        plist = prefs[i - 1]
        for idx in span[i]:
            choice = plist[idx] if idx < len(plist) else 0
            skipped = plist[:idx]
            if choice:
                k0 = owner[choice]
                if pload[choice] == pmax[choice] or lload[k0] == lmax[k0]:
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
                if pload[choice] == pmax[choice]:
                    dead = any(
                        p == choice and blocked(s, p) for s, p in envy[k0]
                    )
                if not dead and lload[k0] == lmax[k0]:
                    dead = any(blocked(s, p) for s, p in envy[k0])
            if not dead and i == n1:
                found.append(Matching._canonical(tuple(
                    (s, assigned[s]) for s in range(1, n1 + 1) if assigned[s])))
            elif not dead:
                for p in skipped:
                    envy[owner[p]].append((i, p))
                yield level(i + 1)
                for p in skipped:
                    envy[owner[p]].pop()

            if choice:
                assigned[i] = 0
                pload[choice] -= 1
                lload[k0] -= 1
                pworst[choice], lworst[k0] = old

    # the open levels from student 1 down, on an explicit stack
    stack = [level(1)]
    while stack:
        below = next(stack[-1], None)
        if below is None:
            stack.pop()
        else:
            stack.append(below)

    found.sort(key=lambda m: m.pairs)
    instance._certify(*found)
    return tuple(found)


def stable_pairs(
    instance: Instance, *, force: bool = False
) -> frozenset[tuple[int, int]]:
    """Pairs that belong to at least one stable matching."""
    stable = enumerate_all(instance, force=force)
    return frozenset(pair for m in stable for pair in m.pairs)
