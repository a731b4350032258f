"""Blocking-pair detection and stability of a matching.

An acceptable pair (s, p) outside the matching blocks it when the student
side holds (S1: s unassigned, or S2: s prefers p to their assignment) and
one project/lecturer condition holds:

P1  p undersubscribed and its lecturer undersubscribed
P2  p undersubscribed, lecturer full, s already assigned to that lecturer
P3  p undersubscribed, lecturer full, lecturer prefers s to their worst
    assigned student
P4  p full, lecturer prefers s to the worst student assigned to p

When several P conditions hold the lowest-numbered one is reported, so
output is deterministic.  S1 together with P2 cannot occur.
"""

from __future__ import annotations

from collections import namedtuple

from .model import Instance, Matching, require_valid_matching


class BlockingPair(namedtuple(
    "BlockingPair", "student project student_condition project_condition"
)):
    """Witness that a matching is unstable.

    A named tuple: immutable and hashable, and equal to the plain tuple
    ``(student, project, student_condition, project_condition)``.  Built
    with :func:`collections.namedtuple`, which every command has loaded
    already, and not ``typing.NamedTuple``, whose import would add several
    milliseconds to each start-up (README, "Start-up").
    """

    __slots__ = ()


def find_blocking_pairs(
    instance: Instance, matching: Matching
) -> tuple[BlockingPair, ...]:
    """All blocking pairs, ordered by (student index, project index).

    The matching is tallied once: each student's project, the load of each
    project and lecturer, and the lecturer rank of the worst student held
    on each project and by each lecturer.  The projected list keeps the
    lecturer's order, so ranks on the full list decide a project's worst
    too.  Each student's list is then scanned only down to (and excluding)
    their current assignment: S2 needs strict preference, so nothing below
    the assignment can block.  The rank tables come built with the
    instance, so after validation this is O(λ + |M|), λ the total length
    of the student lists, plus ordering the output.
    """
    require_valid_matching(instance, matching)
    owner = instance.project_owner
    cap = instance.project_capacity
    dcap = instance.lecturer_capacity
    srank = instance.srank
    lrank = instance.lrank

    assigned = [0] * (instance.num_students + 1)  # project of s, or 0
    lect = [0] * (instance.num_students + 1)  # lecturer of that project, or 0
    pload = [0] * (instance.num_projects + 1)
    lload = [0] * (instance.num_lecturers + 1)
    pworst = [-1] * (instance.num_projects + 1)  # rank of worst held, or -1
    lworst = [-1] * (instance.num_lecturers + 1)
    for s, p in matching.pairs:
        k = owner[p - 1]
        r = lrank[k - 1][s]
        assigned[s], lect[s] = p, k
        pload[p] += 1
        lload[k] += 1
        pworst[p] = max(pworst[p], r)
        lworst[k] = max(lworst[k], r)

    found: list[BlockingPair] = []
    # what BlockingPair's generated __new__ does, without a Python call
    new = tuple.__new__
    for s, prefs in enumerate(instance.student_prefs, start=1):
        mine = assigned[s]
        if mine:
            scan = prefs[: srank[s - 1][mine]]
            s_cond = "S2"
        else:
            scan = prefs
            s_cond = "S1"
        for p in scan:
            k = owner[p - 1]
            r = lrank[k - 1][s]
            if pload[p] >= cap[p - 1]:
                if r >= pworst[p]:
                    continue
                p_cond = "P4"
            elif lload[k] < dcap[k - 1]:
                p_cond = "P1"
            elif k == lect[s]:
                p_cond = "P2"
            elif r < lworst[k]:
                p_cond = "P3"
            else:
                continue
            found.append(new(BlockingPair, (s, p, s_cond, p_cond)))
    found.sort()  # (student, project) is unique, so this orders by it
    return tuple(found)


def is_stable(instance: Instance, matching: Matching) -> bool:
    """True iff the matching admits no blocking pair."""
    return not find_blocking_pairs(instance, matching)
