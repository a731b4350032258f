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

The P conditions depend on s only through the lecturer's rank of s and
whether s is already that lecturer's, so :func:`find_blocking_pairs`
decides once per project how it can block: every student (P1), or those
its lecturer ranks above a threshold (P3, P4), with a full lecturer's own
students labelled P2.  Each student's list is then read only down to
their own project.
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

    Raises ``ValueError`` if the matching is not a valid matching of the
    instance.  The walk that validates the matching also tallies it
    (``model._read_matching``); a student's own lecturer is read as the
    owner of their project, 0 when they are unassigned.  Then each project
    gets its rule:

    * project and lecturer undersubscribed: P1 for every student;
    * project full: P4 for a student its lecturer ranks above the
      project's worst assignee;
    * project undersubscribed, lecturer full: a student the lecturer ranks
      at or above their worst assignee, which every one of the lecturer's
      own students is, blocks; the lecturer's own students get P2 and the
      others P3.

    Each student's list is then scanned only down to (and excluding) their
    own project, found by its id: S2 needs strict preference, so nothing
    below it can block.  A list entry costs one read of its project's rule
    and, off P1, one rank read.  With the rank tables built with the
    instance, this is O(n1 + n2 + n3 + λ) with validation, λ the total
    length of the student lists, plus ordering the output.
    """
    assigned, pload, lload, pworst, lworst = require_valid_matching(
        instance, matching)
    owner = (0,) + instance.project_owner  # owner[0]: no lecturer
    lrank = instance.lrank

    # per project: None for P1, else (lecturer's ranks, rank bound, label,
    # lecturer whose own students are P2 or None); s blocks iff its rank
    # is below the bound
    rule: list[tuple | None] = [None] * (instance.num_projects + 1)
    dcap = instance.lecturer_capacity
    for p, (k, c) in enumerate(zip(owner[1:], instance.project_capacity), start=1):
        if pload[p] >= c:
            rule[p] = (lrank[k - 1], pworst[p], "P4", None)
        elif lload[k] >= dcap[k - 1]:
            rule[p] = (lrank[k - 1], lworst[k] + 1, "P3", k)

    found: list[BlockingPair] = []
    # what BlockingPair's generated __new__ does, without a Python call
    new = tuple.__new__
    for s, prefs in enumerate(instance.student_prefs, start=1):
        mine = assigned[s]
        own = owner[mine]
        s_cond = "S2" if mine else "S1"
        for p in prefs:
            if p == mine:
                break
            how = rule[p]
            if how is None:
                found.append(new(BlockingPair, (s, p, s_cond, "P1")))
                continue
            ranks, bound, p_cond, k = how
            if ranks[s] < bound:
                found.append(new(BlockingPair, (
                    s, p, s_cond, "P2" if k == own else p_cond)))
    found.sort()  # (student, project) is unique, so this orders by it
    return tuple(found)


def is_stable(instance: Instance, matching: Matching) -> bool:
    """True iff the matching admits no blocking pair."""
    return not find_blocking_pairs(instance, matching)
