"""Student-optimal and lecturer-optimal stable matchings by deferred acceptance.

Both solvers follow Abraham, Irving & Manlove, "Two algorithms for the
Student-Project Allocation problem", J. Discrete Algorithms 5(1), 2007.
SPA-student gives every student their best stable project (the bottom of
the lattice of stable matchings); SPA-lecturer gives every student their
worst one (the top).  Both matchings are unique, so the order in which
free students or lecturers are served never changes the output.

Write λ for the total length of the students' preference lists.  Both
solvers walk the projected lists L_k^p (lecturer k's list restricted to the
students who rank p), which come built with the instance, with pointers
that never move back.

Both are flat loops over plain lists: each step of the algorithm is
written inline, so a proposal or an offer makes no Python function call,
which in CPython costs more than the step itself.  Each list's end is read
once before it is scanned, and the result is read off the assignment
array with ``filter`` in C.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter

from .model import Instance, Matching


def solve_student_optimal(instance: Instance) -> Matching:
    """The stable matching giving every student their best stable project.

    SPA-student: free students propose down their lists.  An
    over-subscribed project rejects its worst assignee, or else an
    over-subscribed lecturer rejects theirs.  A full project p, or a full
    lecturer k, deletes every pair it could never keep: the students that k
    ranks below the worst assignee of p (resp. of k).  Deletions are kept
    as rank thresholds, one per project and one per lecturer, which only
    ever decrease; (s, p) is deleted exactly when k ranks s beyond either.

    A worst assignee is found by a pointer that moves backwards over L_k^p
    (for a project) or L_k (for a lecturer): every later assignee lies
    within the threshold, so nothing behind the pointer comes back.  Each
    student's head pointer, and each of these, crosses its list once, so
    the run is O(λ).

    One proposal of s to p (lecturer k) is a single pass: the loads of p
    and k are held in locals, at most one student is rejected (by k if p
    is not over-subscribed, else by p), then p's threshold and k's are
    lowered if full.  A lecturer's rejection may take p's own load down
    when the rejected student holds p.  The project's reject-then-lower
    steps share one pointer walk.
    """
    owner = instance.project_owner
    cap = instance.project_capacity
    dcap = instance.lecturer_capacity
    prefs = instance.student_prefs
    lprefs = instance.lecturer_prefs
    lrank = instance.lrank
    projected = instance.projected

    n1, n2, n3 = instance.num_students, instance.num_projects, instance.num_lecturers
    assigned = [0] * (n1 + 1)  # project of s, or 0
    lect = [0] * (n1 + 1)  # lecturer of that project, or 0
    head = [0] * (n1 + 1)
    pload = [0] * (n2 + 1)
    lload = [0] * (n3 + 1)
    pthr = [n1] * (n2 + 1)  # (s, p) deleted when k ranks s beyond this
    lthr = [n1] * (n3 + 1)
    pworst = [0] + [len(ranked) - 1 for ranked in projected]
    lworst = [0] + [len(ranked) - 1 for ranked in lprefs]

    free = list(range(n1, 0, -1))
    while free:
        s = free.pop()
        mine, i = prefs[s - 1], head[s]
        end = len(mine)
        while i < end:
            p = mine[i]
            k = owner[p - 1]
            rank_k = lrank[k - 1]
            r = rank_k[s]
            if r <= pthr[p] and r <= lthr[k]:
                break
            i += 1
        head[s] = i
        if i == end:
            continue  # list exhausted: s stays unassigned

        assigned[s], lect[s] = p, k
        lp, lk = pload[p] + 1, lload[k] + 1  # the loads of p and k
        c, d = cap[p - 1], dcap[k - 1]
        # a worst assignee: the pointer of p over L_k^p (of k over L_k)
        # moves back past every student p (k) does not hold.  k rejects
        # its worst unless p is over-subscribed
        if lk > d and lp <= c:
            ranked, j = lprefs[k - 1], lworst[k]
            while lect[ranked[j]] != k:
                j -= 1
            lworst[k] = j
            w = ranked[j]
            q = assigned[w]
            if q == p:  # p's load is the local one
                lp -= 1
            else:
                pload[q] -= 1
            lk -= 1
            assigned[w] = lect[w] = 0
            free.append(w)
        if lp >= c:  # p rejects its worst if over, then lowers pthr[p]
            ranked, j = projected[p - 1], pworst[p]
            while True:
                while assigned[ranked[j]] != p:
                    j -= 1
                if lp == c:
                    break
                w = ranked[j]
                lp -= 1
                lk -= 1
                assigned[w] = lect[w] = 0
                free.append(w)
            pworst[p] = j
            pthr[p] = rank_k[ranked[j]]
        pload[p], lload[k] = lp, lk
        if lk == d:  # last, as p's rejection changes k's assignees too
            ranked, j = lprefs[k - 1], lworst[k]
            while lect[ranked[j]] != k:
                j -= 1
            lworst[k] = j
            lthr[k] = rank_k[ranked[j]]

    return Matching._canonical(tuple(filter(itemgetter(1), enumerate(assigned))))


def solve_lecturer_optimal(instance: Instance) -> Matching:
    """The stable matching giving every student their worst stable project.

    SPA-lecturer: under-subscribed lecturers offer projects to students.
    Such a lecturer k offers to the first student on L_k who ranks an
    under-subscribed project of k above their current project; the student
    takes the best such project on their own list, leaving their old one.
    Students only ever trade up, so each keeps a cutoff, the rank of their
    current project, and a project's pointer over L_k^p skips for good
    every student holding p or something better.  A work queue holds the
    lecturers that may have an offer to make; a lecturer re-enters it when
    a student leaves them for another lecturer.

    Pointer moves total O(λ).  Each offer also scans the offering
    lecturer's projects and the student's list, and there are at most λ
    offers, since each one improves a student; so the run is O(λ) when
    lecturers offer, and students rank, a bounded number of projects.
    Each pointer step reads its student once, and the project a student
    takes is found by a plain scan of their list.
    """
    owner = instance.project_owner
    cap = instance.project_capacity
    dcap = instance.lecturer_capacity
    offered = instance.lecturer_projects
    srank = instance.srank
    lrank = instance.lrank
    prefs = instance.student_prefs
    projected = instance.projected

    n1, n2, n3 = instance.num_students, instance.num_projects, instance.num_lecturers
    assigned = [0] * (n1 + 1)
    cutoff = [0] + [len(mine) for mine in prefs]
    head = [0] * (n2 + 1)
    pload = [0] * (n2 + 1)
    lload = [0] * (n3 + 1)
    queued = [True] * (n3 + 1)
    queue = deque(instance.lecturers())

    while queue:
        k = queue.popleft()
        queued[k] = False
        rank_k, mine, d = lrank[k - 1], offered[k - 1], dcap[k - 1]
        while lload[k] < d:
            s, best = 0, n1
            for p in mine:
                if pload[p] == cap[p - 1]:
                    continue
                ranked, i = projected[p - 1], head[p]
                end = len(ranked)
                while i < end:
                    t = ranked[i]
                    if srank[t - 1][p] < cutoff[t]:
                        if rank_k[t] < best:
                            s, best = t, rank_k[t]
                        break
                    i += 1
                head[p] = i
            if not s:
                break
            # the first open project of k on the list of s ranks above the
            # cutoff, because the one that made s eligible does
            for p in prefs[s - 1]:
                if owner[p - 1] == k and pload[p] < cap[p - 1]:
                    break
            old = assigned[s]
            if old:
                pload[old] -= 1
                j = owner[old - 1]
                lload[j] -= 1
                if j != k and not queued[j]:
                    queued[j] = True
                    queue.append(j)
            assigned[s], cutoff[s] = p, srank[s - 1][p]
            pload[p] += 1
            lload[k] += 1

    return Matching._canonical(tuple(filter(itemgetter(1), enumerate(assigned))))
