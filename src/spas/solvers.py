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
that never move back.  SPA-student also keeps one pointer per lecturer on
its whole list L_k, which is also that lecturer's deletion threshold.
Each solver copies, once per call, every instance table its loops read,
with a placeholder at index 0, so each table is indexed by id and a read
subtracts nothing.  In the owner table that entry, "no project", is
lecturer 0, so SPA-student keeps no copy of a student's lecturer: it is
the owner of the student's project.

Both are flat loops over plain lists: each step of the algorithm is
written inline, so a proposal or an offer makes no Python function call,
which in CPython costs more than the step itself.  Each list's end is read
once before it is scanned, and the result is read off the assignment
array with ``filter`` in C.
"""

from __future__ import annotations

from operator import itemgetter

from .model import Instance, Matching


def solve_student_optimal(instance: Instance) -> Matching:
    """The stable matching giving every student their best stable project.

    SPA-student: free students propose down their lists.  An
    over-subscribed project rejects its worst assignee, or else an
    over-subscribed lecturer rejects theirs.  A full project p, or a full
    lecturer k, deletes every pair it could never keep: the students that k
    ranks below the worst assignee of p (resp. of k).

    Each project p keeps a pointer to its worst assignee on L_k^p and, as
    its threshold, the rank k gives that student; (s, p) is deleted when k
    ranks s beyond it.  Each lecturer k keeps one record, a pointer to its
    worst assignee on L_k: k ranks each student at that student's position
    on L_k, so the pointer is also k's threshold.  Before k first fills it
    rests on the last position of L_k, which deletes nobody.  The pointers
    only move backwards, past students the list no longer holds: every
    later assignee lies within the threshold, so nothing behind a pointer
    comes back.  Each student's head pointer, and each of these, crosses
    its list once, so the run is O(λ).  Every table the loops read is a
    copy with a placeholder at index 0, indexed by id.  No student keeps a
    lecturer: k's walk tests ``owner[assigned[s]]``, which the sentinel
    ``owner[0] == 0`` makes 0 for a free student.

    One proposal of s to p (lecturer k) is a single pass: the loads of p
    and k are held in locals, at most one student is rejected (by k if p
    is not over-subscribed, else by p), then the pointers of p and k move
    to their worst assignees if full.  A lecturer's load never falls, only
    a proposal to one of its projects changes its assignees, and each such
    step that leaves k full ends with k's pointer on k's worst assignee.
    So a proposal that overfills k finds that student under the pointer,
    with no walk.  A lecturer's rejection may take p's own load down when
    the rejected student holds p.  The project's reject-then-lower steps
    share one pointer walk.
    """
    owner = (0,) + instance.project_owner  # owner[0] == 0: no project
    cap = (0,) + instance.project_capacity
    dcap = (0,) + instance.lecturer_capacity
    prefs = ((),) + instance.student_prefs
    lprefs = ((),) + instance.lecturer_prefs
    lrank = (None,) + instance.lrank
    projected = ((),) + instance.projected

    n1 = len(instance.student_prefs)
    assigned = [0] * (n1 + 1)  # project of s, or 0
    head = [0] * (n1 + 1)
    pload = [0] * len(cap)
    lload = [0] * len(dcap)
    pthr = [n1] * len(cap)  # (s, p) deleted when k ranks s beyond this
    pworst = [len(ranked) - 1 for ranked in projected]
    lworst = [len(ranked) - 1 for ranked in lprefs]

    free = list(range(n1, 0, -1))
    while free:
        s = free.pop()
        mine, i = prefs[s], head[s]
        end = len(mine)
        while i < end:
            p = mine[i]
            k = owner[p]
            rank_k = lrank[k]
            r = rank_k[s]
            if r <= pthr[p] and r <= lworst[k]:
                break
            i += 1
        head[s] = i
        if i == end:
            continue  # list exhausted: s stays unassigned

        assigned[s] = p
        lp, lk = pload[p] + 1, lload[k] + 1  # the loads of p and k
        c, d = cap[p], dcap[k]
        # k rejects its worst, already under k's pointer, unless p is
        # over-subscribed
        if lk > d and lp <= c:
            w = lprefs[k][lworst[k]]
            q = assigned[w]
            if q == p:  # p's load is the local one
                lp -= 1
            else:
                pload[q] -= 1
            lk -= 1
            assigned[w] = 0
            free.append(w)
        if lp >= c:  # p rejects its worst if over, then lowers pthr[p]
            ranked, j = projected[p], pworst[p]
            while True:
                while assigned[ranked[j]] != p:
                    j -= 1
                if lp == c:
                    break
                w = ranked[j]
                lp -= 1
                lk -= 1
                assigned[w] = 0
                free.append(w)
            pworst[p] = j
            pthr[p] = rank_k[ranked[j]]
        pload[p], lload[k] = lp, lk
        if lk == d:  # last, as p's rejection changes k's assignees too
            ranked, j = lprefs[k], lworst[k]
            while owner[assigned[ranked[j]]] != k:
                j -= 1
            lworst[k] = j

    return Matching._canonical(tuple(filter(itemgetter(1), enumerate(assigned))))


def solve_lecturer_optimal(instance: Instance) -> Matching:
    """The stable matching giving every student their worst stable project.

    SPA-lecturer: under-subscribed lecturers offer projects to students.
    Such a lecturer k offers to the first student on L_k who ranks an
    under-subscribed project of k above their current project; the student
    takes the best such project on their own list, leaving their old one.
    Students only ever trade up, so each keeps a cutoff, the rank of their
    current project, and a project's pointer over L_k^p skips for good
    every student holding p or something better.  A free student's cutoff
    lies beyond every rank.  A work list holds the lecturers that may have
    an offer to make; a lecturer re-enters it when a student leaves them
    for another lecturer.

    Pointer moves total O(λ).  Each offer also scans the offering
    lecturer's projects and the student's list, and there are at most λ
    offers, since each one improves a student; so the run is O(λ) when
    lecturers offer, and students rank, a bounded number of projects.
    Each pointer step reads its student once, and the project a student
    takes is found by a plain scan of their list.
    """
    owner = (0,) + instance.project_owner
    cap = (0,) + instance.project_capacity
    dcap = (0,) + instance.lecturer_capacity
    offered = ((),) + instance.lecturer_projects
    srank = (None,) + instance.srank
    lrank = (None,) + instance.lrank
    prefs = ((),) + instance.student_prefs
    projected = ((),) + instance.projected

    n1 = len(instance.student_prefs)
    assigned = [0] * (n1 + 1)
    cutoff = [len(cap)] * (n1 + 1)  # no list is as long as len(cap)
    head = [0] * len(cap)
    pload = [0] * len(cap)
    lload = [0] * len(dcap)
    waiting = [True] * len(dcap)
    pending = list(range(len(dcap) - 1, 0, -1))

    while pending:
        k = pending.pop()
        waiting[k] = False
        rank_k, mine, d = lrank[k], offered[k], dcap[k]
        while lload[k] < d:
            s, best = 0, n1
            for p in mine:
                if pload[p] == cap[p]:
                    continue
                ranked, i = projected[p], head[p]
                end = len(ranked)
                while i < end:
                    t = ranked[i]
                    if srank[t][p] < cutoff[t]:
                        if rank_k[t] < best:
                            s, best = t, rank_k[t]
                        break
                    i += 1
                head[p] = i
            if not s:
                break
            # the first open project of k on the list of s ranks above the
            # cutoff, because the one that made s eligible does
            for p in prefs[s]:
                if owner[p] == k and pload[p] < cap[p]:
                    break
            old = assigned[s]
            if old:
                pload[old] -= 1
                j = owner[old]
                lload[j] -= 1
                if j != k and not waiting[j]:
                    waiting[j] = True
                    pending.append(j)
            assigned[s], cutoff[s] = p, srank[s][p]
            pload[p] += 1
            lload[k] += 1

    return Matching._canonical(tuple(filter(itemgetter(1), enumerate(assigned))))
