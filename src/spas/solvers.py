"""Student-optimal and lecturer-optimal stable matchings by deferred acceptance.

Both solvers follow Abraham, Irving & Manlove, "Two algorithms for the
Student-Project Allocation problem", J. Discrete Algorithms 5(1), 2007.
SPA-student gives every student their best stable project (the bottom of
the lattice of stable matchings); SPA-lecturer gives every student their
worst one (the top).  Both matchings are unique, so the order in which
free students or lecturers are served never changes the output.

Write λ for the total length of the students' preference lists.  Both
solvers walk the projected lists L_k^p (lecturer k's list restricted to the
students who rank p), which the instance builds once in O(λ), with
pointers that never move back.
"""

from __future__ import annotations

from collections import deque

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

    def worst_of_project(p: int) -> int:
        ranked, i = projected[p - 1], pworst[p]
        while assigned[ranked[i]] != p:
            i -= 1
        pworst[p] = i
        return ranked[i]

    def worst_of_lecturer(k: int) -> int:
        ranked, i = lprefs[k - 1], lworst[k]
        while lect[ranked[i]] != k:
            i -= 1
        lworst[k] = i
        return ranked[i]

    def reject(s: int) -> None:
        pload[assigned[s]] -= 1
        lload[lect[s]] -= 1
        assigned[s] = lect[s] = 0
        free.append(s)

    free = list(reversed(instance.students()))
    while free:
        s = free.pop()
        mine, i = prefs[s - 1], head[s]
        while i < len(mine):
            p = mine[i]
            k = owner[p - 1]
            r = lrank[k - 1][s]
            if r <= pthr[p] and r <= lthr[k]:
                break
            i += 1
        head[s] = i
        if i == len(mine):
            continue  # list exhausted: s stays unassigned

        assigned[s], lect[s] = p, k
        pload[p] += 1
        lload[k] += 1
        if pload[p] > cap[p - 1]:
            reject(worst_of_project(p))
        elif lload[k] > dcap[k - 1]:
            reject(worst_of_lecturer(k))

        if pload[p] == cap[p - 1]:
            pthr[p] = lrank[k - 1][worst_of_project(p)]
        if lload[k] == dcap[k - 1]:
            lthr[k] = lrank[k - 1][worst_of_lecturer(k)]

    return Matching._canonical(tuple((s, p) for s, p in enumerate(assigned) if p))


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
        rank_k = lrank[k - 1]
        while lload[k] < dcap[k - 1]:
            s, best = 0, n1
            for p in offered[k - 1]:
                if pload[p] == cap[p - 1]:
                    continue
                ranked, i = projected[p - 1], head[p]
                while i < len(ranked) and srank[ranked[i] - 1][p] >= cutoff[ranked[i]]:
                    i += 1
                head[p] = i
                if i < len(ranked) and rank_k[ranked[i]] < best:
                    s, best = ranked[i], rank_k[ranked[i]]
            if not s:
                break
            # the first open project of k on the list of s ranks above the
            # cutoff, because the one that made s eligible does
            p = next(q for q in prefs[s - 1]
                     if owner[q - 1] == k and pload[q] < cap[q - 1])
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

    return Matching._canonical(tuple((s, p) for s, p in enumerate(assigned) if p))
