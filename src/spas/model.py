"""Core data model: instances, matchings, and validation.

Students rank projects, lecturers rank students, and every project is
offered by exactly one lecturer; projects and lecturers carry capacities.
Identifiers are dense 1-based integers per role; the ``s1``/``p2``/``l3``
text forms appear only in file formats and messages.  Rank tables are
precomputed at build time so preference queries are O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterator, Mapping


def student_name(s: int) -> str:
    return f"s{s}"


def project_name(p: int) -> str:
    return f"p{p}"


def lecturer_name(k: int) -> str:
    return f"l{k}"


@dataclass(frozen=True)
class Violation:
    """One broken rule, naming the offending identifier(s)."""

    rule: str
    subject: str
    message: str

    def render(self) -> str:
        return f"{self.rule} [{self.subject}]: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating an instance or a matching.

    An empty ``violations`` tuple means the checked object is valid;
    ``warnings`` never block construction.
    """

    violations: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass
class RawInstance:
    """Unvalidated instance description, as parsed or hand-built.

    Lists are indexed by entity number minus one; preference entries are
    1-based identifiers of the other role.
    """

    student_prefs: list[list[int]] = field(default_factory=list)
    project_capacity: list[int] = field(default_factory=list)
    project_owner: list[int] = field(default_factory=list)
    lecturer_capacity: list[int] = field(default_factory=list)
    lecturer_prefs: list[list[int]] = field(default_factory=list)


@dataclass(frozen=True)
class Instance:
    """A validated, immutable problem instance.

    Construct through :func:`build_instance`; direct construction skips
    validation.  Immutable after construction and safe to share across
    concurrent readers.
    """

    student_prefs: tuple[tuple[int, ...], ...]
    project_capacity: tuple[int, ...]
    project_owner: tuple[int, ...]
    lecturer_capacity: tuple[int, ...]
    lecturer_prefs: tuple[tuple[int, ...], ...]

    # -- sizes and id ranges -------------------------------------------------

    @property
    def num_students(self) -> int:
        return len(self.student_prefs)

    @property
    def num_projects(self) -> int:
        return len(self.project_capacity)

    @property
    def num_lecturers(self) -> int:
        return len(self.lecturer_capacity)

    def students(self) -> range:
        return range(1, self.num_students + 1)

    def projects(self) -> range:
        return range(1, self.num_projects + 1)

    def lecturers(self) -> range:
        return range(1, self.num_lecturers + 1)

    # -- derived tables ------------------------------------------------------

    @cached_property
    def lecturer_projects(self) -> tuple[tuple[int, ...], ...]:
        """Offered project sets, ascending, one tuple per lecturer."""
        out: list[list[int]] = [[] for _ in range(self.num_lecturers)]
        for p, k in enumerate(self.project_owner, start=1):
            out[k - 1].append(p)
        return tuple(tuple(ps) for ps in out)

    @cached_property
    def _srank(self) -> tuple[dict[int, int], ...]:
        return tuple(
            {p: r for r, p in enumerate(prefs)} for prefs in self.student_prefs
        )

    @cached_property
    def _lrank(self) -> tuple[dict[int, int], ...]:
        return tuple(
            {s: r for r, s in enumerate(prefs)} for prefs in self.lecturer_prefs
        )

    @cached_property
    def _projected(self) -> tuple[tuple[int, ...], ...]:
        """Every projected list, index p - 1, in time linear in the total
        length of the student lists: gather who ranks each project, then
        order them with one pass over each lecturer's list."""
        rankers: list[list[int]] = [[] for _ in self.project_capacity]
        for s, prefs in enumerate(self.student_prefs, start=1):
            for p in prefs:
                rankers[p - 1].append(s)
        lists: list[list[int]] = [[] for _ in self.project_capacity]
        for ranked, offered in zip(self.lecturer_prefs, self.lecturer_projects):
            wants: dict[int, list[int]] = {}
            for p in offered:
                for s in rankers[p - 1]:
                    wants.setdefault(s, []).append(p)
            for s in ranked:
                for p in wants.get(s, ()):
                    lists[p - 1].append(s)
        return tuple(tuple(ranked) for ranked in lists)

    # -- queries ---------------------------------------------------------------

    def _check_student(self, s: int) -> None:
        if not 1 <= s <= self.num_students:
            raise ValueError(f"unknown student {student_name(s)}")

    def _check_project(self, p: int) -> None:
        if not 1 <= p <= self.num_projects:
            raise ValueError(f"unknown project {project_name(p)}")

    def _check_lecturer(self, k: int) -> None:
        if not 1 <= k <= self.num_lecturers:
            raise ValueError(f"unknown lecturer {lecturer_name(k)}")

    def owner(self, p: int) -> int:
        self._check_project(p)
        return self.project_owner[p - 1]

    def acceptable_pair(self, s: int, p: int) -> bool:
        """True iff student ``s`` ranks project ``p``.

        Validation guarantees the lecturer side: whoever offers ``p`` then
        also ranks ``s``.
        """
        self._check_student(s)
        self._check_project(p)
        return p in self._srank[s - 1]

    def student_rank(self, s: int, p: int) -> int:
        """0-based position of ``p`` on the list of ``s`` (0 = best)."""
        self._check_student(s)
        try:
            return self._srank[s - 1][p]
        except KeyError:
            raise ValueError(
                f"{project_name(p)} is not on the list of {student_name(s)}"
            ) from None

    def student_prefers(self, s: int, p: int, q: int) -> bool:
        return self.student_rank(s, p) < self.student_rank(s, q)

    def lecturer_rank(self, k: int, s: int) -> int:
        self._check_lecturer(k)
        try:
            return self._lrank[k - 1][s]
        except KeyError:
            raise ValueError(
                f"{student_name(s)} is not on the list of {lecturer_name(k)}"
            ) from None

    def lecturer_prefers(self, k: int, s: int, t: int) -> bool:
        return self.lecturer_rank(k, s) < self.lecturer_rank(k, t)

    def projected_list(self, k: int, p: int) -> tuple[int, ...]:
        """The list of lecturer ``k`` restricted to students ranking ``p``."""
        self._check_lecturer(k)
        self._check_project(p)
        if self.project_owner[p - 1] != k:
            raise ValueError(
                f"{project_name(p)} is not offered by {lecturer_name(k)}"
            )
        return self._projected[p - 1]

    def __repr__(self) -> str:  # the field dump is unusable for big instances
        return (
            f"Instance(students={self.num_students}, "
            f"projects={self.num_projects}, lecturers={self.num_lecturers})"
        )


@dataclass(frozen=True)
class Matching:
    """A set of (student, project) pairs in canonical ascending order.

    Two matchings with equal pair sets compare and hash equal regardless of
    construction order.  Whether the pairs are legal for some instance is
    the business of :func:`is_valid_matching`.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        canon = []
        for pair in self.pairs:
            s, p = pair
            if not (type(s) is int and type(p) is int and s > 0 and p > 0):
                raise ValueError(f"malformed pair {pair!r}")
            canon.append((s, p))
        object.__setattr__(self, "pairs", tuple(sorted(set(canon))))

    @classmethod
    def from_assignments(cls, assignments: Mapping[int, int | None]) -> "Matching":
        return cls(tuple((s, p) for s, p in assignments.items() if p is not None))

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)


EMPTY_MATCHING = Matching(())


def _non_integers(raw: RawInstance) -> list[Violation]:
    """Every entry of the five lists that is not a plain ``int`` (a
    ``bool`` is not), naming its entity, in field order."""
    entries = (
        (student_name, "ranked project",
         ((i, x) for i, prefs in enumerate(raw.student_prefs, start=1)
          for x in prefs)),
        (project_name, "capacity", enumerate(raw.project_capacity, start=1)),
        (project_name, "owner", enumerate(raw.project_owner, start=1)),
        (lecturer_name, "capacity", enumerate(raw.lecturer_capacity, start=1)),
        (lecturer_name, "ranked student",
         ((k, x) for k, prefs in enumerate(raw.lecturer_prefs, start=1)
          for x in prefs)),
    )
    return [
        Violation("non-integer", name(i), f"{what} {x!r} is not an integer")
        for name, what, pairs in entries
        for i, x in pairs
        if type(x) is not int
    ]


def validate_raw(raw: RawInstance) -> ValidationReport:
    """Check every instance rule, collecting all violations and warnings.

    Non-integer entries are reported alone: the other rules compare and
    index with the entries.
    """
    typed = _non_integers(raw)
    if typed:
        return ValidationReport(tuple(typed))
    n1 = len(raw.student_prefs)
    n2 = len(raw.project_capacity)
    n3 = len(raw.lecturer_capacity)
    violations: list[Violation] = []
    warnings: list[Violation] = []

    # lists that must run in parallel; checks that pair them are skipped
    projects_aligned = len(raw.project_owner) == n2
    lecturers_aligned = len(raw.lecturer_prefs) == n3
    if not projects_aligned:
        violations.append(Violation(
            "length-mismatch", "project_owner",
            f"{len(raw.project_owner)} owners for {n2} project capacities"))
    if not lecturers_aligned:
        violations.append(Violation(
            "length-mismatch", "lecturer_prefs",
            f"{len(raw.lecturer_prefs)} preference lists for {n3} lecturer "
            f"capacities"))

    for j, c in enumerate(raw.project_capacity, start=1):
        if c < 1:
            violations.append(Violation(
                "project-capacity", project_name(j),
                f"capacity must be positive, got {c}"))
    for k, d in enumerate(raw.lecturer_capacity, start=1):
        if d < 1:
            violations.append(Violation(
                "lecturer-capacity", lecturer_name(k),
                f"capacity must be positive, got {d}"))
    for j, k in enumerate(raw.project_owner, start=1):
        if not 1 <= k <= n3:
            violations.append(Violation(
                "dangling-identifier", project_name(j),
                f"owner {lecturer_name(k)} does not exist"))

    for i, prefs in enumerate(raw.student_prefs, start=1):
        seen: set[int] = set()
        for p in prefs:
            if not 1 <= p <= n2:
                violations.append(Violation(
                    "dangling-identifier", student_name(i),
                    f"ranked project {project_name(p)} does not exist"))
            elif p in seen:
                violations.append(Violation(
                    "duplicate-preference", student_name(i),
                    f"{project_name(p)} appears twice"))
            seen.add(p)
        if not prefs:
            warnings.append(Violation(
                "empty-preference-list", student_name(i),
                "student ranks no project and stays unassigned"))

    for k, prefs in enumerate(raw.lecturer_prefs, start=1):
        seen = set()
        for s in prefs:
            if not 1 <= s <= n1:
                violations.append(Violation(
                    "dangling-identifier", lecturer_name(k),
                    f"ranked student {student_name(s)} does not exist"))
            elif s in seen:
                violations.append(Violation(
                    "duplicate-preference", lecturer_name(k),
                    f"{student_name(s)} appears twice"))
            seen.add(s)

    # offered sets, capacity bounds, and the list correspondence need clean
    # identifiers, so guard each piece on the entities it touches
    offered: list[list[int]] = [[] for _ in range(n3)]
    for j, k in enumerate(raw.project_owner, start=1):
        if 1 <= k <= n3:
            offered[k - 1].append(j)

    for k in range(1, n3 + 1):
        if not offered[k - 1]:
            violations.append(Violation(
                "no-offered-projects", lecturer_name(k),
                "every lecturer must offer at least one project"))
            continue
        if not projects_aligned:
            continue
        caps = [raw.project_capacity[j - 1] for j in offered[k - 1]]
        if min(caps) < 1:
            continue  # already reported on the project
        d = raw.lecturer_capacity[k - 1]
        if not max(caps) <= d <= sum(caps):
            violations.append(Violation(
                "capacity-bound", lecturer_name(k),
                f"capacity {d} must lie between the largest offered project "
                f"capacity {max(caps)} and the capacity sum {sum(caps)}"))

    if not (projects_aligned and lecturers_aligned):
        return ValidationReport(tuple(violations), tuple(warnings))

    # one pass over the student lists: who ranks a project of each lecturer
    expected: list[set[int]] = [set() for _ in range(n3)]
    for i, prefs in enumerate(raw.student_prefs, start=1):
        for p in prefs:
            if 1 <= p <= n2 and 1 <= raw.project_owner[p - 1] <= n3:
                expected[raw.project_owner[p - 1] - 1].add(i)
    for k in range(1, n3 + 1):
        listed = {s for s in raw.lecturer_prefs[k - 1] if 1 <= s <= n1}
        for s in sorted(expected[k - 1] - listed):
            violations.append(Violation(
                "lecturer-list-mismatch", lecturer_name(k),
                f"{student_name(s)} ranks an offered project but is missing "
                f"from the list"))
        for s in sorted(listed - expected[k - 1]):
            violations.append(Violation(
                "lecturer-list-mismatch", lecturer_name(k),
                f"{student_name(s)} is listed but ranks no offered project"))

    return ValidationReport(tuple(violations), tuple(warnings))


def build_instance(raw: RawInstance) -> Instance | ValidationReport:
    """Validate ``raw`` and return an :class:`Instance`, or the full report."""
    report = validate_raw(raw)
    if not report.ok:
        return report
    return Instance(
        student_prefs=tuple(tuple(p) for p in raw.student_prefs),
        project_capacity=tuple(raw.project_capacity),
        project_owner=tuple(raw.project_owner),
        lecturer_capacity=tuple(raw.lecturer_capacity),
        lecturer_prefs=tuple(tuple(p) for p in raw.lecturer_prefs),
    )


def is_valid_matching(instance: Instance, matching: Matching) -> ValidationReport:
    """Report every violated matching condition (capacities, acceptability).

    One pass over the pairs, which are canonical and so sorted by student,
    tallies project and lecturer loads into flat arrays.  Violations come
    grouped by rule: multiple assignments by student, then unknown ids and
    unacceptable pairs in pair order, then over-full projects and lecturers
    by index.
    """
    n1, n2 = instance.num_students, instance.num_projects
    owner = instance.project_owner
    srank = instance._srank
    pload = [0] * (n2 + 1)
    lload = [0] * (instance.num_lecturers + 1)
    faults: list[Violation] = []
    repeated = False
    prev = 0
    for s, p in matching.pairs:
        if s == prev:
            repeated = True
        prev = s
        known = 1 <= p <= n2
        if known:
            pload[p] += 1
            lload[owner[p - 1]] += 1
        if known and 1 <= s <= n1 and p in srank[s - 1]:
            continue
        subject = f"{student_name(s)},{project_name(p)}"
        if not 1 <= s <= n1:
            faults.append(Violation(
                "dangling-identifier", subject, "student does not exist"))
        elif not known:
            faults.append(Violation(
                "dangling-identifier", subject, "project does not exist"))
        else:
            faults.append(Violation(
                "unacceptable-pair", subject,
                f"{project_name(p)} is not on the list of {student_name(s)}"))

    violations: list[Violation] = []
    if repeated:
        for s, group in groupby(matching.pairs, key=itemgetter(0)):
            held = [p for _, p in group]
            if len(held) > 1:
                names = " ".join(project_name(p) for p in held)
                violations.append(Violation(
                    "multiple-assignment", student_name(s),
                    f"assigned to more than one project: {names}"))
    violations += faults
    for p, (load, c) in enumerate(zip(pload[1:], instance.project_capacity), start=1):
        if load > c:
            violations.append(Violation(
                "project-capacity", project_name(p),
                f"{load} students assigned, capacity is {c}"))
    for k, (load, c) in enumerate(zip(lload[1:], instance.lecturer_capacity), start=1):
        if load > c:
            violations.append(Violation(
                "lecturer-capacity", lecturer_name(k),
                f"{load} students assigned, capacity is {c}"))

    return ValidationReport(tuple(violations))
