"""Core data model: instances, matchings, and validation.

Students rank projects, lecturers rank students, and every project is
offered by exactly one lecturer; projects and lecturers carry capacities.
Identifiers are dense 1-based integers per role; the ``s1``/``p2``/``l3``
text forms appear only in file formats and messages.  Every
:class:`Instance` is valid and immutable.  Its constructor, which
:func:`build_instance` calls, runs the validating walk over the given lists
or tuples and then stores them as tuples.  The walk also builds the rank
tables, the offered sets and the projected lists that the instance holds,
so preference queries are O(1) from the start.
"""

from __future__ import annotations

import weakref
from itertools import chain, groupby
from operator import itemgetter


def student_name(s: int) -> str:
    return f"s{s}"


def project_name(p: int) -> str:
    return f"p{p}"


def lecturer_name(k: int) -> str:
    return f"l{k}"


class _Record:
    """Base of the package's value classes, written by hand: every command
    imports this module, and the standard library's class generator, with
    the :mod:`inspect` module it loads, would add several milliseconds to
    each start-up (README, "Start-up").  ``__match_args__`` names the fields
    in constructor order; equality (with objects of the same class only)
    and ``repr`` read the fields through it."""

    __match_args__: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"


class _Frozen(_Record):
    """A :class:`_Record` that hashes as the tuple of its fields and whose
    fields cannot be assigned or deleted; ``__init__`` stores them through
    ``__dict__``."""

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Violation(_Frozen):
    """One broken rule, naming the offending identifier(s)."""

    __match_args__ = ("rule", "subject", "message")

    def __init__(self, rule: str, subject: str, message: str) -> None:
        self.__dict__.update(rule=rule, subject=subject, message=message)

    def render(self) -> str:
        return f"{self.rule} [{self.subject}]: {self.message}"


class ValidationReport(_Frozen):
    """Outcome of validating an instance or a matching.

    An empty ``violations`` tuple means the checked object is valid;
    ``warnings`` never block construction.
    """

    __match_args__ = ("violations", "warnings")

    def __init__(
        self,
        violations: tuple[Violation, ...] = (),
        warnings: tuple[Violation, ...] = (),
    ) -> None:
        self.__dict__.update(violations=violations, warnings=warnings)

    @property
    def ok(self) -> bool:
        return not self.violations


_FRESH: list = []  # default marker: each omitted RawInstance field gets a new list


class RawInstance(_Record):
    """Unvalidated instance description, as parsed or hand-built.

    Lists are indexed by entity number minus one; preference entries are
    1-based identifiers of the other role.  Mutable, so unhashable.
    """

    __match_args__ = ("student_prefs", "project_capacity", "project_owner",
                      "lecturer_capacity", "lecturer_prefs")

    def __init__(
        self,
        student_prefs: list[list[int]] = _FRESH,
        project_capacity: list[int] = _FRESH,
        project_owner: list[int] = _FRESH,
        lecturer_capacity: list[int] = _FRESH,
        lecturer_prefs: list[list[int]] = _FRESH,
    ) -> None:
        self.student_prefs = [] if student_prefs is _FRESH else student_prefs
        self.project_capacity = [] if project_capacity is _FRESH else project_capacity
        self.project_owner = [] if project_owner is _FRESH else project_owner
        self.lecturer_capacity = [] if lecturer_capacity is _FRESH else lecturer_capacity
        self.lecturer_prefs = [] if lecturer_prefs is _FRESH else lecturer_prefs


class Instance(_Frozen):
    """A validated, immutable problem instance.

    The constructor takes the five fields as lists or tuples and checks
    them by the walk of :func:`validate_raw`, raising
    ``ValueError("invalid instance: ...")`` naming the first violation.
    Otherwise it stores them as tuples, so the caller's lists may change
    afterwards without reaching the instance.  :func:`build_instance` is
    this constructor on a :class:`RawInstance`, returning the full report
    in place of raising.  The walk also builds the four derived tables that
    every layer reads preferences through.  They are public and read-only,
    indexed by id - 1; do not mutate their dicts:

    * ``lecturer_projects``: the projects each lecturer offers, ascending;
    * ``srank``: for each student, a dict from the projects they rank to
      their 0-based positions (0 = best), so membership is acceptability;
    * ``lrank``: for each lecturer, a dict from the students they rank to
      their 0-based positions (0 = best);
    * ``projected``: for each project ``p``, the list of the lecturer who
      offers ``p`` restricted to the students who rank ``p``, best first.
      The walk gathers who ranks each project, then sorts each project's
      rankers by their lecturer ranks: O(λ log r), λ the total length of
      the student lists and r the most students ranking one project.

    The instance is safe to share across concurrent readers.  It keeps no
    record of the matchings proved stable for it: each such matching
    carries a certificate naming the instance (:meth:`_certify`).
    """

    __match_args__ = RawInstance.__match_args__

    def __init__(
        self,
        student_prefs: list[list[int]],
        project_capacity: list[int],
        project_owner: list[int],
        lecturer_capacity: list[int],
        lecturer_prefs: list[list[int]],
    ) -> None:
        report, tables = _walk(RawInstance(
            student_prefs, project_capacity, project_owner, lecturer_capacity,
            lecturer_prefs))
        if tables is None:
            raise ValueError(f"invalid instance: {report.violations[0].render()}")
        self.__dict__.update(
            student_prefs=tuple(map(tuple, student_prefs)),
            project_capacity=tuple(project_capacity),
            project_owner=tuple(project_owner),
            lecturer_capacity=tuple(lecturer_capacity),
            lecturer_prefs=tuple(map(tuple, lecturer_prefs)),
            **tables,
        )

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

    def _certify(self, *matchings: Matching) -> None:
        """Record ``matchings`` as proved stable for this instance: each
        carries a certificate, a weak reference to the instance under
        ``"_stable_in"`` in its ``__dict__``, so the lattice gate recognises
        it with one dict read and the certificate keeps no instance alive.
        A matching certifies one instance at a time, and the certificate is
        the only record: an equal matching that is a distinct object, or
        one last certified for another instance, is checked again."""
        cert = weakref.ref(self)
        for m in matchings:
            m.__dict__["_stable_in"] = cert

    def _certifies(self, m: Matching) -> bool:
        """Whether ``m`` carries a certificate naming this instance."""
        cert = m.__dict__.get("_stable_in")
        return cert is not None and cert() is self

    # -- queries ---------------------------------------------------------------

    def student_rank(self, s: int, p: int) -> int:
        """0-based position of ``p`` on the list of ``s`` (0 = best)."""
        return _checked_rank(self.srank, "student", student_name, s, project_name, p)

    def lecturer_rank(self, k: int, s: int) -> int:
        """0-based position of ``s`` on the list of ``k`` (0 = best)."""
        return _checked_rank(self.lrank, "lecturer", lecturer_name, k, student_name, s)

    def __repr__(self) -> str:  # the field dump is unusable for big instances
        return (
            f"Instance(students={self.num_students}, "
            f"projects={self.num_projects}, lecturers={self.num_lecturers})"
        )


def _checked_rank(ranks: tuple[dict[int, int], ...], role: str, name, i: int,
                  other, x: int) -> int:
    """``ranks[i - 1][x]``, the rank that ``name(i)``, of ``role``, gives
    ``other(x)``.  Raises ``ValueError`` for an unknown ``i`` or for an
    ``x`` that is not on its list; an id that is not a plain ``int`` (a
    ``bool`` or a float is not) is unknown."""
    if type(i) is not int or not 1 <= i <= len(ranks):
        raise ValueError(f"unknown {role} {name(i)}")
    rank = ranks[i - 1].get(x) if type(x) is int else None
    if rank is None:
        raise ValueError(f"{other(x)} is not on the list of {name(i)}")
    return rank


class Matching(_Frozen):
    """A set of (student, project) pairs in canonical ascending order.

    The constructor checks and sorts the pairs, and :meth:`_canonical`
    trusts pairs that are canonical already; two matchings with equal pair
    sets compare and hash equal.  Whether the pairs are legal for some
    instance is the business of :func:`is_valid_matching`; a matching
    proved stable carries a certificate naming the instance
    (:meth:`Instance._certify`), which an equal matching does not share.
    """

    __match_args__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...] = ()) -> None:
        canon = []
        for pair in pairs:
            try:
                s, p = pair
            except (TypeError, ValueError):  # not a pair at all
                s = p = None
            if not (type(s) is int and type(p) is int and s > 0 and p > 0):
                raise ValueError(f"malformed pair {pair!r}")
            canon.append((s, p))
        self.__dict__["pairs"] = tuple(sorted(set(canon)))

    @classmethod
    def _canonical(cls, pairs: tuple[tuple[int, int], ...]) -> Matching:
        """A matching on ``pairs`` as given, without the check and the sort:
        for callers whose pairs are canonical by construction (positive
        ints, ascending, one pair per student)."""
        m = object.__new__(cls)
        m.__dict__["pairs"] = pairs
        return m

    def __getstate__(self) -> dict:
        # a certificate holds a weak reference, which does not pickle;
        # copies and pickles carry only the pairs, and start unproved
        return {"pairs": self.pairs}

    def as_dict(self) -> dict[int, int]:
        return dict(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)


EMPTY_MATCHING = Matching(())


def _non_lists(raw: RawInstance) -> list[Violation]:
    """Every field, else every preference row, that is not a list (a tuple
    will do), naming the field or the row's entity."""
    bad_fields = [
        Violation("non-list", f, f"got {type(value).__name__}, not a list")
        for f in RawInstance.__match_args__
        if not isinstance(value := getattr(raw, f), (list, tuple))
    ]
    if bad_fields:
        return bad_fields
    return [
        Violation("non-list", name(i),
                  f"preference list is {type(row).__name__}, not a list")
        for name, rows in ((student_name, raw.student_prefs),
                           (lecturer_name, raw.lecturer_prefs))
        for i, row in enumerate(rows, start=1)
        if not isinstance(row, (list, tuple))
    ]


def _non_integers(raw: RawInstance) -> list[Violation]:
    """Every entry of the five lists that is not a plain ``int`` (a
    ``bool`` is not), naming its entity, in field order."""
    if {int}.issuperset(map(type, chain(
            chain.from_iterable(raw.student_prefs), raw.project_capacity,
            raw.project_owner, raw.lecturer_capacity,
            chain.from_iterable(raw.lecturer_prefs)))):
        return []
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

    Fields and preference rows that are not lists, else non-integer
    entries, are reported alone: the other rules iterate the rows and
    compare and index with the entries.
    """
    return _walk(raw)[0]


def _walk(raw: RawInstance) -> tuple[ValidationReport, dict | None]:
    """The report of :func:`validate_raw`, and the four derived tables of
    :class:`Instance` by name, or ``None`` when there are violations.

    Each preference row's position dict is its rank table, and a row of
    known ids repeats none exactly when its dict is as long as the row.
    The rankers of each project, gathered in one pass over the student
    lists, give each lecturer's expected list and then the projected lists.
    """
    typed = _non_lists(raw) or _non_integers(raw)
    if typed:
        return ValidationReport(tuple(typed)), None
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

    for name, rule, caps in (
            (project_name, "project-capacity", raw.project_capacity),
            (lecturer_name, "lecturer-capacity", raw.lecturer_capacity)):
        for i, c in enumerate(caps, start=1):
            if c < 1:
                violations.append(Violation(
                    rule, name(i), f"capacity must be positive, got {c}"))

    # offered sets, capacity bounds, and the list correspondence need clean
    # identifiers, so guard each piece on the entities it touches
    offered: list[list[int]] = [[] for _ in range(n3)]
    for j, k in enumerate(raw.project_owner, start=1):
        if 1 <= k <= n3:
            offered[k - 1].append(j)
        else:
            violations.append(Violation(
                "dangling-identifier", project_name(j),
                f"owner {lecturer_name(k)} does not exist"))

    # each row's position dict is its rank table; the entries are walked
    # one by one only when the dicts show a repeat or an unknown id
    ranks = []
    for name, ranked, other, n, rows in (
            (student_name, "ranked project", project_name, n2, raw.student_prefs),
            (lecturer_name, "ranked student", student_name, n1, raw.lecturer_prefs)):
        table = tuple({x: r for r, x in enumerate(prefs)} for prefs in rows)
        ranks.append(table)
        if (sum(map(len, table)) == sum(map(len, rows))
                and min(chain.from_iterable(table), default=1) >= 1
                and max(chain.from_iterable(table), default=n) <= n):
            continue
        for i, prefs in enumerate(rows, start=1):
            seen: set[int] = set()
            for x in prefs:
                if not 1 <= x <= n:
                    violations.append(Violation(
                        "dangling-identifier", name(i),
                        f"{ranked} {other(x)} does not exist"))
                elif x in seen:
                    violations.append(Violation(
                        "duplicate-preference", name(i), f"{other(x)} appears twice"))
                seen.add(x)
    srank, lrank = ranks
    for i, prefs in enumerate(raw.student_prefs, start=1):
        if not prefs:
            warnings.append(Violation(
                "empty-preference-list", student_name(i),
                "student ranks no project and stays unassigned"))

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
        return ValidationReport(tuple(violations), tuple(warnings)), None

    # one pass over the student lists: who ranks each project, ascending;
    # a lecturer's list holds exactly the rankers of their projects
    rankers: list[list[int]] = [[] for _ in range(n2 + 1)]  # index p
    for i, prefs in enumerate(raw.student_prefs, start=1):
        for p in prefs:
            if 1 <= p <= n2:
                rankers[p].append(i)
    for k in range(1, n3 + 1):
        expected = set().union(*[rankers[p] for p in offered[k - 1]])
        if lrank[k - 1].keys() == expected:
            continue
        listed = {s for s in raw.lecturer_prefs[k - 1] if 1 <= s <= n1}
        for s in sorted(expected - listed):
            violations.append(Violation(
                "lecturer-list-mismatch", lecturer_name(k),
                f"{student_name(s)} ranks an offered project but is missing "
                f"from the list"))
        for s in sorted(listed - expected):
            violations.append(Violation(
                "lecturer-list-mismatch", lecturer_name(k),
                f"{student_name(s)} is listed but ranks no offered project"))

    report = ValidationReport(tuple(violations), tuple(warnings))
    if violations:
        return report, None
    # each project's rankers in its lecturer's order, as that lecturer's
    # own id objects
    projected: list[tuple[int, ...]] = [()] * n2
    for rank, ranked, mine in zip(lrank, raw.lecturer_prefs, offered):
        for p in mine:
            projected[p - 1] = tuple(map(
                ranked.__getitem__, sorted(map(rank.__getitem__, rankers[p]))))
    return report, {"lecturer_projects": tuple(map(tuple, offered)),
                    "srank": srank, "lrank": lrank, "projected": tuple(projected)}


def build_instance(raw: RawInstance) -> Instance | ValidationReport:
    """The :class:`Instance` on the fields of ``raw``, or, where its
    constructor raises, the full report of :func:`validate_raw`: valid
    input is walked once, invalid input twice."""
    try:
        return Instance(*raw._astuple())
    except ValueError:
        return validate_raw(raw)


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
    srank = instance.srank
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
    for name, rule, loads, caps in (
            (project_name, "project-capacity", pload, instance.project_capacity),
            (lecturer_name, "lecturer-capacity", lload, instance.lecturer_capacity)):
        for i, (load, c) in enumerate(zip(loads[1:], caps), start=1):
            if load > c:
                violations.append(Violation(
                    rule, name(i), f"{load} students assigned, capacity is {c}"))

    return ValidationReport(tuple(violations))


def require_valid_matching(instance: Instance, matching: Matching) -> None:
    """Raise ``ValueError("invalid matching: ...")`` naming the first
    violation :func:`is_valid_matching` reports, if there is one."""
    report = is_valid_matching(instance, matching)
    if not report.ok:
        raise ValueError(f"invalid matching: {report.violations[0].render()}")
