"""Line-oriented instance and matching file formats, plus DOT emission.

Instance grammar (``#``-prefixed comment lines and blank lines ignored):

    students <n1>
    projects <n2>
    lecturers <n3>
    s<i> : p<a> p<b> ...                 one line per student, best first
    p<j> : capacity <c> lecturer l<k>    one line per project
    l<k> : capacity <d> : s<a> s<b> ...  one line per lecturer, best first

Matching grammar: one ``s<i> p<j>`` or ``s<i> -`` per line; unassigned
students may be omitted.  Serialisers emit canonical ascending order, so
parse-serialize round trips are byte identity on canonical files.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from .model import (
    Instance,
    Matching,
    RawInstance,
    ValidationReport,
    build_instance,
)

if TYPE_CHECKING:
    from .lattice import HasseDiagram

_TOKEN = re.compile(r"\S+")
_ID = re.compile(r"^([spl])([1-9][0-9]*)$")
_COUNT_KEYWORDS = ("students", "projects", "lecturers")


class ParseError(ValueError):
    """Syntax error with the line (and column) it was found at."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        place = ""
        if line is not None:
            place = f"line {line}"
            if column is not None:
                place += f", column {column}"
            place += ": "
        super().__init__(place + message)
        self.line = line
        self.column = column


def _tokens(raw_line: str) -> list[tuple[str, int]]:
    return [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(raw_line)]


def _to_int(digits: str, line: int, column: int) -> int:
    """``int`` of ASCII digits; past ``sys.get_int_max_str_digits()`` digits
    it raises a bare ``ValueError``, reported here with its place."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(
            f"number of {len(digits)} digits is too long", line, column
        ) from None


def _parse_id(token: str, kind: str, line: int, column: int) -> int:
    m = _ID.match(token)
    if not m or m.group(1) != kind:
        raise ParseError(
            f"expected {kind}<number> identifier, got {token!r}", line, column
        )
    return _to_int(m.group(2), line, column)


def _is_count(token: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts ``²`` and the like,
    which ``int`` then rejects."""
    return token.isascii() and token.isdigit()


def _parse_count(tokens: list[tuple[str, int]], line: int) -> int:
    if len(tokens) != 2 or not _is_count(tokens[1][0]):
        raise ParseError(
            f"expected '{tokens[0][0]} <count>'", line, tokens[0][1]
        )
    return _to_int(tokens[1][0], line, tokens[1][1])


def parse_raw_instance(text: str) -> RawInstance:
    """Syntax-only parse; semantic rules are the validator's business.

    A file with no content (only blanks and comments) is the empty
    instance.
    """
    counts: dict[str, int] = {}
    students: dict[int, list[int]] = {}
    projects: dict[int, tuple[int, int]] = {}
    lecturers: dict[int, tuple[int, list[int]]] = {}

    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = _tokens(raw_line)
        head, head_col = toks[0]

        if head in _COUNT_KEYWORDS:
            if head in counts:
                raise ParseError(f"duplicate '{head}' header", line_no, head_col)
            counts[head] = _parse_count(toks, line_no)
            continue

        if len(counts) < 3:
            raise ParseError(
                "entity line before the three count headers", line_no, head_col
            )

        kind = head[0]
        if kind == "s":
            i = _parse_id(head, "s", line_no, head_col)
            if i in students:
                raise ParseError(f"duplicate line for s{i}", line_no, head_col)
            if len(toks) < 2 or toks[1][0] != ":":
                raise ParseError("expected ':' after student id", line_no, head_col)
            students[i] = [
                _parse_id(t, "p", line_no, c) for t, c in toks[2:]
            ]
        elif kind == "p":
            j = _parse_id(head, "p", line_no, head_col)
            if j in projects:
                raise ParseError(f"duplicate line for p{j}", line_no, head_col)
            words = [t for t, _ in toks[1:]]
            if (
                len(toks) != 6
                or words[0] != ":"
                or words[1] != "capacity"
                or not _is_count(words[2])
                or words[3] != "lecturer"
            ):
                raise ParseError(
                    "expected 'p<j> : capacity <c> lecturer l<k>'",
                    line_no, head_col,
                )
            k = _parse_id(toks[5][0], "l", line_no, toks[5][1])
            projects[j] = (_to_int(words[2], line_no, toks[3][1]), k)
        elif kind == "l":
            k = _parse_id(head, "l", line_no, head_col)
            if k in lecturers:
                raise ParseError(f"duplicate line for l{k}", line_no, head_col)
            words = [t for t, _ in toks[1:]]
            if (
                len(toks) < 5
                or words[0] != ":"
                or words[1] != "capacity"
                or not _is_count(words[2])
                or words[3] != ":"
            ):
                raise ParseError(
                    "expected 'l<k> : capacity <d> : s<a> ...'",
                    line_no, head_col,
                )
            ranked = [_parse_id(t, "s", line_no, c) for t, c in toks[5:]]
            lecturers[k] = (_to_int(words[2], line_no, toks[3][1]), ranked)
        else:
            raise ParseError(f"unrecognised line {stripped!r}", line_no, head_col)

    if not counts and not (students or projects or lecturers):
        return RawInstance([], [], [], [], [])
    for keyword in _COUNT_KEYWORDS:
        if keyword not in counts:
            raise ParseError(f"missing '{keyword}' header")

    def gather(found: dict, n: int, prefix: str) -> None:
        for ident in sorted(found):
            if not 1 <= ident <= n:
                raise ParseError(
                    f"{prefix}{ident} is outside the declared range 1..{n}"
                )
        if len(found) < n:
            # every found id lies in 1..n, so one of 1..len(found)+1 is free
            missing = next(i for i in range(1, n + 1) if i not in found)
            raise ParseError(f"missing line for {prefix}{missing}")

    gather(students, counts["students"], "s")
    gather(projects, counts["projects"], "p")
    gather(lecturers, counts["lecturers"], "l")

    return RawInstance(
        student_prefs=[students[i] for i in range(1, counts["students"] + 1)],
        project_capacity=[projects[j][0] for j in range(1, counts["projects"] + 1)],
        project_owner=[projects[j][1] for j in range(1, counts["projects"] + 1)],
        lecturer_capacity=[lecturers[k][0] for k in range(1, counts["lecturers"] + 1)],
        lecturer_prefs=[lecturers[k][1] for k in range(1, counts["lecturers"] + 1)],
    )


def parse_instance_file(text: str) -> Instance | ValidationReport:
    """Parse then validate; syntax errors raise, semantic ones report."""
    return build_instance(parse_raw_instance(text))


def serialize_instance(instance: Instance) -> str:
    lines = [
        f"students {instance.num_students}",
        f"projects {instance.num_projects}",
        f"lecturers {instance.num_lecturers}",
    ]
    for s in instance.students():
        parts = [f"s{s}", ":"] + [f"p{p}" for p in instance.student_prefs[s - 1]]
        lines.append(" ".join(parts))
    for p in instance.projects():
        lines.append(
            f"p{p} : capacity {instance.project_capacity[p - 1]} "
            f"lecturer l{instance.project_owner[p - 1]}"
        )
    for k in instance.lecturers():
        parts = [f"l{k}", ":", "capacity", str(instance.lecturer_capacity[k - 1]), ":"]
        parts += [f"s{s}" for s in instance.lecturer_prefs[k - 1]]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_matching_file(text: str, instance: Instance) -> Matching:
    pairs: list[tuple[int, int]] = []
    seen: set[int] = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        toks = _tokens(raw_line)
        if len(toks) != 2:
            raise ParseError(
                "expected 's<i> p<j>' or 's<i> -'", line_no, toks[0][1]
            )
        s = _parse_id(toks[0][0], "s", line_no, toks[0][1])
        if not 1 <= s <= instance.num_students:
            raise ParseError(f"unknown student s{s}", line_no, toks[0][1])
        if s in seen:
            raise ParseError(f"duplicate line for s{s}", line_no, toks[0][1])
        seen.add(s)
        if toks[1][0] == "-":
            continue
        p = _parse_id(toks[1][0], "p", line_no, toks[1][1])
        if not 1 <= p <= instance.num_projects:
            raise ParseError(f"unknown project p{p}", line_no, toks[1][1])
        pairs.append((s, p))
    return Matching(tuple(pairs))


def serialize_matching(matching: Matching) -> str:
    if not matching.pairs:
        return ""
    return "\n".join(f"s{s} p{p}" for s, p in matching.pairs) + "\n"


def emit_dot(diagram: HasseDiagram) -> str:
    """Graphviz digraph of the Hasse diagram, one line per node and edge."""
    lines = ["digraph hasse {"]
    for i in range(len(diagram.nodes)):
        lines.append(f"  {diagram.label(i)};")
    for a, b in diagram.edges:
        lines.append(f"  {diagram.label(a)} -> {diagram.label(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
