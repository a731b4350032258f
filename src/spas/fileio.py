"""Line-oriented instance and matching file formats, plus DOT emission.

Files are read and written as UTF-8 (``_read`` and ``_write``); a byte
that is not UTF-8 is a ``ParseError`` placed at its line and column.
One rule, ``_lines``, says where a line ends, for both parsers and for
that placement: at a line feed, a carriage return or the pair of them,
as in Python's text-mode ``open``, and nowhere else.

Instance grammar (``#``-prefixed comment lines and blank lines ignored):

    students <n1>
    projects <n2>
    lecturers <n3>
    s<i> : p<a> p<b> ...                 one line per student, best first
    p<j> : capacity <c> lecturer l<k>    one line per project
    l<k> : capacity <d> : s<a> s<b> ...  one line per lecturer, best first

Lines are split into tokens on Unicode whitespace (``str.split``), so a
form feed, U+0085 or U+2028 separates two tokens; unlike in
``str.splitlines``, it does not end the line.  Ids are the letter then
ASCII digits without a leading zero, a grammar written once, in the
token test ``_id_digits``; counts and capacities are ASCII digits and may be
zero-padded.  A ``ParseError`` gives the line and the 1-based character
column of the token, found only when the error is raised.  Each line is
judged where it is read, its own id against its declared count too, so
the first error in file order is the one raised; only a missing header
and a missing entity line have no place.  Both parsers ignore one
byte-order mark (U+FEFF) at the very start of the text, as some Windows
editors write it; columns on line 1 count from after it, and a mark
anywhere else is an error.

Matching grammar: one ``s<i> p<j>`` or ``s<i> -`` per line; unassigned
students may be omitted.  Serialisers emit canonical ascending order, so
parse-serialize round trips are byte identity on canonical files.
"""

from __future__ import annotations

import re

from .model import (
    Instance,
    Matching,
    RawInstance,
    ValidationReport,
    build_instance,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .lattice import HasseDiagram

_TOKEN = re.compile(r"\S+")
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


def _lines(text: str) -> list[str]:
    """The lines of ``text``, less one byte-order mark at its start, each
    ended by "\\n", "\\r\\n" or "\\r" (a regex split is seven times slower)."""
    text = text.removeprefix("\ufeff")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def _read(path: str) -> str:
    """The text of the file at ``path``.  A byte that is not UTF-8 is a
    ``ParseError`` naming the file, and the line and column it is at."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines up to a stand-in for the byte
        lines = _lines(data[:exc.start].decode("utf-8") + "?")
        raise ParseError(f"byte 0x{data[exc.start]:02x} in {path} is not UTF-8",
                         len(lines), len(lines[-1])) from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _error(message: str, line: int, raw_line: str, index: int) -> ParseError:
    """The error at the ``index``-th token of ``raw_line``, whose column is
    looked up only here: parsing itself never tracks columns."""
    column = [m.start() for m in _TOKEN.finditer(raw_line)][index] + 1
    return ParseError(message, line, column)


def _id_digits(kind: str, token: str) -> str:
    """The n of ``token`` if it is ``<kind><n>``, n ASCII digits without a
    leading zero (``str.isdigit`` alone also accepts ``٣`` and ``²``), else
    the empty string."""
    d = token[1:]
    if token[0] == kind and d.isascii() and d.isdigit() and d[0] != "0":
        return d
    return ""


def _ids(kind: str, words: list[str], start: int, stop: int,
         raw_line: str, line: int, known: dict[str, dict[str, int]]) -> list[int]:
    """``words[start:stop]`` as ``<kind><n>`` ids, n ASCII digits without a
    leading zero.  ``known[kind]`` holds the tokens already decoded: lists
    repeat ids, and a lookup is cheaper than the tests.  ``int`` refuses more
    than ``sys.get_int_max_str_digits()`` digits with a bare ``ValueError``,
    reported here with its place."""
    memo = known[kind]
    out: list[int] = []
    try:
        for w in words[start:stop]:
            n = memo.get(w)
            if n is None:
                d = _id_digits(kind, w)
                if not d:
                    message = f"expected {kind}<number> identifier, got {w!r}"
                    break
                n = memo[w] = int(d)
            out.append(n)
        else:
            return out
    except ValueError:
        message = f"number of {len(d)} digits is too long"
    # an equal token earlier in the line would have failed first
    raise _error(message, line, raw_line, words.index(w, start))


def _one_id(kind: str, words: list[str], index: int, raw_line: str, line: int) -> int:
    """``words[index]`` as a ``<kind><n>`` id, decoded by the token test
    alone.  ``_ids`` runs only on a token that fails that test or whose
    digits ``int`` refuses, and so raises that token's placed
    ``ParseError``."""
    try:
        n = int(_id_digits(kind, words[index]) or 0)  # 0: not an id
    except ValueError:  # more digits than int accepts
        n = 0
    return n or _ids(kind, words, index, index + 1, raw_line, line, {kind: {}})[0]


def _is_count(token: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts ``²`` and the like,
    which ``int`` then rejects."""
    return token.isascii() and token.isdigit()


def _count(words: list[str], index: int, raw_line: str, line: int) -> int:
    try:
        return int(words[index])
    except ValueError:
        raise _error(f"number of {len(words[index])} digits is too long",
                     line, raw_line, index) from None


def parse_raw_instance(text: str) -> RawInstance:
    """Syntax-only parse; semantic rules are the validator's business.

    A file with no content (only blanks and comments) is the empty
    instance.
    """
    counts: dict[str, int] = {}  # by kind: each keyword's first letter
    students: dict[int, list[int]] = {}
    projects: dict[int, tuple[int, int]] = {}
    lecturers: dict[int, tuple[int, list[int]]] = {}
    by_kind = {"s": students, "p": projects, "l": lecturers}
    known: dict[str, dict[str, int]] = {"s": {}, "p": {}, "l": {}}

    for line_no, raw_line in enumerate(_lines(text), start=1):
        words = raw_line.split()
        if not words or words[0][0] == "#":
            continue
        head = words[0]

        if head in _COUNT_KEYWORDS:
            if head[0] in counts:
                raise _error(f"duplicate '{head}' header", line_no, raw_line, 0)
            if len(words) != 2 or not _is_count(words[1]):
                raise _error(f"expected '{head} <count>'", line_no, raw_line, 0)
            counts[head[0]] = _count(words, 1, raw_line, line_no)
            continue

        if len(counts) < 3:
            raise _error("entity line before the three count headers",
                         line_no, raw_line, 0)

        kind = head[0]
        if kind not in by_kind:
            raise _error(f"unrecognised line {raw_line.strip()!r}",
                         line_no, raw_line, 0)
        (ident,) = _ids(kind, words, 0, 1, raw_line, line_no, known)
        if ident > counts[kind]:
            raise _error(f"{kind}{ident} is outside the declared range "
                         f"1..{counts[kind]}", line_no, raw_line, 0)
        if ident in by_kind[kind]:
            raise _error(f"duplicate line for {kind}{ident}", line_no, raw_line, 0)
        if kind == "s":
            if len(words) < 2 or words[1] != ":":
                raise _error("expected ':' after student id", line_no, raw_line, 0)
            students[ident] = _ids("p", words, 2, len(words), raw_line, line_no,
                                   known)
        elif kind == "p":
            if (len(words) != 6 or words[1:3] != [":", "capacity"]
                    or not _is_count(words[3]) or words[4] != "lecturer"):
                raise _error("expected 'p<j> : capacity <c> lecturer l<k>'",
                             line_no, raw_line, 0)
            (k,) = _ids("l", words, 5, 6, raw_line, line_no, known)
            projects[ident] = (_count(words, 3, raw_line, line_no), k)
        else:
            if (len(words) < 5 or words[1:3] != [":", "capacity"]
                    or not _is_count(words[3]) or words[4] != ":"):
                raise _error("expected 'l<k> : capacity <d> : s<a> ...'",
                             line_no, raw_line, 0)
            ranked = _ids("s", words, 5, len(words), raw_line, line_no, known)
            lecturers[ident] = (_count(words, 3, raw_line, line_no), ranked)

    if not counts:  # an entity line before the headers has raised
        return RawInstance([], [], [], [], [])
    for keyword in _COUNT_KEYWORDS:
        if keyword[0] not in counts:
            raise ParseError(f"missing '{keyword}' header")
    for kind, found in by_kind.items():
        if len(found) < counts[kind]:
            # every found id is in range, so one of 1..len(found)+1 is free
            missing = next(i for i in range(1, counts[kind] + 1) if i not in found)
            raise ParseError(f"missing line for {kind}{missing}")

    return RawInstance(
        student_prefs=[students[i] for i in range(1, counts["s"] + 1)],
        project_capacity=[projects[j][0] for j in range(1, counts["p"] + 1)],
        project_owner=[projects[j][1] for j in range(1, counts["p"] + 1)],
        lecturer_capacity=[lecturers[k][0] for k in range(1, counts["l"] + 1)],
        lecturer_prefs=[lecturers[k][1] for k in range(1, counts["l"] + 1)],
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
    for s, prefs in enumerate(instance.student_prefs, start=1):
        lines.append(" ".join([f"s{s} :"] + [f"p{p}" for p in prefs]))
    projects = zip(instance.project_capacity, instance.project_owner)
    for p, (capacity, owner) in enumerate(projects, start=1):
        lines.append(f"p{p} : capacity {capacity} lecturer l{owner}")
    lecturers = zip(instance.lecturer_capacity, instance.lecturer_prefs)
    for k, (capacity, ranked) in enumerate(lecturers, start=1):
        lines.append(" ".join([f"l{k} : capacity {capacity} :"]
                              + [f"s{s}" for s in ranked]))
    return "\n".join(lines) + "\n"


def parse_matching_file(text: str, instance: Instance) -> Matching:
    """The matching a file lists, each line's two ids decoded by
    ``_one_id``.  A malformed line, an id outside the instance and a
    second line for one student raise a ``ParseError`` placed at the
    token."""
    n1, n2 = instance.num_students, instance.num_projects
    pairs: list[tuple[int, int]] = []
    seen = [False] * (n1 + 1)
    for line_no, raw_line in enumerate(_lines(text), start=1):
        words = raw_line.split()
        if not words or words[0][0] == "#":
            continue
        if len(words) != 2:
            raise _error("expected 's<i> p<j>' or 's<i> -'", line_no, raw_line, 0)
        s = _one_id("s", words, 0, raw_line, line_no)
        if not 1 <= s <= n1:
            raise _error(f"unknown student s{s}", line_no, raw_line, 0)
        if seen[s]:
            raise _error(f"duplicate line for s{s}", line_no, raw_line, 0)
        seen[s] = True
        if words[1] == "-":
            continue
        p = _one_id("p", words, 1, raw_line, line_no)
        if not 1 <= p <= n2:
            raise _error(f"unknown project p{p}", line_no, raw_line, 1)
        pairs.append((s, p))
    # positive int ids, one line per student: canonical once sorted
    return Matching._canonical(tuple(sorted(pairs)))


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
