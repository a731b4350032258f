#!/usr/bin/env python3
"""Check that the test suite kills a table of mutants of the source.

Each mutant replaces one exact text in one file under ``src`` with another.
For each mutant the script copies ``src``, ``tests``, ``scripts`` and
``pyproject.toml`` to a temporary directory (the suite runs the scripts
and takes its pytest settings from ``pyproject.toml``), applies the mutant
there and runs pytest with ``-x`` on the given test paths, for at most
``TIMEOUT`` seconds.  Directories are expanded into their test files in
pytest's order, and the test file of the mutant's module
(``tests/test_<stem>.py`` for ``src/spas/<stem>.py``) runs first when it is
among them: it is the likeliest to kill the mutant, and ``-x`` stops at the
first failure.  The other files keep their order, and a mutant survives
only when every test passes.  It prints one JSON line per mutant, whose
``result`` is one of:

* ``killed``: a test failed or errored; ``killed_by`` names the first;
* ``survived``: every test passed;
* ``timed out``: the run took longer than ``TIMEOUT``;
* ``stale``: the old text is not in the file exactly once, so the table no
  longer matches the code;
* ``error``: pytest stopped with no failing test to name, say on a test
  path that does not exist.

It exits with 1 if any mutant survived, is stale or met an error, so the
table has to move with the code:

    python scripts/mutants.py                  # the whole table, all tests
    python scripts/mutants.py --table t.json tests/test_io.py

``--table`` reads a JSON list of entries with the keys of ``MUTANTS`` in
place of the built-in table.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "scripts", "pyproject.toml")
TIMEOUT = 300  # seconds per mutant; the whole suite takes under a minute

CLI = "src/spas/cli.py"
ENUMERATION = "src/spas/enumeration.py"
FILEIO = "src/spas/fileio.py"
LATTICE = "src/spas/lattice.py"
MODEL = "src/spas/model.py"
STABILITY = "src/spas/stability.py"
VERIFICATION = "src/spas/verification.py"

MUTANTS = (
    dict(name="student-da-local-load",
         file="src/spas/solvers.py",
         old="if q == p:  # p's load is the local one\n                lp -= 1",
         new="if q == p:  # p's load is the local one\n                pass",
         reason="SPA-student: a lecturer's rejected worst on the proposed "
                "project itself must lower p's local load"),
    dict(name="student-da-strict-lecturer-threshold",
         file="src/spas/solvers.py",
         old="r <= pthr[p] and r <= lworst[k]",
         new="r <= pthr[p] and r < lworst[k]",
         reason="SPA-student: until a lecturer first fills, their pointer "
                "rests on the last student of their list, who may still "
                "propose"),
    dict(name="student-da-walk-project-as-lecturer",
         file="src/spas/solvers.py",
         old="while owner[assigned[ranked[j]]] != k:",
         new="while assigned[ranked[j]] != k:",
         reason="SPA-student: a lecturer's walk compares the owner of each "
                "student's project, not the project, with the lecturer"),
    dict(name="student-da-owner-without-sentinel",
         file="src/spas/solvers.py",
         old="owner = (0,) + instance.project_owner  # owner[0] == 0: no project",
         new="owner = instance.project_owner",
         reason="SPA-student: the owner table is indexed by project id, "
                "with entry 0 for no project"),
    dict(name="student-da-capacity-unpadded",
         file="src/spas/solvers.py",
         old="cap = (0,) + instance.project_capacity\n"
             "    dcap = (0,) + instance.lecturer_capacity\n"
             "    prefs",
         new="cap = instance.project_capacity\n"
             "    dcap = (0,) + instance.lecturer_capacity\n"
             "    prefs",
         reason="SPA-student: every table its loops read is indexed by id, "
                "with a placeholder at index 0"),
    dict(name="student-da-pointers-double-entry",
         file="src/spas/solvers.py",
         old="pworst = [len(ranked) - 1 for ranked in projected]",
         new="pworst = [0] + [len(ranked) - 1 for ranked in projected]",
         reason="SPA-student: the project pointers come from the padded "
                "projected lists, which already hold entry 0"),
    dict(name="lecturer-da-cutoff-within-ranks",
         file="src/spas/solvers.py",
         old="cutoff = [len(cap)] * (n1 + 1)",
         new="cutoff = [len(cap) - 2] * (n1 + 1)",
         reason="SPA-lecturer: a free student's cutoff lies beyond every "
                "rank, so a student who ranks every project may take the "
                "last"),
    dict(name="lecturer-da-student-ranks-unpadded",
         file="src/spas/solvers.py",
         old="srank = (None,) + instance.srank",
         new="srank = instance.srank",
         reason="SPA-lecturer: every table its loops read is indexed by id, "
                "with a placeholder at index 0"),
    dict(name="blocking-p3-for-p2",
         file=STABILITY,
         old='"P2" if k == own else p_cond',
         new="p_cond",
         reason="a full lecturer's own student is labelled P2, not P3"),
    dict(name="blocking-threshold-inclusive",
         file=STABILITY,
         old="if ranks[s] < bound:",
         new="if ranks[s] <= bound:",
         reason="P3 and P4 need strict lecturer preference"),
    dict(name="blocking-own-lecturer-zero",
         file=STABILITY,
         old="own = owner[mine]",
         new="own = 0",
         reason="a student's own lecturer is the owner of their project"),
    dict(name="id-digits-without-isascii",
         file=FILEIO,
         old="d.isascii() and d.isdigit()",
         new="d.isdigit()",
         reason="str.isdigit alone accepts digits that are not ASCII"),
    dict(name="instance-id-range-off-by-one",
         file=FILEIO,
         old="if ident > counts[kind]:",
         new="if ident > counts[kind] + 1:",
         reason="a line's own id lies in 1..n for its declared count n"),
    dict(name="one-id-without-fallback",
         file=FILEIO,
         old="return n or _ids(",
         new="return n  # _ids(",
         reason="a matching file's token that is not an id is a placed "
                "ParseError, not the id 0"),
    dict(name="serialized-capacity-and-owner-swapped",
         file=FILEIO,
         old="for p, (capacity, owner) in enumerate(projects",
         new="for p, (owner, capacity) in enumerate(projects",
         reason="a project line gives its capacity, then its lecturer"),
    dict(name="level-self-reference",
         file=ENUMERATION,
         old="yield i + 1\n",
         new="yield level and i + 1\n",
         reason="a level that refers to level through its closure is a "
                "reference cycle, which leaves the search's whole state to "
                "the cyclic collector"),
    dict(name="search-project-fill-cut",
         file=ENUMERATION,
         old="not (dead or proom[choice] and lroom[k0])",
         new="not (dead or lroom[k0])",
         reason="the cut when a choice fills its project only prunes; the "
                "pinned search work shows it"),
    dict(name="search-room-not-restored",
         file=ENUMERATION,
         old="                proom[choice] += 1\n",
         new="",
         reason="undoing a choice gives its project's room back"),
    dict(name="search-span-ends-at-ms",
         file=ENUMERATION,
         old="srank[s - 1][q] + 1",
         new="srank[s - 1][p] + 1",
         reason="each student's span runs down to M_l(s)"),
    dict(name="search-capacity-fix-up-skipped",
         file=ENUMERATION,
         old="            proom[p] = c\n",
         new="            pass\n",
         reason="projects of a lecturer M_s fills are bounded by c_p, not "
                "by M_s's load"),
    dict(name="run-without-freeze",
         file=CLI,
         old="    gc.freeze()\n",
         new="",
         reason="the process entry freezes the heap before it exits, so the "
                "shutdown collection has nothing to walk"),
    dict(name="fast-args-required-ignored",
         file=CLI,
         old="if missing or len(words)",
         new="if len(words)",
         reason="a command line without a required option is argparse's "
                "usage error"),
    dict(name="empty-dot-path-absent",
         file=CLI,
         old="if args.dot is not None:",
         new="if args.dot:",
         reason="an empty --dot path cannot be written, so the run fails "
                "and prints nothing"),
    dict(name="empty-out-path-absent",
         file=CLI,
         old="if args.out is not None:",
         new="if args.out:",
         reason="an empty --out path cannot be written, so the run fails "
                "and prints nothing"),
    dict(name="meet-join-swapped",
         file=LATTICE,
         old="(rank[a[1]] < rank[b[1]]) != better",
         new="(rank[a[1]] < rank[b[1]]) == better",
         reason="meet takes each student's better project, join the worse"),
    dict(name="reader-tally-with-violations",
         file=MODEL,
         old="return ValidationReport(tuple(violations)), None",
         new="return ValidationReport(tuple(violations)), "
             "(assigned, pload, lload, pworst, lworst)",
         reason="an invalid matching has no tally, so require_valid_matching "
                "raises"),
    dict(name="reader-lworst-dropped",
         file=MODEL,
         old="                if r > lworst[k]:\n"
             "                    lworst[k] = r\n",
         new="",
         reason="the tally keeps each lecturer's worst assignee rank"),
    dict(name="lines-keep-byte-order-mark",
         file=FILEIO,
         old='text = text.removeprefix("\\ufeff")',
         new="text = text",
         reason="both parsers and the placement of a byte that is not UTF-8 "
                "drop one byte-order mark at the start of the text"),
    dict(name="lines-lone-cr-not-an-end",
         file=FILEIO,
         old='text.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
         new='text.replace("\\r\\n", "\\n")',
         reason="a lone carriage return ends a line, as in text-mode open"),
    dict(name="hasse-repeated-member-accepted",
         file=LATTICE,
         old="if (j := first.setdefault(m.pairs, i)) != i:",
         new="if False:",
         reason="two equal nodes would dominate each other, a 2-cycle in "
                "the diagram"),
    dict(name="hasse-no-reduction",
         file=LATTICE,
         old="covered &= ~dom[x]",
         new="pass",
         reason="a cover edge skips no node in between"),
    dict(name="member-labels-from-zero",
         file=VERIFICATION,
         old='return f"(M{i + 1}, M{j + 1}) "',
         new='return f"(M{i}, M{j}) "',
         reason="reports name members from 1, as spas enumerate does"),
    dict(name="failure-index-not-converted",
         file=VERIFICATION,
         old="i = index(key)",
         new="i = key",
         reason="lazy failures refuse an index that is not an integer with "
                "TypeError, as the tuple they equal does"),
    dict(name="pair-lemmas-weakly-better",
         file=VERIFICATION,
         old="if q is None or q == p:",
         new="if q is None:",
         reason="the pairwise lemmas quantify over strictly better-off "
                "students, and a student on one project in both matchings "
                "is better off on neither side"),
    dict(name="pair-sides-swapped",
         file=VERIFICATION,
         old="table[i][j], table[j][i] = _pair_failures(",
         new="table[j][i], table[i][j] = _pair_failures(",
         reason="the walk over a pair of restrictions returns the (a, b) "
                "side first, and it fills the (a, b) cell"),
    dict(name="lecturer-dominance-transposed",
         file=VERIFICATION,
         old="to_x, to_y = _lecturer_prefers(",
         new="to_y, to_x = _lecturer_prefers(",
         reason="lecturer dominance of (y, x) reads whether each lecturer "
                "prefers y's assignees"),
    dict(name="unpopular-full-lecturer-covered",
         file=VERIFICATION,
         old="if min(load) >= instance.lecturer_capacity[k - 1]:",
         new="if min(load) > instance.lecturer_capacity[k - 1]:",
         reason="part (iii) covers only undersubscribed lecturers"),
    dict(name="components-never-joined",
         file=VERIFICATION,
         old="root[find(k)] = find(held[s])",
         new="pass",
         reason="a student holding projects of two lecturers joins their "
                "components"),
    dict(name="restriction-meet-one-order",
         file=VERIFICATION,
         old="meet[i][j] = meet[j][i] = ",
         new="meet[i][j] = ",
         reason="the meet of a pair of restrictions fills the cells of "
                "both orders"),
    dict(name="product-bounds-counted-once",
         file=VERIFICATION,
         old="2 * (closed - same)",
         new="(closed - same)",
         reason="a pair assigning different students fails both bounds"),
    dict(name="pair-count-weights-squared",
         file=VERIFICATION,
         old="w[c] * w[d]",
         new="w[c] * w[c]",
         reason="a pair of restrictions (c, d) fails once per pair of "
                "members having them"),
    dict(name="pair-entries-merged-reversed",
         file=VERIFICATION,
         old="key=itemgetter(0))",
         new="key=itemgetter(0), reverse=True)",
         reason="the components' failures of one pair merge in the order "
                "of one walk over the whole pair"),
)

_FIRST_FAILURE = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def apply(tree: Path, mutant: dict) -> bool:
    """Apply ``mutant`` under ``tree``; False if its old text is not in
    its file exactly once."""
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8") if path.is_file() else ""
    if text.count(mutant["old"]) != 1:
        return False
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
    return True


def run_tests(tree: Path, tests: list[str]) -> dict:
    """Run pytest with ``-x`` in ``tree`` on its own ``src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    # plain asserts: rewriting recompiles every test module and pytest
    # plugin in each fresh tree, about half of a mutant's start-up, and
    # changes only the message of an assert that fails
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "--assert=plain",
           "-p", "no:cacheprovider", *tests]
    # a session of its own, so a timeout also ends what the tests started
    proc = subprocess.Popen(cmd, cwd=tree, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"result": "timed out"}
    if proc.returncode == 0:
        return {"result": "survived"}
    first = _FIRST_FAILURE.search(out)
    if proc.returncode in (1, 2) and first:
        return {"result": "killed", "killed_by": first.group(1)}
    return {"result": "error", "pytest_exit": proc.returncode,
            "output": out[-2000:]}


def ordered(tests: list[str], file: str) -> list[str]:
    """``tests`` with each directory expanded into its test files, repeats
    dropped, and the test file of ``file``'s module first if it is there."""
    paths: list[str] = []
    for test in tests:
        if (ROOT / test).is_dir():
            paths += [p.relative_to(ROOT).as_posix()
                      for p in sorted((ROOT / test).rglob("test_*.py"))]
        else:
            paths.append(test)
    own = f"tests/test_{Path(file).stem}.py"
    if own in paths:
        paths.insert(0, own)
    return list(dict.fromkeys(paths))


def check(mutant: dict, tests: list[str]) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, tree / name)
        if not apply(tree, mutant):
            return {"result": "stale"}
        return run_tests(tree, ordered(tests, mutant["file"]))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("tests", nargs="*", default=["tests"],
                        help="test paths, relative to the repository root "
                             "(default: tests)")
    parser.add_argument("--table", type=Path,
                        help="JSON list of mutants to use instead of the table")
    args = parser.parse_args()
    table = (json.loads(args.table.read_text(encoding="utf-8"))
             if args.table else MUTANTS)
    failed = False
    for mutant in table:
        start = time.perf_counter()
        outcome = check(mutant, args.tests)
        failed |= outcome["result"] not in ("killed", "timed out")
        print(json.dumps({"name": mutant["name"], "file": mutant["file"],
                          **outcome,
                          "seconds": round(time.perf_counter() - start, 1)}),
              flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
