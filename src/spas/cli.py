"""Command-line interface.

Exit codes: 0 success/true, 1 false (unstable, invalid, failed property),
2 usage, 3 enumeration size guard.

Only the instance model and the file formats are imported here; each
command imports the other layers it runs, so that start-up, which
dominates small runs, stays as short as the command allows.

The grammar is written once, in ``_COMMANDS``.  A well-formed command
line is read straight from that table (``_fast_args``); ``argparse``,
which with ``gettext`` and ``locale`` costs several milliseconds to import
and build, is loaded only for help and usage errors, so their text and
exit codes are argparse's own.

``run`` is the process entry, of the ``spas`` script and of ``python -m
spas``: it runs ``main`` with the cyclic collector off and freezes the heap
before the process exits, so the interpreter's last collection at shutdown
has nothing to walk.  No command leaves cyclic garbage, which the test
suite checks.  ``main`` and the library never touch the collector, so
in-process callers keep their own setting.
"""

from __future__ import annotations

import gc
import sys
from types import SimpleNamespace

from .fileio import (
    _read,
    _write,
    emit_dot,
    parse_instance_file,
    parse_matching_file,
    parse_raw_instance,
    serialize_instance,
    serialize_matching,
)
from .model import (
    Instance,
    Matching,
    ValidationReport,
    is_valid_matching,
    validate_raw,
)

TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_SIZE_GUARD = 3


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def _print_report(report: ValidationReport) -> None:
    for v in report.violations:
        print(f"ERROR {v.render()}")
    for w in report.warnings:
        print(f"WARNING {w.render()}")


def _load_instance(path: str) -> Instance:
    obj = parse_instance_file(_read(path))
    if isinstance(obj, ValidationReport):
        _print_report(obj)
        raise _Exit(EXIT_FALSE)
    return obj


def _load_stable_set(args: SimpleNamespace) -> tuple[Instance, tuple[Matching, ...]]:
    from .enumeration import SizeGuardError, enumerate_all

    instance = _load_instance(args.instance)
    try:
        return instance, enumerate_all(instance, force=args.force)
    except SizeGuardError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        raise _Exit(EXIT_SIZE_GUARD) from None


def _cmd_validate(args: SimpleNamespace) -> int:
    report = validate_raw(parse_raw_instance(_read(args.instance)))
    _print_report(report)
    print("VALID" if report.ok else "INVALID")
    return EXIT_OK if report.ok else EXIT_FALSE


def _cmd_check(args: SimpleNamespace) -> int:
    from .stability import find_blocking_pairs

    instance = _load_instance(args.instance)
    matching = parse_matching_file(_read(args.matching), instance)
    try:
        blocking = find_blocking_pairs(instance, matching)
    except ValueError:  # an invalid matching: its full report, in order
        _print_report(is_valid_matching(instance, matching))
        return EXIT_FALSE
    if not blocking:
        print("STABLE")
        return EXIT_OK
    # one write, as solve writes its matching: a print per pair costs twice
    # as much on a large unstable matching
    sys.stdout.write("".join(f"s{s} p{p} {s_cond} {p_cond}\n"
                             for s, p, s_cond, p_cond in blocking))
    return EXIT_FALSE


def _cmd_solve(args: SimpleNamespace) -> int:
    from .solvers import solve_lecturer_optimal, solve_student_optimal

    instance = _load_instance(args.instance)
    if args.optimal == "student":
        matching = solve_student_optimal(instance)
    else:
        matching = solve_lecturer_optimal(instance)
    sys.stdout.write(serialize_matching(matching))
    return EXIT_OK


def _cmd_enumerate(args: SimpleNamespace) -> int:
    _, stable = _load_stable_set(args)
    if args.count_only:
        print(len(stable))
        return EXIT_OK
    for i, m in enumerate(stable, start=1):
        print(f"# M{i}")
        sys.stdout.write(serialize_matching(m))
        if i < len(stable):
            print()
    return EXIT_OK


def _cmd_meet_join(args: SimpleNamespace) -> int:
    from .lattice import join, meet

    instance = _load_instance(args.instance)
    first = parse_matching_file(_read(args.m1), instance)
    second = parse_matching_file(_read(args.m2), instance)
    op = meet if args.command == "meet" else join
    sys.stdout.write(serialize_matching(op(instance, first, second)))
    return EXIT_OK


def _cmd_lattice(args: SimpleNamespace) -> int:
    from .lattice import build_hasse

    instance, stable = _load_stable_set(args)
    diagram = build_hasse(instance, stable)
    # the file first, so that a run that cannot write it prints nothing
    if args.dot is not None:
        _write(args.dot, emit_dot(diagram))
    for a, b in diagram.edges:
        print(f"{diagram.label(a)} -> {diagram.label(b)}")
    return EXIT_OK


def _cmd_verify(args: SimpleNamespace) -> int:
    from .verification import run_all_checks

    instance, stable = _load_stable_set(args)
    reports = run_all_checks(instance, stable, pairs_only=args.pairs)
    failed = False
    for r in reports:
        if r.passed:
            print(f"PASS {r.name}")
        else:
            failed = True
            print(f"FAIL {r.name}: {len(r.failures)} violation(s)")
            for f in r.failures[:5]:
                print(f"  {f}")
    return EXIT_FALSE if failed else EXIT_OK


def _cmd_gen(args: SimpleNamespace) -> int:
    from .generator import GenParams, generate

    params = GenParams(
        students=args.students,
        projects=args.projects,
        lecturers=args.lecturers,
        seed=args.seed,
        density=args.density,
    )
    text = serialize_instance(generate(params))
    if args.out is not None:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


_INSTANCE = ("instance", {})
_FORCE = ("--force", dict(action="store_true", help="ignore the size guard"))
_TWO_MATCHINGS = [_INSTANCE, ("m1", {}), ("m2", {})]
_REQUIRED_INT = dict(type=int, required=True)

# The grammar: each command's help, handler and arguments, an argument
# being its name and the keyword arguments of argparse's add_argument, in
# the order that usage and help list them.
_COMMANDS = {
    "validate": ("validate an instance file", _cmd_validate, [_INSTANCE]),
    "check": ("report stability of a matching", _cmd_check,
              [_INSTANCE, ("matching", {})]),
    "solve": ("student- or lecturer-optimal matching", _cmd_solve,
              [("--optimal", dict(required=True, choices=("student", "lecturer"))),
               _INSTANCE]),
    "enumerate": ("all stable matchings", _cmd_enumerate,
                  [("--count-only", dict(action="store_true")), _FORCE, _INSTANCE]),
    "meet": ("meet of two stable matchings", _cmd_meet_join, _TWO_MATCHINGS),
    "join": ("join of two stable matchings", _cmd_meet_join, _TWO_MATCHINGS),
    "lattice": ("Hasse diagram of the stable set", _cmd_lattice,
                [("--dot", dict(metavar="PATH", help="also write a DOT file")),
                 _FORCE, _INSTANCE]),
    "verify": ("run the structural property checks", _cmd_verify,
               [("--pairs", dict(action="store_true", help="pairwise checks only")),
                _FORCE, _INSTANCE]),
    "gen": ("generate a pseudo-random instance", _cmd_gen,
            [("--students", _REQUIRED_INT), ("--projects", _REQUIRED_INT),
             ("--lecturers", _REQUIRED_INT), ("--seed", _REQUIRED_INT),
             ("--density", dict(type=float, default=0.5)),
             ("--out", dict(metavar="PATH"))]),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="spas",
        description="Student-project allocation with lecturer preferences: "
                    "stability checking, optimal solvers, enumeration, and "
                    "the lattice of stable matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, fn, arguments) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kwargs in arguments:
            p.add_argument(name, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def _fast_args(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` read straight from ``_COMMANDS``,
    or None wherever argparse could differ: an unknown command, any token
    starting with "-" that is not one of the command's option names (so
    help, abbreviations, ``--opt=value``, ``--`` and negative numbers), a
    missing or refused option value, a required option not given, or the
    wrong number of positionals.  One pass over the tokens fills a table
    of option values seeded with their defaults (False for a flag)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, fn, arguments = _COMMANDS[argv[0]]
    options = {name: kwargs for name, kwargs in arguments if name[0] == "-"}
    values = {name: False if kwargs.get("action") == "store_true"
              else kwargs.get("default") for name, kwargs in options.items()}
    missing = {name for name, kwargs in options.items() if kwargs.get("required")}
    words = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            words.append(token)
            continue
        kwargs = options.get(token)
        if kwargs is None:
            return None
        missing.discard(token)
        if kwargs.get("action") == "store_true":
            values[token] = True
            continue
        value = next(tokens, "-")  # a missing value declines as "-" does
        if value[:1] == "-":
            return None
        try:
            value = kwargs.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[token] = value
    positionals = [name for name, _ in arguments if name[0] != "-"]
    if missing or len(words) != len(positionals):
        return None
    return SimpleNamespace(
        command=argv[0], fn=fn, **dict(zip(positionals, words)),
        **{name[2:].replace("-", "_"): value for name, value in values.items()})


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except _Exit as exc:
        return exc.code
    except (ValueError, OSError) as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return EXIT_FALSE


def run() -> None:
    """The process entry: ``main`` on ``sys.argv`` with the cyclic collector
    off, then ``gc.freeze()`` and ``SystemExit`` with ``main``'s code.  It
    leaves the collector off and exits, so it must not be called in-process;
    call ``main`` there."""
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)
