"""Command-line interface.

Exit codes: 0 success/true, 1 false (unstable, invalid, failed property),
2 usage, 3 enumeration size guard.

Only the instance model and the file formats are imported here; each
command imports the other layers it runs, so that start-up, which
dominates small runs, stays as short as the command allows.
"""

from __future__ import annotations

import argparse
import sys

from .fileio import (
    ParseError,
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


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _write(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _load_instance(path: str) -> Instance:
    obj = parse_instance_file(_read(path))
    if isinstance(obj, ValidationReport):
        _print_report(obj)
        raise _Exit(EXIT_FALSE)
    return obj


def _load_matching(path: str, instance: Instance) -> Matching:
    return parse_matching_file(_read(path), instance)


def _load_stable_set(args: argparse.Namespace) -> tuple[Instance, tuple[Matching, ...]]:
    from .enumeration import SizeGuardError, enumerate_all

    instance = _load_instance(args.instance)
    try:
        return instance, enumerate_all(instance, force=args.force)
    except SizeGuardError as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        raise _Exit(EXIT_SIZE_GUARD) from None


def _cmd_validate(args: argparse.Namespace) -> int:
    report = validate_raw(parse_raw_instance(_read(args.instance)))
    _print_report(report)
    print("VALID" if report.ok else "INVALID")
    return EXIT_OK if report.ok else EXIT_FALSE


def _cmd_check(args: argparse.Namespace) -> int:
    from .stability import find_blocking_pairs

    instance = _load_instance(args.instance)
    matching = _load_matching(args.matching, instance)
    report = is_valid_matching(instance, matching)
    if not report.ok:
        _print_report(report)
        return EXIT_FALSE
    blocking = find_blocking_pairs(instance, matching)
    if not blocking:
        print("STABLE")
        return EXIT_OK
    for bp in blocking:
        print(f"s{bp.student} p{bp.project} "
              f"{bp.student_condition} {bp.project_condition}")
    return EXIT_FALSE


def _cmd_solve(args: argparse.Namespace) -> int:
    from .solvers import solve_lecturer_optimal, solve_student_optimal

    instance = _load_instance(args.instance)
    if args.optimal == "student":
        matching = solve_student_optimal(instance)
    else:
        matching = solve_lecturer_optimal(instance)
    sys.stdout.write(serialize_matching(matching))
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
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


def _cmd_meet_join(args: argparse.Namespace) -> int:
    from .lattice import join, meet

    instance = _load_instance(args.instance)
    first = _load_matching(args.m1, instance)
    second = _load_matching(args.m2, instance)
    op = meet if args.command == "meet" else join
    sys.stdout.write(serialize_matching(op(instance, first, second)))
    return EXIT_OK


def _cmd_lattice(args: argparse.Namespace) -> int:
    from .lattice import build_hasse

    instance, stable = _load_stable_set(args)
    diagram = build_hasse(instance, stable)
    for a, b in diagram.edges:
        print(f"{diagram.label(a)} -> {diagram.label(b)}")
    if args.dot:
        _write(args.dot, emit_dot(diagram))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
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


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generator import GenParams, generate

    params = GenParams(
        students=args.students,
        projects=args.projects,
        lecturers=args.lecturers,
        seed=args.seed,
        density=args.density,
    )
    text = serialize_instance(generate(params))
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spas",
        description="Student-project allocation with lecturer preferences: "
                    "stability checking, optimal solvers, enumeration, and "
                    "the lattice of stable matchings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("check", help="report stability of a matching")
    p.add_argument("instance")
    p.add_argument("matching")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("solve", help="student- or lecturer-optimal matching")
    p.add_argument("--optimal", required=True, choices=("student", "lecturer"))
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("enumerate", help="all stable matchings")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--force", action="store_true",
                   help="ignore the size guard")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_enumerate)

    for name in ("meet", "join"):
        p = sub.add_parser(name, help=f"{name} of two stable matchings")
        p.add_argument("instance")
        p.add_argument("m1")
        p.add_argument("m2")
        p.set_defaults(fn=_cmd_meet_join)

    p = sub.add_parser("lattice", help="Hasse diagram of the stable set")
    p.add_argument("--dot", metavar="PATH", help="also write a DOT file")
    p.add_argument("--force", action="store_true",
                   help="ignore the size guard")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_lattice)

    p = sub.add_parser("verify", help="run the structural property checks")
    p.add_argument("--pairs", action="store_true",
                   help="pairwise checks only")
    p.add_argument("--force", action="store_true",
                   help="ignore the size guard")
    p.add_argument("instance")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("gen", help="generate a pseudo-random instance")
    p.add_argument("--students", type=int, required=True)
    p.add_argument("--projects", type=int, required=True)
    p.add_argument("--lecturers", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except _Exit as exc:
        return exc.code
    except (ParseError, ValueError, OSError) as exc:
        print(f"ERROR {exc}", file=sys.stderr)
        return EXIT_FALSE


def run() -> None:
    raise SystemExit(main())
