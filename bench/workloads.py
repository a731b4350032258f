"""The four benchmark workloads.

Each workload makes its inputs from the seed in :meth:`setup`, runs one
operation per input in :meth:`run_op` (the only code that is timed) and
checks that operation's output in :meth:`check`.  Every call into a spas
layer sits inside a span named ``<module>.<what>``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import combinations
from math import prod
from pathlib import Path
from statistics import median
from time import perf_counter

import spas
from spas import (
    EMPTY_MATCHING,
    GenParams,
    Instance,
    RawInstance,
    build_hasse,
    build_instance,
    enumerate_all,
    find_blocking_pairs,
    generate,
    join,
    join_all,
    meet,
    meet_all,
    parse_matching_file,
    parse_raw_instance,
    run_all_checks,
    serialize_instance,
    serialize_matching,
    solve_lecturer_optimal,
    solve_student_optimal,
    validate_raw,
)

# Deferred acceptance through the public API, for as long as the API still
# offers a choice of method; once it does not, the default is DA.
DA = {"method": spas.SolveMethod("da")} if hasattr(spas, "SolveMethod") else {}

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


@dataclass
class Item:
    """One input of a workload: what ``run_op`` gets and ``check`` expects."""

    label: str
    inputs: dict
    expected: dict = field(default_factory=dict)
    entries: int = 0  # total length of the students' preference lists


def _entries(raw: RawInstance | Instance) -> int:
    return sum(len(prefs) for prefs in raw.student_prefs)


def _raw(instance: Instance) -> RawInstance:
    return RawInstance(
        student_prefs=[list(x) for x in instance.student_prefs],
        project_capacity=list(instance.project_capacity),
        project_owner=list(instance.project_owner),
        lecturer_capacity=list(instance.lecturer_capacity),
        lecturer_prefs=[list(x) for x in instance.lecturer_prefs],
    )


def relabel(raw: RawInstance, rng: random.Random) -> RawInstance:
    """Renumber projects and lecturers; students keep their numbers.

    The result is isomorphic to ``raw`` and, because enumeration branches
    over students in index order and over each list in preference order,
    costs the enumeration search the same work.
    """
    pnew = list(range(1, len(raw.project_capacity) + 1))
    lnew = list(range(1, len(raw.lecturer_capacity) + 1))
    rng.shuffle(pnew)
    rng.shuffle(lnew)
    pcap = [0] * len(pnew)
    powner = [0] * len(pnew)
    for p, q in enumerate(pnew):
        pcap[q - 1] = raw.project_capacity[p]
        powner[q - 1] = lnew[raw.project_owner[p] - 1]
    lcap = [0] * len(lnew)
    lprefs: list[list[int]] = [[] for _ in lnew]
    for k, j in enumerate(lnew):
        lcap[j - 1] = raw.lecturer_capacity[k]
        lprefs[j - 1] = list(raw.lecturer_prefs[k])
    return RawInstance(
        student_prefs=[[pnew[p - 1] for p in prefs] for prefs in raw.student_prefs],
        project_capacity=pcap,
        project_owner=powner,
        lecturer_capacity=lcap,
        lecturer_prefs=lprefs,
    )


def disjoint_union(parts: list[RawInstance]) -> RawInstance:
    """Side-by-side copies of independent markets, renumbered consecutively."""
    out = RawInstance()
    for raw in parts:
        s0, p0, l0 = (len(out.student_prefs), len(out.project_capacity),
                      len(out.lecturer_capacity))
        out.student_prefs += [[p + p0 for p in x] for x in raw.student_prefs]
        out.project_capacity += raw.project_capacity
        out.project_owner += [k + l0 for k in raw.project_owner]
        out.lecturer_capacity += raw.lecturer_capacity
        out.lecturer_prefs += [[s + s0 for s in x] for x in raw.lecturer_prefs]
    return out


def _build(raw: RawInstance) -> Instance:
    built = build_instance(raw)
    if not isinstance(built, Instance):
        raise RuntimeError(f"benchmark input is invalid: {built.violations[0].render()}")
    return built


def _warm_ranks(instance: Instance) -> None:
    """First public rank queries, which build the cached rank tables."""
    s = next(s for s in instance.students() if instance.student_prefs[s - 1])
    instance.student_rank(s, instance.student_prefs[s - 1][0])
    k = next(k for k in instance.lecturers() if instance.lecturer_prefs[k - 1])
    instance.lecturer_rank(k, instance.lecturer_prefs[k - 1][0])


class Workload:
    name = ""
    why = ""
    setup_repeats = 1  # set-ups timed each time set-up runs
    min_ops = 0  # a run times at least this many ops, whatever --seconds says
    scaling = False  # items form a size ladder: fit time against list entries
    rss_of_children = False  # peak RSS is the children's, not this process's

    def params(self) -> dict:
        return {}

    def setup(self, seed: int, tr) -> list[Item]:
        raise NotImplementedError

    def run_op(self, item: Item, tr) -> dict:
        raise NotImplementedError

    def check(self, item: Item, out: dict) -> str | None:
        """None when the output is correct, else what is wrong with it."""
        raise NotImplementedError

    def probe(self) -> dict[str, float]:
        """Layer figures measured apart from the ops, in the traced run only."""
        return {}


class SolveLadder(Workload):
    name = "solve_ladder"
    why = ("The administrator's allocate-my-department path: parse, build, "
           "both DAs, stability checks and matching I/O over a size ladder, "
           "with no enumeration.")
    scaling = True

    def __init__(self, sizes: tuple[int, ...] = (250, 500, 1000, 2000)) -> None:
        self.sizes = sizes

    def gen_params(self, n: int, seed: int) -> GenParams:
        projects = max(2, n // 4)
        return GenParams(
            students=n, projects=projects, lecturers=max(1, n // 20),
            pref_len=(3, 6), project_cap=(1, 4), seed=seed * 10_007 + n,
            density=min(1.0, 4.5 / projects),
        )

    def params(self) -> dict:
        p = self.gen_params(self.sizes[0], 0)
        return {"sizes": list(self.sizes), "projects": "students/4",
                "lecturers": "students/20", "pref_len": list(p.pref_len),
                "project_cap": list(p.project_cap),
                "density": "4.5/projects", "generator_seed": "seed*10007+students"}

    def setup(self, seed: int, tr) -> list[Item]:
        items = []
        for n in self.sizes:
            with tr.span("generator.generate"):
                instance = generate(self.gen_params(n, seed))
            with tr.span("fileio.serialize_instance"):
                text = serialize_instance(instance)
            items.append(Item(f"n={n}", {"text": text},
                              entries=_entries(instance)))
        return items

    def run_op(self, item: Item, tr) -> dict:
        with tr.span("fileio.parse_instance"):
            raw = parse_raw_instance(item.inputs["text"])
        with tr.span("model.build"):
            instance = build_instance(raw)
        with tr.span("model.rank_tables"):
            _warm_ranks(instance)
        with tr.span("solvers.student_da"):
            ms = solve_student_optimal(instance, **DA)
        with tr.span("solvers.lecturer_da"):
            ml = solve_lecturer_optimal(instance, **DA)
        with tr.span("stability.check_stable"):
            blocking = (find_blocking_pairs(instance, ms)
                        + find_blocking_pairs(instance, ml))
        with tr.span("stability.check_empty"):
            empty = find_blocking_pairs(instance, EMPTY_MATCHING)
        with tr.span("fileio.matching_roundtrip"):
            back = tuple(parse_matching_file(serialize_matching(m), instance)
                         for m in (ms, ml))
        tr.count("stability.blocking_pairs", len(blocking) + len(empty))
        return {"matchings": (ms, ml), "blocking": blocking, "empty": empty,
                "back": back}

    def check(self, item: Item, out: dict) -> str | None:
        if out["blocking"]:
            return f"{len(out['blocking'])} blocking pairs in a DA result"
        if len(out["empty"]) != item.entries:
            return (f"empty matching has {len(out['empty'])} blocking pairs, "
                    f"expected one per list entry ({item.entries})")
        if out["back"] != out["matchings"]:
            return "matching serialise/parse round trip is not identity"
        return None


def _enum_bench_instances(sizes: range, per_size: int) -> list[tuple[str, Instance]]:
    """The enumeration-bench shape: generator seeds n*1000 + b, b < per_size."""
    out = []
    for n in sizes:
        rng = random.Random(n)
        projects = max(2, n // 2)
        for b in range(per_size):
            params = GenParams(
                students=n, projects=projects,
                lecturers=rng.randint(1, max(1, projects // 2)),
                pref_len=(1, min(5, projects)), project_cap=(1, 2),
                seed=n * 1000 + b, density=0.4,
            )
            out.append((f"n={n},b={b}", generate(params)))
    return out


class EnumSparse(Workload):
    name = "enum_sparse"
    why = ("Enumeration-bench shape where the stable set has one or two "
           "members but the search explores a great deal; enumeration is "
           "nearly all the work, which solve_ladder never calls.")
    setup_repeats = 5

    def __init__(self, sizes: range = range(14, 18), per_size: int = 2) -> None:
        self.sizes = sizes
        self.per_size = per_size

    def params(self) -> dict:
        return {"students": [self.sizes.start, self.sizes.stop - 1],
                "per_size": self.per_size, "density": 0.4, "project_cap": [1, 2],
                "pref_len": "1..min(5, projects)", "projects": "students/2",
                "generator_seed": "students*1000 + b, b < per_size",
                "seed_use": "renumbers projects and lecturers"}

    def setup(self, seed: int, tr) -> list[Item]:
        rng = random.Random(seed)
        with tr.span("generator.generate"):
            generated = _enum_bench_instances(self.sizes, self.per_size)
        items = []
        for label, instance in generated:
            with tr.span("model.build"):
                built = _build(relabel(_raw(instance), rng))
                _warm_ranks(built)
            items.append(Item(label, {"instance": built}, entries=_entries(built)))
        rng.shuffle(items)
        return items

    def run_op(self, item: Item, tr) -> dict:
        instance = item.inputs["instance"]
        with tr.span("enumeration.enumerate"):
            stable = enumerate_all(instance, force=True)
        with tr.span("solvers.student_da"):
            ms = solve_student_optimal(instance, **DA)
        with tr.span("solvers.lecturer_da"):
            ml = solve_lecturer_optimal(instance, **DA)
        tr.count("enumeration.stable_found", len(stable))
        return {"stable": stable, "ms": ms, "ml": ml}

    def check(self, item: Item, out: dict) -> str | None:
        instance, stable = item.inputs["instance"], out["stable"]
        if not len(stable):
            return "no stable matching enumerated"
        if out["ms"] != meet_all(instance, stable):
            return "student DA differs from the meet of the stable set"
        if out["ml"] != join_all(instance, stable):
            return "lecturer DA differs from the join of the stable set"
        return None


# |S| and Hasse cover edges of the bundled instances (instance_a has 4
# stable matchings, not the 2 that test_c1a pins; see the top-level README).
PARTS = {"a": ("instance_a.spa", 4, 4), "b": ("instance_b.spa", 7, 8)}
# run_all_checks verdicts (True = pass, in report order) of the spas version
# the benchmark was written against; instance_b refutes two textbook claims
# (see the top-level README), and the union a+a keeps a's verdicts.
CHECK_NAMES = ("unpopular-projects", "full-project", "same-lecturer",
               "preference-reversal", "rank-boundaries", "lattice-axioms")
_A = (True, True, True, False, True, True)
_B = (True, True, True, False, True, False)
PATTERN = {"a": _A, "b": _B, "a+a": _A}


class LatticeRich(Workload):
    name = "lattice_rich"
    why = ("Disjoint unions of the bundled instances: the stable set is a "
           "product of the parts' sets and its lattice is not a chain, so "
           "per-matching enumeration and verification cost dominate.")
    setup_repeats = 5

    def __init__(self, unions: tuple[str, ...] = ("a+a", "b")) -> None:
        self.unions = unions

    def params(self) -> dict:
        return {"unions": list(self.unions),
                "seed_use": "renumbers projects and lecturers"}

    def setup(self, seed: int, tr) -> list[Item]:
        rng = random.Random(seed)
        with tr.span("fileio.parse_instance"):
            raws = {key: parse_raw_instance((DATA / f).read_text())
                    for key, (f, _, _) in PARTS.items()}
        items = []
        for union in self.unions:
            keys = union.split("+")
            counts = [PARTS[k][1] for k in keys]
            edges = sum(PARTS[k][2] * prod(counts[:i] + counts[i + 1:])
                        for i, k in enumerate(keys))
            with tr.span("model.build"):
                instance = _build(relabel(disjoint_union([raws[k] for k in keys]), rng))
                _warm_ranks(instance)
            items.append(Item(union, {"instance": instance},
                              {"stable": prod(counts), "edges": edges,
                               "pattern": PATTERN[union]},
                              entries=_entries(instance)))
        return items

    def run_op(self, item: Item, tr) -> dict:
        instance = item.inputs["instance"]
        with tr.span("enumeration.enumerate"):
            stable = enumerate_all(instance)
        with tr.span("lattice.hasse"):
            diagram = build_hasse(instance, stable)
        with tr.span("lattice.meet_join"):
            bounds = (meet_all(instance, stable), join_all(instance, stable))
            closed = [op(instance, x, y) for x, y in combinations(stable, 2)
                      for op in (meet, join)]
        with tr.span("verification.run_all_checks"):
            reports = run_all_checks(instance, stable)
        n = len(stable)
        tr.count("enumeration.stable_found", n)
        tr.count("lattice.hasse_edges", len(diagram.edges))
        tr.count("verification.pairs", n * (n - 1))
        return {"stable": stable, "edges": len(diagram.edges),
                "closed": bounds + tuple(closed), "reports": reports}

    def check(self, item: Item, out: dict) -> str | None:
        want = item.expected
        if len(out["stable"]) != want["stable"]:
            return f"|S| = {len(out['stable'])}, expected {want['stable']}"
        if out["edges"] != want["edges"]:
            return f"{out['edges']} cover edges, expected {want['edges']}"
        members = set(out["stable"])
        if not all(m in members for m in out["closed"]):
            return "a meet or join left the stable set"
        got = tuple((r.name, r.passed) for r in out["reports"])
        if got != tuple(zip(CHECK_NAMES, want["pattern"])):
            return f"run_all_checks verdicts {got} differ from the seed's"
        return None


@dataclass
class Command:
    sub: str
    args: list[str]


def _report_lines(report) -> list[str]:
    return ([f"ERROR {v.render()}" for v in report.violations]
            + [f"WARNING {w.render()}" for w in report.warnings])


def _text(lines: list[str]) -> str:
    return "".join(line + "\n" for line in lines)


def expected_cli(cmd: Command) -> tuple[int, str]:
    """Exit code and stdout of ``spas <cmd>``, from in-process library calls."""
    a = cmd.args
    if cmd.sub == "gen":
        opts = dict(zip(a[::2], a[1::2]))
        return 0, serialize_instance(generate(GenParams(
            students=int(opts["--students"]), projects=int(opts["--projects"]),
            lecturers=int(opts["--lecturers"]), seed=int(opts["--seed"]),
            density=0.5)))
    path = ROOT / next(x for x in a if x.endswith(".spa"))
    if cmd.sub == "validate":
        report = validate_raw(parse_raw_instance(path.read_text()))
        return (0 if report.ok else 1,
                _text(_report_lines(report) + ["VALID" if report.ok else "INVALID"]))
    instance = _build(parse_raw_instance(path.read_text()))
    if cmd.sub == "check":
        matching = parse_matching_file((ROOT / a[1]).read_text(), instance)
        blocking = find_blocking_pairs(instance, matching)
        if not blocking:
            return 0, "STABLE\n"
        return 1, _text([f"s{b.student} p{b.project} {b.student_condition} "
                         f"{b.project_condition}" for b in blocking])
    if cmd.sub == "solve":
        solve = solve_student_optimal if a[1] == "student" else solve_lecturer_optimal
        return 0, serialize_matching(solve(instance))
    if cmd.sub in ("meet", "join"):
        m1, m2 = (parse_matching_file((ROOT / x).read_text(), instance) for x in a[1:3])
        return 0, serialize_matching((meet if cmd.sub == "meet" else join)(instance, m1, m2))
    stable = enumerate_all(instance)
    if cmd.sub == "enumerate":
        blocks = [f"# M{i}\n" + serialize_matching(m) for i, m in enumerate(stable, 1)]
        return 0, "\n".join(blocks)
    if cmd.sub == "lattice":
        diagram = build_hasse(instance, stable)
        return 0, _text([f"{diagram.label(x)} -> {diagram.label(y)}"
                         for x, y in diagram.edges])
    if cmd.sub == "verify":
        lines, failed = [], False
        for r in run_all_checks(instance, stable):
            if r.passed:
                lines.append(f"PASS {r.name}")
            else:
                failed = True
                lines.append(f"FAIL {r.name}: {len(r.failures)} violation(s)")
                lines += [f"  {f}" for f in r.failures[:5]]
        return (1 if failed else 0), _text(lines)
    raise ValueError(f"no expectation for subcommand {cmd.sub!r}")


GENERATED_CLI_SEED = 100


class CliDesk(Workload):
    name = "cli_desk"
    why = ("The desk user's per-command latency of python -m spas, where "
           "interpreter start-up, import spas and the default solve path "
           "dominate; no other workload starts the CLI.")
    rss_of_children = True

    def __init__(self, work_dir: Path, min_ops: int = 100,
                 probe_repeats: int = 15) -> None:
        self.work_dir = work_dir
        self.min_ops = min_ops  # 100 gives each command at least seven samples
        self.probe_repeats = probe_repeats
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def params(self) -> dict:
        return {"bundled": "tests/data",
                "generated": {"students": 10, "projects": 6, "lecturers": 2,
                              "generator_seed": GENERATED_CLI_SEED,
                              "seed_use": "renumbers projects and lecturers"},
                "loop": "closed, one client, one subprocess at a time",
                "solve_method": "default"}

    def setup(self, seed: int, tr) -> list[Item]:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        d = "tests/data/"
        # Few distinct commands, so that each is sampled often in a run.
        cmds = [
            Command("validate", [d + "instance_a_bad.spa"]),
            Command("check", [d + "instance_a.spa", d + "unstable_a.match"]),
            Command("solve", ["--optimal", "student", d + "instance_b.spa"]),
            Command("solve", ["--optimal", "lecturer", d + "instance_b.spa"]),
            Command("enumerate", [d + "instance_b.spa"]),
            Command("lattice", [d + "instance_b.spa"]),
            Command("verify", [d + "instance_b.spa"]),
            Command("meet", [d + "instance_b.spa", d + "b_m2.match", d + "b_m3.match"]),
            Command("join", [d + "instance_b.spa", d + "b_m4.match", d + "b_m5.match"]),
            Command("gen", ["--students", "12", "--projects", "6", "--lecturers", "3",
                            "--seed", str(seed)]),
        ]
        # One fixed draw, renumbered by the seed: the default solve's time on
        # a fresh 10-student draw ranges from 1 ms to 330 ms.
        with tr.span("generator.generate"):
            instance = generate(GenParams(students=10, projects=6, lecturers=2,
                                          seed=GENERATED_CLI_SEED))
        with tr.span("model.build"):
            instance = _build(relabel(_raw(instance), random.Random(seed)))
        with tr.span("fileio.serialize_instance"):
            text = serialize_instance(instance)
        spa = self.work_dir / "g0.spa"
        spa.write_text(text)
        optimal = self.work_dir / "g0_s.match"
        optimal.write_text(serialize_matching(solve_student_optimal(instance, **DA)))
        cmds += [
            Command("validate", [str(spa)]),
            Command("check", [str(spa), str(optimal)]),
            Command("solve", ["--optimal", "student", str(spa)]),
        ]
        items = []
        for i, cmd in enumerate(cmds):
            code, out = expected_cli(cmd)
            items.append(Item(f"{i}:{cmd.sub}", {"cmd": cmd},
                              {"code": code, "stdout": out}))
        return items

    def run_op(self, item: Item, tr) -> dict:
        cmd = item.inputs["cmd"]
        with tr.span(f"cli.{cmd.sub}"):
            proc = subprocess.run(
                [sys.executable, "-m", "spas", cmd.sub, *cmd.args],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                capture_output=True, timeout=120,
            )
        return {"code": proc.returncode, "stdout": proc.stdout.decode(),
                "stderr": proc.stderr.decode()}

    def check(self, item: Item, out: dict) -> str | None:
        want = item.expected
        if out["code"] != want["code"]:
            return (f"exit {out['code']}, expected {want['code']}: "
                    f"{out['stderr'].strip()[-200:]}")
        if out["stdout"] != want["stdout"]:
            return "stdout differs from the library result"
        return None

    def probe(self) -> dict[str, float]:
        def run(code: str) -> float:
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                           stdin=subprocess.DEVNULL, capture_output=True,
                           timeout=120, check=True)
            return perf_counter() - t0

        bare, imported = [], []
        for _ in range(self.probe_repeats):
            bare.append(run("pass"))
            imported.append(run("import spas"))
        interpreter = median(bare)
        return {"cli.interpreter_ms": interpreter * 1e3,
                "cli.import_ms": (median(imported) - interpreter) * 1e3}


def make(name: str, work_dir: Path) -> Workload:
    if name == "cli_desk":
        return CliDesk(work_dir / "cli")
    return {"solve_ladder": SolveLadder, "enum_sparse": EnumSparse,
            "lattice_rich": LatticeRich}[name]()

