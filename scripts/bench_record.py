#!/usr/bin/env python3
"""Record the benchmark of the working tree against a parent revision.

Runs ``bench/run.py`` unchanged on two sides: the working tree, and the
parent revision exported with ``git archive`` into a temporary directory.
Each workload runs in pairs, one seed per pair and both sides on that
seed, and the side that runs first alternates from pair to pair, so both
sides meet the same host load.  Then each side makes one traced run on
the first seed.  For example:

    python scripts/bench_record.py --pr 40 --parent HEAD~1 \\
        lattice_rich=10 solve_ladder=3 enum_sparse=3 cli_desk=3

writes ``BENCH_40.json`` at the repository root.  It holds the PR number;
both commits (the working tree's is its ``HEAD``, marked ``-dirty`` when
tracked files differ from it); the ``env`` fields that every run printed
alike; and per workload, its seeds, the side that ran first in each pair
and, per side: the command lines, whether every run was ``correct``, each
run's ``attempted`` and ``failed`` ops, each end-to-end metric's runs and
median, and the traced run's per-layer metrics.  A run that exits with an
error or prints no result stops the script with exit code 1.
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
ORDERS = (SIDES, SIDES[::-1])  # the order of the sides in even and odd pairs


def pairs_of(text: str) -> tuple[str, int]:
    """An argparse type: ``WORKLOAD=PAIRS`` with at least one pair."""
    workload, _, count = text.partition("=")
    if not workload or not count.isdigit() or int(count) < 1:
        raise argparse.ArgumentTypeError(
            f"expected WORKLOAD=PAIRS with PAIRS at least 1, got {text!r}")
    return workload, int(count)


def git(*argv: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *argv], check=True,
                          capture_output=True).stdout


def export(rev: str, dest: Path) -> None:
    """Write the tree of ``rev`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        # the data filter refuses members that would land outside dest
        tar.extractall(dest, **({"filter": "data"}
                                if hasattr(tarfile, "data_filter") else {}))


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of ``bench/run.py`` in ``tree``: its command line, its
    ``env`` line and the JSON result it prints last."""
    argv = ["bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=tree, capture_output=True,
                          text=True, stdin=subprocess.DEVNULL)
    lines = proc.stdout.splitlines()
    envs = [json.loads(line[4:]) for line in lines if line.startswith("env ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode or not envs or not isinstance(result, dict):
        sys.exit(f"{' '.join(argv)} in {tree} exited {proc.returncode} "
                 f"without a result:\n{proc.stderr[-2000:]}")
    command = " ".join([Path(sys.executable).name, *argv])
    return {"command": command, "env": envs[0], **result}


def side_record(runs: list[dict], traced: dict) -> dict:
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        metrics[name] = {"unit": first["unit"], "runs": values,
                         "median": median(values)}
    return {
        "commands": [r["command"] for r in runs],
        "correct": all(r["correct"] is True for r in [*runs, traced]),
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "metrics": metrics,
        "traced": {"command": traced["command"], "correct": traced["correct"],
                   "attempted": traced["attempted"], "failed": traced["failed"],
                   "per_layer": traced["metrics"]},
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("runs", nargs="+", type=pairs_of, metavar="WORKLOAD=PAIRS",
                        help="a workload of bench/run.py and its number of pairs")
    parser.add_argument("--pr", type=int, required=True,
                        help="the PR number, which names BENCH_<n>.json")
    parser.add_argument("--parent", required=True,
                        help="the revision the working tree is compared with")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="each run's --seconds (default: 25, the "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="the seed of each workload's first pair; pair i "
                             "runs seed first-seed + i (default: 1)")
    parser.add_argument("--out", type=Path,
                        help="the file to write (default: BENCH_<n>.json at "
                             "the repository root)")
    args = parser.parse_args()

    head = git("rev-parse", "HEAD").decode().strip()
    dirty = git("status", "--porcelain", "--untracked-files=no").strip()
    commits = {"parent": git("rev-parse", args.parent).decode().strip(),
               "change": head + ("-dirty" if dirty else "")}
    envs, workloads = [], {}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        trees = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, trees["parent"])
        for workload, count in args.runs:
            seeds = list(range(args.first_seed, args.first_seed + count))
            orders = [ORDERS[i % 2] for i in range(count)]
            runs: dict[str, list[dict]] = {side: [] for side in SIDES}
            for seed, order in zip(seeds, orders):
                for side in order:
                    runs[side].append(run(trees[side], workload, seed,
                                          args.seconds, 0))
                    wall = runs[side][-1]["metrics"].get("wall_s", {}).get("value")
                    print(f"{workload} seed {seed} {side}: wall_s {wall}",
                          file=sys.stderr, flush=True)
            traced = {side: run(trees[side], workload, seeds[0], args.seconds, 1)
                      for side in SIDES}
            envs += [r["env"] for side in SIDES for r in [*runs[side], traced[side]]]
            workloads[workload] = {
                "seeds": seeds, "first": [order[0] for order in orders],
                **{side: side_record(runs[side], traced[side]) for side in SIDES}}
    # the fields every run printed alike: the host, the interpreter and the
    # harness settings that no option changed
    env = {key: value for key, value in envs[0].items()
           if all(other.get(key) == value for other in envs)}
    record = {"pr": args.pr, "commits": commits, "env": env,
              "workloads": workloads}
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
