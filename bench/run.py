#!/usr/bin/env python3
"""Benchmark of spas: four seeded workloads, checked outputs, per-layer spans.

Run from the root of a source checkout (nothing needs installing):

    python3 bench/run.py --workload solve_ladder --seed 1 --seconds 25 --trace 0

Timed passes over the workload's inputs repeat until ``--seconds`` would be
exceeded (at least three passes, and at least the workload's minimum number
of ops).  The host's CPU speed drifts, so a fixed pure-Python probe kernel
is timed between every two ops and around every set-up, and each time is
reported at the reference speed: seconds x ``REFERENCE_PROBE_S`` / the
probe's time around it (see README.md).  An input's op time is the median
of its scaled times over the untraced passes.  Set-up runs before the first
pass and again after every pass; ``setup_s`` is the median of its scaled
times.  With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and the JSON object holds the per-layer metrics.  Full results and
spans go to ``.bench_build/spas-bench/``.
Exits 2 without a result when the spas sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

from tracing import NULL, Tracer

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/spas/__init__.py", "tests/data/instance_a.spa",
            "tests/data/instance_b.spa")
OUT = ROOT / ".bench_build" / "spas-bench"
MIN_PASSES = 3
PROBE_REPEATS = 3
# Probe time that defines the reference speed: the kernel's usual time on a
# 2-core 2.1 GHz x86-64 host with CPython 3.11, so scaled times read as
# seconds there.
REFERENCE_PROBE_S = 0.003

END_TO_END = {"wall_s": "s", "setup_s": "s", "cmd_p50_ms": "ms",
              "cmd_p90_ms": "ms", "peak_rss_mb": "MiB"}
# spans timed in every traced pass; generator.generate is timed in set-up
BUSY = ("fileio.parse_instance", "fileio.matching_roundtrip", "model.build",
        "model.rank_tables", "solvers.student_da", "solvers.lecturer_da",
        "stability.check_stable", "stability.check_empty",
        "enumeration.enumerate", "lattice.hasse", "lattice.meet_join",
        "verification.run_all_checks")
COUNTS = ("stability.blocking_pairs", "enumeration.stable_found",
          "lattice.hasse_edges", "verification.pairs")
# polynomial layers fitted against total list length on a size ladder
SCALED = ("model.build", "solvers.student_da", "solvers.lecturer_da",
          "stability.check_stable")
WORKLOADS = ("solve_ladder", "enum_sparse", "lattice_rich", "cli_desk")
SUBCOMMANDS = ("validate", "check", "solve", "enumerate", "lattice", "verify",
               "meet", "join", "gen")


def layer_units() -> dict[str, str]:
    units = {f"{name}.busy_s": "s" for name in BUSY}
    units["generator.generate.busy_s"] = "s"
    for name in SCALED:
        units[f"{name}.ns_per_entry"] = "ns"
        units[f"{name}.exponent"] = "slope"
    units.update({name: "count" for name in COUNTS})
    units["enumeration.ms_per_stable"] = "ms"
    units["cli.interpreter_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    units.update({f"cli.{sub}.p50_ms": "ms" for sub in SUBCOMMANDS})
    units["trace.overhead_s"] = "s"
    units["trace.glue_s"] = "s"
    return units


def _med(values) -> float:
    values = list(values)
    return median(values) if values else 0.0


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    var = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / var if var else 0.0


def scaled_by_label(per_op: dict[int, float],
                    op_probe: dict[int, tuple[str, float]]) -> dict[str, float]:
    """Per input, ``per_op`` at the reference speed: its seconds summed over
    the input's ops, over their summed probe seconds, x the reference."""
    spent: dict[str, float] = {}
    probed: dict[str, float] = {}
    for op, (label, seconds) in op_probe.items():
        spent[label] = spent.get(label, 0.0) + per_op.get(op, 0.0)
        probed[label] = probed.get(label, 0.0) + seconds
    return {label: spent[label] / probed[label] * REFERENCE_PROBE_S for label in spent}


def scaling(tracer: Tracer, op_probe: dict[int, tuple[str, float]],
            entries: dict[str, int]) -> dict:
    """Per layer: seconds per ladder rung, ns per entry, exponent."""
    table = {}
    for name in SCALED:
        per_label = {label: t for label, t in
                     scaled_by_label(tracer.per_op(name), op_probe).items() if t > 0}
        rungs = sorted(per_label, key=entries.get)
        if not rungs:
            continue
        xs = [entries[r] for r in rungs]
        ys = [per_label[r] for r in rungs]
        table[name] = {
            "rungs": {r: {"entries": entries[r], "seconds": per_label[r],
                          "ns_per_entry": per_label[r] / entries[r] * 1e9}
                      for r in rungs},
            "ns_per_entry": ys[-1] / xs[-1] * 1e9,
            "exponent": _slope(xs, ys) if len(rungs) > 1 else 0.0,
        }
    return table


def layer_metrics(w, tracer: Tracer, passes: list[dict], setups: list[str],
                  entries: dict[str, int], apart: dict[str, float]) -> tuple[dict, dict]:
    traced = {p["group"]: p for p in passes if p["traced"]}
    setup_ops = [o["id"] for o in tracer.ops if o["group"] in set(setups)]
    # Each traced op that succeeded, with the probe time around it.  Layer
    # figures are scaled to the reference speed and summed over the traced
    # passes, not taken as medians, so that layer spans and glue add up.
    op_probe = {o["id"]: (o["label"], traced[o["group"]]["probe"][o["label"]])
                for o in tracer.ops
                if o["group"] in traced and o["label"] in traced[o["group"]]["probe"]}
    counts = tracer.counts_by_group()
    m = {name: 0.0 for name in layer_units()}
    for name in BUSY:
        m[f"{name}.busy_s"] = sum(scaled_by_label(tracer.per_op(name), op_probe).values())
    generate = tracer.per_op("generator.generate")
    m["generator.generate.busy_s"] = _med(generate.get(op, 0.0) for op in setup_ops)
    for name in COUNTS:
        m[name] = _med(counts[g].get(name, 0) for g in traced)
    m["enumeration.ms_per_stable"] = (m["enumeration.enumerate.busy_s"] * 1e3
                                      / max(1, m["enumeration.stable_found"]))
    table = scaling(tracer, op_probe, entries) if w.scaling else {}
    for name, row in table.items():
        m[f"{name}.ns_per_entry"] = row["ns_per_entry"]
        m[f"{name}.exponent"] = row["exponent"]
    for sub in SUBCOMMANDS:
        spans = tracer.per_op(f"cli.{sub}")
        m[f"cli.{sub}.p50_ms"] = _med(t * REFERENCE_PROBE_S / op_probe[op][1]
                                      for op, t in spans.items() if op in op_probe) * 1e3
    m.update(apart)
    walls = [sum(op_times([p for p in passes if p["traced"] is t]).values())
             for t in (True, False)]
    m["trace.overhead_s"] = walls[0] - walls[1]
    m["trace.glue_s"] = sum(scaled_by_label(tracer.glue_per_op(), op_probe).values())
    return m, table


def p90(values: list[float]) -> float:
    return quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def _kernel() -> int:
    """Fixed pure-Python work of the kind spas does: dict and list updates, a sort."""
    seen: dict[int, int] = {}
    pairs = []
    for i in range(4000):
        k = (i * 2654435761) & 4095
        seen[k] = seen.get(k, 0) + 1
        pairs.append((k, i))
    pairs.sort()
    return len(seen) + pairs[0][0]


def speed_probe() -> float:
    """Seconds the probe kernel takes now: the fastest of ``PROBE_REPEATS``."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def scaled_times(passes: list[dict]) -> dict[str, float]:
    """Each input's op time at the reference speed over the given passes:
    its summed op seconds over its summed probe seconds, x the reference.
    Layer figures are taken this way, so that they add up."""
    spent: dict[str, float] = {}
    probed: dict[str, float] = {}
    for p in passes:
        for label, seconds in p["lat"].items():
            spent[label] = spent.get(label, 0.0) + seconds
            probed[label] = probed.get(label, 0.0) + p["probe"][label]
    return {label: spent[label] / probed[label] * REFERENCE_PROBE_S for label in spent}


def op_times(passes: list[dict], scale: bool = True) -> dict[str, float]:
    """Each input's median op time over the given passes, each op scaled to
    the reference speed by the probe around it (or unscaled)."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for label, seconds in p["lat"].items():
            if scale:
                seconds *= REFERENCE_PROBE_S / p["probe"][label]
            times.setdefault(label, []).append(seconds)
    return {label: median(ts) for label, ts in times.items()}


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, time passes until ``seconds`` is used, check every op."""
    tracer = Tracer() if trace else None
    setup_times, setup_scaled, setups = [], [], []
    last_probe = speed_probe()

    def set_up() -> list:
        """``w.setup_repeats`` timed set-ups; the last one's inputs are returned."""
        nonlocal last_probe
        tr = tracer or NULL
        for _ in range(w.setup_repeats):
            gc.collect()
            setups.append(f"setup{len(setups)}")
            t0 = perf_counter()
            with tr.op(setups[-1], "setup"):
                made = w.setup(seed, tr)
            dt = perf_counter() - t0
            after = speed_probe()
            setup_times.append(dt)
            setup_scaled.append(dt * 2 * REFERENCE_PROBE_S / (last_probe + after))
            last_probe = after
        return made

    items = set_up()
    gc.collect()
    gc.freeze()  # set-up's objects stay out of the timed passes' collections

    passes: list[dict] = []
    attempted = failed = 0
    failures: list[str] = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tr = tracer if traced else NULL
        group = f"pass{len(passes)}"
        gc.collect()
        last_probe = speed_probe()
        t_pass = perf_counter()
        lat: dict[str, float] = {}
        probes: dict[str, float] = {}
        for item in items:
            attempted += 1
            try:
                t0 = perf_counter()
                with tr.op(group, item.label):
                    out = w.run_op(item, tr)
                dt = perf_counter() - t0
                problem = w.check(item, out)
            except Exception as exc:  # a failed op is counted, and the run goes on
                problem = f"raised {exc!r}"
            else:
                lat[item.label] = dt
                after = speed_probe()
                probes[item.label] = (last_probe + after) / 2
                last_probe = after
            if problem:
                failed += 1
                failures.append(f"{group} {item.label}: {problem}")
        passes.append({"group": group, "traced": traced, "lat": lat,
                       "probe": probes, "took_s": perf_counter() - t_pass})
        # Set-up is timed again between passes, so that setup_s samples the
        # whole run rather than one moment of the host's speed.
        attempted += 1
        if set_up() != items:
            failed += 1
            failures.append(f"{group} set-up: same seed, different inputs")
        elapsed = perf_counter() - start
        estimate = median(p["took_s"] for p in passes)
        if (len(passes) >= MIN_PASSES and attempted >= w.min_ops
                and elapsed + estimate > seconds):
            break
    gc.unfreeze()
    apart = w.probe() if trace else {}

    untraced = [p for p in passes if not p["traced"]]
    scaled = op_times(untraced)
    lat = sorted(scaled.values()) or [0.0]
    every = sorted(t for p in untraced for t in p["lat"].values())
    who = resource.RUSAGE_CHILDREN if w.rss_of_children else resource.RUSAGE_SELF
    e2e = {
        "wall_s": sum(lat),
        "setup_s": median(setup_scaled),
        "cmd_p50_ms": median(lat) * 1e3,
        "cmd_p90_ms": p90(lat) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    raw = op_times(untraced, scale=False)
    probes = [t for p in untraced for t in p["probe"].values()]
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "error_ratio": failed / attempted, "end_to_end": e2e,
        "setup_times_s": setup_times, "setup_scaled_s": setup_scaled,
        "scaled_op_s": scaled, "raw_median_op_s": raw,
        "raw": {"wall_s": sum(raw.values()), "setup_s": median(setup_times),
                "probe_median_s": median(probes or [0.0]),
                "probe_min_s": min(probes or [0.0]),
                "probe_max_s": max(probes or [0.0])},
        # every untraced op, unscaled: the raw latency spread
        "every_op": {"samples": len(every), "p50_ms": median(every or [0.0]) * 1e3,
                     "p90_ms": p90(every or [0.0]) * 1e3},
        "failures": failures[:20],
        "passes": [{"group": p["group"], "traced": p["traced"], "took_s": p["took_s"],
                    "op_s": p["lat"], "probe_s": p["probe"]} for p in passes],
    }
    if tracer:
        entries = {item.label: item.entries for item in items}
        result["per_layer"], result["scaling"] = layer_metrics(
            w, tracer, passes, setups, entries, apart)
        result["traced_wall_s"] = sum(
            scaled_times([p for p in passes if p["traced"]]).values())
        result["spans"] = tracer.summary()
        result["tracer"] = tracer
    return result


def pin_to_one_cpu() -> int | None:
    """Run this process, and every child it starts, on one CPU, so that the
    speed probe times the CPU that the ops run on.  None if it cannot."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def environment(w, args, cpu: int | None) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "workload": w.name, "why": w.why, "params": w.params(),
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "setup_repeats": w.setup_repeats, "probe_repeats": PROBE_REPEATS,
        "reference_probe_s": REFERENCE_PROBE_S,
        "min_passes": MIN_PASSES,
        "min_ops": w.min_ops,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"spas sources not found beside the benchmark: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spas
    if not Path(spas.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported spas from {spas.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    w = workloads.make(args.workload, OUT)
    cpu = pin_to_one_cpu()
    result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    env = environment(w, args, cpu)

    stem = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer:
        tracer.dump(stem.with_name(stem.name + "-spans.json"))
    stem.with_suffix(".json").write_text(json.dumps({"env": env} | result, indent=1))

    print(f"# {w.name}: {w.why}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"error_ratio = {result['error_ratio']} ratio ({result['failed']}/{result['attempted']} ops)")
    for name, value in result["end_to_end"].items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    every = result["every_op"]
    raw = result["raw"]
    print(f"# unscaled: wall_s {raw['wall_s']:.6g} s (each input's median), setup_s "
          f"{raw['setup_s']:.6g} s; probe {raw['probe_min_s'] * 1e3:.4g}/"
          f"{raw['probe_median_s'] * 1e3:.4g}/{raw['probe_max_s'] * 1e3:.4g} ms "
          f"min/median/max")
    print(f"# every untraced op: p50 {every['p50_ms']:.6g} ms, "
          f"p90 {every['p90_ms']:.6g} ms over {every['samples']} samples")
    units = layer_units()
    layers = result.get("per_layer", {})
    for name, value in layers.items():
        print(f"{name} = {value:.6g} {units[name]}")
    busy = sum(layers.get(f"{name}.busy_s", 0.0) for name in BUSY)
    if busy:  # the in-process workloads: layer spans plus glue fill the op
        print(f"# traced pass: layers' busy_s {busy:.6g} s + trace.glue_s "
              f"{layers['trace.glue_s']:.6g} s; traced wall_s "
              f"{result['traced_wall_s']:.6g} s")
    for name, row in result.get("scaling", {}).items():
        rungs = "  ".join(f"{r}: {v['ns_per_entry']:.0f}" for r, v in row["rungs"].items())
        print(f"# {name} ns/entry  {rungs}  exponent {row['exponent']:.2f}")
    print("env " + json.dumps(env))
    if args.trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
