"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spas import EMPTY_MATCHING  # noqa: E402
from tracing import NULL  # noqa: E402

TINY = {
    "solve_ladder": lambda tmp: workloads.SolveLadder(sizes=(20, 40)),
    "enum_sparse": lambda tmp: workloads.EnumSparse(sizes=range(6, 8), per_size=1),
    "lattice_rich": lambda tmp: workloads.LatticeRich(unions=("a", "b")),
    "cli_desk": lambda tmp: workloads.CliDesk(tmp, min_ops=0, probe_repeats=1),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.layer_units()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_run_is_correct(name, trace, tmp_path):
    result = run.run_workload(TINY[name](tmp_path), seed=3, seconds=0, trace=trace)
    assert result["failures"] == []
    assert result["correct"] and result["attempted"] >= 3
    assert all(v > 0 for v in result["end_to_end"].values())
    if trace:
        assert set(result["per_layer"]) == set(run.layer_units())
        traced_ops = sum(len(p["op_s"]) for p in result["passes"] if p["traced"])
        assert traced_ops > 0
        spans = result["tracer"].summary()
        assert spans["op"]["spans"] == traced_ops + len(result["setup_times_s"])
        if name != "cli_desk":  # in process, layer spans and glue fill each op
            layers = result["per_layer"]
            filled = sum(layers[f"{b}.busy_s"] for b in run.BUSY) + layers["trace.glue_s"]
            assert 0.9 * result["traced_wall_s"] <= filled <= result["traced_wall_s"]


@pytest.mark.parametrize("name", ["solve_ladder", "enum_sparse", "lattice_rich"])
def test_same_seed_same_inputs(name, tmp_path):
    w = TINY[name](tmp_path)
    first, second, other = (w.setup(seed, NULL) for seed in (5, 5, 6))
    assert first == second
    assert first != other


def test_times_are_scaled_by_the_probe_around_them():
    ref = run.REFERENCE_PROBE_S
    passes = [{"lat": {"x": 1.0, "y": 0.5}, "probe": {"x": ref, "y": 2 * ref}},
              {"lat": {"x": 3.0}, "probe": {"x": 3 * ref}}]
    summed = run.scaled_times(passes)
    assert summed["x"] == pytest.approx(4.0 * ref / (4 * ref))
    assert summed["y"] == pytest.approx(0.25)
    medians = run.op_times(passes)
    assert medians["x"] == pytest.approx(1.0)
    assert medians["y"] == pytest.approx(0.25)
    assert run.op_times(passes, scale=False)["x"] == pytest.approx(2.0)


def test_wrong_output_is_counted(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "solve_lecturer_optimal",
                        lambda instance, **kw: EMPTY_MATCHING)
    result = run.run_workload(TINY["solve_ladder"](tmp_path), seed=3, seconds=0,
                              trace=False)
    assert not result["correct"] and result["failed"] > 0
    assert all("blocking pairs" in f for f in result["failures"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cli_desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
