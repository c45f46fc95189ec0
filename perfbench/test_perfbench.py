"""Tests of the benchmark itself:  python3 -m pytest perfbench -q

The smoke runs take about two minutes: each workload runs one cycle of ops,
untraced and traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from spans import SpanRecorder  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# Per-layer metrics that must be nonzero on a workload because it calls the layer.
COMMON = ("import.", "normal.bvn_cdf.low_rho.", "normal.log_tilted_upper_tail2.",
          "economy.", "equilibrium.", "trace.")
APPLIES = {
    "solve_sweep": COMMON + ("normal.bvn_cdf.high_rho.", "welfare.compute_aggregates.",
                             "welfare.sweep_records."),
    "pigouvian": COMMON + ("normal.bvn_cdf.high_rho.", "policy."),
    "cli_cold": COMMON + ("normal.bvn_cdf.high_rho.", "config.", "cli.", "svgchart.", "welfare."),
    "validate": COMMON + ("config.", "cli.", "oracle."),
}


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_metric_with_unit(workload):
    e2e = bench(workload, 0)
    assert set(e2e) == {"correct", "attempted", "failed", "metrics"}
    assert e2e["correct"] and e2e["failed"] == 0 and e2e["attempted"] >= 1
    assert {k: v["unit"] for k, v in e2e["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in e2e["metrics"].values())

    layers = bench(workload, 1)
    assert layers["correct"]
    assert {k: v["unit"] for k, v in layers["metrics"].items()} == run.PER_LAYER
    for name, value in layers["metrics"].items():
        if name.startswith(APPLIES[workload]):
            assert value["value"] > 0, name


def test_traced_counts_repeat_exactly():
    counts = [
        {k: v["value"] for k, v in bench("solve_sweep", 1)["metrics"].items()
         if v["unit"] == "count"}
        for _ in range(2)
    ]
    assert counts[0] == counts[1]


def test_same_seed_same_inputs():
    for workload in run.WORKLOADS:
        a = workloads.input_hash(workloads.make_inputs(workload, 7))
        assert a == workloads.input_hash(workloads.make_inputs(workload, 7))
        assert a != workloads.input_hash(workloads.make_inputs(workload, 8))
        # the frozen references were made from these very inputs
        gate.load_reference(workload, workloads.make_inputs(workload, workloads.DEFAULT_SEED))


def test_reference_offset_fails_sweep_op():
    work = worker.SolveSweep(workloads.make_inputs("solve_sweep", 0), 0, "")
    work.ref["economies"][3][10][2] += 1e-6
    result = worker.measure(work, 0.0)
    assert result["failed"] == 1 and "economy 3 row 10" in result["reasons"][0]


def test_reference_offset_fails_pigouvian_op():
    work = worker.Pigouvian(workloads.make_inputs("pigouvian", 0), 0, "")
    work.ref["W"][0][5] -= 1e-6
    work.cycle = work.n  # one transfer grid is enough
    result = worker.measure(work, 0.0)
    assert result["failed"] == 1


def test_reference_offset_fails_cli_ops(tmp_path):
    for workload in ("cli_cold", "validate"):
        inp = workloads.make_inputs(workload, 0)
        (tmp_path / "run.cfg").write_text(workloads.config_text(inp), encoding="utf-8")
        work = worker.CliInProcess(inp, 0, str(tmp_path))
        if workload == "cli_cold":
            work.ref["limits"][1][1][0] += 1e-6
            work.ref["optimum"][1] += 1e-6
            work.ref["sweep"][40][14] += 1e-6
        else:
            # fewer draws: the offset, not the Monte Carlo, is under test
            text = workloads.config_text(dict(inp, mc_n=10_000))
            (tmp_path / "run.cfg").write_text(text, encoding="utf-8")
            work.ref["rows"]["s_term"][0] += 1e-6
        result = worker.measure(work, 0.0)
        expected = 3 if workload == "cli_cold" else 1  # solve checks the same row as sweep
        assert result["failed"] >= expected, (workload, result)


def test_tail_is_over_per_op_medians():
    # three cycles of four distinct ops costing 1 to 4; one instance of op 0 was preempted
    samples = [1.0, 2.0, 3.0, 4.0] * 3
    samples[8] = 100.0
    assert run.tail(samples, 4) == (4.0, "p95 of 4 per-op medians")
    # the p95 of 100 distinct ops has five above it
    assert run.tail([float(i) for i in range(100)], 100)[0] == 94.0


def test_scaled_divides_by_local_calibration():
    nominal = speed.NOMINAL_S["cpu"]
    # the host runs at half speed for the last thirty ops; each op is scaled by its own window
    calibrations = [nominal] * 30 + [2 * nominal] * 30
    times = [0.01] * 30 + [0.02] * 30
    assert speed.scaled(times, calibrations, "cpu") == pytest.approx([0.01] * 60)
    # the program running twice as slow on an unchanged host reads twice as slow
    assert speed.scaled([0.02] * 30, [nominal] * 30, "cpu") == pytest.approx([0.02] * 30)


def test_span_recorder_rebinds_and_times():
    pkg = types.ModuleType("toypkg")
    leaf_mod = types.ModuleType("toypkg.leaf")
    user_mod = types.ModuleType("toypkg.user")

    def leaf(x):
        return x + 1

    leaf_mod.leaf = leaf
    user_mod.leaf = leaf  # as ``from .leaf import leaf`` would bind it
    exec("def outer(n):\n    return sum(leaf(i) for i in range(n))", user_mod.__dict__)
    sys.modules.update({"toypkg": pkg, "toypkg.leaf": leaf_mod, "toypkg.user": user_mod})
    try:
        rec = SpanRecorder("toypkg")
        rec.install("toypkg.leaf", "leaf", "leaf")
        rec.install("toypkg.user", "outer", "outer")
        assert user_mod.leaf is not leaf and leaf_mod.leaf is not leaf
        assert user_mod.outer(3) == 6
        rec.enabled = False
        user_mod.outer(3)
        rec.uninstall()
        assert user_mod.leaf is leaf and leaf_mod.leaf is leaf
        stats = rec.summary(enclosing=("outer",))
        assert stats["outer"]["calls"] == 1 and stats["leaf"]["calls"] == 3
        assert stats["leaf in outer"]["calls"] == 3
        leaf_total = stats["leaf"]["total_s"]
        assert stats["outer"]["self_s"] == pytest.approx(stats["outer"]["total_s"] - leaf_total)
    finally:
        for name in ("toypkg", "toypkg.leaf", "toypkg.user"):
            sys.modules.pop(name)


def test_fails_without_program_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.rglob("*"):
        if path.is_file() and "__pycache__" not in path.parts:
            target = tmp_path / "perfbench" / path.relative_to(HERE)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
