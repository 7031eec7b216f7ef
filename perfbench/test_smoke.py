"""Smoke test of the benchmark harness at toy sizes, so it cannot rot.

    python3 -m pytest perfbench/test_smoke.py -q -s

It checks the output contract of every workload, traced and untraced, and
prints the timings it saw without gating any of them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def check_results(proc, names: set[str]) -> dict:
    assert proc.returncode == 0, proc.stderr
    print(proc.stdout)
    results = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(results) == {w["name"] for w in BENCH["workloads"]}
    for res in results.values():
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == names
        for m in res["metrics"].values():
            assert set(m) == {"value", "unit"} and isinstance(m["value"], (int, float))
    return results


def test_end_to_end_contract():
    results = check_results(run_all(0), {m["name"] for m in BENCH["end_to_end"]})
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    for res in results.values():
        assert {k: v["unit"] for k, v in res["metrics"].items()} == units
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_per_layer_contract():
    results = check_results(run_all(1), {m["name"] for m in BENCH["per_layer"]})
    assert results["oracle"]["metrics"]["pretentious.select_t.calls"]["value"] == 0
    assert results["predict"]["metrics"]["pretentious.select_t.calls"]["value"] > 0
    assert results["scan"]["metrics"]["expsum.classify_alpha.calls"]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_all(0, tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_union_of_children():
    rec = SpanRecorder()
    # parent [0, 10] with children [1, 4] and [3, 6] (overlapping) and [8, 9]
    rec.names = ["p", "a", "b", "c"]
    rec.starts = [0.0, 1.0, 3.0, 8.0]
    rec.ends = [10.0, 4.0, 6.0, 9.0]
    rec.parents = [-1, 0, 0, 0]
    assert rec.self_times() == [4.0, 3.0, 3.0, 1.0]
