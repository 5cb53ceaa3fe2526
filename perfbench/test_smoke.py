"""Smoke test of the benchmark itself, at a tiny scale.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is printed with its unit,
that the traced run's spans cover the layers each workload calls, that
the traced Spark task counts repeat from run to run, and that a
directory without the program makes the benchmark fail without printing
a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"match-citations1": "0.02", "active-stocks": "0.01"}
LAYERS = {
    "match-citations1": {"spark", "datasets", "ir", "vae", "encode", "siamese", "active", "metrics"},
    "active-stocks": {"spark", "datasets", "ir", "vae", "encode", "lsh", "siamese", "active",
                      "kde", "metrics"},
}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--sf", TINY[workload]],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0, proc.stdout
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in res["metrics"].values())
        return
    rec = json.loads((ROOT / ".bench_out" / f"{workload}-seed3-trace1.json").read_text())
    spans = rec["trace"]["spans"]
    assert {s["layer"] for s in spans} == LAYERS[workload]
    by_id = {s["id"]: s for s in spans}
    for s in spans:  # parents close after their children and contain them
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] <= s["end"] <= p["end"]
    assert all(res["metrics"][f"{layer}.self_s"]["value"] > 0 for layer in LAYERS[workload])


def test_traced_task_counts_repeat() -> None:
    counts = []
    for _ in range(2):
        proc = bench(ROOT, "active-stocks", 1)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: metrics[k]["value"] for k in
                       ("ir.spark_tasks", "encode.spark_tasks", "lsh.spark_tasks")})
    assert all(v > 0 for v in counts[0].values()), counts
    assert counts[0] == counts[1]


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "match-citations1", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
