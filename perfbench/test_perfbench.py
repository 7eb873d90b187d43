"""Tests of the benchmark itself, on its quick mode (tiny sizes)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import refs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ["converge_lag0", "serial_maxima", "sample_dump", "theta_constraints"]


def _bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload: str, trace: int, cwd: str = ROOT, seed: int = 5) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_references_pass_their_known_cases():
    assert refs.self_check() == []


def test_benchmark_file_lists_the_workloads_and_layer_metrics():
    bench = _bench()
    assert [w["name"] for w in bench["workloads"]] == WORKLOADS
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(tracer.METRICS)
    assert {m["name"] for m in bench["end_to_end"]} == {"setup_s", "round_s", "peak_rss_mb"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_is_correct_and_prints_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = _bench()["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_same_seed_gives_the_same_layer_counts():
    counts = []
    for _ in range(2):
        proc = _run("theta_constraints", 1)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in tracer.COUNT_UNITS})
    assert counts[0] == counts[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("theta_constraints", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
