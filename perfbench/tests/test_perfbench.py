"""Tests for the benchmark itself, at smoke sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = {"count", "bytes"}


def run_bench(tmp_path: Path, workload: str, trace: int, seed: int = 4, tag: str = "") -> tuple[dict, dict]:
    out = tmp_path / f"{workload}-{trace}{tag}"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_metrics(result: dict, expected: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(tmp_path, workload):
    details, result = run_bench(tmp_path, workload, trace=0)
    assert_metrics(result, SPEC["end_to_end"])
    assert all(details["checks"].values())
    assert all(v > 0 for v in (m["value"] for m in result["metrics"].values()))
    assert details["samples"]["setup_samples"] >= 7
    assert {"nproc", "python", "numpy", "blas", "thread_env", "loadavg_1m", "git_commit"} <= set(details["environment"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_at_one_seed(tmp_path, workload):
    runs = [run_bench(tmp_path, workload, trace=1, tag=f"-{i}") for i in range(2)]
    for details, result in runs:
        assert_metrics(result, SPEC["per_layer"])
    first, second = (r[1]["metrics"] for r in runs)
    counts = [name for name, m in first.items() if m["unit"] in COUNT_UNITS]
    assert {"numerics.tape.nodes_per_item", "retrieval.trajectories", "ssm.steps", "numerics.gradcheck.loss_evals",
            "harness.formats.bytes_read", "numerics.gradcheck.checked", "numerics.gradcheck.skipped"} <= set(counts)
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert runs[0][0]["outputs"] == runs[1][0]["outputs"]
    assert (tmp_path / f"{workload}-1-0" / "spans.jsonl").stat().st_size > 0
    repeat_share = first["retrieval.repeat_share"]["value"]
    if workload == "train-desk":  # the same samples come back every epoch
        assert repeat_share > 0.5
    elif workload == "eval-fresh":  # every sample is seen once
        assert repeat_share == 0.0


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_predictions_name_known_metrics_and_workloads():
    predictions = json.loads((BENCH / "predictions.json").read_text())["predictions"]
    layer = {m["name"] for m in SPEC["per_layer"]}
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    for p in predictions:
        assert set(p["metrics"]) <= layer
        assert set(p["moves"]) <= e2e
        assert set(p["shows_on"]) | set(p["flat_on"]) <= set(WORKLOADS)
