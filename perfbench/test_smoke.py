"""Smoke test of the benchmark: every workload at tiny size, both trace modes.

    python -m pytest perfbench

Each run must pass its own correctness checks and emit exactly the metrics
``BENCHMARK.json`` names, each with its unit; a traced run's stages must add
up to within 5% of its wall time.  Without the toolchain sources next to
it, the benchmark must refuse to run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)

WORKLOADS = [workload["name"] for workload in BENCHMARK["workloads"]]


def run(directory, *args):
    return subprocess.run(
        [sys.executable, os.path.join(directory, "perfbench", "run.py"), *args],
        cwd=directory,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    completed = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in wanted}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if trace:
        assert abs(result["metrics"]["trace.stage_sum_ratio"]["value"] - 1.0) <= 0.05


def test_every_derived_layer_metric_is_declared():
    declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
    assert set(tracing.layer_metrics({}, 1)) <= declared


def test_refuses_to_run_without_the_toolchain(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = run(str(tmp_path), "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
