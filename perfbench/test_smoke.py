"""Smoke-size runs of the benchmark itself.

Each workload runs for about a second against tiny pre-built stores, with
tracing off and on; the tests check that every declared metric is present,
finite and in its unit, and that the output checks pass. These tests sit
outside ``tests/`` so the tier-1 run does not collect them:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import END_TO_END_UNITS, WORKLOADS
from perfbench.spans import PER_LAYER_UNITS, layer_metrics

ROOT = Path(__file__).resolve().parent.parent


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name], name
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["store.apply_ops.calls"]["value"] > 0


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "stream_train", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_changed_golden_digest_fails_every_workload(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src").symlink_to(ROOT / "src")
    expected = tmp_path / "perfbench" / "expected.json"
    golden = json.loads(expected.read_text())
    golden["stream_train"]["version_digest"] = "0" * 64
    expected.write_text(json.dumps(golden))
    proc = _run("--workload", "ingest_scan", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "golden digest" in proc.stdout


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        {"id": 1, "parent": 0, "name": "handlers.train", "start": 0, "end": 10_000_000,
         "process": "bench"},
        {"id": 2, "parent": 1, "name": "nn.train_epochs", "start": 1_000_000,
         "end": 4_000_000, "process": "bench"},
        {"id": 3, "parent": 1, "name": "models.save_state", "start": 6_000_000,
         "end": 7_000_000, "process": "bench"},
    ]
    metrics = layer_metrics(spans, overhead_ratio=1.0)
    assert metrics["handlers.train.self_ms_p50"] == pytest.approx(6.0)
    assert metrics["nn.train_epochs.busy_ms"] == pytest.approx(3.0)
    assert metrics["store.apply_ops.calls"] == 0
