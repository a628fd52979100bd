"""Smoke tests of the benchmark itself: every workload, small inputs.

Not collected by the repository's default test run (the file name does
not match ``test_*.py``); run explicitly from the repository root::

    python3 -m pytest perfbench/smoke_check.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import catalog  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1.5"]
    cmd += ["--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", [*catalog.WORKLOAD_WHY, *catalog.UNGATED_WHY])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    metrics = _result(_run(workload, 0))["metrics"]
    assert list(metrics) == [name for name, *_ in catalog.END_TO_END]
    for name, unit, _, _ in catalog.END_TO_END:
        assert metrics[name]["unit"] == unit
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", ["live-pipe2", "rollout-inproc"])
def test_traced_run_reports_every_per_layer_metric(workload):
    metrics = _result(_run(workload, 1))["metrics"]
    assert list(metrics) == [name for name, *_ in catalog.PER_LAYER]
    assert metrics["fail_frac"]["value"] == 0
    # 64 requests on two pipe workers: two membership probes per request
    # plus one estimate per shard
    assert metrics["worker.rpcs_per_batch"]["value"] == 2 * 64 + 2
    for name, *_ in catalog.PER_LAYER:
        if "_us" in name or "_ms" in name or "overhead_x" in name:
            assert metrics[name]["value"] > 0, name


def test_manifest_matches_catalog():
    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == catalog.manifest()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("live-inproc", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
