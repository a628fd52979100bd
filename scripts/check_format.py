#!/usr/bin/env python3
"""Incremental ``ruff format --check`` gate (the lint job's one-liner).

Formatting is adopted file by file (see ruff.toml): new modules start
on the allowlist below, and existing files join it when a PR touches
them and brings them into conformance.  Keeping the list here — not in
the workflow — means the CI step never changes
(``python scripts/check_format.py``) and the diff that grows the list
lives next to the code it formats.

Run locally the same way; requires ``ruff`` on PATH (CI installs it).
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ALLOWLIST = [
    "benchmarks/check_bench_regression.py",
    "scripts/check_format.py",
    "src/repro/core/kernels.py",
    "src/repro/monitor/__init__.py",
    "src/repro/monitor/autopilot.py",
    "src/repro/monitor/drift.py",
    "src/repro/monitor/metrics.py",
    "src/repro/serve/__init__.py",
    "src/repro/serve/canary.py",
    "src/repro/serve/gateway.py",
    "src/repro/serve/persistence.py",
    "src/repro/serve/scheduler.py",
    "src/repro/serve/sharding.py",
    "src/repro/serve/wire.py",
    "src/repro/serve/workers.py",
    "tests/test_core_kernels.py",
    "tests/test_monitor_autopilot.py",
    "tests/test_monitor_drift.py",
    "tests/test_monitor_metrics.py",
    "tests/test_serve_gateway.py",
    "tests/test_serve_wire.py",
    "tests/test_serve_workers.py",
]

# Touched but still on the repo's legacy continuation style — next PR
# that edits them should run `ruff format` and move them up:
# src/repro/cli.py, src/repro/serve/engine.py,
# benchmarks/bench_fleet_throughput.py,
# benchmarks/bench_kernel_latency.py, tests/test_serve_persistence.py
#
# Written without ruff on the machine, so not yet pinned to its exact
# output — first PR with ruff available should format + move them up:
# src/repro/monitor/tracing.py, src/repro/monitor/exposition.py,
# scripts/scrape_exposition.py, tests/test_monitor_tracing.py,
# tests/test_serve_tracing.py, tests/test_serve_registry_follow.py,
# src/repro/serve/transport.py, src/repro/serve/daemon.py,
# src/repro/serve/client.py, src/repro/serve/archive.py,
# examples/serve_client.py, tests/test_serve_transport.py,
# tests/test_serve_remote_workers.py, tests/test_serve_archive.py,
# tests/test_serve_daemon.py, src/repro/learn/__init__.py, src/repro/learn/harvest.py,
# src/repro/learn/finetune.py, src/repro/learn/publish.py,
# src/repro/learn/loop.py, scripts/e2e_retrain.py,
# tests/test_learn_harvest.py, tests/test_learn_finetune.py,
# tests/test_learn_loop.py, tests/test_learn_e2e.py,
# src/repro/monitor/resources.py, tests/test_monitor_resources.py,
# tests/test_scripts_scrape.py, tests/test_bench_regression.py,
# tests/test_serve_fleet_contract.py


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    missing = [name for name in ALLOWLIST if not (root / name).exists()]
    if missing:
        print(f"format allowlist names missing files: {', '.join(missing)}")
        return 2
    return subprocess.call(["ruff", "format", "--check", *ALLOWLIST], cwd=root)


if __name__ == "__main__":
    sys.exit(main())
