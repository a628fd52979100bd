"""Tests for process resource telemetry (:mod:`repro.monitor.resources`)."""

import os
import time

from repro.monitor.metrics import MetricsRegistry, merge_snapshots
from repro.monitor.resources import ResourceSampler, install_process_metrics, read_process_stats


class TestReadProcessStats:
    def test_self_stats_are_plausible(self):
        stats = read_process_stats()
        # a running CPython interpreter has megabytes resident and has
        # burned at least a few ticks of CPU
        assert stats["rss_bytes"] > 1_000_000
        assert stats["cpu_seconds"] >= 0.0

    def test_explicit_pid_matches_self(self):
        assert read_process_stats(os.getpid())["rss_bytes"] == read_process_stats()["rss_bytes"]

    def test_missing_pid_falls_back_to_rusage(self):
        # no /proc entry -> getrusage fallback (self), still plausible
        stats = read_process_stats(2**22 + 12345)
        assert stats["rss_bytes"] > 1_000_000
        assert stats["cpu_seconds"] >= 0.0

    def test_cpu_seconds_advance_with_work(self):
        before = read_process_stats()["cpu_seconds"]
        deadline = time.monotonic() + 5.0
        while read_process_stats()["cpu_seconds"] <= before:
            sum(i * i for i in range(200_000))
            assert time.monotonic() < deadline, "cpu_seconds never advanced"


class TestResourceSampler:
    def test_metrics_instruments_update(self):
        reg = MetricsRegistry()
        sampler = ResourceSampler(metrics=reg)
        sampler.sample()
        pid = str(os.getpid())
        assert reg.gauge("process_resident_bytes", pid=pid).value > 1_000_000
        assert reg.counter_value("process_cpu_seconds_total", pid=pid) > 0.0

    def test_cpu_counter_is_monotone(self):
        reg = MetricsRegistry()
        sampler = ResourceSampler(metrics=reg)
        pid = str(os.getpid())
        readings = []
        for _ in range(3):
            sampler.sample()
            readings.append(reg.counter_value("process_cpu_seconds_total", pid=pid))
        assert readings == sorted(readings)


class TestInstallProcessMetrics:
    def test_idempotent(self):
        reg = MetricsRegistry()
        assert install_process_metrics(reg) is install_process_metrics(reg)

    def test_snapshot_refreshes_gauges(self):
        reg = MetricsRegistry()
        install_process_metrics(reg)
        pid = str(os.getpid())
        snap = reg.snapshot()
        assert snap["gauges"][f'process_resident_bytes{{pid="{pid}"}}'] > 1_000_000
        assert snap["counters"][f'process_cpu_seconds_total{{pid="{pid}"}}'] >= 0.0

    def test_exposition_carries_process_metrics(self):
        reg = MetricsRegistry()
        install_process_metrics(reg)
        text = reg.to_prometheus()
        assert "process_resident_bytes{pid=" in text
        assert "process_cpu_seconds_total{pid=" in text

    def test_broken_collector_never_breaks_snapshot(self):
        reg = MetricsRegistry()

        def boom():
            raise RuntimeError("sampler died")

        reg.add_collector(boom)
        reg.counter("requests_total").inc()
        assert reg.snapshot()["counters"]["requests_total"] == 1.0

    def test_pid_labels_survive_merge(self):
        # distinct pids must stay distinct series after a topology merge
        reg = MetricsRegistry()
        reg.gauge("process_resident_bytes", pid="100").set(5.0)
        other = MetricsRegistry()
        other.gauge("process_resident_bytes", pid="200").set(7.0)
        merged = merge_snapshots([reg.snapshot(), other.snapshot()])
        assert merged["gauges"]['process_resident_bytes{pid="100"}'] == 5.0
        assert merged["gauges"]['process_resident_bytes{pid="200"}'] == 7.0


class TestServingIntegration:
    def test_engine_with_metrics_exports_process_series(self):
        from repro.core import TwoBranchSoCNet
        from repro.serve import FleetEngine

        import numpy as np

        reg = MetricsRegistry()
        engine = FleetEngine(default_model=TwoBranchSoCNet(rng=np.random.default_rng(0)), metrics=reg)
        engine.register_cell("cell-0")
        engine.estimate(["cell-0"], 3.7, 1.0, 25.0)
        snap = reg.snapshot()
        pid = str(os.getpid())
        assert f'process_resident_bytes{{pid="{pid}"}}' in snap["gauges"]

    def test_process_workers_export_per_worker_series(self):
        from repro.core import TwoBranchSoCNet
        from repro.serve import ShardedFleet, WorkerSpec

        import numpy as np

        model = TwoBranchSoCNet(rng=np.random.default_rng(0))
        fleet = ShardedFleet(2, spec=WorkerSpec(url="pipe://", model=model, monitor=True))
        try:
            for k in range(8):
                fleet.register_cell(f"cell-{k}")
            fleet.estimate([f"cell-{k}" for k in range(8)], 3.7, 1.0, 25.0)
            merged = fleet.metrics_snapshot()
        finally:
            fleet.close()
        pids = {
            key[key.find('pid="') + 5 : key.rfind('"')]
            for key in merged["gauges"]
            if key.startswith("process_resident_bytes{")
        }
        assert len(pids) == 2  # one series per worker child
        assert str(os.getpid()) not in pids
