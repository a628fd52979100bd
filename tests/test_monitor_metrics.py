"""Tests for the metrics primitives (:mod:`repro.monitor.metrics`)."""

import json
import math

import numpy as np
import pytest

from repro.monitor.metrics import (
    Histogram,
    MetricsRegistry,
    P2Quantile,
    merge_snapshots,
    prometheus_text,
    series_key,
)


# ----------------------------------------------------------------------
class TestP2Quantile:
    @pytest.mark.parametrize("p", [0.5, 0.95, 0.99])
    @pytest.mark.parametrize(
        "sampler",
        [
            lambda rng, n: rng.normal(10.0, 2.0, n),
            lambda rng, n: rng.uniform(-1.0, 1.0, n),
            lambda rng, n: rng.exponential(0.004, n),  # latency-shaped
        ],
    )
    def test_tracks_numpy_percentiles(self, p, sampler):
        """The sketch must land within ~2% of the distribution scale of
        the exact percentile while storing only five markers."""
        rng = np.random.default_rng(42)
        data = sampler(rng, 20_000)
        sketch = P2Quantile(p)
        for x in data:
            sketch.add(x)
        exact = float(np.percentile(data, 100 * p))
        scale = float(np.std(data))
        assert abs(sketch.value() - exact) < 0.05 * scale
        assert len(sketch) == len(data)

    def test_small_sample_is_exact_interpolation(self):
        sketch = P2Quantile(0.5)
        for x in (5.0, 1.0, 3.0):
            sketch.add(x)
        assert sketch.value() == pytest.approx(np.percentile([5.0, 1.0, 3.0], 50))

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.9).value())

    def test_rejects_degenerate_quantile(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestHistogram:
    def test_counts_and_extremes_are_exact(self):
        hist = Histogram()
        rng = np.random.default_rng(0)
        data = rng.normal(0.0, 1.0, 5000)
        for x in data:
            hist.observe(x)
        assert hist.count == 5000
        assert hist.total == pytest.approx(float(data.sum()))
        assert hist.vmin == float(data.min())
        assert hist.vmax == float(data.max())
        assert abs(hist.quantile(0.5) - float(np.percentile(data, 50))) < 0.05

    def test_observe_batch_vectorizes_and_sketches_means(self):
        hist = Histogram()
        batches = [np.full(10, v) for v in (1.0, 2.0, 3.0)]
        for batch in batches:
            hist.observe_batch(batch)
        assert hist.count == 30
        assert hist.total == pytest.approx(60.0)
        assert hist.vmin == 1.0 and hist.vmax == 3.0
        # quantiles are quantiles of per-batch means
        assert 1.0 <= hist.quantile(0.5) <= 3.0
        hist.observe_batch(np.empty(0))  # no-op
        assert hist.count == 30

    def test_summary_round_trips_through_json(self):
        hist = Histogram()
        hist.observe(0.25)
        summary = json.loads(json.dumps(hist.summary()))
        assert summary["count"] == 1
        assert summary["min"] == 0.25 and summary["max"] == 0.25
        assert summary["quantiles"]["0.5"] == 0.25


# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_series_identity_and_get_or_create(self):
        reg = MetricsRegistry()
        a = reg.counter("reqs_total", op="estimate")
        b = reg.counter("reqs_total", op="estimate")
        c = reg.counter("reqs_total", op="predict")
        assert a is b and a is not c
        a.inc()
        a.inc(2.0)
        assert reg.counter_value("reqs_total", op="estimate") == 3.0
        assert reg.counter_value("reqs_total", op="rollout") == 0.0

    def test_label_order_does_not_split_series(self):
        assert series_key("m", {"b": "2", "a": "1"}) == 'm{a="1",b="2"}'
        reg = MetricsRegistry()
        assert reg.gauge("g", x="1", y="2") is reg.gauge("g", y="2", x="1")

    def test_snapshot_is_json_safe_and_complete(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(5)
        reg.gauge("cells").set(17)
        reg.histogram("lat_seconds", endpoint="est").observe(0.002)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["counters"]["c_total"] == 5.0
        assert snap["gauges"]["cells"] == 17.0
        assert snap["histograms"]['lat_seconds{endpoint="est"}']["count"] == 1

    def test_prometheus_exposition_shape(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", op="estimate").inc(3)
        reg.gauge("cells").set(4)
        reg.histogram("lat_seconds").observe(0.5)
        text = reg.to_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{op="estimate"} 3' in text
        assert "# TYPE cells gauge" in text
        assert "# TYPE lat_seconds summary" in text
        assert 'lat_seconds{quantile="0.5"} 0.5' in text
        assert "lat_seconds_count 1" in text
        assert "lat_seconds_sum 0.5" in text

    def test_prometheus_renders_merged_snapshots_too(self):
        reg = MetricsRegistry()
        reg.histogram("h", endpoint="e").observe(1.0)
        text = prometheus_text(merge_snapshots([reg.snapshot(), reg.snapshot()]))
        assert 'h_count{endpoint="e"} 2' in text
        assert 'h{quantile="0.5",endpoint="e"} 1' in text


class TestMergeSnapshots:
    def test_counters_and_gauges_sum(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("reqs_total", shard="0").inc(3)
        b.counter("reqs_total", shard="0").inc(4)
        b.counter("other_total").inc()
        a.gauge("cells").set(10)
        b.gauge("cells").set(20)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]['reqs_total{shard="0"}'] == 7.0
        assert merged["counters"]["other_total"] == 1.0
        assert merged["gauges"]["cells"] == 30.0

    def test_histograms_combine_exactly_except_quantiles(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for x in (1.0, 2.0):
            a.histogram("h").observe(x)
        for x in (10.0, 20.0, 30.0):
            b.histogram("h").observe(x)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])["histograms"]["h"]
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(63.0)
        assert merged["min"] == 1.0 and merged["max"] == 30.0
        # count-weighted quantile approximation stays inside the hull
        assert 1.0 <= merged["quantiles"]["0.5"] <= 30.0

    def test_empty_and_none_snapshots_are_ignored(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        merged = merge_snapshots([None, {}, reg.snapshot()])
        assert merged["counters"]["c"] == 1.0
        assert merge_snapshots([]) == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_empty_registry_snapshot_contributes_nothing(self):
        # an empty registry (fresh worker, nothing observed) must not
        # perturb the merge — no phantom series, no zeroed histograms
        empty = MetricsRegistry()
        reg = MetricsRegistry()
        reg.histogram("h").observe(3.0)
        merged = merge_snapshots([empty.snapshot(), reg.snapshot()])
        assert set(merged["histograms"]) == {"h"}
        assert merged["histograms"]["h"]["count"] == 1
        assert merged["histograms"]["h"]["min"] == 3.0

    def test_zero_count_histogram_leaves_bounds_and_quantiles_alone(self):
        # a created-but-never-observed histogram has min/max None and
        # all-None quantiles; merging it with a populated series must
        # keep the populated series' values exactly
        a = MetricsRegistry()
        a.histogram("h")  # created, zero observations
        b = MetricsRegistry()
        for x in (2.0, 4.0):
            b.histogram("h").observe(x)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])["histograms"]["h"]
        assert merged["count"] == 2
        assert merged["min"] == 2.0 and merged["max"] == 4.0
        assert merged["quantiles"]["0.5"] == pytest.approx(3.0)

    def test_all_zero_count_series_merge_without_quantiles(self):
        a = MetricsRegistry()
        a.histogram("h")
        b = MetricsRegistry()
        b.histogram("h")
        merged = merge_snapshots([a.snapshot(), b.snapshot()])["histograms"]["h"]
        assert merged["count"] == 0
        assert merged["min"] is None and merged["max"] is None
        assert merged["quantiles"] == {}

    def test_disjoint_label_sets_stay_disjoint(self):
        # shard A and shard B observe different label values — the merge
        # must keep one series per label set, not collapse them
        a = MetricsRegistry()
        a.histogram("latency_seconds", endpoint="estimate").observe(0.001)
        a.counter("requests_total", shard="0").inc(2)
        b = MetricsRegistry()
        b.histogram("latency_seconds", endpoint="predict").observe(0.005)
        b.counter("requests_total", shard="1").inc(3)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert set(merged["histograms"]) == {
            'latency_seconds{endpoint="estimate"}',
            'latency_seconds{endpoint="predict"}',
        }
        assert merged["histograms"]['latency_seconds{endpoint="estimate"}']["count"] == 1
        assert merged["histograms"]['latency_seconds{endpoint="predict"}']["count"] == 1
        assert merged["counters"]['requests_total{shard="0"}'] == 2.0
        assert merged["counters"]['requests_total{shard="1"}'] == 3.0

    def test_merged_snapshot_is_remergeable(self):
        # cli._report_monitoring merges the parent snapshot with
        # ShardedFleet.metrics_snapshot(), which is already topology-merged; the
        # output format must round-trip
        a = MetricsRegistry()
        a.histogram("h").observe(1.0)
        b = MetricsRegistry()
        b.histogram("h").observe(3.0)
        once = merge_snapshots([a.snapshot(), b.snapshot()])
        twice = merge_snapshots([once, {}])
        assert twice["histograms"]["h"]["count"] == 2
        assert twice["histograms"]["h"]["sum"] == pytest.approx(4.0)
        assert twice["histograms"]["h"]["min"] == 1.0
