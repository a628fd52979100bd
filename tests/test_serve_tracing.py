"""End-to-end request tracing through the serving path.

The PR's acceptance scenario: one traced request through a real
2-process sharded fleet must yield a *single connected* span tree —
gateway root, batcher queue/serve, shard fan-out, wire hop, worker
stages, engine, kernel — whose stage durations nest within the root,
while a concurrent HTTP GET of ``/metrics`` returns parseable
Prometheus text containing the per-stage histograms.  Also covers the
CLI surface (``serve-sim --trace-json``).
"""

import asyncio
import json
import urllib.request

import numpy as np
import pytest

from repro import cli
from repro.core import TwoBranchSoCNet
from repro.monitor import ExpositionServer, MetricsRegistry, SpanTracer
from repro.serve import FleetEngine, ShardedFleet, SocGateway, WorkerSpec


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


def _span_names(node, acc=None):
    acc = [] if acc is None else acc
    acc.append(node["name"])
    for child in node["children"]:
        _span_names(child, acc)
    return acc


def _assert_children_nest(node):
    for child in node["children"]:
        assert node["start_s"] <= child["start_s"] + 1e-6, (node["name"], child["name"])
        assert child["end_s"] <= node["end_s"] + 1e-6, (node["name"], child["name"])
        _assert_children_nest(child)


# ----------------------------------------------------------------------
class TestTracedShardedServing:
    def test_connected_tree_through_two_process_fleet_with_live_scrape(self, model):
        metrics = MetricsRegistry()
        tracer = SpanTracer(sample_rate=1.0, metrics=metrics, service="gateway")
        engine = ShardedFleet(
            2, spec=WorkerSpec(url="pipe://", model=model, name="shard{shard}", trace=True)
        )
        try:
            for k in range(8):
                engine.register_cell(f"c{k}")

            async def drive():
                async with SocGateway(engine, max_batch=8, tracer=tracer) as gateway:
                    with ExpositionServer(metrics=metrics, tracer=tracer) as server:
                        completions = await asyncio.gather(
                            *(gateway.estimate(f"c{k}", 3.7, 1.0, 25.0) for k in range(8))
                        )
                        # scrape WHILE the gateway is still serving
                        with urllib.request.urlopen(server.url + "/metrics", timeout=5) as resp:
                            scraped = resp.read().decode("utf-8")
                    return completions, scraped

            completions, scraped = asyncio.run(drive())
        finally:
            engine.close()
        assert all(c.ok for c in completions)

        counts = tracer.counts()
        assert counts["committed"] == 8
        assert counts["live"] == 0 and counts["spans_dropped"] == 0
        trees = tracer.trace_trees()
        assert len(trees) == 8
        for tree in trees:
            assert tree["orphans"] == [], "every span must attach to the tree"
            assert tree["root"]["name"] == "gateway.estimate"

        # at least one tree carries the full path down to the kernel
        # (batchmates other than the representative get flat records)
        all_names = [set(_span_names(t["root"])) for t in trees]
        full = {
            "gateway.estimate", "batch.queue_wait", "batch.serve",
            "shard.estimate", "wire.request", "worker.deserialize",
            "worker.compute", "engine.estimate", "kernel.estimate",
            "worker.serialize",
        }
        assert any(full <= names for names in all_names), all_names
        for tree in trees:
            _assert_children_nest(tree["root"])

        # the mid-run scrape is parseable exposition with the per-stage
        # histograms and the gateway's own series
        for line in scraped.splitlines():
            if line and not line.startswith("#"):
                float(line.rsplit(" ", 1)[1])
        assert 'trace_stage_seconds_count{stage="kernel.estimate"}' in scraped or (
            'stage="kernel.estimate"' in scraped
        )
        assert 'stage="gateway.estimate"' in scraped

    def test_worker_spans_share_the_parent_timeline(self, model):
        # time.monotonic is machine-wide on Linux: child-process span
        # timestamps must land inside the parent root span's window
        tracer = SpanTracer(sample_rate=1.0, service="gateway")
        engine = ShardedFleet(
            1, spec=WorkerSpec(url="pipe://", model=model, name="shard{shard}", trace=True)
        )
        try:
            engine.register_cell("c0")

            async def drive():
                async with SocGateway(engine, tracer=tracer) as gateway:
                    return await gateway.estimate("c0", 3.7, 1.0, 25.0)

            completion = asyncio.run(drive())
        finally:
            engine.close()
        assert completion.ok
        (tree,) = tracer.trace_trees()
        worker_spans = [
            s for s in _collect(tree["root"]) if s["name"].startswith("worker.")
        ]
        assert worker_spans, "worker stages must come back over the wire"
        root = tree["root"]
        for span in worker_spans:
            assert span["pid"] != root["pid"], "worker spans record the child pid"
            assert root["start_s"] - 1e-6 <= span["start_s"]
            assert span["end_s"] <= root["end_s"] + 1e-6


def _collect(node):
    out = [node]
    for child in node["children"]:
        out.extend(_collect(child))
    return out


class TestTracedInProcessServing:
    def test_untraced_serving_records_nothing(self, model):
        engine = FleetEngine(default_model=model)
        engine.register_cell("c0")

        async def drive():
            async with SocGateway(engine) as gateway:  # no tracer
                return await gateway.estimate("c0", 3.7, 1.0, 25.0)

        completion = asyncio.run(drive())
        assert completion.ok

    def test_gateway_attrs_record_outcome(self, model):
        tracer = SpanTracer(sample_rate=1.0)
        engine = FleetEngine(default_model=model)
        engine.register_cell("c0")

        async def drive():
            async with SocGateway(engine, tracer=tracer) as gateway:
                return await gateway.estimate("c0", 3.7, 1.0, 25.0)

        asyncio.run(drive())
        (tree,) = tracer.trace_trees()
        attrs = tree["root"]["attrs"]
        assert attrs["ok"] is True
        assert attrs["batch_size"] >= 1
        assert attrs["cell_id"] == "c0"

    def test_sampling_rate_applies_per_request(self, model):
        tracer = SpanTracer(sample_rate=0.5)
        engine = FleetEngine(default_model=model)
        for k in range(6):
            engine.register_cell(f"c{k}")

        async def drive():
            async with SocGateway(engine, tracer=tracer) as gateway:
                return await asyncio.gather(
                    *(gateway.estimate(f"c{k}", 3.7, 1.0, 25.0) for k in range(6))
                )

        completions = asyncio.run(drive())
        assert all(c.ok for c in completions)
        counts = tracer.counts()
        assert counts["started"] == 6
        assert counts["committed"] == 3  # deterministic 1-in-2


# ----------------------------------------------------------------------
class TestCliSurface:
    def test_serve_sim_trace_json(self, tmp_path, capsys):
        out = tmp_path / "traces.json"
        rc = cli.main([
            "serve-sim", "--untrained", "--fast", "--cells", "8",
            "--trace-json", str(out), "--trace-sample", "1.0",
        ])
        assert rc == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["summary"]["committed"] >= 1
        roots = [t["root_name"] for t in record["traces"]]
        assert "serve.rollout" in roots
        assert record["traceEvents"], "chrome export rides along"
        names = {e["name"] for e in record["traceEvents"]}
        assert "engine.rollout" in names
        assert "serve-sim" not in capsys.readouterr().err  # no stray stderr noise

    def test_parser_accepts_new_flags(self):
        parser = cli.build_parser()
        args = parser.parse_args([
            "serve-sim", "--untrained", "--metrics-port", "0",
            "--trace-json", "t.json", "--trace-sample", "0.25",
        ])
        assert args.metrics_port == 0
        assert args.trace_sample == 0.25
