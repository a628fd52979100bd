"""Every metric the benchmark reports: unit, direction, layer and prediction.

``BENCHMARK.json`` is generated from this table (:func:`manifest`) and
the smoke tests check that the two agree.  For each per-layer metric,
``moves`` names the end-to-end metric and workload a change to that
layer should move, as written down before any change was measured.
"""

from __future__ import annotations

WORKLOAD_WHY = {
    "live-inproc": (
        "open-loop Poisson 3:1 estimate:predict at 3k req/s, a 512-caller closed loop and a 24k req/s overload through "
        "gateway, batcher and one 4-model engine: per-request Python dominates"
    ),
    "rollout-inproc": (
        "back-to-back 1024-cell rollout_fleet at a 60 s step on one in-process engine, no journal: "
        "kernel and rollout plan assembly dominate"
    ),
}
# runnable and smoke-tested, but not in BENCHMARK.json: their three busy
# processes on a 2-vCPU shared machine were not steady (README.md)
UNGATED_WHY = {
    "live-pipe2": (
        "the live traffic at 1.2k req/s and 8k overload over 2 journaled pipe:// workers: "
        "fan-out, wire codec, transport and per-request worker RPCs dominate"
    ),
    "rollout-durable": (
        "the same rollouts over 2 journaled pipe:// workers: bulk journal writes and bulk wire payloads dominate"
    ),
}

# name, unit, better, bound
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("saturated_rps", "req/s", "higher", 0.25),
    ("cell_steps_per_s", "1/s", "higher", 0.25),
    ("cpu_us_per_op", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

E2E_MEANING = {
    "setup_s": "spawn workers, open registry and journals, register 1024 cells, seed one estimate each (median of the run's set-ups)",
    "p50_ms": "live: latency from scheduled arrival, fixed-rate segments; rollout: rollout_fleet call latency",
    "saturated_rps": "live: median over closed-loop segments of ok completions/s; rollout: rollout calls/s back to back",
    "cell_steps_per_s": "rollout: median over calls of cell-steps per second; live: one cell-step per request, so saturated_rps",
    "cpu_us_per_op": "CPU of parent + workers per ok request (live, fixed-rate phase) or per cell-step (rollout: median over calls)",
    "peak_rss_mb": "largest summed RSS of parent + workers over the phase boundaries",
}

_LIVE = "saturated_rps, latency.p99_ms on live-inproc"
_PIPE = "saturated_rps, cpu_us_per_op, latency.p99_ms on live-pipe2 (ungated)"
# name, unit, better, layer, what it should move
PER_LAYER = (
    ("kernel.estimate_us.b1", "us", "lower", "core/kernels", "cell_steps_per_s on rollout-inproc; nothing on live-inproc"),
    ("kernel.estimate_us.b64", "us", "lower", "core/kernels", "cell_steps_per_s on rollout-inproc; nothing on live-inproc"),
    ("kernel.estimate_us.b1024", "us", "lower", "core/kernels", "cell_steps_per_s on rollout-inproc; nothing on live-inproc"),
    ("kernel.predict_us.b64", "us", "lower", "core/kernels", "cell_steps_per_s on rollout-inproc; nothing on live-inproc"),
    ("kernel.fused_estimate_us.b64", "us", "lower", "core/kernels", "cell_steps_per_s on rollout-inproc; nothing on live-inproc"),
    ("engine.estimate_us.b1", "us", "lower", "serve/engine", "saturated_rps, cpu_us_per_op on live-inproc"),
    ("engine.estimate_us.b64", "us", "lower", "serve/engine", "saturated_rps, cpu_us_per_op on live-inproc"),
    ("engine.estimate_us.b1024", "us", "lower", "serve/engine", "saturated_rps, cpu_us_per_op on live-inproc"),
    ("engine.predict_us.b64", "us", "lower", "serve/engine", "saturated_rps, cpu_us_per_op on live-inproc"),
    ("engine.overhead_x.b64", "x", "lower", "serve/engine", "saturated_rps, cpu_us_per_op on live-inproc"),
    ("engine.rollout_ms", "ms", "lower", "serve/engine", "cell_steps_per_s on rollout-inproc"),
    ("batcher.flush_us.b64", "us", "lower", "serve/scheduler", _LIVE),
    ("batcher.overhead_x.b64", "x", "lower", "serve/scheduler", _LIVE),
    ("batcher.mean_batch", "count", "higher", "serve/scheduler", _LIVE),
    ("batcher.mean_wait_ms", "ms", "lower", "serve/scheduler", _LIVE),
    ("batcher.size_flush_frac", "ratio", "higher", "serve/scheduler", _LIVE),
    ("gateway.req_us.b64", "us", "lower", "serve/gateway", "p50_ms, " + _LIVE),
    ("gateway.overhead_x.b64", "x", "lower", "serve/gateway", "p50_ms, " + _LIVE),
    ("gateway.shed_frac", "ratio", "lower", "serve/gateway", "p50_ms, " + _LIVE),
    ("loadgen.send_lag_p99_ms", "ms", "lower", "serve/gateway", "p50_ms, " + _LIVE),
    ("sharding.overhead_x.b64", "x", "lower", "serve/sharding", "nothing: no workload uses in-process shards"),
    ("worker.estimate_us.b1.pipe", "us", "lower", "serve/workers", "setup_s on rollout-durable (ungated); " + _PIPE),
    ("worker.estimate_us.b64.pipe", "us", "lower", "serve/workers", "setup_s on rollout-durable (ungated); " + _PIPE),
    ("worker.estimate_us.b1024.pipe", "us", "lower", "serve/workers", "setup_s on rollout-durable (ungated); " + _PIPE),
    ("worker.estimate_us.b64.shm", "us", "lower", "serve/workers", "nothing: no workload uses shm://"),
    ("worker.estimate_us.b64.tcp", "us", "lower", "serve/workers", "nothing: no workload uses tcp://"),
    ("worker.overhead_x.b64", "x", "lower", "serve/workers", "setup_s on rollout-durable (ungated); " + _PIPE),
    ("worker.rpcs_per_batch", "count", "lower", "serve/workers", "nothing on the gated workloads; " + _PIPE),
    ("worker.cpu_share", "ratio", "lower", "serve/workers", "cpu_us_per_op on live-pipe2, rollout-durable (both ungated)"),
    ("wire.codec_us.b64", "us", "lower", "serve/wire", "latency.p99_ms on live-pipe2; cell_steps_per_s on rollout-durable (ungated)"),
    ("transport.echo_us.2mb.pipe", "us", "lower", "serve/transport", "cell_steps_per_s on rollout-durable (ungated)"),
    ("transport.echo_us.2mb.shm", "us", "lower", "serve/transport", "nothing: no workload uses shm://"),
    ("journal.append_us.b64", "us", "lower", "serve/persistence", "cell_steps_per_s on rollout-durable (ungated); a little on live-pipe2"),
    ("journal.bytes_per_cell_step", "B", "lower", "serve/persistence", "cell_steps_per_s on rollout-durable (ungated)"),
    ("journal.rollout_overhead_x", "x", "lower", "serve/persistence", "cell_steps_per_s on rollout-durable (ungated)"),
    ("monitor.overhead_x.b64", "x", "lower", "monitor", "cpu_us_per_op on every workload"),
    ("trace.overhead_x", "x", "lower", "benchmark", "nothing: the cost of the traced run's proxies"),
    ("trace.front_self_us_per_op", "us", "lower", "serve/gateway", "p50_ms, " + _LIVE),
    ("trace.fleet_self_us_per_op", "us", "lower", "serve/sharding", "cell_steps_per_s on rollout-durable (ungated); saturated_rps, latency.p99_ms on live-pipe2"),
    ("trace.worker_us_per_op", "us", "lower", "serve/workers", "cell_steps_per_s on rollout-*; saturated_rps, latency.p99_ms on live-pipe2"),
    ("trace.fleet_calls_per_op", "count", "lower", "serve/scheduler", _LIVE),
    ("trace.fleet_rows_per_call", "count", "higher", "serve/scheduler", _LIVE),
    ("trace.worker_calls_per_batch", "count", "lower", "serve/workers", "cell_steps_per_s on rollout-durable (ungated); saturated_rps, latency.p99_ms on live-pipe2"),
    ("trace.worker_rows_per_call", "count", "higher", "serve/workers", "cell_steps_per_s on rollout-durable (ungated); saturated_rps, latency.p99_ms on live-pipe2"),
    # the end-to-end tail, from the untraced replay: too noisy between runs
    # on a shared 2-vCPU host to gate as an end-to-end metric (README.md)
    ("latency.p99_ms", "ms", "lower", "end to end", "itself: live, median segment p99; rollout, p99 of call latency"),
    ("fail_frac", "ratio", "lower", "benchmark", "nothing: must stay 0"),
)


def manifest() -> dict:
    """The ``BENCHMARK.json`` contents."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 45,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound} for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better, _, _ in PER_LAYER],
    }
