"""Compiled-kernel latency: Tensor path vs compiled chains, pickle vs frames.

Measurements of what the compiled inference path
(:mod:`repro.core.kernels`) and the zero-copy wire frames
(:mod:`repro.serve.wire`) buy over the naive alternatives:

- **single-row latency** — p50 of one ``estimate_soc`` call, the
  Tensor path vs :class:`repro.core.CompiledTwoBranchKernel`.  The
  gated metric is their same-machine ratio ``kernel_speedup``
  (expected >= 5x: the forward is four tiny GEMMs, the Tensor path is
  mostly object graph).
- **batched throughput** — rows/s at ``--batch`` rows per call, both
  paths, plus a ``rollout_fleet`` run of a synthetic fleet through
  ``FleetEngine``, checked cell by cell against
  :func:`repro.core.model_rollout` (``rollout_diff``).
- **wire codec** — encode+decode round-trips of a bulk estimate
  request and a fleet-rollout reply: a stdlib-pickle body in the same
  length-prefixed framing (the general object codec, pickled inline
  here as the reference) vs the wire's zero-copy frames
  (``frames_speedup``).
- **cross-model fusion** — a mixed-model batch served by the
  per-model dispatch loop vs one block-diagonal
  :class:`repro.core.FusedTwoBranchKernel` GEMM chain:
  ``mixed_model_rows_per_s``, ``fused_speedup`` and the fused-vs-loop
  equivalence diff (``fused_diff``, budget 1e-9).

Every kernel measurement is checked against the Tensor path to the
fleet's 1e-9 equivalence budget (``max_equiv_diff``) — a fast kernel
that changes the numbers is a bug, and the CI gate enforces both.

``--json OUT`` writes the machine-readable record; CI uploads it as
the ``BENCH_kernel.json`` artifact and ``check_bench_regression.py
--metric kernel_speedup`` gates it against the committed baseline.

Run directly::

    PYTHONPATH=src python benchmarks/bench_kernel_latency.py [--fast] [--json OUT]
"""

from __future__ import annotations

import argparse
import io
import json
import pickle
import sys
import time

import numpy as np

from repro.core import CompiledTwoBranchKernel, FusedTwoBranchKernel, TwoBranchSoCNet, model_rollout
from repro.eval.reporting import format_table
from repro.serve import FleetEngine, generate_fleet, wire


def _p50_us(fn, reps: int) -> float:
    """Median per-call latency in microseconds over ``reps`` samples."""
    samples = np.empty(reps)
    for k in range(reps):
        t0 = time.perf_counter()
        fn()
        samples[k] = time.perf_counter() - t0
    return float(np.percentile(samples, 50)) * 1e6


def bench_single_row(model, kernel, reps: int) -> dict:
    """p50 latency of a one-row Branch 1 estimate, both paths."""
    tensor_us = _p50_us(lambda: model.estimate_soc(3.7, 1.0, 25.0), reps)
    kernel_us = _p50_us(lambda: kernel.estimate_soc(3.7, 1.0, 25.0), reps)
    diff = float(np.max(np.abs(model.estimate_soc(3.7, 1.0, 25.0) - kernel.estimate_soc(3.7, 1.0, 25.0))))
    return {
        "tensor_p50_us": tensor_us,
        "kernel_p50_us": kernel_us,
        "kernel_speedup": tensor_us / kernel_us,
        "single_row_diff": diff,
    }


def bench_batched(model, kernel, batch: int, reps: int) -> dict:
    """Batched Branch 1 rows/s, both paths."""
    rng = np.random.default_rng(0)
    v = rng.uniform(2.8, 4.2, batch)
    i = rng.uniform(-5.0, 5.0, batch)
    t = rng.uniform(0.0, 45.0, batch)
    tensor_us = _p50_us(lambda: model.estimate_soc(v, i, t), reps)
    kernel_us = _p50_us(lambda: kernel.estimate_soc(v, i, t), reps)
    diff = float(np.max(np.abs(model.estimate_soc(v, i, t) - kernel.estimate_soc(v, i, t))))
    return {
        "tensor_rows_per_s": batch / (tensor_us * 1e-6),
        "kernel_rows_per_s": batch / (kernel_us * 1e-6),
        "batched_speedup": tensor_us / kernel_us,
        "batched_diff": diff,
    }


def bench_fused(batch: int, reps: int, seed: int, n_models: int = 8) -> dict:
    """A mixed-model batch: per-model dispatch loop vs one fused chain.

    Measured in the dispatch-bound regime the engine fuses in (at most
    ~16 rows per model group) — larger groups are GEMM-bound and the
    engine keeps the per-model loop for those.
    """
    batch = min(batch, 16 * n_models)
    models = [TwoBranchSoCNet(rng=np.random.default_rng(seed + 10 + k)) for k in range(n_models)]
    kernels = [CompiledTwoBranchKernel(m) for m in models]
    fused = FusedTwoBranchKernel(kernels)
    rng = np.random.default_rng(3)
    v = rng.uniform(2.8, 4.2, batch)
    i = rng.uniform(-5.0, 5.0, batch)
    t = rng.uniform(0.0, 45.0, batch)
    member = rng.integers(0, n_models, batch)
    groups = [np.flatnonzero(member == u) for u in range(n_models)]

    def dispatch():
        out = np.empty(batch)
        for u, idx in enumerate(groups):
            out[idx] = kernels[u].estimate_soc(v[idx], i[idx], t[idx])
        return out

    fused.estimate_soc(v, i, t, member)  # warm the buffers
    dispatch_us = _p50_us(dispatch, reps)
    fused_us = _p50_us(lambda: fused.estimate_soc(v, i, t, member), reps)
    diff = float(np.max(np.abs(fused.estimate_soc(v, i, t, member) - dispatch())))
    return {
        "fused_models": n_models,
        "fused_batch": batch,
        "dispatch_rows_per_s": batch / (dispatch_us * 1e-6),
        "mixed_model_rows_per_s": batch / (fused_us * 1e-6),
        "fused_speedup": dispatch_us / fused_us,
        "fused_diff": diff,
    }


def bench_monitor_overhead(model, reps: int) -> dict:
    """Single-row engine estimate p50: bare engine vs fully monitored.

    The monitor PR's acceptance budget is <10% on this path (metrics
    counters + physics-bounds checks per call); the ratio is reported
    in the JSON record as ``monitor_overhead``.
    """
    from repro.monitor import DriftMonitor, MetricsRegistry

    plain = FleetEngine(default_model=model)
    plain.register_cell("bench-cell")
    metrics = MetricsRegistry()
    monitored = FleetEngine(
        default_model=model, metrics=metrics, drift=DriftMonitor(metrics=metrics)
    )
    monitored.register_cell("bench-cell")
    ids = ["bench-cell"]
    plain.estimate(ids, 3.7, 1.0, 25.0)  # warm both kernels
    monitored.estimate(ids, 3.7, 1.0, 25.0)
    plain_us = _p50_us(lambda: plain.estimate(ids, 3.7, 1.0, 25.0), reps)
    monitored_us = _p50_us(lambda: monitored.estimate(ids, 3.7, 1.0, 25.0), reps)
    return {
        "engine_plain_p50_us": plain_us,
        "engine_monitored_p50_us": monitored_us,
        "monitor_overhead": monitored_us / plain_us,
    }


def bench_tracing_overhead(model, reps: int) -> dict:
    """Single-row engine estimate p50: bare engine vs traced request.

    The traced call is the worst case the tracing PR adds to the hot
    path: a sampled root span around the engine call, so every stage
    (engine + kernel spans) records.  The ratio is reported in the
    JSON record as ``tracing_overhead`` (budget <5% at the default 1%
    head-sampling rate; this measures a 1-in-100 sampled mix).
    """
    from repro.monitor import MetricsRegistry, SpanTracer

    plain = FleetEngine(default_model=model)
    plain.register_cell("bench-cell")
    traced = FleetEngine(default_model=model)
    traced.register_cell("bench-cell")
    tracer = SpanTracer(sample_rate=0.01, metrics=MetricsRegistry(), max_traces=64)
    ids = ["bench-cell"]

    def traced_call():
        with tracer.trace("bench.estimate"):
            traced.estimate(ids, 3.7, 1.0, 25.0)

    plain.estimate(ids, 3.7, 1.0, 25.0)  # warm both kernels
    traced_call()
    plain_us = _p50_us(lambda: plain.estimate(ids, 3.7, 1.0, 25.0), reps)
    traced_us = _p50_us(traced_call, reps)
    return {
        "engine_traced_p50_us": traced_us,
        "tracing_overhead": traced_us / plain_us,
    }


def bench_rollout(model, cells: int, step_s: float, seed: int) -> dict:
    """Fleet rollout through the engine, checked against per-cell ``model_rollout``."""
    fleet = generate_fleet(
        cells,
        seed=seed,
        ambient_temps_c=(25.0,),
        c_rates=(1.0, 2.0),
        protocols=("discharge",),
        max_time_s=1800.0,
    )
    assignments = fleet.assignments()
    engine = FleetEngine(default_model=model)
    t0 = time.perf_counter()
    kernel_results = engine.rollout_fleet(assignments, step_s=step_s)
    kernel_s = time.perf_counter() - t0
    diff = max(
        float(np.max(np.abs(kernel_results[cid].soc_pred - model_rollout(model, cycle, step_s).soc_pred)))
        for cid, cycle in assignments
    )
    steps_total = sum(len(r) - 1 for r in kernel_results.values())
    return {
        "rollout_cells": cells,
        "rollout_kernel_s": kernel_s,
        "rollout_diff": diff,
        "rollout_cell_steps_per_s": steps_total / kernel_s,
        "_results": kernel_results,
    }


def _pickle_roundtrip(payload):
    """Reference codec: a stdlib pickle body in the wire's length-prefixed framing."""
    buf = io.BytesIO()
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    buf.write(wire.frame_header(len(body)) + body)
    buf.seek(0)
    header = wire.read_exact(buf, wire.LENGTH_PREFIX_SIZE)
    return pickle.loads(wire.read_exact(buf, wire.frame_length(header)))


def bench_wire(rollout_results: dict, batch: int, reps: int) -> dict:
    """Encode+decode round-trips: stdlib pickle bodies vs zero-copy frames."""
    rng = np.random.default_rng(1)
    ids = [f"cell-{k}" for k in range(batch)]
    cols = [rng.uniform(2.8, 4.2, batch), rng.uniform(-5, 5, batch), rng.uniform(0, 45, batch)]

    def pickle_estimate():
        return _pickle_roundtrip(("estimate", (ids, *cols), {"now_s": None}))

    def v2_estimate():
        buf = io.BytesIO()
        wire.write_v2(
            buf,
            "estimate",
            {"n": batch, "now_s": None},
            [wire.encode_str_list(ids), *cols],
        )
        buf.seek(0)
        frame = wire.read_frame(buf)
        return wire.decode_str_list(frame.arrays[0], batch), frame.arrays[1:]

    meta, arrays = wire.encode_rollout_results(rollout_results)

    def pickle_rollout():
        return _pickle_roundtrip(("ok", rollout_results))

    def v2_rollout():
        buf = io.BytesIO()
        wire.write_v2(buf, "ok", meta, arrays)
        buf.seek(0)
        frame = wire.read_frame(buf)
        return wire.decode_rollout_results(frame.meta, frame.arrays)

    est_pickle_us = _p50_us(pickle_estimate, reps)
    est_v2_us = _p50_us(v2_estimate, reps)
    roll_pickle_us = _p50_us(pickle_rollout, max(reps // 4, 50))
    roll_v2_us = _p50_us(v2_rollout, max(reps // 4, 50))
    return {
        "wire_batch": batch,
        "estimate_pickle_us": est_pickle_us,
        "estimate_frames_us": est_v2_us,
        "rollout_reply_pickle_us": roll_pickle_us,
        "rollout_reply_frames_us": roll_v2_us,
        "frames_speedup": roll_pickle_us / roll_v2_us,
    }


def run(reps: int, batch: int, cells: int, step_s: float, seed: int, fast: bool,
        json_out: str | None) -> int:
    """Run all four measurements; 0 on success."""
    model = TwoBranchSoCNet(rng=np.random.default_rng(seed))
    kernel = CompiledTwoBranchKernel(model)
    kernel.estimate_soc(3.7, 1.0, 25.0)  # warm the buffers

    single = bench_single_row(model, kernel, reps)
    batched = bench_batched(model, kernel, batch, max(reps // 10, 50))
    fused = bench_fused(batch, max(reps // 10, 50), seed)
    monitor = bench_monitor_overhead(model, max(reps // 2, 100))
    tracing = bench_tracing_overhead(model, max(reps // 2, 100))
    rollout = bench_rollout(model, cells, step_s, seed)
    wire_rec = bench_wire(rollout.pop("_results"), batch, max(reps // 10, 50))

    record = {
        "reps": reps,
        "batch": batch,
        "step_s": step_s,
        "seed": seed,
        "fast": fast,
        **single,
        **batched,
        **fused,
        **monitor,
        **tracing,
        **rollout,
        **wire_rec,
    }
    record["max_equiv_diff"] = max(record["single_row_diff"], record["batched_diff"], record["rollout_diff"])

    rows = [
        ["estimate x1 (Tensor)", single["tensor_p50_us"], 1e6 / single["tensor_p50_us"]],
        ["estimate x1 (kernel)", single["kernel_p50_us"], 1e6 / single["kernel_p50_us"]],
        [f"estimate x{batch} (Tensor)", batch * 1e6 / batched["tensor_rows_per_s"],
         batched["tensor_rows_per_s"]],
        [f"estimate x{batch} (kernel)", batch * 1e6 / batched["kernel_rows_per_s"],
         batched["kernel_rows_per_s"]],
    ]
    print(format_table(["path", "p50 [us]", "rows/s"], rows, float_digits=1))
    print(f"kernel speedup: {record['kernel_speedup']:.1f}x single-row, "
          f"{record['batched_speedup']:.1f}x at batch {batch}")
    print(f"fused {fused['fused_models']}-model batch x{fused['fused_batch']}: "
          f"dispatch {fused['dispatch_rows_per_s']:,.0f} rows/s vs "
          f"fused {fused['mixed_model_rows_per_s']:,.0f} rows/s "
          f"-> {record['fused_speedup']:.2f}x (diff {fused['fused_diff']:.2e})")
    print(f"monitoring overhead: engine estimate x1 {monitor['engine_plain_p50_us']:.1f}us bare "
          f"vs {monitor['engine_monitored_p50_us']:.1f}us monitored "
          f"-> {(record['monitor_overhead'] - 1) * 100:+.1f}% (budget +10%)")
    print(f"tracing overhead: engine estimate x1 {tracing['engine_traced_p50_us']:.1f}us traced "
          f"(1% head-sampled root span) "
          f"-> {(record['tracing_overhead'] - 1) * 100:+.1f}% (budget +5%)")
    print(f"rollout_fleet ({cells} cells): {rollout['rollout_kernel_s']:.3f}s "
          f"({record['rollout_cell_steps_per_s']:,.0f} cell-steps/s, "
          f"diff vs model_rollout {rollout['rollout_diff']:.2e})")
    print(f"wire (batch {batch}): estimate pickle {wire_rec['estimate_pickle_us']:.1f}us "
          f"vs frames {wire_rec['estimate_frames_us']:.1f}us; rollout reply "
          f"pickle {wire_rec['rollout_reply_pickle_us']:.0f}us vs frames "
          f"{wire_rec['rollout_reply_frames_us']:.0f}us "
          f"-> {record['frames_speedup']:.1f}x")
    print(f"max |kernel - Tensor| anywhere: {record['max_equiv_diff']:.2e}")

    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {json_out}")

    if record["max_equiv_diff"] > 1e-9:
        print(f"FAIL: kernel diverges from the Tensor path "
              f"({record['max_equiv_diff']:.3e} > 1e-9)")
        return 1
    if record["fused_diff"] > 1e-9:
        print(f"FAIL: fused chain diverges from per-model dispatch "
              f"({record['fused_diff']:.3e} > 1e-9)")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--reps", type=int, default=5000,
                        help="single-row latency samples (p50 reported)")
    parser.add_argument("--batch", type=int, default=1024, help="batched-path rows per call")
    parser.add_argument("--cells", type=int, default=256, help="rollout fleet size")
    parser.add_argument("--step", type=float, default=60.0, help="rollout step (s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true",
                        help="CI smoke mode: fewer samples, smaller fleet")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the timings to this JSON file")
    args = parser.parse_args(argv)
    if args.reps < 10 or args.batch < 1 or args.cells < 1:
        parser.error("--reps must be >= 10; --batch and --cells must be >= 1")
    if args.fast:
        if args.reps == 5000:
            args.reps = 2000
        if args.cells == 256:
            args.cells = 96
    return run(args.reps, args.batch, args.cells, args.step, args.seed, args.fast,
               args.json_out)


if __name__ == "__main__":
    sys.exit(main())
