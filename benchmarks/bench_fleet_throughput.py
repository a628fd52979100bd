"""Fleet-serving throughput: per-cell Python loop vs batched engine.

Rolls a synthetic multi-chemistry fleet (``repro.serve.fleet_sim``)
through the autoregressive paths:

- **loop** — :func:`repro.core.rollout.model_rollout` once per cell,
  the pre-serving-layer behaviour (one Python-level Branch 2 call per
  cell per step);
- **batched** — :meth:`repro.serve.FleetEngine.rollout_fleet`, one
  matrix op advancing every active cell per step;
- **sharded** (``--shards N``) — the same fleet fanned across a
  :class:`repro.serve.ShardedFleet`;
- **process** (``--workers N``) — the same fleet fanned across
  ``pipe://`` :class:`repro.serve.ShardWorker` subprocesses (real OS
  processes behind the sharded-fleet interface);
- **shm** (``--workers N``) — the same subprocess workers with bulk
  payloads riding ``shm://`` shared-memory slab rings instead of the
  pipe.  A payload micro-bench also reports ``shm_payload_ratio``:
  bulk-array round-trip p50 copied inline through the pipe vs riding
  the ring (gated in CI against the committed baseline).

All paths must agree to 1e-9 on every trajectory (they share the
:func:`repro.core.rollout.cycle_windows` workloads); the report is
cells/sec and cell-steps/sec for each, plus the speedup.  At the
default fleet size of 1,000 the batched path is expected to be >=20x
faster.

``--gateway R`` additionally measures the asyncio
:class:`repro.serve.SocGateway`'s sustained request throughput: ``R``
single-cell requests from ``--gateway-clients`` concurrent closed-loop
clients, against the **direct** path (one engine call per request —
what serving without the gateway's micro-batching costs).  The gated
metric is their machine-calibrated ratio ``gateway_ratio``
(``--gateway-json`` writes the record CI compares to
``benchmarks/baselines/BENCH_gateway_baseline.json``).

``--json OUT`` writes the rollout numbers as a machine-readable
record; CI uploads it as the ``BENCH_fleet.json`` artifact and
``benchmarks/check_bench_regression.py`` gates it against the
committed baseline.

Run directly (unlike the pytest-benchmark figures in this directory,
fleet serving has no paper artifact to regenerate)::

    PYTHONPATH=src python benchmarks/bench_fleet_throughput.py [--fast] [--json OUT]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.core import TwoBranchSoCNet, model_rollout
from repro.eval.reporting import format_table
from repro.serve import (
    FleetEngine,
    ShardedFleet,
    SocGateway,
    WorkerSpec,
    generate_fleet,
)


def bench_gateway(
    model,
    cells: int,
    requests: int,
    clients: int,
    seed: int,
    max_batch: int = 64,
    max_delay_s: float = 0.002,
    json_out: str | None = None,
) -> dict:
    """Gateway sustained req/s vs the direct one-call-per-request path."""
    import asyncio

    fleet = generate_fleet(
        cells,
        seed=seed,
        ambient_temps_c=(25.0,),
        c_rates=(1.0, 2.0),
        protocols=("discharge",),
        max_time_s=1800.0,
    )
    members = list(fleet.members)
    engine = FleetEngine(default_model=model)
    for m in members:
        engine.register_cell(m.cell_id, chemistry=m.chemistry)

    def readings(j: int):
        m = members[j % len(members)]
        data = m.cycle.data
        idx = (j * 13) % len(m.cycle)
        return m.cell_id, float(data.voltage[idx]), float(data.current[idx]), float(data.temp_c[idx])

    # direct path: the pre-gateway behaviour, one engine call per request
    t0 = time.perf_counter()
    for j in range(requests):
        cell_id, v, i, t = readings(j)
        engine.estimate([cell_id], v, i, t)
    direct_s = time.perf_counter() - t0

    per_client = max(1, requests // clients)

    async def client(gateway: SocGateway, k: int) -> int:
        bad = 0
        for j in range(per_client):
            cell_id, v, i, t = readings(k * per_client + j)
            completion = await gateway.estimate(cell_id, v, i, t)
            bad += not completion.ok
        return bad

    async def drive() -> tuple[SocGateway, int, float]:
        gateway = SocGateway(
            engine, max_batch=max_batch, max_delay_s=max_delay_s, max_in_flight=4 * clients
        )
        async with gateway:
            t0 = time.perf_counter()
            bad = sum(await asyncio.gather(*(client(gateway, k) for k in range(clients))))
            elapsed = time.perf_counter() - t0
        return gateway, bad, elapsed

    gateway, errors, gateway_s = asyncio.run(drive())
    served = per_client * clients
    stats = gateway.stats_dict()["estimate"]
    record = {
        "cells": cells,
        "requests": requests,
        "clients": clients,
        "max_batch": max_batch,
        "max_delay_s": max_delay_s,
        "seed": seed,
        "gateway_req_s": served / gateway_s,
        "direct_req_s": requests / direct_s,
        "gateway_ratio": (served / gateway_s) / (requests / direct_s),
        "errors": errors,
        "shed": stats["shed"],
        "p50_ms": stats["p50_ms"],
        "p95_ms": stats["p95_ms"],
        "p99_ms": stats["p99_ms"],
    }
    print(
        f"gateway: {served} requests from {clients} clients in {gateway_s:.3f}s "
        f"-> {record['gateway_req_s']:,.0f} req/s "
        f"(direct {record['direct_req_s']:,.0f} req/s, "
        f"ratio {record['gateway_ratio']:.1f}x, errors={errors}, shed={stats['shed']}); "
        f"p50/p95/p99 = {stats['p50_ms']:.1f}/{stats['p95_ms']:.1f}/{stats['p99_ms']:.1f} ms"
    )
    if json_out:
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {json_out}")
    return record


def bench_shm_payload(payload_mb: float = 2.0, reps: int = 40) -> dict:
    """Bulk-payload round-trip p50: inline pipe frames vs shm ring refs.

    An echo peer (thread) bounces one ``payload_mb`` float64 array back
    over a pipe pair — the worker wire path minus engine compute — once
    with inline v2 frames (the payload is copied through the pipe both
    ways) and once riding a shared-memory slab ring (the pipe then
    carries only offsets).  The ratio is the pure data-movement win the
    ``shm://`` scheme buys on bulk estimate/rollout payloads.
    """
    import os
    import threading

    from repro.serve.transport import PipeTransport, ShmRing, shm_ring_dir

    n = int(payload_mb * 1024 * 1024) // 8
    payload = np.arange(n, dtype=np.float64)
    p50 = {}
    for scheme in ("pipe", "shm"):
        r1, w1 = os.pipe()
        r2, w2 = os.pipe()
        client = PipeTransport(os.fdopen(w1, "wb"), os.fdopen(r2, "rb"), peer="bench-client")
        server = PipeTransport(os.fdopen(w2, "wb"), os.fdopen(r1, "rb"), peer="bench-server")
        rings = []
        if scheme == "shm":
            base = os.path.join(shm_ring_dir(), f"repro-soc-bench-{os.getpid()}")
            for suffix in ("-req", "-rep"):
                rings.append(ShmRing(base + suffix, slots=8, slab_bytes=1024 * 1024, create=True))
            client.attach_shm(tx=rings[0], rx=rings[1])
            server.attach_shm(tx=rings[1], rx=rings[0])

        def echo():
            while True:
                frame = server.recv_frame()
                if frame is None or frame.kind == "stop":
                    return
                server.send_v2("ok", frame.meta, frame.arrays)

        thread = threading.Thread(target=echo, daemon=True)
        thread.start()
        samples = []
        for k in range(reps + 3):
            t0 = time.perf_counter()
            client.send_v2("payload", {"k": k}, [payload])
            client.recv_frame()
            if k >= 3:  # skip warm-up (page faults, buffer growth)
                samples.append(time.perf_counter() - t0)
        client.send_v2("stop", {}, [])
        thread.join(timeout=5.0)
        client.close()
        server.close()
        for ring in rings:
            ring.close(unlink=True)
        p50[scheme] = float(np.median(samples)) * 1e6
    return {
        "shm_payload_mb": payload_mb,
        "pipe_payload_p50_us": p50["pipe"],
        "shm_payload_p50_us": p50["shm"],
        "shm_payload_ratio": p50["pipe"] / p50["shm"],
    }


def run(
    cells: int,
    step_s: float,
    seed: int,
    fast: bool,
    min_speedup: float,
    shards: int = 0,
    workers: int = 0,
    json_out: str | None = None,
) -> int:
    """Time the rollout paths over one generated fleet; 0 on success."""
    # an untrained (but deterministic) model: forward cost is identical
    # to a trained one, and throughput is all this benchmark measures
    model = TwoBranchSoCNet(rng=np.random.default_rng(seed))
    sim_kwargs = dict(seed=seed, protocols=("discharge",))
    if fast:
        sim_kwargs.update(ambient_temps_c=(25.0,), c_rates=(1.0, 2.0), max_time_s=1800.0)
    t0 = time.perf_counter()
    fleet = generate_fleet(cells, **sim_kwargs)
    gen_s = time.perf_counter() - t0
    assignments = fleet.assignments()
    chem = ", ".join(f"{c}={n}" for c, n in sorted(fleet.chemistries().items()))
    print(f"fleet: {len(fleet)} cells ({chem}), {fleet.n_conditions()} duty cycles "
          f"[generated in {gen_s:.2f}s]")

    t0 = time.perf_counter()
    loop_results = {cid: model_rollout(model, cycle, step_s) for cid, cycle in assignments}
    loop_s = time.perf_counter() - t0

    engine = FleetEngine(default_model=model)
    t0 = time.perf_counter()
    batched_results = engine.rollout_fleet(assignments, step_s=step_s)
    batched_s = time.perf_counter() - t0

    sharded_s = None
    sharded_results = None
    if shards:
        sharded = ShardedFleet(shards, spec=WorkerSpec(model=model))
        t0 = time.perf_counter()
        sharded_results = sharded.rollout_fleet(assignments, step_s=step_s)
        sharded_s = time.perf_counter() - t0

    process_s = None
    process_results = None
    shm_s = None
    shm_results = None
    payload = None
    if workers:
        process_fleet = ShardedFleet(
            workers, spec=WorkerSpec(url="pipe://", model=model)
        )
        t0 = time.perf_counter()
        process_results = process_fleet.rollout_fleet(assignments, step_s=step_s)
        process_s = time.perf_counter() - t0
        process_fleet.close()

        shm_fleet = ShardedFleet(
            workers, spec=WorkerSpec(url="shm://", model=model)
        )
        t0 = time.perf_counter()
        shm_results = shm_fleet.rollout_fleet(assignments, step_s=step_s)
        shm_s = time.perf_counter() - t0
        shm_fleet.close()

        payload = bench_shm_payload()

    worst = 0.0
    for cid, _ in assignments:
        ref, got = loop_results[cid], batched_results[cid]
        if len(ref) != len(got):
            print(f"FAIL: {cid} trajectory length mismatch ({len(ref)} vs {len(got)})")
            return 1
        worst = max(worst, float(np.max(np.abs(ref.soc_pred - got.soc_pred))))
        if sharded_results is not None:
            worst = max(
                worst, float(np.max(np.abs(ref.soc_pred - sharded_results[cid].soc_pred)))
            )
        if process_results is not None:
            worst = max(
                worst, float(np.max(np.abs(ref.soc_pred - process_results[cid].soc_pred)))
            )
        if shm_results is not None:
            worst = max(
                worst, float(np.max(np.abs(ref.soc_pred - shm_results[cid].soc_pred)))
            )
    if worst > 1e-9:
        print(f"FAIL: rollout paths diverge (max |diff| {worst:.3e} > 1e-9)")
        return 1

    steps_total = sum(len(r) - 1 for r in loop_results.values())
    speedup = loop_s / batched_s
    rows = [
        ["loop (per-cell)", loop_s, cells / loop_s, steps_total / loop_s],
        ["batched (fleet)", batched_s, cells / batched_s, steps_total / batched_s],
    ]
    if sharded_s is not None:
        rows.append(
            [f"sharded ({shards} workers)", sharded_s, cells / sharded_s, steps_total / sharded_s]
        )
    if process_s is not None:
        rows.append(
            [f"process ({workers} workers)", process_s, cells / process_s, steps_total / process_s]
        )
    if shm_s is not None:
        rows.append(
            [f"shm ({workers} workers)", shm_s, cells / shm_s, steps_total / shm_s]
        )
    print(format_table(["path", "wall [s]", "cells/s", "cell-steps/s"], rows, float_digits=3))
    print(f"speedup: {speedup:.1f}x over {steps_total} cell-steps "
          f"(max trajectory |diff| {worst:.2e})")
    if payload is not None:
        print(f"shm payload ({payload['shm_payload_mb']:g} MB round-trip): "
              f"pipe {payload['pipe_payload_p50_us']:.0f}us vs "
              f"shm {payload['shm_payload_p50_us']:.0f}us p50 "
              f"-> {payload['shm_payload_ratio']:.2f}x")

    if json_out:
        record = {
            "cells": cells,
            "step_s": step_s,
            "seed": seed,
            "fast": fast,
            "shards": shards,
            "workers": workers,
            "steps_total": steps_total,
            "loop_s": loop_s,
            "batched_s": batched_s,
            "sharded_s": sharded_s,
            "process_s": process_s,
            "shm_s": shm_s,
            "speedup": speedup,
            "sharded_speedup": None if sharded_s is None else loop_s / sharded_s,
            "process_speedup": None if process_s is None else loop_s / process_s,
            "shm_speedup": None if shm_s is None else loop_s / shm_s,
            **(payload or {}),
            "cells_per_s_batched": cells / batched_s,
            "cell_steps_per_s_batched": steps_total / batched_s,
            "max_traj_diff": worst,
        }
        with open(json_out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {json_out}")

    if min_speedup and speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x below required {min_speedup:g}x")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--cells", type=int, default=1000, help="fleet size")
    parser.add_argument("--step", type=float, default=60.0, help="rollout step (s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--fast", action="store_true",
                        help="CI smoke mode: small fleet, light simulation")
    parser.add_argument("--shards", type=int, default=0,
                        help="also time a ShardedFleet with this many in-process workers")
    parser.add_argument("--workers", type=int, default=0,
                        help="also time a ShardedFleet over this many subprocess workers")
    parser.add_argument("--json", dest="json_out", default=None,
                        help="write the timings to this JSON file")
    parser.add_argument("--gateway", type=int, default=0,
                        help="also bench the async gateway with this many requests (0 = off)")
    parser.add_argument("--gateway-clients", type=int, default=64,
                        help="concurrent closed-loop gateway clients")
    parser.add_argument("--gateway-cells", type=int, default=96,
                        help="fleet size for the gateway bench")
    parser.add_argument("--gateway-json", default=None,
                        help="write the gateway record to this JSON file")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail below this speedup (default: 20 at full size, off with --fast)")
    args = parser.parse_args(argv)
    if args.cells < 1:
        parser.error("--cells must be at least 1")
    if args.shards < 0:
        parser.error("--shards cannot be negative")
    if args.workers < 0:
        parser.error("--workers cannot be negative")
    if args.fast and args.cells == 1000:
        args.cells = 128
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 0.0 if args.fast else 20.0
    rc = run(args.cells, args.step, args.seed, args.fast, min_speedup,
             shards=args.shards, workers=args.workers, json_out=args.json_out)
    if rc == 0 and args.gateway:
        model = TwoBranchSoCNet(rng=np.random.default_rng(args.seed))
        record = bench_gateway(model, args.gateway_cells, args.gateway, args.gateway_clients,
                               args.seed, json_out=args.gateway_json)
        if record["errors"] or record["shed"]:
            print(f"FAIL: gateway bench saw errors={record['errors']} shed={record['shed']}")
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
