"""Command-line interface: train, evaluate, and roll out SoC models.

Gives the library a deployable surface without writing Python:

- ``repro-soc train``     — train a (PINN or No-PINN) model on a
  synthetic campaign and checkpoint it to ``.npz``;
- ``repro-soc evaluate``  — score a checkpoint on the campaign's test
  split at one or more horizons;
- ``repro-soc predict``   — one-shot SoC estimation + prediction from
  sensor readings and a hypothesized workload;
- ``repro-soc rollout``   — autoregressive full-discharge trace of a
  named test cycle;
- ``repro-soc inspect``   — parameters / memory / ops of a checkpoint;
- ``repro-soc serve-sim`` — fleet-serving simulation: roll a synthetic
  multi-chemistry fleet through the batched
  :class:`repro.serve.FleetEngine` (optionally sharded across
  ``--workers N`` subprocesses, journaled to durable per-cell state,
  and/or routed through a model registry) and
  report throughput and fleet-wide accuracy; ``--async`` additionally
  drives concurrent client traffic through the
  :class:`repro.serve.SocGateway` and reports latency percentiles,
  shed counts and sustained req/s (the CI soak lane);
- ``repro-soc serve``     — the long-running serving daemon: gateway +
  control loop + scrape endpoint listening on a control URL
  (``tcp://host:port`` or ``unix:///path``) that
  :class:`repro.serve.SocClient` clients and ``repro-soc worker
  --connect`` workers dial into; workers spawned locally reach it
  over pipes, TCP or Unix sockets (``--worker-transport``), sealed
  journal segments tier into ``--archive-dir``;
- ``repro-soc worker``    — one standalone shard worker: ``--listen``
  binds a socket URL for a fleet to dial, ``--connect`` joins a
  running daemon by name (restart-by-reconnect re-attaches it to its
  old shard);
- ``repro-soc registry`` — inspect and manage a model registry:
  ``list`` published versions/channels, ``promote`` a canary to
  stable, ``rollback`` (abandon) a canary;
- ``repro-soc retrain`` — one-shot offline retrain: harvest journaled
  rollout windows into training rows (``repro.learn``), fine-tune the
  registry's stable checkpoint on them, and publish the candidate to
  the canary channel; ``--url`` runs against a live daemon instead
  (drift events fetched from, and the publish routed through, its
  control URL).

Live metrics are scraped from a running process: ``serve-sim
--metrics-port`` and the ``serve`` daemon expose ``/metrics`` (Prometheus
text), ``/traces`` and ``/healthz``; ``serve-sim --metrics-json`` writes
the merged snapshot of a finished run.

Installed as the ``repro-soc`` console script (see ``setup.py``); also
reachable as ``python -m repro.cli``.

Usage examples::

    repro-soc train --dataset sandia --pinn --out model.npz
    repro-soc evaluate model.npz --dataset sandia --horizons 120 240 360
    repro-soc predict model.npz --voltage 3.7 --current 3 \\
        --temp 25 --workload-current 6 --horizon 300
    repro-soc rollout model.npz --dataset lg --cycle us06-25C --step 30
    repro-soc serve-sim model.npz --cells 512 --step 60
    repro-soc serve-sim model.npz --cells 100000 --workers 8 --journal fleet.journal
    repro-soc serve-sim --untrained --async --workers 2 --cells 96 --fast \\
        --clients 64 --requests 8000 --soak-json soak.json --fail-on-error
    repro-soc serve model.npz --listen tcp://0.0.0.0:7355 --workers 2 \\
        --worker-transport tcp --journal fleet.journal --archive-dir ./cold \\
        --metrics-port 9923
    repro-soc worker --connect tcp://daemon-host:7355 --name rack3
    repro-soc registry list ./registry
    repro-soc registry promote ./registry sandia-serve
    repro-soc retrain ./registry sandia-serve --journal fleet.journal.shard0 \\
        --journal fleet.journal.shard1 --archive-dir ./cold --epochs 10
    repro-soc retrain ./registry sandia-serve --journal fleet.journal \\
        --url tcp://daemon-host:7355
    repro-soc serve-sim model.npz --cells 256 --metrics-json metrics.json --fail-on-drift
    repro-soc serve-sim --untrained --fast --cells 64 --async --workers 2 \\
        --metrics-port 9923 --trace-json traces.json --trace-sample 0.1
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .core.complexity import model_complexity
from .core.config import ModelConfig, PhysicsConfig, TrainConfig
from .core.model import TwoBranchSoCNet
from .core.rollout import model_rollout
from .core.trainer import train_two_branch
from .datasets.lg import LGConfig, generate_lg
from .datasets.preprocessing import smooth_cycle
from .datasets.sandia import SandiaConfig, generate_sandia
from .datasets.windowing import make_estimation_samples, make_prediction_samples
from .eval.metrics import mae
from .eval.reporting import format_rollout_summary, format_table
from .nn.serialization import load_state, save_state

__all__ = ["main", "build_parser"]

# every 4th closed-loop client request of ``serve-sim --async`` is a
# Branch 2 what-if, the rest are Branch 1 estimates
_PREDICT_EVERY = 4

_DATASET_DEFAULTS = {
    "sandia": {
        "train_horizon": 120.0,
        "horizon_scale": 360.0,
        "physics_horizons": (120.0, 240.0, 360.0),
        "smooth_s": None,
        "stride": 1,
    },
    "lg": {
        "train_horizon": 30.0,
        "horizon_scale": 70.0,
        "physics_horizons": (30.0, 50.0, 70.0),
        "smooth_s": 30.0,
        "stride": 20,
    },
}


def _generate(dataset: str, seed: int, fast: bool):
    if dataset == "sandia":
        cfg = SandiaConfig(seed=seed, sim_dt_s=2.0 if fast else 1.0)
        return generate_sandia(cfg)
    cfg = LGConfig(seed=seed) if not fast else LGConfig(
        seed=seed,
        sampling_period_s=0.5,
        n_train_mixed=3,
        train_temps_c=(0.0, 10.0, 25.0),
        mixed_segment_s=(180.0, 420.0),
    )
    return generate_lg(cfg)


def _prepare_cycles(cycles, smooth_s):
    if smooth_s is None:
        return list(cycles)
    return [smooth_cycle(c, smooth_s) for c in cycles]


def _save_model(model: TwoBranchSoCNet, path: str, meta: dict) -> None:
    save_state(model.state_dict(), path, meta=meta)


def _load_model(path: str) -> tuple[TwoBranchSoCNet, dict]:
    state, meta = load_state(path)
    if meta is None or "horizon_scale" not in meta:
        raise SystemExit(f"{path} is not a repro-soc checkpoint")
    model = TwoBranchSoCNet(
        ModelConfig(hidden=tuple(meta["hidden"]), horizon_scale_s=meta["horizon_scale"]),
        rng=np.random.default_rng(0),
    )
    model.load_state_dict(state)
    return model, meta


# ----------------------------------------------------------------------
def _cmd_train(args) -> int:
    defaults = _DATASET_DEFAULTS[args.dataset]
    print(f"generating {args.dataset} campaign (seed {args.seed})...", file=sys.stderr)
    campaign = _generate(args.dataset, args.seed, args.fast)
    train_cycles = _prepare_cycles(campaign.train(), defaults["smooth_s"])
    estimation = make_estimation_samples(train_cycles, stride=defaults["stride"])
    prediction = make_prediction_samples(
        train_cycles, horizon_s=defaults["train_horizon"], stride=defaults["stride"]
    )
    physics = PhysicsConfig(horizons_s=defaults["physics_horizons"]) if args.pinn else None
    model, logs = train_two_branch(
        estimation,
        prediction,
        model_config=ModelConfig(horizon_scale_s=defaults["horizon_scale"]),
        train_config=TrainConfig(
            epochs_branch1=args.epochs, epochs_branch2=args.epochs, seed=args.seed
        ),
        physics=physics,
    )
    meta = {
        "dataset": args.dataset,
        "pinn": bool(args.pinn),
        "seed": args.seed,
        "hidden": list(model.config.hidden),
        "horizon_scale": model.config.horizon_scale_s,
        "final_loss_b1": logs["branch1"].last().get("loss"),
        "final_loss_b2": logs["branch2"].last().get("loss"),
    }
    _save_model(model, args.out, meta)
    print(f"saved {model.num_parameters()}-parameter model to {args.out}")
    print(f"final losses: b1={meta['final_loss_b1']:.4f} b2={meta['final_loss_b2']:.4f}")
    return 0


def _cmd_evaluate(args) -> int:
    model, meta = _load_model(args.model)
    dataset = args.dataset or meta["dataset"]
    defaults = _DATASET_DEFAULTS[dataset]
    campaign = _generate(dataset, args.seed, args.fast)
    test_cycles = _prepare_cycles(campaign.test(), defaults["smooth_s"])
    print(f"model: {args.model} (dataset={dataset}, pinn={meta['pinn']})")
    for horizon in args.horizons:
        samples = make_prediction_samples(test_cycles, horizon_s=horizon, stride=defaults["stride"])
        err = mae(model.predict_samples(samples), samples.soc_target)
        print(f"  SoC(t+{horizon:g}s) MAE = {err:.4f}   (n={len(samples)})")
    estimation = make_estimation_samples(test_cycles, stride=defaults["stride"])
    soc_hat = model.estimate_soc(
        estimation.features[:, 0], estimation.features[:, 1], estimation.features[:, 2]
    )
    print(f"  SoC(t)      MAE = {mae(soc_hat, estimation.soc):.4f}   (n={len(estimation)})")
    return 0


def _cmd_predict(args) -> int:
    model, _ = _load_model(args.model)
    soc_now = model.estimate_soc(args.voltage, args.current, args.temp)[0]
    soc_future = model.predict_soc(
        soc_now, args.workload_current, args.workload_temp if args.workload_temp is not None else args.temp,
        args.horizon,
    )[0]
    print(f"SoC(t)   = {soc_now:.4f}")
    print(f"SoC(t+{args.horizon:g}s) = {soc_future:.4f} under {args.workload_current:g} A")
    return 0


def _cmd_rollout(args) -> int:
    model, meta = _load_model(args.model)
    dataset = args.dataset or meta["dataset"]
    defaults = _DATASET_DEFAULTS[dataset]
    campaign = _generate(dataset, args.seed, args.fast)
    try:
        cycle = campaign.by_name(args.cycle)
    except KeyError:
        names = ", ".join(c.name for c in campaign.test())
        raise SystemExit(f"unknown cycle {args.cycle!r}; test cycles: {names}")
    if defaults["smooth_s"]:
        cycle = smooth_cycle(cycle, defaults["smooth_s"])
    result = model_rollout(model, cycle, step_s=args.step)
    tail = f" (+{result.tail_s:g}s tail)" if result.tail_s else ""
    print(f"rollout of {cycle.name}: {len(result) - 1} steps x {result.step_s:g}s{tail}")
    print(f"  initial SoC estimate: {result.initial_soc:.4f} (true {result.soc_true[0]:.4f})")
    print(format_rollout_summary({cycle.name: result}))
    if args.csv:
        from .eval.reporting import save_csv

        save_csv(args.csv, ["time_s", "soc_pred", "soc_true"],
                 list(zip(result.time_s, result.soc_pred, result.soc_true)))
        print(f"  series written to {args.csv}")
    return 0


def _gateway_traffic(engine, fleet, args, metrics=None, tracer=None):
    """Drive the async gateway: one fleet rollout, then client traffic.

    Returns ``(gateway, rollout_results, rollout_s, completions,
    traffic_s)``; every client is closed-loop (submits its next request
    when the previous completion resolves), so concurrency equals
    ``--clients`` and throughput is the sustained rate.
    """
    import asyncio
    import time

    from .serve import SocGateway

    members = list(fleet.members)
    # the first ``requests % clients`` clients send one extra request,
    # so exactly ``--requests`` are sent
    per_client, extra = divmod(args.requests, args.clients)

    async def client(gateway, k):
        completions = []
        for j in range(per_client + (k < extra)):
            member = members[(k * 37 + j * 7) % len(members)]
            data = member.cycle.data
            idx = (k * 11 + j * 13) % len(member.cycle)
            if j % _PREDICT_EVERY == _PREDICT_EVERY - 1:
                completion = await gateway.predict(
                    member.cell_id, float(data.current[idx]), member.ambient_c, args.step
                )
            else:
                completion = await gateway.estimate(
                    member.cell_id,
                    float(data.voltage[idx]),
                    float(data.current[idx]),
                    float(data.temp_c[idx]),
                )
            completions.append(completion)
        return completions

    async def drive():
        gateway = SocGateway(
            engine,
            max_batch=args.max_batch,
            max_delay_s=args.max_delay_ms / 1000.0,
            max_in_flight=args.max_in_flight,
            metrics=metrics,
            tracer=tracer,
        )
        async with gateway:
            t0 = time.perf_counter()
            rollout_results = await gateway.rollout(fleet.assignments(), args.step)
            rollout_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            batches = await asyncio.gather(*(client(gateway, k) for k in range(args.clients)))
            traffic_s = time.perf_counter() - t0
        completions = [c for batch in batches for c in batch]
        return gateway, rollout_results, rollout_s, completions, traffic_s

    return asyncio.run(drive())


def _check_serve_flags(args) -> None:
    """Reject flag values serve-sim and serve would otherwise ignore or crash on."""
    if args.workers < 0:
        raise SystemExit("--workers cannot be negative")
    if not args.journal:
        # both only act on a journal: without one nothing rotates or ships
        if args.archive_dir:
            raise SystemExit("--archive-dir needs --journal (there are no journal segments to archive)")
        if args.journal_segment_kb:
            raise SystemExit("--journal-segment-kb needs --journal (there is no journal to rotate)")


def _resolve_serve_model(args):
    """Checkpoint or ``--untrained`` model, shared by serve-sim and serve."""
    if args.untrained:
        if args.model:
            raise SystemExit("give a checkpoint or --untrained, not both")
        model = TwoBranchSoCNet(rng=np.random.default_rng(args.seed))
        return model, {"dataset": None}
    if not args.model:
        raise SystemExit("provide a checkpoint path (or --untrained)")
    return _load_model(args.model)


def _worker_url_template(args) -> str | None:
    """Worker address template from the transport flags.

    ``--worker-url`` wins (addresses of already-running workers, so
    ``spawn`` stays off); otherwise ``--worker-transport`` picks the
    medium and the workers are spawned locally.
    """
    if args.worker_url:
        return args.worker_url
    transport = args.worker_transport
    if transport in ("pipe", "shm"):
        return f"{transport}://"
    if transport == "tcp":
        return "tcp://127.0.0.1:0"
    import os
    import tempfile

    return f"unix://{tempfile.gettempdir()}/repro-soc-{os.getpid()}.shard{{shard}}.sock"


def _fleet_spec(args, model, monitoring: bool, tracing: bool):
    """The :class:`~repro.serve.WorkerSpec` for ``--workers`` topologies."""
    from .serve import WorkerSpec

    url = _worker_url_template(args)
    return WorkerSpec(
        url=url,
        model=model,
        registry=args.registry or None,
        journal=args.journal,
        monitor=monitoring,
        trace=tracing,
        archive_root=args.archive_dir,
        journal_segment_bytes=_segment_bytes(args),
        spawn=not args.worker_url,
    )


def _segment_bytes(args) -> int:
    return args.journal_segment_kb * 1024


def _archive_store(args):
    if not args.archive_dir:
        return None
    from .serve import DirectoryArchiveStore

    return DirectoryArchiveStore(args.archive_dir)


def _cmd_serve_sim(args) -> int:
    import time

    from .serve import FleetEngine, ModelRegistry, ShardedFleet, StateJournal, generate_fleet

    if args.cells < 1:
        raise SystemExit("--cells must be at least 1")
    if args.clients < 1:
        raise SystemExit("--clients must be at least 1")
    if args.requests < 0:
        raise SystemExit("--requests cannot be negative")
    _check_serve_flags(args)
    model, meta = _resolve_serve_model(args)
    sim_kwargs = dict(seed=args.seed)
    if args.fast:
        sim_kwargs.update(
            ambient_temps_c=(25.0,),
            c_rates=(1.0,),
            protocols=("discharge",),
            max_time_s=1800.0,
        )
    print(f"generating fleet of {args.cells} cells (seed {args.seed})...", file=sys.stderr)
    fleet = generate_fleet(args.cells, **sim_kwargs)
    registry = None
    if args.registry:
        registry = ModelRegistry(args.registry)
        dataset = meta.get("dataset")
        name = f"{dataset or 'default'}-serve"
        registry.publish(name, model, dataset=dataset)
        print(f"serving via registry {args.registry} (model {name!r})")
    tracing = args.metrics_port is not None or bool(args.trace_json)
    monitoring = bool(args.metrics_json or args.fail_on_drift) or tracing
    metrics = drift = tracer = None
    if monitoring:
        from .monitor import DriftMonitor, MetricsRegistry, install_process_metrics

        metrics = MetricsRegistry()
        install_process_metrics(metrics)
        drift = DriftMonitor(metrics=metrics)
    if tracing:
        from .monitor import SpanTracer

        tracer = SpanTracer(sample_rate=args.trace_sample, metrics=metrics, service="gateway")
    journal = None
    if args.journal and not args.workers:
        journal = StateJournal(
            args.journal, archive=_archive_store(args), max_segment_bytes=_segment_bytes(args)
        )
    if args.workers:
        engine = ShardedFleet(args.workers, spec=_fleet_spec(args, model, monitoring, tracing))
    else:
        engine = FleetEngine(
            default_model=model, registry=registry, journal=journal, metrics=metrics, drift=drift
        )
    assignments = fleet.assignments()

    server = None
    if args.metrics_port is not None:
        from .monitor import ExpositionServer

        def _health():
            health = engine.worker_health()
            return {"ok": not health or all(health), "workers": list(health)}

        # Serve the parent registry only: a scrape must never RPC the
        # subprocess workers mid-request (their pipes carry binary
        # frames, not HTTP).  worker_health() is pipe-free.
        server = ExpositionServer(
            metrics=metrics, tracer=tracer, health=_health,
            host="127.0.0.1", port=args.metrics_port,
        )
        server.start()
        print(f"exposition server listening on {server.url}", file=sys.stderr)

    gateway = None
    completions = []
    traffic_s = 0.0
    if args.async_:
        gateway, results, elapsed, completions, traffic_s = _gateway_traffic(
            engine, fleet, args, metrics=metrics, tracer=tracer
        )
    else:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.trace("serve.rollout", cells=len(fleet)):
                results = engine.rollout_fleet(assignments, step_s=args.step)
        else:
            results = engine.rollout_fleet(assignments, step_s=args.step)
        elapsed = time.perf_counter() - t0
    steps_total = sum(len(r) - 1 for r in results.values())
    trajectories = list(results.values())
    chem = ", ".join(f"{c}={n}" for c, n in sorted(fleet.chemistries().items()))
    print(f"fleet: {len(fleet)} cells ({chem}), {fleet.n_conditions()} duty cycles")
    if args.workers:
        print(f"workers: {args.workers} subprocesses (cells per shard: {engine.shard_sizes()})")
    print(
        f"batched rollout: {steps_total} steps in {elapsed:.3f}s "
        f"-> {len(fleet) / elapsed:,.0f} cells/s, {steps_total / elapsed:,.0f} cell-steps/s"
    )
    if journal is not None:
        print(
            f"journal: {args.journal} ({len(journal)} cells, "
            f"{journal.size_bytes():,} bytes after rollout)"
        )
    metric_rows = []
    for label, metric in (
        ("trajectory MAE", "mae"),
        ("trajectory RMSE", "rmse"),
        ("max |error|", "max_error"),
        ("final |error|", "final_error"),
    ):
        values = [getattr(r, metric)() for r in trajectories]
        metric_rows.append([label, float(np.mean(values)), float(np.max(values))])
    print(format_table(["metric", "mean", "worst"], metric_rows))

    rc = 0
    if args.async_:
        rc = _report_gateway(gateway, engine, completions, traffic_s, args)
    if monitoring:
        drift_rc = _report_monitoring(engine, metrics, drift, args)
        rc = rc or drift_rc
    if tracer is not None:
        counts = tracer.counts()
        print(
            f"tracing: {counts['committed']} traces committed "
            f"({counts['sampled']} head-sampled of {counts['started']} started, "
            f"{counts['spans_dropped']} spans dropped)"
        )
        if args.trace_json:
            import json

            record = {
                "summary": counts,
                "traces": tracer.trace_trees(),
                "traceEvents": tracer.to_chrome()["traceEvents"],
            }
            with open(args.trace_json, "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=2)
                fh.write("\n")
            print(f"wrote {args.trace_json}")
    if server is not None:
        server.stop()
    if journal is not None:
        journal.close()
    engine.close()
    return rc


def _report_gateway(gateway, engine, completions, traffic_s, args) -> int:
    """Print the gateway traffic report, write soak JSON, pick exit code."""
    import json

    from .eval.reporting import format_table

    stats = gateway.stats_dict()
    n_ok = sum(stats[e]["ok"] for e in ("estimate", "predict"))
    n_err = sum(stats[e]["errors"] for e in ("estimate", "predict", "rollout"))
    n_shed = sum(stats[e]["shed"] for e in ("estimate", "predict", "rollout"))
    health = engine.worker_health()
    dead = [k for k, up in enumerate(health) if not up]
    rows = []
    for endpoint in ("estimate", "predict", "rollout"):
        ep = stats[endpoint]
        rows.append([
            endpoint, ep["requests"], ep["ok"], ep["errors"], ep["shed"],
            ep["p50_ms"], ep["p95_ms"], ep["p99_ms"],
        ])
    print(
        f"gateway traffic: {len(completions)} requests over {args.clients} clients "
        f"in {traffic_s:.3f}s -> {len(completions) / max(traffic_s, 1e-9):,.0f} req/s "
        f"(ok={n_ok} errors={n_err} shed={n_shed})"
    )
    print(format_table(
        ["endpoint", "reqs", "ok", "err", "shed", "p50 ms", "p95 ms", "p99 ms"], rows
    ))
    bstats = gateway.batcher.stats
    print(
        f"micro-batching: {bstats.flushes} flushes "
        f"(size={bstats.size_flushes} deadline={bstats.deadline_flushes} "
        f"forced={bstats.forced_flushes}), mean batch {bstats.mean_batch_size():.1f}"
    )
    if health:
        state = "all alive" if not dead else f"DEAD: {dead}"
        print(f"workers: {len(health)} subprocess shards ({state})")
    if args.soak_json:
        record = {
            "cells": args.cells,
            "clients": args.clients,
            "requests": len(completions),
            "ok": n_ok,
            "errors": n_err,
            "shed": n_shed,
            "traffic_s": traffic_s,
            "req_per_s": len(completions) / max(traffic_s, 1e-9),
            "workers": args.workers,
            "workers_alive": health,
            "max_batch": args.max_batch,
            "max_delay_ms": args.max_delay_ms,
            "max_in_flight": args.max_in_flight,
            "endpoints": stats,
        }
        with open(args.soak_json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.soak_json}")
    # the books after stop(): every request answered exactly once, and
    # nothing left admitted or queued
    books = []
    if len(completions) != args.requests:
        books.append(f"{len(completions)} completions for {args.requests} requests")
    for endpoint in ("estimate", "predict", "rollout"):
        ep = stats[endpoint]
        if ep["requests"] != ep["completed"] + ep["shed"]:
            books.append(
                f"{endpoint}: {ep['requests']} requests != {ep['completed']} completed + {ep['shed']} shed"
            )
    if gateway.in_flight or gateway.batcher.pending:
        books.append(f"in_flight={gateway.in_flight} pending={gateway.batcher.pending} after stop")
    if args.fail_on_error and (n_err or n_shed or dead or books):
        print(
            f"FAIL: gateway soak saw errors={n_err} shed={n_shed} dead_workers={dead} "
            f"unbalanced={books} (--fail-on-error)"
        )
        return 1
    return 0


def _report_monitoring(engine, metrics, drift, args) -> int:
    """Merge the run's metrics, write the snapshot, apply the drift gate.

    The merged view covers the parent registry (engine or gateway
    series plus parent-side drift counters) and — for ``--workers``
    topologies — every subprocess shard's registry via
    ``ShardedFleet.metrics_snapshot()``.  With ``--fail-on-drift`` any
    drift/physics-bounds event anywhere in the topology exits 1: the
    CI false-positive gate for the detectors on clean traffic.
    """
    import json

    from .monitor import merge_snapshots

    snapshots = [metrics.snapshot()]
    if args.workers:  # the workers' own registries; one engine shares `metrics`
        snapshots.append(engine.metrics_snapshot())
    merged = merge_snapshots(snapshots)
    drift_total = sum(
        value for key, value in merged["counters"].items() if key.startswith("drift_events_total")
    )
    events = [
        {
            "kind": e.kind,
            "cell_id": e.cell_id,
            "value": e.value,
            "threshold": e.threshold,
            "window": e.window,
            "detail": e.detail,
            "trace_ids": list(e.trace_ids),
        }
        for e in drift.events()
    ]
    if args.metrics_json:
        record = {
            "metrics": merged,
            "drift_event_total": drift_total,
            "drift_events": events,
        }
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.metrics_json}")
    print(f"monitoring: {int(drift_total)} drift/physics events across the topology")
    if args.fail_on_drift and drift_total:
        by_kind = {
            key.split('kind="', 1)[1].rstrip('"}'): int(value)
            for key, value in merged["counters"].items()
            if key.startswith("drift_events_total")
        }
        print(f"FAIL: drift detectors fired on clean traffic: {by_kind} (--fail-on-drift)")
        return 1
    return 0


def _cmd_serve(args) -> int:
    """Long-running multi-host serving daemon (``repro-soc serve``)."""
    from .serve import FleetEngine, ModelRegistry, ShardedFleet, StateJournal
    from .serve.daemon import SocDaemon, run_daemon

    _check_serve_flags(args)
    # the daemon runs until stopped: it has no end at which to write a
    # file or apply an exit gate (its metrics and traces are scraped live)
    end_of_run = {"--metrics-json": args.metrics_json, "--fail-on-drift": args.fail_on_drift,
                  "--trace-json": args.trace_json}
    for flag, value in end_of_run.items():
        if value:
            raise SystemExit(f"{flag} is a serve-sim flag: the serve daemon never exits to honour it "
                             "(scrape /metrics and /traces via --metrics-port)")
    model, meta = _resolve_serve_model(args)
    registry = None
    if args.registry:
        registry = ModelRegistry(args.registry)
        dataset = meta.get("dataset")
        name = f"{dataset or 'default'}-serve"
        registry.publish(name, model, dataset=dataset)
        print(f"serving via registry {args.registry} (model {name!r})", file=sys.stderr)
    tracing = args.metrics_port is not None
    metrics = tracer = None
    from .monitor import DriftMonitor, MetricsRegistry, install_process_metrics

    metrics = MetricsRegistry()
    install_process_metrics(metrics)
    drift = DriftMonitor(metrics=metrics)
    if tracing:
        from .monitor import SpanTracer

        tracer = SpanTracer(sample_rate=args.trace_sample, metrics=metrics, service="gateway")

    if args.workers:
        spec = _fleet_spec(args, model, monitoring=True, tracing=tracing)
        engine = ShardedFleet(args.workers, spec=spec)
    else:
        journal = (
            StateJournal(args.journal, archive=_archive_store(args), max_segment_bytes=_segment_bytes(args))
            if args.journal
            else None
        )
        engine = FleetEngine(
            default_model=model, registry=registry, journal=journal, metrics=metrics, drift=drift
        )
    daemon = SocDaemon(
        engine,
        args.listen,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1000.0,
        max_in_flight=args.max_in_flight,
        metrics=metrics,
        tracer=tracer,
        control_interval_s=args.control_interval,
        heartbeat_timeout_s=args.heartbeat_timeout,
        exposition_port=args.metrics_port,
    )
    return run_daemon(daemon)


def _cmd_worker(args) -> int:
    """Standalone shard worker (``repro-soc worker``)."""
    from .serve.workers import run_worker, run_worker_connect

    if bool(args.listen) == bool(args.connect):
        raise SystemExit("give exactly one of --listen URL or --connect URL")
    if args.listen:
        return run_worker(args.listen, once=args.once)
    return run_worker_connect(
        args.connect,
        args.name,
        reconnect=not args.no_reconnect,
        connect_timeout_s=args.connect_timeout,
    )


def _cmd_registry(args) -> int:
    from .eval.reporting import format_table
    from .serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    if args.registry_command == "list":
        if not registry.names():
            print(f"registry {args.registry} is empty")
            return 0
        rows = []
        for entry in registry.entries():
            pointers = registry.channels(entry.name)
            tags = ",".join(sorted(ch for ch, v in pointers.items() if v == entry.version))
            rows.append([
                entry.ref,
                entry.chemistry or "-",
                entry.dataset or "-",
                tags or "-",
            ])
        print(format_table(["model", "chemistry", "dataset", "channels"], rows))
        return 0
    try:
        if args.registry_command == "promote":
            version = registry.promote(args.name)
            print(f"promoted {args.name}@v{version} to stable")
        else:  # rollback
            version = registry.rollback(args.name)
            print(f"abandoned canary of {args.name}; stable stays at v{version}")
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}")
    return 0


def _cmd_retrain(args) -> int:
    from .learn import FineTuneConfig, fine_tune, harvest_training_set, publish_candidate
    from .serve import ModelRegistry

    registry = ModelRegistry(args.registry)
    client = None
    events = None
    if args.url:
        from .serve.client import SocClient

        client = SocClient(args.url)
        events = client.drift_events()
        print(f"daemon at {args.url} reports {len(events)} drift event(s)")
    try:
        report = harvest_training_set(
            args.journal,
            events=events,
            cell_ids=args.cells or None,
            store=_archive_store(args),
            max_gaps=args.max_gaps,
        )
        gaps = f", {report.missing_segments} segment gap(s) tolerated" if report.missing_segments else ""
        print(f"harvested {report.rows} row(s) from {len(report.cells)} cell(s){gaps}")
        samples = report.partition(args.chemistry) if args.chemistry else report.samples
        rows = 0 if samples is None else len(samples)
        if rows < args.min_rows:
            print(f"not enough rows to fine-tune (have {rows}, need {args.min_rows}); "
                  "nothing published")
            return 1
        try:
            entry = registry.describe(args.name)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}")
        config = FineTuneConfig(epochs=args.epochs, lr=args.lr, seed=args.seed,
                                targets=args.targets)
        candidate = fine_tune(registry.load(args.name), samples, config)
        print(f"fine-tuned a candidate from {entry.ref} "
              f"({config.epochs} epoch(s) on {rows} row(s))")
        if args.dry_run:
            print("dry run: candidate not published")
            return 0
        try:
            version = publish_candidate(
                client if client is not None else registry,
                args.name,
                candidate,
                chemistry=entry.chemistry,
                dataset=entry.dataset,
                extra={"retrained_from": entry.version, "harvest_rows": rows,
                       "harvest_cells": len(report.cells)},
            )
        except ValueError as exc:
            raise SystemExit(f"error: {exc}")
        print(f"published {args.name}@v{version} to the canary channel")
        return 0
    finally:
        if client is not None:
            client.close()


def _cmd_inspect(args) -> int:
    model, meta = _load_model(args.model)
    report = model_complexity(model)
    print(f"checkpoint: {args.model}")
    for key, value in meta.items():
        print(f"  {key}: {value}")
    print(f"  parameters: {report.parameters}")
    print(f"  memory: {report.memory_kib():.1f} KiB (float32)")
    print(f"  MACs/inference: {report.macs}")
    print(f"  ops/inference: {report.ops}")
    return 0


# ----------------------------------------------------------------------
_SERVE_EPILOG = """\
flag groups (shared by serve-sim, serve and worker):
  fleet topology     how cells are partitioned across subprocess/socket
                     workers, journals, registries
  gateway            micro-batching and admission control
  observability      metrics/drift/tracing and the HTTP scrape endpoint
  worker transport   the medium shard workers are reached over
                     (pipe://, unix:///path, tcp://host:port) and
                     where sealed journal segments are archived
"""

_WORKER_EPILOG = """\
topologies:
  --listen tcp://0.0.0.0:7356    bind and wait for a fleet to dial in
                                 (prints 'worker listening on <url>')
  --connect tcp://daemon:7355    dial a 'repro-soc serve' daemon and
                                 serve as the shard named by --name;
                                 reconnects after daemon restarts
The worker is stateless at startup: the connecting fleet sends the
engine description (model, registry, journal, archive) in its first
frame, and the journal restores per-cell state.
"""


def _flag_parents() -> dict[str, argparse.ArgumentParser]:
    """Shared flag groups for the serving subcommands (parent parsers)."""
    fleet = argparse.ArgumentParser(add_help=False)
    g = fleet.add_argument_group("fleet topology")
    g.add_argument("--workers", type=int, default=0,
                   help="partition the fleet across this many worker subprocesses "
                        "(medium set by --worker-transport; 0 = one in-process engine)")
    g.add_argument("--journal", default=None,
                   help="stream per-cell state to this journal file (restorable; with "
                        "--workers each worker journals to <path>.shardK)")
    g.add_argument("--journal-segment-kb", type=int, default=0,
                   help="rotate the journal into sealed segments once the active file "
                        "crosses this size (0 = no rotation); with --archive-dir, "
                        "sealed segments ship to the cold store")
    g.add_argument("--registry", default=None,
                   help="serve through a model registry rooted at this directory")

    gateway = argparse.ArgumentParser(add_help=False)
    g = gateway.add_argument_group("gateway")
    g.add_argument("--max-batch", type=int, default=64,
                   help="gateway micro-batch size trigger")
    g.add_argument("--max-delay-ms", type=float, default=5.0,
                   help="gateway micro-batch deadline trigger (milliseconds)")
    g.add_argument("--max-in-flight", type=int, default=1024,
                   help="admission limit; requests beyond it are shed with ok=False")

    observability = argparse.ArgumentParser(add_help=False)
    g = observability.add_argument_group("observability")
    g.add_argument("--metrics-json", default=None,
                   help="enable monitoring (metrics registry + drift detectors across "
                        "every layer, incl. subprocess workers) and write the merged "
                        "snapshot here (serve-sim only)")
    g.add_argument("--fail-on-drift", action="store_true",
                   help="enable monitoring and exit 1 if any drift/physics-bounds "
                        "event fires (the detector false-positive gate; serve-sim only)")
    g.add_argument("--metrics-port", type=int, default=None,
                   help="enable tracing and serve /metrics, /traces and /healthz over "
                        "HTTP on 127.0.0.1:PORT (0 = ephemeral)")
    g.add_argument("--trace-json", default=None,
                   help="enable tracing and write sampled span trees (plus Chrome "
                        "trace events for chrome://tracing) to this file (serve-sim only)")
    g.add_argument("--trace-sample", type=float, default=0.05,
                   help="head-sampling rate for request traces (1.0 = every request; "
                        "slow traces are captured regardless)")

    transport = argparse.ArgumentParser(add_help=False)
    g = transport.add_argument_group("worker transport")
    g.add_argument("--worker-transport", choices=("pipe", "shm", "tcp", "unix"), default="pipe",
                   help="medium for --workers shards: stdio pipes (local fast path), "
                        "shared-memory rings (pipes carry framing only; bulk arrays "
                        "ride /dev/shm slabs), TCP sockets on 127.0.0.1, or "
                        "Unix-domain sockets (default: pipe)")
    g.add_argument("--worker-url", default=None,
                   help="address template of already-running workers (e.g. "
                        "'tcp://host:73{shard}'); overrides --worker-transport and "
                        "disables spawning")
    g.add_argument("--archive-dir", default=None,
                   help="cold store for sealed journal segments (needs --journal): "
                        "rotation ships segments here and unlinks them locally; "
                        "restore replays them back (see repro.serve.archive)")
    return {
        "fleet": fleet,
        "gateway": gateway,
        "observability": observability,
        "transport": transport,
    }


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro-soc", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    parents = _flag_parents()

    train = sub.add_parser("train", help="train a model on a synthetic campaign")
    train.add_argument("--dataset", choices=sorted(_DATASET_DEFAULTS), default="sandia")
    train.add_argument("--pinn", action="store_true", help="enable the physics-informed loss")
    train.add_argument("--epochs", type=int, default=120)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--fast", action="store_true", help="scaled-down campaign")
    train.add_argument("--out", required=True, help="checkpoint path (.npz)")
    train.set_defaults(func=_cmd_train)

    evaluate = sub.add_parser("evaluate", help="score a checkpoint on the test split")
    evaluate.add_argument("model")
    evaluate.add_argument("--dataset", choices=sorted(_DATASET_DEFAULTS), default=None)
    evaluate.add_argument("--horizons", type=float, nargs="+", default=[120.0])
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--fast", action="store_true")
    evaluate.set_defaults(func=_cmd_evaluate)

    predict = sub.add_parser("predict", help="one-shot estimate + prediction")
    predict.add_argument("model")
    predict.add_argument("--voltage", type=float, required=True)
    predict.add_argument("--current", type=float, required=True)
    predict.add_argument("--temp", type=float, required=True)
    predict.add_argument("--workload-current", type=float, required=True)
    predict.add_argument("--workload-temp", type=float, default=None)
    predict.add_argument("--horizon", type=float, required=True)
    predict.set_defaults(func=_cmd_predict)

    rollout = sub.add_parser("rollout", help="autoregressive discharge trace")
    rollout.add_argument("model")
    rollout.add_argument("--dataset", choices=sorted(_DATASET_DEFAULTS), default=None)
    rollout.add_argument("--cycle", required=True, help="test-cycle name (see dataset summary)")
    rollout.add_argument("--step", type=float, default=30.0)
    rollout.add_argument("--seed", type=int, default=0)
    rollout.add_argument("--fast", action="store_true")
    rollout.add_argument("--csv", default=None, help="write the trajectory to this CSV")
    rollout.set_defaults(func=_cmd_rollout)

    inspect = sub.add_parser("inspect", help="show checkpoint metadata and cost")
    inspect.add_argument("model")
    inspect.set_defaults(func=_cmd_inspect)

    serve_sim = sub.add_parser(
        "serve-sim",
        help="batched fleet-serving simulation",
        parents=list(parents.values()),
        epilog=_SERVE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve_sim.add_argument("model", nargs="?", default=None,
                           help="checkpoint path (omit with --untrained)")
    serve_sim.add_argument("--untrained", action="store_true",
                           help="serve a deterministic untrained model (throughput/soak runs "
                                "need no checkpoint: forward cost is identical)")
    serve_sim.add_argument("--cells", type=int, default=256, help="fleet size")
    serve_sim.add_argument("--step", type=float, default=60.0, help="rollout step (s)")
    serve_sim.add_argument("--seed", type=int, default=0)
    serve_sim.add_argument("--fast", action="store_true", help="scaled-down fleet simulation")
    serve_sim.add_argument("--async", dest="async_", action="store_true",
                           help="serve through the asyncio SocGateway: fleet rollout plus "
                                "concurrent client traffic with latency stats")
    serve_sim.add_argument("--clients", type=int, default=64,
                           help="concurrent closed-loop clients driving the gateway")
    serve_sim.add_argument("--requests", type=int, default=2000,
                           help="total gateway requests across all clients")
    serve_sim.add_argument("--soak-json", default=None,
                           help="write gateway soak results (counts, latency percentiles) here")
    serve_sim.add_argument("--fail-on-error", action="store_true",
                           help="exit 1 on any errored/shed completion, dead worker, or "
                                "unbalanced request books after the gateway stops")
    serve_sim.set_defaults(func=_cmd_serve_sim)

    serve = sub.add_parser(
        "serve",
        help="long-running serving daemon (clients and workers dial in by URL)",
        parents=list(parents.values()),
        epilog=_SERVE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument("model", nargs="?", default=None,
                       help="checkpoint path (omit with --untrained)")
    serve.add_argument("--untrained", action="store_true",
                       help="serve a deterministic untrained model")
    serve.add_argument("--listen", default="tcp://127.0.0.1:7355",
                       help="control URL clients and inbound workers dial "
                            "(tcp://host:port, port 0 = ephemeral, or unix:///path)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--control-interval", type=float, default=1.0,
                       help="seconds between control-plane ticks (heartbeat probes + "
                            "heal/canary pass; 0 disables)")
    serve.add_argument("--heartbeat-timeout", type=float, default=2.0,
                       help="per-worker ping deadline during a control tick (seconds)")
    serve.set_defaults(func=_cmd_serve)

    worker = sub.add_parser(
        "worker",
        help="standalone shard worker (--listen for inbound, --connect to join a daemon)",
        epilog=_WORKER_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    g = worker.add_argument_group("worker transport")
    g.add_argument("--listen", default=None,
                   help="bind this URL and serve fleets that dial in "
                        "(tcp://host:port, port 0 = ephemeral, or unix:///path)")
    g.add_argument("--connect", default=None,
                   help="dial this daemon control URL and serve as one of its shards")
    g.add_argument("--name", default="worker",
                   help="shard name sent with worker_hello; reconnecting under the "
                        "same name re-attaches to the old shard (default: worker)")
    g.add_argument("--once", action="store_true",
                   help="with --listen: exit after the first connection closes")
    g.add_argument("--no-reconnect", action="store_true",
                   help="with --connect: exit when the daemon goes away instead of redialing")
    g.add_argument("--connect-timeout", type=float, default=10.0,
                   help="how long to retry a refused dial (seconds)")
    worker.set_defaults(func=_cmd_worker)

    registry = sub.add_parser("registry", help="inspect and manage a model registry")
    registry_sub = registry.add_subparsers(dest="registry_command", required=True)
    reg_list = registry_sub.add_parser("list", help="list published models and channels")
    reg_list.add_argument("registry", help="registry directory")
    reg_list.set_defaults(func=_cmd_registry)
    reg_promote = registry_sub.add_parser(
        "promote", help="make a model's canary version the new stable"
    )
    reg_promote.add_argument("registry", help="registry directory")
    reg_promote.add_argument("name", help="model name")
    reg_promote.set_defaults(func=_cmd_registry)
    reg_rollback = registry_sub.add_parser(
        "rollback", help="abandon a model's canary, keeping stable"
    )
    reg_rollback.add_argument("registry", help="registry directory")
    reg_rollback.add_argument("name", help="model name")
    reg_rollback.set_defaults(func=_cmd_registry)

    retrain = sub.add_parser(
        "retrain",
        help="harvest journaled drift windows, fine-tune stable, publish a canary candidate",
    )
    retrain.add_argument("registry", help="registry directory (stable base + canary channel)")
    retrain.add_argument("name", help="model name to retrain")
    retrain.add_argument("--journal", action="append", required=True,
                         help="journal file to harvest (repeat for per-worker journals; "
                              "sealed segments next to each are replayed too)")
    retrain.add_argument("--url", default=None,
                         help="control URL of a running daemon: fetch its drift events "
                              "(restricting the harvest to drifted cells) and publish "
                              "through it instead of writing the registry directly")
    retrain.add_argument("--cells", nargs="*", default=None,
                         help="explicit cell ids to harvest (default: drifted cells with "
                              "--url, every cell without)")
    retrain.add_argument("--chemistry", default=None,
                         help="fine-tune on one chemistry's partition only")
    retrain.add_argument("--archive-dir", default=None,
                         help="cold store holding the journals' archived segments")
    retrain.add_argument("--max-gaps", type=int, default=0,
                         help="missing archived segments tolerated before failing")
    retrain.add_argument("--min-rows", type=int, default=4,
                         help="harvested rows required to fine-tune (exit 1 below)")
    retrain.add_argument("--epochs", type=int, default=20, help="fine-tune epochs (Branch 2)")
    retrain.add_argument("--lr", type=float, default=1e-3, help="fine-tune learning rate")
    retrain.add_argument("--seed", type=int, default=0)
    retrain.add_argument("--targets", choices=("physics", "journal"), default="physics",
                         help="relabel targets with Eq. 1 (default) or train on journaled SoC")
    retrain.add_argument("--dry-run", action="store_true",
                         help="harvest and fine-tune but publish nothing")
    retrain.set_defaults(func=_cmd_retrain)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
