"""Async serving gateway: concurrent request fan-in with admission control.

The paper's two-branch model is a handful of tiny matmuls per step, so
fleet-serving cost is dominated by transport and orchestration, not the
forward pass.  :class:`SocGateway` is the transport-side front-end that
regime calls for: an asyncio server surface that accepts ``estimate`` /
``predict`` / ``rollout`` requests *concurrently*, funnels the
request/response kinds through the
:class:`~repro.serve.scheduler.MicroBatcher` (size/deadline coalescing,
one batched engine call per flush, a future per request), and applies
**admission control**:

- at most ``max_in_flight`` requests may be waiting on completions;
- a request arriving beyond that is **shed** — it immediately gets an
  ``ok=False`` :class:`~repro.serve.scheduler.Completion` whose error
  starts with ``"shed:"`` instead of joining an unbounded queue.  A
  full queue that keeps accepting work converts overload into
  unbounded latency for every caller; failing fast keeps the latency
  of admitted requests bounded and gives callers an explicit signal to
  back off (classic load-shed policy).  Rollouts past the limit raise
  :class:`GatewayOverloaded` (they return trajectory dicts, not
  completions).

A background *flusher* task releases deadline-expired batches, so a
lone request is never stranded waiting for batchmates.  Heavy
``rollout`` calls run on the thread-pool executor holding the
batcher's lock; the event loop only ever takes that lock
*non-blocking* — when it is free (normal traffic) submissions and
flushes run inline at full speed, and when a rollout holds it they
fall back to the executor, so a multi-second rollout can never freeze
the loop: it keeps accepting and shedding throughout, and queued
batches flush as soon as the engine frees up.

Per-endpoint accounting (:meth:`SocGateway.stats_dict`) reports
request/ok/error/shed counts, latency percentiles, and sustained
throughput — the numbers the CI soak lane and
``benchmarks/bench_fleet_throughput.py`` gate.  Since the monitor PR
those series live in a :class:`~repro.monitor.metrics.MetricsRegistry`
(pass one in to share it with the engine and drift monitors): counters
per endpoint plus a streaming-quantile latency histogram — the old
``EndpointStats`` reservoir (262k floats per endpoint) is retired in
favor of ~45 floats of P² sketch state, and the same numbers become
available as Prometheus text and mergeable JSON snapshots.

The gateway is also where **crash retry** lands: when a batched engine
call dies with :class:`~repro.serve.workers.WorkerCrashError` (a shard
worker subprocess crashed mid-request), the gateway restarts the dead
workers (``engine.restart_dead_workers()``) and the batcher retries
the affected batch once against the healed fleet — journaled workers
come back with their cells, so the requests succeed instead of
surfacing ``ok=False``.  ``gateway_retries_total`` counts the
recoveries.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Callable, Iterable

from ..core.rollout import RolloutResult
from ..datasets.base import CycleRecord
from ..monitor.metrics import MetricsRegistry
from ..monitor.resources import install_process_metrics
from ..monitor.tracing import activate
from .scheduler import Completion, MicroBatcher

__all__ = ["GatewayOverloaded", "SocGateway"]

_ENDPOINTS = ("estimate", "predict", "rollout")


class GatewayOverloaded(RuntimeError):
    """A rollout was refused because the gateway is at capacity."""


class _Endpoint:
    """Registry-backed accounting for one gateway endpoint.

    Replaces the retired ``EndpointStats`` reservoir: the four
    counters and the latency histogram are plain registry series (so
    they ship in snapshots and merge across processes), and the
    instrument objects are cached here because ``observe`` runs once
    per completion on the hot path.
    """

    __slots__ = ("requests", "completed", "errors", "shed", "latency")

    def __init__(self, metrics: MetricsRegistry, endpoint: str):
        self.requests = metrics.counter("gateway_requests_total", endpoint=endpoint)
        self.completed = metrics.counter("gateway_completed_total", endpoint=endpoint)
        self.errors = metrics.counter("gateway_errors_total", endpoint=endpoint)
        self.shed = metrics.counter("gateway_shed_total", endpoint=endpoint)
        self.latency = metrics.histogram("gateway_latency_seconds", endpoint=endpoint)

    def observe(self, latency_s: float, ok: bool) -> None:
        """Record one completion's end-to-end latency."""
        self.completed.inc()
        if not ok:
            self.errors.inc()
        self.latency.observe(latency_s)

    def percentile_ms(self, q: float) -> float:
        """Streaming latency quantile (milliseconds); 0 before any sample."""
        if self.latency.count == 0:
            return 0.0
        return self.latency.quantile(q / 100.0) * 1e3


class SocGateway:
    """Asyncio front-end over a fleet engine (or sharded fleet).

    Parameters
    ----------
    engine:
        Any object with the :class:`~repro.serve.engine.FleetEngine`
        serving API — a single engine, a
        :class:`~repro.serve.sharding.ShardedFleet` of in-process
        shards, or one backed by
        :class:`~repro.serve.workers.ShardWorker` processes.
    max_batch, max_delay_s:
        Micro-batching knobs, passed to the internal
        :class:`MicroBatcher`.
    max_in_flight:
        Admission limit: requests concurrently awaiting completions
        (estimates, predicts and rollouts all count).  Arrivals beyond
        it are shed.
    clock:
        Monotonic time source (injectable for deterministic tests).
    metrics:
        Optional :class:`~repro.monitor.metrics.MetricsRegistry` the
        per-endpoint series land in; pass the registry shared with the
        engine/drift monitors to get one coherent snapshot, or omit it
        and the gateway creates its own (``gateway.metrics``).
    tracer:
        Optional :class:`~repro.monitor.tracing.SpanTracer`.  When set,
        the gateway opens a root span per request (subject to the
        tracer's sampling policy) and threads the trace context through
        the batcher, shards, wire protocol and kernels — per-request
        latency attribution at the cost of one sampling decision per
        request.  ``None`` (default) keeps the request path trace-free.

    Use as an async context manager (``async with SocGateway(...)``) so
    the deadline flusher runs; without it, call :meth:`pump`
    explicitly from the serving loop.
    """

    def __init__(
        self,
        engine,
        *,
        max_batch: int = 64,
        max_delay_s: float = 0.010,
        max_in_flight: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
        tracer=None,
    ):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be at least 1")
        self.engine = engine
        self.tracer = tracer
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        install_process_metrics(self.metrics)
        self.batcher = MicroBatcher(
            engine,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            clock=clock,
            on_worker_crash=self._recover_workers,
        )
        self.max_in_flight = max_in_flight
        self.clock = clock
        self.stats: dict[str, _Endpoint] = {name: _Endpoint(self.metrics, name) for name in _ENDPOINTS}
        self._retries = self.metrics.counter("gateway_retries_total")
        self._started_s = clock()
        self._in_flight = 0
        self._waiters: dict[int, asyncio.Future] = {}
        # completions drained (by another task's executor round-trip)
        # before their submitter registered a waiter — claimed on return
        self._orphans: dict[int, Completion] = {}
        # requests whose submitter was cancelled mid-enqueue; their
        # eventual completions are dropped instead of parked forever
        self._abandoned: set[int] = set()
        self._flusher: asyncio.Task | None = None
        self._next_shed_id = -1  # shed requests never reach the batcher; give them distinct ids

    # -- lifecycle -----------------------------------------------------
    async def __aenter__(self) -> SocGateway:
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def start(self) -> None:
        """Start the background deadline flusher (idempotent)."""
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.get_running_loop().create_task(self._flush_loop())

    async def stop(self) -> None:
        """Stop the flusher and force out any queued batches.

        Every admitted request is completed before this returns — the
        gateway never strands a waiter on shutdown.  (An admitted
        request may still be crossing the executor when the first
        flush runs, so this drains until no waiter is left.)
        """
        if self._flusher is not None:
            self._flusher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._flusher
            self._flusher = None
        loop = asyncio.get_running_loop()
        self._dispatch(await loop.run_in_executor(None, self.batcher.flush))
        while self._waiters:
            await asyncio.sleep(0)  # let submitters finish registering
            self._dispatch(await loop.run_in_executor(None, self.batcher.flush))

    async def _flush_loop(self) -> None:
        # poll well inside the deadline so a deadline flush fires at most
        # ~25% late; the size trigger needs no polling at all
        interval = max(self.batcher.max_delay_s / 4.0, 0.001)
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            if self.batcher.lock.acquire(blocking=False):
                try:
                    completions = self.batcher.poll()
                finally:
                    self.batcher.lock.release()
                self._dispatch(completions)
            else:
                # a rollout holds the lock; poll on the executor so the
                # flush fires the moment the engine frees up — without
                # blocking the event loop in the meantime.  stop() may
                # cancel this task while the poll blocks, but the thread
                # still drains the outbox — dispatch from a callback that
                # runs regardless of this task's fate, so those
                # completions cannot be lost
                poll_future = loop.run_in_executor(None, self.batcher.poll)
                poll_future.add_done_callback(
                    lambda f: None if f.cancelled() or f.exception() else self._dispatch(f.result())
                )
                await poll_future

    def pump(self) -> int:
        """Synchronously poll the batcher and resolve due completions.

        Returns the number of completions dispatched.  Only for
        gateways running without the flusher task (deterministic
        tests, externally-driven serving loops) — unlike the flusher
        this blocks on the batcher lock, so never call it with a
        rollout in flight.
        """
        return self._dispatch(self.batcher.poll())

    # -- endpoints -----------------------------------------------------
    async def estimate(self, cell_id: str, voltage: float, current: float, temp_c: float) -> Completion:
        """Branch 1 estimate for one cell; resolves when its batch fires."""
        return await self._submit(
            "estimate",
            cell_id,
            lambda trace: self.batcher.submit_estimate(cell_id, voltage, current, temp_c, trace=trace),
        )

    async def predict(
        self, cell_id: str, current_avg: float, temp_avg_c: float, horizon_s: float
    ) -> Completion:
        """Branch 2 what-if for one cell; resolves when its batch fires."""
        return await self._submit(
            "predict",
            cell_id,
            lambda trace: self.batcher.submit_predict(
                cell_id, current_avg, temp_avg_c, horizon_s, trace=trace
            ),
        )

    async def rollout(
        self, assignments: Iterable[tuple[str, CycleRecord]], step_s: float
    ) -> dict[str, RolloutResult]:
        """Fleet rollout on a worker thread; the event loop stays live.

        Raises :class:`GatewayOverloaded` when shed by admission
        control.  The engine call holds the batcher lock, so request
        batches queue (and are shed past ``max_in_flight``) while the
        rollout computes, then flush when the engine frees up.  A
        :class:`~repro.serve.workers.WorkerCrashError` mid-rollout
        triggers worker recovery and one retry (journaled workers
        resume from their journals), like the request endpoints.
        """
        from .workers import WorkerCrashError  # late: workers imports serve modules

        stats = self.stats["rollout"]
        stats.requests.inc()
        if self._in_flight >= self.max_in_flight:
            stats.shed.inc()
            raise GatewayOverloaded(f"shed: gateway at capacity ({self.max_in_flight} requests in flight)")
        self._in_flight += 1
        t_start = self.clock()
        pairs = list(assignments)
        root = None if self.tracer is None else self.tracer.start_trace("gateway.rollout", cells=len(pairs))
        ctx = None if root is None else root.ctx

        def _run() -> dict[str, RolloutResult]:
            # activate on the executor thread so shard/engine/kernel
            # spans parent under this rollout's root
            with self.batcher.lock, activate(ctx):
                return self.engine.rollout_fleet(pairs, step_s)

        loop = asyncio.get_running_loop()
        try:
            try:
                result = await loop.run_in_executor(None, _run)
            except WorkerCrashError:
                if getattr(self.engine, "restart_dead_workers", None) is None:
                    raise  # nothing to heal: a single engine
                # retry even when _recover_workers restarted nothing — a
                # concurrent recovery (another request batch, the control
                # loop) may already have healed the fleet for us
                self._recover_workers()
                result = await loop.run_in_executor(None, _run)
        except Exception as exc:
            self._in_flight -= 1
            stats.completed.inc()
            stats.errors.inc()
            if root is not None:
                root.finish(error=type(exc).__name__)
            raise
        self._in_flight -= 1
        stats.observe(self.clock() - t_start, ok=True)
        if root is not None:
            root.finish()
        return result

    # -- accounting ----------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Requests currently admitted and awaiting completions."""
        return self._in_flight

    def stats_dict(self) -> dict:
        """Per-endpoint counters, latency percentiles and throughput.

        Same shape as before the metrics registry existed (the soak
        lane and throughput bench consume it); the underlying series
        are registry-backed, so :meth:`metrics_snapshot` carries the
        identical numbers in the mergeable format.
        """
        elapsed = max(self.clock() - self._started_s, 1e-9)
        report: dict = {"elapsed_s": elapsed, "retries": int(self._retries.value)}
        for name, ep in self.stats.items():
            completed = int(ep.completed.value)
            errors = int(ep.errors.value)
            report[name] = {
                "requests": int(ep.requests.value),
                "completed": completed,
                "ok": completed - errors,
                "errors": errors,
                "shed": int(ep.shed.value),
                "p50_ms": ep.percentile_ms(50),
                "p95_ms": ep.percentile_ms(95),
                "p99_ms": ep.percentile_ms(99),
                "req_per_s": completed / elapsed,
            }
        return report

    def metrics_snapshot(self) -> dict:
        """JSON snapshot of the gateway's metrics registry."""
        return self.metrics.snapshot()

    def _recover_workers(self) -> bool:
        """Restart dead shard workers so a crashed batch can retry.

        Wired as the batcher's ``on_worker_crash`` hook (and used by
        :meth:`rollout` directly).  An engine without
        ``restart_dead_workers`` (a single
        :class:`~repro.serve.engine.FleetEngine`) has nothing to heal,
        so the crash propagates as before.
        """
        restart = getattr(self.engine, "restart_dead_workers", None)
        if restart is None:
            return False
        try:
            restarted = restart()
        except Exception:
            return False  # a worker that cannot respawn stays dead; requests error per cell
        if restarted:
            self._retries.inc()
        return bool(restarted)

    # ------------------------------------------------------------------
    async def _submit(self, kind: str, cell_id: str, enqueue: Callable[[object], int]) -> Completion:
        stats = self.stats[kind]
        stats.requests.inc()
        if self._in_flight >= self.max_in_flight:
            stats.shed.inc()
            shed_id, self._next_shed_id = self._next_shed_id, self._next_shed_id - 1
            return Completion(
                req_id=shed_id,
                cell_id=cell_id,
                kind=kind,
                value=float("nan"),
                wait_s=0.0,
                batch_size=0,
                error=f"shed: gateway at capacity ({self.max_in_flight} requests in flight)",
            )
        self._in_flight += 1
        t_start = self.clock()
        # root span opens after admission (shed requests record nothing);
        # its context rides on the queued Request so the batcher, shards
        # and workers can attribute their stages to this trace
        root = None if self.tracer is None else self.tracer.start_trace(f"gateway.{kind}", cell_id=cell_id)
        trace_ctx = None if root is None else root.ctx
        completion: Completion | None = None
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        try:
            # the enqueue takes the batcher lock (and a size trigger runs
            # the engine inline).  Uncontended — the common case — that
            # is microseconds, so do it inline; when a rollout holds the
            # lock for seconds, fall back to the executor rather than
            # blocking the event loop on it
            if self.batcher.lock.acquire(blocking=False):
                try:
                    req_id, ready = enqueue(trace_ctx), self.batcher.drain()
                finally:
                    self.batcher.lock.release()
            else:
                enq_future = loop.run_in_executor(
                    None, lambda: (enqueue(trace_ctx), self.batcher.drain())
                )
                try:
                    # shielded: if the caller is cancelled (a client
                    # timeout) the enqueue still lands on the executor —
                    # mark its request abandoned so the eventual
                    # completion is dropped, not parked forever
                    req_id, ready = await asyncio.shield(enq_future)
                except asyncio.CancelledError:
                    enq_future.add_done_callback(self._abandon_enqueued)
                    raise
            orphan = self._orphans.pop(req_id, None)
            if orphan is not None:
                # another task's drain beat us to our own completion
                future.set_result(orphan)
            else:
                self._waiters[req_id] = future
            # the enqueue may have size-triggered a flush (for this
            # request and/or earlier waiters) — resolve those now
            self._dispatch(ready)
            completion = await future
        finally:
            self._in_flight -= 1
            if root is not None:
                if completion is None:  # cancelled before its batch fired
                    root.finish(error="cancelled")
                else:
                    root.finish(ok=completion.ok, batch_size=completion.batch_size)
        stats.observe(self.clock() - t_start, ok=completion.ok)
        return completion

    def _abandon_enqueued(self, future) -> None:
        if future.cancelled() or future.exception():
            return
        req_id, ready = future.result()
        self._waiters.pop(req_id, None)
        if self._orphans.pop(req_id, None) is None:
            self._abandoned.add(req_id)
        self._dispatch(ready)

    def _dispatch(self, completions: list[Completion]) -> int:
        for completion in completions:
            if completion.req_id in self._abandoned:
                self._abandoned.discard(completion.req_id)
                continue
            waiter = self._waiters.pop(completion.req_id, None)
            if waiter is not None:
                if not waiter.done():
                    waiter.set_result(completion)
            else:
                # drained before its submitter resumed from the executor;
                # parked until that task claims it (shed ids never enter
                # the batcher, so every unclaimed completion belongs to a
                # submitter still in flight or just abandoned)
                self._orphans[completion.req_id] = completion
        return len(completions)
