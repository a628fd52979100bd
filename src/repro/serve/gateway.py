"""Async serving gateway: concurrent request fan-in with admission control.

The paper's two-branch model is a handful of tiny matmuls per step, so
fleet-serving cost is dominated by transport and orchestration, not the
forward pass.  :class:`SocGateway` is the transport-side front-end that
regime calls for: an asyncio server surface that accepts ``estimate`` /
``predict`` / ``rollout`` requests *concurrently*, funnels the
request/response kinds through the
:class:`~repro.serve.scheduler.MicroBatcher` (size/deadline coalescing,
one batched engine call per flush), and applies **admission control**:

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

Each caller's future rides its queued row as the batcher's token, so
there is no waiter map: the flush that serves a row hands back its
future beside its completion, the gateway resolves a whole flush in one
pass and moves that endpoint's completed/error counters once per flush.
A cancelled caller's future is simply skipped.

One *deadline timer* task releases due batches, so a lone request is
never stranded waiting for batchmates: a queue becomes due at
``max_delay_s``, and the timer releases it on the event loop's next
wake.  asyncio's selector rounds every timeout up to a whole
millisecond, so that wake comes up to ~1 ms after the queue is due.
With nothing queued the timer waits for the next enqueue to wake it —
an idle gateway costs no CPU.

Heavy ``rollout`` calls run on the thread-pool executor holding the
batcher's lock; the event loop only ever takes that lock
*non-blocking* — when it is free (normal traffic) submissions and
flushes run inline at full speed, and when a rollout holds it they
fall back to the executor, so a multi-second rollout can never freeze
the loop: it keeps accepting and shedding throughout, and queued
batches flush as soon as the engine frees up.

Per-endpoint accounting (:meth:`SocGateway.stats_dict`) reports
request/ok/error/shed counts, latency percentiles, and sustained
throughput — the numbers the CI soak lane and
``benchmarks/bench_fleet_throughput.py`` gate.  The series live in a
:class:`~repro.monitor.metrics.MetricsRegistry` (pass one in to share
it with the engine and drift monitors): counters per endpoint plus a
P² streaming-quantile latency histogram (~45 floats of state), also
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
    """One endpoint's registry series — four counters and a latency
    histogram — cached here because the hot path touches them."""

    __slots__ = ("requests", "completed", "errors", "shed", "latency")

    def __init__(self, metrics: MetricsRegistry, endpoint: str):
        self.requests = metrics.counter("gateway_requests_total", endpoint=endpoint)
        self.completed = metrics.counter("gateway_completed_total", endpoint=endpoint)
        self.errors = metrics.counter("gateway_errors_total", endpoint=endpoint)
        self.shed = metrics.counter("gateway_shed_total", endpoint=endpoint)
        self.latency = metrics.histogram("gateway_latency_seconds", endpoint=endpoint)

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
        Any :class:`~repro.serve.engine.Fleet` — a single engine, a
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
    the deadline timer runs; without it, call :meth:`pump` explicitly
    from the serving loop.  The internal batcher belongs to the
    gateway: every row it queues carries a caller's future.
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
        # admitted estimates/predicts whose caller has not resumed yet: a
        # resolved future still holds its caller until the loop runs it
        self._waiting = 0
        self._rollouts = 0
        self._flusher: asyncio.Task | None = None
        self._idle: asyncio.Future | None = None  # what the deadline timer awaits with nothing queued
        self._next_shed_id = -1  # shed requests never reach the batcher; give them distinct ids

    # -- lifecycle -----------------------------------------------------
    async def __aenter__(self) -> SocGateway:
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    def start(self) -> None:
        """Start the background deadline timer (idempotent)."""
        if self._flusher is None or self._flusher.done():
            self._flusher = asyncio.get_running_loop().create_task(self._flush_loop())

    async def stop(self) -> None:
        """Stop the deadline timer and force out any queued batches.

        Every admitted request is completed before this returns — the
        gateway never strands a caller on shutdown.  (An admitted
        request may still be crossing the executor when the first
        flush runs, so this flushes until every caller has resumed.)
        """
        if self._flusher is not None:
            self._flusher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._flusher
            self._flusher = None
        await self._off_loop(self.batcher.release, "forced")
        while self._waiting:
            await asyncio.sleep(0)  # let resolved callers resume
            await self._off_loop(self.batcher.release, "forced")

    async def _flush_loop(self) -> None:
        # one deadline timer: sleep until the oldest queued request is
        # due, or — nothing queued — until the next enqueue wakes this
        # task; the size trigger needs no timer at all
        loop = asyncio.get_running_loop()
        batcher = self.batcher
        while True:
            due_in = batcher.due_in()
            if due_in is None:
                self._idle = loop.create_future()
                try:
                    await self._idle
                finally:
                    self._idle = None
            elif due_in > 0:
                await asyncio.sleep(due_in)
            elif (flushes := self._locked(batcher.release, "deadline", blocking=False)) is not None:
                self._dispatch(flushes)
            else:
                # a rollout holds the lock; poll on the executor so the
                # flush fires the moment the engine frees up — without
                # blocking the event loop in the meantime
                await self._off_loop(batcher.release, "deadline")

    def pump(self) -> int:
        """Synchronously poll the batcher and resolve due completions.

        Returns the number of completions dispatched.  Only for
        gateways running without the deadline timer (deterministic
        tests, externally-driven serving loops) — unlike the timer this
        blocks on the batcher lock, so never call it with a rollout in
        flight.
        """
        return self._dispatch(self._locked(self.batcher.release, "deadline"))

    # -- endpoints -----------------------------------------------------
    async def estimate(self, cell_id: str, voltage: float, current: float, temp_c: float) -> Completion:
        """Branch 1 estimate for one cell; resolves when its batch fires."""
        return await self._submit("estimate", cell_id, voltage, current, temp_c)

    async def predict(
        self, cell_id: str, current_avg: float, temp_avg_c: float, horizon_s: float
    ) -> Completion:
        """Branch 2 what-if for one cell; resolves when its batch fires."""
        return await self._submit("predict", cell_id, current_avg, temp_avg_c, horizon_s)

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
        if self.in_flight >= self.max_in_flight:
            stats.shed.inc()
            raise GatewayOverloaded(f"shed: gateway at capacity ({self.max_in_flight} requests in flight)")
        self._rollouts += 1
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
                # only a fleet of workers raises this.  Retry even when
                # _recover_workers restarted nothing — a concurrent
                # recovery (another request batch, the control loop) may
                # already have healed the fleet for us
                self._recover_workers()
                result = await loop.run_in_executor(None, _run)
        except BaseException as exc:
            # a cancelled caller (CancelledError is no Exception) is
            # booked as an errored completion too, so requests always
            # equal completed + shed
            stats.completed.inc()
            stats.errors.inc()
            if root is not None:
                cancelled = isinstance(exc, asyncio.CancelledError)
                root.finish(error="cancelled" if cancelled else type(exc).__name__)
            raise
        finally:
            self._rollouts -= 1
        stats.completed.inc()
        stats.latency.observe(self.clock() - t_start)
        if root is not None:
            root.finish()
        return result

    # -- accounting ----------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Requests currently admitted and awaiting completions."""
        return self._waiting + self._rollouts

    def stats_dict(self) -> dict:
        """Per-endpoint counters, latency percentiles and throughput.

        Same shape as before the metrics registry existed (the soak
        lane and throughput bench consume it); the underlying series
        are registry-backed, so :meth:`metrics_snapshot` carries the
        identical numbers in the mergeable format.
        """
        elapsed = max(self.clock() - self._started_s, 1e-9)
        report: dict = {
            "elapsed_s": elapsed,
            "retries": int(self._retries.value),
            "batch_fallbacks": self.batcher.stats.fallbacks,
        }
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
        :meth:`rollout` directly).  A single
        :class:`~repro.serve.engine.FleetEngine` has no workers and
        restarts none, so the batch falls back to per-request serving.
        """
        try:
            restarted = self.engine.restart_dead_workers()
        except Exception:
            return False  # a worker that cannot respawn stays dead; requests error per cell
        if restarted:
            self._retries.inc()
        return bool(restarted)

    # ------------------------------------------------------------------
    async def _submit(self, kind: str, cell_id: str, a: float, b: float, c: float) -> Completion:
        stats = self.stats[kind]
        stats.requests.inc()
        if self._waiting + self._rollouts >= self.max_in_flight:
            stats.shed.inc()
            shed_id, self._next_shed_id = self._next_shed_id, self._next_shed_id - 1
            error = f"shed: gateway at capacity ({self.max_in_flight} requests in flight)"
            return Completion(shed_id, cell_id, kind, float("nan"), 0.0, 0, error)
        self._waiting += 1
        t_start = self.clock()
        # root span opens after admission (shed requests record nothing);
        # its context rides on the queued row so the batcher, shards and
        # workers can attribute their stages to this trace
        root = None if self.tracer is None else self.tracer.start_trace(f"gateway.{kind}", cell_id=cell_id)
        trace = None if root is None else root.ctx
        # the caller's future is the row's token: the flush that serves
        # the row resolves it
        future = asyncio.get_running_loop().create_future()
        batcher = self.batcher
        try:
            # the enqueue takes the batcher lock (and a size trigger runs
            # the engine inline).  Uncontended — the common case — that
            # is microseconds, so do it inline; when a rollout holds the
            # lock for seconds, fall back to the executor rather than
            # blocking the event loop on it
            flushes = self._locked(batcher.submit, kind, cell_id, a, b, c, trace, future, blocking=False)
            if flushes is None:
                await self._off_loop(batcher.submit, kind, cell_id, a, b, c, trace, future)
            else:
                self._dispatch(flushes)
            self._wake()
            completion = await future
        except BaseException:
            # a cancelled caller's row is queued (or landing from the
            # executor); the flush that serves it skips this future
            future.cancel()
            if root is not None:
                root.finish(error="cancelled")
            raise
        finally:
            self._waiting -= 1
        stats.latency.observe(self.clock() - t_start)
        if root is not None:
            root.finish(ok=completion.ok, batch_size=completion.batch_size)
        return completion

    async def _off_loop(self, op: Callable, *args) -> None:
        """Run a batcher operation under its lock on the executor.

        The job's flushes are dispatched from its done callback, and the
        job is shielded: a caller cancelled meanwhile (a client timeout,
        :meth:`stop` cancelling the deadline timer) cannot lose the
        completions the job took from the outbox.
        """
        job = asyncio.get_running_loop().run_in_executor(None, self._locked, op, *args)
        job.add_done_callback(self._job_done)
        await asyncio.shield(job)

    def _locked(self, op: Callable, *args, blocking: bool = True) -> list | None:
        """Run a batcher operation under its lock; returns the flushes it took.

        ``None`` when ``blocking=False`` and a rollout holds the lock.
        """
        lock = self.batcher.lock
        if not lock.acquire(blocking):
            return None
        try:
            op(*args)
            return self.batcher.take()
        finally:
            lock.release()

    def _job_done(self, job: asyncio.Future) -> None:
        if not job.cancelled() and job.exception() is None:
            self._dispatch(job.result())
        self._wake()  # an executor-side enqueue may have queued the only row

    def _wake(self) -> None:
        """Wake the idle deadline timer: a row may have been queued."""
        if self._idle is not None and not self._idle.done():
            self._idle.set_result(None)

    def _dispatch(self, flushes: list) -> int:
        """Resolve every flush's futures; each endpoint's counters move once per flush."""
        served = 0
        for kind, done, futures, errors in flushes:
            ep = self.stats[kind]
            ep.completed.inc(len(done))
            if errors:
                ep.errors.inc(errors)
            for future, completion in zip(futures, done):
                if not future.done():  # a cancelled caller's future stays cancelled
                    future.set_result(completion)
            served += len(done)
        return served
