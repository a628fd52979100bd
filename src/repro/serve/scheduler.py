"""Micro-batching request scheduler for the fleet engine.

Requests from different cells arrive at different times; running each
one alone squanders the engine's batched forward path.  The
:class:`MicroBatcher` coalesces ``estimate`` and ``predict`` requests
into per-kind queues and releases a queue as one engine call when it
either fills up (**size trigger**, ``max_batch``) or is due and its
owner polls (**deadline trigger**): a queue becomes due once its oldest
request has waited ``max_delay_s`` — the classic latency/throughput
knob of serving systems.  ``max_delay_s`` is not a bound on the wait;
a due queue waits for the next poll.

A queued request is one plain tuple row carrying the submitter's
opaque ``token``; everything else is per-flush work.  A flush
transposes its rows once, makes one engine call, builds its
:class:`Completion` objects in one pass and lands in the outbox as one
record with the tokens beside them (:meth:`MicroBatcher.take`), so a
front-end resolves its callers in bulk — the gateway's tokens are its
callers' futures.

Time is injected (``clock``) so schedules are exactly reproducible in
tests and simulations; production callers pass ``time.monotonic``.
Every completion carries its queueing latency and the size of the
batch that served it, and :attr:`MicroBatcher.stats` aggregates both.

The batcher is thread-safe: submissions, polls and flushes serialize
on one re-entrant lock (:attr:`MicroBatcher.lock`), so concurrent
submitters — gateway executor threads, a polling serving loop — never
tear a queue or double-serve a request.  Holding the lock across the
engine call also means an engine shared with out-of-band work (e.g. a
fleet rollout on a gateway executor thread) can be serialized against
batch flushes by taking the same lock.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from itertools import repeat
from typing import Callable

from .engine import FleetEngine

__all__ = ["Completion", "BatchStats", "MicroBatcher"]

_KINDS = ("estimate", "predict")
_NAN = float("nan")
_SUBMITTED = 5  # column of a queued row holding its submit time


def _unknown(cell_id: str) -> str:
    return f"unknown cell {cell_id!r}: not registered with the engine"


@dataclasses.dataclass(slots=True)
class Completion:
    """Outcome of one request after its batch was served.

    Attributes
    ----------
    req_id, cell_id, kind:
        Echo of the originating request.
    value:
        The SoC the engine returned (NaN when the request failed).
    wait_s:
        Time the request sat in the queue before its batch fired.
    batch_size:
        Number of requests served by the same engine call.
    error:
        Failure message when the engine rejected this request
        (``None`` on success).  A bad request never blocks its
        batchmates: requests for unregistered cells are rejected
        before the engine call, and an engine-level failure makes the
        scheduler retry the rest individually.
    """

    req_id: int
    cell_id: str
    kind: str
    value: float
    wait_s: float
    batch_size: int
    error: str | None = None

    @property
    def ok(self) -> bool:
        """Whether the engine served this request successfully."""
        return self.error is None


@dataclasses.dataclass(slots=True)
class BatchStats:
    """Aggregate latency/throughput accounting across all flushes."""

    requests: int = 0
    errors: int = 0
    flushes: int = 0
    size_flushes: int = 0
    deadline_flushes: int = 0
    forced_flushes: int = 0
    total_wait_s: float = 0.0
    max_wait_s: float = 0.0
    #: flushes whose batched call failed and were served one request at
    #: a time, with the last failure as ``"Type: message"``
    fallbacks: int = 0
    last_fallback: str | None = None

    def mean_wait_s(self) -> float:
        """Mean queueing latency per request."""
        return self.total_wait_s / self.requests if self.requests else 0.0

    def mean_batch_size(self) -> float:
        """Mean number of requests coalesced per engine call."""
        return self.requests / self.flushes if self.flushes else 0.0


class MicroBatcher:
    """Coalesce single-cell requests into batched engine calls.

    Parameters
    ----------
    engine:
        The :class:`~repro.serve.engine.FleetEngine` (or
        :class:`~repro.serve.sharding.ShardedFleet`) serving the fleet.
    max_batch:
        Queue size that releases a batch immediately.
    max_delay_s:
        Age of its oldest request at which a queue becomes due;
        :meth:`poll` releases due queues, so a request waits this long
        plus however late the next poll comes.
    clock:
        Monotonic time source (injectable for deterministic tests).
    """

    def __init__(
        self,
        engine: FleetEngine,
        max_batch: int = 64,
        max_delay_s: float = 0.010,
        clock: Callable[[], float] = time.monotonic,
        on_worker_crash: Callable[[], bool] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay_s < 0:
            raise ValueError("max_delay_s cannot be negative")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay_s = max_delay_s
        self.clock = clock
        # recovery hook: invoked (under the batcher lock) when a batched
        # engine call dies with WorkerCrashError; return True after
        # restarting/rebalancing workers and the batch is retried once
        # against the healed fleet instead of erroring out per request
        self.on_worker_crash = on_worker_crash
        self.stats = BatchStats()
        # guards queues, outbox and stats against concurrent submitters;
        # re-entrant because a size-triggered submit flushes inline
        self.lock = threading.RLock()
        # rows: (req_id, cell_id, a, b, c, submitted_s, token, trace)
        self._queues: dict[str, list[tuple]] = {kind: [] for kind in _KINDS}
        # one record per flush: (kind, completions, tokens, error count)
        self._outbox: list[tuple[str, list[Completion], tuple, int]] = []
        self._next_id = 0

    # -- submission ----------------------------------------------------
    def submit_estimate(self, cell_id: str, voltage: float, current: float, temp_c: float, trace=None) -> int:
        """Queue a Branch 1 request; returns its request id (see :meth:`submit`)."""
        return self.submit("estimate", cell_id, voltage, current, temp_c, trace)

    def submit_predict(
        self, cell_id: str, current_avg: float, temp_avg_c: float, horizon_s: float, trace=None
    ) -> int:
        """Queue a Branch 2 what-if request (its cell needs a stored SoC when the batch fires)."""
        return self.submit("predict", cell_id, current_avg, temp_avg_c, horizon_s, trace)

    def submit(self, kind: str, cell_id: str, a: float, b: float, c: float, trace=None, token=None) -> int:
        """Queue one request: ``(V, I, T)`` for an estimate, ``(I_avg, T_avg, N)`` for a predict.

        Fires the kind's queue at once if this row fills it.  ``trace``
        attributes queue-wait and batch-serve time to the submitter's
        trace; ``token`` comes back beside the completion in :meth:`take`.
        """
        with self.lock:
            req_id = self._next_id
            self._next_id = req_id + 1
            queue = self._queues[kind]
            queue.append((req_id, cell_id, a, b, c, self.clock(), token, trace))
            if len(queue) >= self.max_batch:
                self._flush_kind(kind, "size")
            return req_id

    # -- release -------------------------------------------------------
    def poll(self) -> list[Completion]:
        """Release queues whose oldest request hit the deadline.

        Call this from the serving loop; returns all completions
        produced so far (including earlier size-triggered ones).
        """
        with self.lock:
            self.release("deadline")
            return self.drain()

    def flush(self) -> list[Completion]:
        """Force every queue out now and return all completions."""
        with self.lock:
            self.release("forced")
            return self.drain()

    def release(self, trigger: str) -> None:
        """Flush due queues (``"deadline"``) or every queue (``"forced"``) into the outbox."""
        with self.lock:
            now = self.clock()
            for kind in _KINDS:
                queue = self._queues[kind]
                if queue and (trigger == "forced" or now - queue[0][_SUBMITTED] >= self.max_delay_s):
                    self._flush_kind(kind, trigger)

    def take(self) -> list[tuple[str, list[Completion], tuple, int]]:
        """Flush records since the last take: ``(kind, completions, tokens, n_errors)`` each."""
        with self.lock:
            flushes, self._outbox = self._outbox, []
            return flushes

    def drain(self) -> list[Completion]:
        """Return completions accumulated since the last drain."""
        return [completion for _, done, _, _ in self.take() for completion in done]

    def due_in(self) -> float | None:
        """Seconds until the oldest queued request is due (``<= 0``: now; ``None``: nothing queued).

        Lock-free — a flush swaps a queue for a fresh list and never
        empties the old one — so an event loop can time its next poll
        while another thread holds the lock.
        """
        now = self.clock()
        ages = [now - queue[0][_SUBMITTED] for queue in self._queues.values() if queue]
        return self.max_delay_s - max(ages) if ages else None

    @property
    def pending(self) -> int:
        """Requests currently queued across both kinds."""
        with self.lock:
            return sum(len(q) for q in self._queues.values())

    # ------------------------------------------------------------------
    def _flush_kind(self, kind: str, trigger: str) -> None:
        batch, self._queues[kind] = self._queues[kind], []
        n = len(batch)
        now = self.clock()
        req_ids, cells, a, b, c, submitted, tokens, traces = zip(*batch)
        cols = (a, b, c)
        if traces.count(None) == n:
            values, errors = self._serve_batch(kind, cells, cols, now)
        else:
            # trace attribution: every traced request gets a queue-wait
            # span; the engine call itself runs under ONE representative
            # context (the first traced request), so engine/shard/wire/
            # kernel child spans nest in that trace — the others record a
            # flat batch.serve span with the same timing, which is the
            # honest picture: one engine call served them all.
            rep = next(t for t in traces if t is not None)
            with rep.tracer.span(rep, "batch.serve", batch_size=n, trigger=trigger):
                values, errors = self._serve_batch(kind, cells, cols, now)
            t_done = self.clock()
            for trace, submitted_s in zip(traces, submitted):
                if trace is None:
                    continue
                trace.tracer.record(trace, "batch.queue_wait", submitted_s, now)
                if trace is not rep:
                    trace.tracer.record(trace, "batch.serve", now, t_done, batch_size=n, trigger=trigger)
        waits = [now - s for s in submitted]
        n_err = 0 if errors is None else n - errors.count(None)
        errs = repeat(None) if errors is None else errors
        done = list(map(Completion, req_ids, cells, repeat(kind), values, waits, repeat(n), errs))
        self._outbox.append((kind, done, tokens, n_err))
        stats = self.stats
        stats.requests += n
        stats.errors += n_err
        stats.total_wait_s += sum(waits)
        stats.max_wait_s = max(stats.max_wait_s, max(waits))
        stats.flushes += 1
        setattr(stats, f"{trigger}_flushes", getattr(stats, f"{trigger}_flushes") + 1)

    def _attempt_batch(self, kind: str, cells: tuple, cols: tuple, now: float):
        """Pre-flight the batch and serve the registered slice in one call.

        Returns ``(values, errors)`` aligned with ``cells`` (``errors``
        is ``None`` when all were served).  Unregistered cells get their
        errors up front, so one bad cell id neither sinks its batchmates
        nor degrades them to per-request engine calls.  The membership
        probes themselves touch the engine (an RPC per shard on a
        process-backed fleet), which is why this whole attempt — not
        just the batched run — sits under the caller's crash-recovery
        umbrella.
        """
        engine = self.engine
        # two probes per request; the benchmark pins the resulting RPC
        # count until a parent-side cell directory replaces the probes
        rejected = [k for k, cid in enumerate(cells) if cid not in engine]
        served = [k for k, cid in enumerate(cells) if cid in engine]
        if not rejected:
            return self._run(kind, cells, cols, now).tolist(), None
        values = [_NAN] * len(cells)
        errors: list[str | None] = [None] * len(cells)
        for k in rejected:
            errors[k] = _unknown(cells[k])
        if served:
            out = self._run(kind, [cells[k] for k in served], [[col[k] for k in served] for col in cols], now)
            for k, value in zip(served, out.tolist()):
                values[k] = value
        return values, errors

    def _serve_batch(self, kind: str, cells: tuple, cols: tuple, now: float):
        """Serve one flushed batch, surviving crashes and poison requests.

        A :class:`~repro.serve.workers.WorkerCrashError` anywhere in the
        attempt (a shard worker subprocess died) triggers the
        ``on_worker_crash`` hook; if it reports a successful
        restart/rebalance the batch is retried **once** against the
        healed fleet.  Any other failure — or a retry that fails again —
        falls back to per-request isolation (counted in
        :attr:`BatchStats.fallbacks`), where every request is
        individually wrapped so this method can never raise: a flush
        that threw would kill the gateway's deadline timer and strand
        every queued caller.  (Cells on surviving shards are served
        twice by a batch retry; estimates/predictions are idempotent
        reads, so only their request counters notice.)
        """
        from .workers import WorkerCrashError  # late: workers imports this module's engine types

        try:
            return self._attempt_batch(kind, cells, cols, now)
        except WorkerCrashError as exc:
            failure: Exception = exc
            # the hook itself touches the fleet (respawn + init), so a
            # persistently-crashing worker can raise right here — treat
            # that as "not recovered", never let it escape the flush
            try:
                recovered = self.on_worker_crash is not None and self.on_worker_crash()
            except Exception:
                recovered = False
            if recovered:
                try:
                    return self._attempt_batch(kind, cells, cols, now)
                except Exception as retry_exc:
                    failure = retry_exc
        except Exception as exc:
            failure = exc
        self.stats.fallbacks += 1
        self.stats.last_fallback = f"{type(failure).__name__}: {failure}"
        # one poisoned request must not sink the batch: retry each
        # request alone and report failures on their own errors
        values = [_NAN] * len(cells)
        errors: list[str | None] = [None] * len(cells)
        for k, cid in enumerate(cells):
            try:
                if cid not in self.engine:
                    errors[k] = _unknown(cid)
                else:
                    values[k] = float(self._run(kind, [cid], [[col[k]] for col in cols], now)[0])
            except Exception as exc:
                errors[k] = f"{type(exc).__name__}: {exc}"
        return values, errors

    def _run(self, kind: str, cells, cols, now: float):
        call = self.engine.estimate if kind == "estimate" else self.engine.predict
        return call(cells, cols[0], cols[1], cols[2], now_s=now)
