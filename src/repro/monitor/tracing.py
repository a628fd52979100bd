"""Sampling span tracer: per-request latency attribution across the stack.

PR 5 made the fleet measurable in aggregate — histograms say *that* p99
went up, but not *where one request's 1.2 ms went*.  This module adds
the missing per-request story: a lightweight distributed tracer whose
spans follow a request through the gateway, the micro-batcher, the
shard fan-out, across the worker pipe, and into the compiled kernel,
then roll back up into the shared
:class:`~repro.monitor.metrics.MetricsRegistry` as per-stage latency
histograms (``trace_stage_seconds{stage=...}``).

Design constraints, in order:

1. **Near-zero cost when off.**  Instrumented code calls
   :func:`stage`, which reads one thread-local attribute and returns a
   shared no-op handle when no trace is active — no allocation, no
   lock, no clock read.  The compiled-kernel hot path inlines the same
   guard (one ``getattr`` + ``is None``) so the gated
   ``kernel_speedup`` benchmark is unaffected.
2. **Head-based sampling, deterministic.**  One in ``1/sample_rate``
   root requests records a trace (a modular counter, not an RNG, so
   tests and reruns are exact; the *first* request always samples, so
   a run of any length exports at least one trace).
3. **Tail capture ("flight recorder").**  With ``slow_trace_s`` set,
   *every* request buffers spans provisionally; at root close the
   buffer commits if the request was slow, or is discarded — the traces
   you most want are the ones head sampling is least likely to catch.
4. **Bounded memory.**  Committed traces live in a ring
   (``max_traces``); a runaway trace stops buffering at
   ``max_spans_per_trace`` (drops are counted, never silent).

Context propagation is explicit.  A :class:`TraceContext` names
``(tracer, trace_id, parent span_id)``; it travels in function
arguments and in the micro-batcher's queued row (``submit(...,
trace=)``), thread-locally via :func:`activate` / span handles
(executor threads, the batcher's flush), and across the
worker process boundary as a compact ``[trace_id, span_id, flags]``
triple in the v2 wire frame's meta block
(:data:`repro.serve.wire.TRACE_META_KEY`).  Child processes record
spans against the propagated ids and ship them back in the reply meta
(:meth:`SpanTracer.drain` → :meth:`SpanTracer.absorb`); both sides
stamp ``time.monotonic``, which is machine-wide ``CLOCK_MONOTONIC`` on
Linux, so cross-process spans align on one timeline.

Readout: :meth:`SpanTracer.trace_trees` (nested JSON span trees, the
``/traces`` endpoint), :meth:`SpanTracer.to_chrome` (Chrome
trace-event JSON — load the export in ``chrome://tracing`` or
Perfetto), and the commit-time histogram rollup (the ``/metrics``
endpoint).  This module is stdlib-only and imports nothing from the
rest of the package, so any layer — including :mod:`repro.core` — may
import it without cycles.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
import time
from collections import deque
from typing import Callable

__all__ = [
    "Span",
    "SpanTracer",
    "TraceContext",
    "TRACE_STATE",
    "activate",
    "current_context",
    "stage",
]

# Ambient trace context for the calling thread (attribute ``ctx``).
# Instrumented hot paths read it with one ``getattr(TRACE_STATE, "ctx",
# None)`` — absence of a context IS the off switch.
TRACE_STATE = threading.local()


def current_context() -> TraceContext | None:
    """The calling thread's active trace context, if any."""
    return getattr(TRACE_STATE, "ctx", None)


@dataclasses.dataclass(frozen=True, slots=True)
class TraceContext:
    """A recording position in one trace: ``(tracer, trace, parent span)``.

    A context only exists while its trace is recording (head-sampled or
    provisionally buffered for slow-capture); code therefore never
    checks a "recording?" flag — it checks for the context itself.
    """

    tracer: SpanTracer
    trace_id: int
    span_id: int
    sampled: bool  # head-sampled (commit unconditionally) vs slow-capture provisional

    def to_wire(self) -> list[int]:
        """Compact wire form: ``[trace_id, span_id, flags]`` (JSON-safe)."""
        return [self.trace_id, self.span_id, 1 if self.sampled else 0]


@dataclasses.dataclass(slots=True)
class Span:
    """One closed span: a named, timed stage of one traced request."""

    trace_id: int
    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float
    service: str
    pid: int
    attrs: dict

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        """JSON-safe form (the reply-meta and ``/traces`` format)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "service": self.service,
            "pid": self.pid,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: dict) -> Span:
        return cls(
            trace_id=int(record["trace_id"]),
            span_id=int(record["span_id"]),
            parent_id=None if record.get("parent_id") is None else int(record["parent_id"]),
            name=str(record["name"]),
            start_s=float(record["start_s"]),
            end_s=float(record["end_s"]),
            service=str(record.get("service", "")),
            pid=int(record.get("pid", 0)),
            attrs=dict(record.get("attrs") or {}),
        )


class _NoopHandle:
    """Shared do-nothing stand-in for a span handle (tracing inactive).

    ``__enter__`` returns ``None`` so ``with stage(...) as h:`` yields a
    handle exactly when a trace is recording — the idiom for optional
    extra work (attaching wire context, absorbing reply spans).
    """

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False

    def finish(self, **attrs) -> None:
        pass


_NOOP = _NoopHandle()


class _SpanHandle:
    """An open span: context manager that activates its child context.

    Entering installs :attr:`ctx` thread-locally (so nested
    :func:`stage` calls parent under this span) and restores the
    previous context on exit; :meth:`finish` closes the span exactly
    once.  Root handles may skip activation entirely — the async
    gateway opens a root, threads ``handle.ctx`` through the batcher,
    and calls ``finish`` when the completion resolves.
    """

    __slots__ = ("ctx", "name", "attrs", "_parent_id", "_root", "_start_s", "_prev", "_done")

    def __init__(self, ctx: TraceContext, parent_id: int | None, name: str, attrs: dict, root: bool):
        self.ctx = ctx
        self.name = name
        self.attrs = attrs
        self._parent_id = parent_id
        self._root = root
        self._start_s = ctx.tracer.clock()
        self._prev = None
        self._done = False

    def __enter__(self) -> _SpanHandle:
        self._prev = getattr(TRACE_STATE, "ctx", None)
        TRACE_STATE.ctx = self.ctx
        return self

    def __exit__(self, exc_type, exc, tb):
        TRACE_STATE.ctx = self._prev
        if exc_type is not None:
            self.finish(error=exc_type.__name__)
        else:
            self.finish()
        return False

    def finish(self, **attrs) -> None:
        """Close the span (idempotent); extra attrs are merged in."""
        if self._done:
            return
        self._done = True
        if attrs:
            self.attrs.update(attrs)
        self.ctx.tracer._close(self)


class _Activation:
    """Install an existing context thread-locally without opening a span.

    For carrying a trace across thread hops (gateway executor thunks,
    the worker child's compute stage): downstream :func:`stage` calls
    then parent under ``ctx``'s span.  ``activate(None)`` is a no-op,
    so call sites need no branching.
    """

    __slots__ = ("ctx", "_prev", "_installed")

    def __init__(self, ctx: TraceContext | None):
        self.ctx = ctx
        self._prev = None
        self._installed = False

    def __enter__(self) -> TraceContext | None:
        if self.ctx is not None:
            self._prev = getattr(TRACE_STATE, "ctx", None)
            TRACE_STATE.ctx = self.ctx
            self._installed = True
        return self.ctx

    def __exit__(self, *exc):
        if self._installed:
            TRACE_STATE.ctx = self._prev
        return False


def activate(ctx: TraceContext | None) -> _Activation:
    """Context manager installing ``ctx`` as the thread's trace context."""
    return _Activation(ctx)


def stage(name: str, **attrs):
    """Open a child span under the thread's active context, or do nothing.

    The universal instrumentation point: ``with stage("engine.estimate",
    model=key):``.  When no trace is recording on this thread the call
    returns a shared no-op handle — one thread-local read, no
    allocation — so instrumented code pays ~nothing in the common case.
    """
    ctx = getattr(TRACE_STATE, "ctx", None)
    if ctx is None:
        return _NOOP
    return ctx.tracer.span(ctx, name, **attrs)


class SpanTracer:
    """Bounded-memory span store with head sampling and slow-tail capture.

    Parameters
    ----------
    sample_rate:
        Fraction of root requests that record a trace.  ``>= 1``
        records everything; ``<= 0`` disables head sampling (useful
        with ``slow_trace_s`` alone).  Sampling is a deterministic
        modular counter seeded so the **first** request records.
    slow_trace_s:
        When set, every root request buffers spans provisionally and
        commits only if its total duration reaches this threshold —
        tail capture for the requests head sampling misses.
    max_traces:
        Ring size for committed traces (oldest evicted first).
    max_spans_per_trace:
        Per-trace span budget; spans beyond it are dropped and counted
        in :meth:`counts` (``spans_dropped``), never silently.
    metrics:
        Optional :class:`~repro.monitor.metrics.MetricsRegistry`.  At
        commit every span rolls into
        ``trace_stage_seconds{stage=<span name>}`` and the trace into
        ``trace_traces_total{sampled=head|slow}`` — per-stage latency
        attribution on the same scrape surface as everything else.
    service:
        Stamped on spans this tracer records (``gateway``, ``worker``).
    clock:
        Monotonic time source.  Defaults to :func:`time.monotonic`
        (machine-wide ``CLOCK_MONOTONIC`` on Linux, so parent- and
        child-process spans share a timeline).
    """

    def __init__(
        self,
        sample_rate: float = 0.01,
        slow_trace_s: float | None = None,
        max_traces: int = 256,
        max_spans_per_trace: int = 512,
        metrics=None,
        service: str = "serve",
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_traces < 1:
            raise ValueError("max_traces must be at least 1")
        if max_spans_per_trace < 2:
            raise ValueError("max_spans_per_trace must be at least 2")
        self.sample_rate = float(sample_rate)
        self.slow_trace_s = slow_trace_s
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self.metrics = metrics
        self.service = service
        self.clock = clock
        self._period = 0 if sample_rate <= 0 else max(1, round(1.0 / sample_rate)) if sample_rate < 1 else 1
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._started = 0
        self._sampled = 0
        self._committed = 0
        self._discarded = 0
        self._spans_dropped = 0
        # open traces: trace_id -> buffered spans (closed so far)
        self._live: dict[int, list[Span]] = {}
        # committed traces, oldest first
        self._traces: deque[dict] = deque(maxlen=max_traces)

    # -- span creation --------------------------------------------------
    def _next_id(self) -> int:
        """Span/trace ids unique across cooperating processes.

        ``(pid << 32) | counter`` — two processes of one serving
        topology can never mint the same id, so absorbed child spans
        cannot collide with parent spans in one tree.
        """
        return (os.getpid() << 32) | (next(self._ids) & 0xFFFFFFFF)

    def start_trace(self, name: str, **attrs) -> _SpanHandle | None:
        """Open a root span, or return ``None`` when this request records nothing.

        The sampling decision point: heads-sampled requests commit at
        root close unconditionally; with ``slow_trace_s`` set, unsampled
        requests still buffer provisionally and commit only if slow.
        """
        with self._lock:
            n = self._started
            self._started += 1
        sampled = self._period > 0 and n % self._period == 0
        if not sampled and self.slow_trace_s is None:
            return None
        if sampled:
            with self._lock:
                self._sampled += 1
        trace_id = self._next_id()
        ctx = TraceContext(self, trace_id, self._next_id(), sampled)
        with self._lock:
            self._live[trace_id] = []
        return _SpanHandle(ctx, parent_id=None, name=name, attrs=attrs, root=True)

    def trace(self, name: str, **attrs):
        """Root-span-or-noop convenience: ``with tracer.trace("run"): ...``."""
        handle = self.start_trace(name, **attrs)
        return _NOOP if handle is None else handle

    def span(self, ctx: TraceContext, name: str, **attrs) -> _SpanHandle:
        """Open a child span under an explicit parent context."""
        child = TraceContext(self, ctx.trace_id, self._next_id(), ctx.sampled)
        return _SpanHandle(child, parent_id=ctx.span_id, name=name, attrs=attrs, root=False)

    def record(self, ctx: TraceContext, name: str, start_s: float, end_s: float, **attrs) -> None:
        """Append an already-timed span under ``ctx`` (queue waits, worker stages)."""
        self._append(
            Span(
                trace_id=ctx.trace_id,
                span_id=self._next_id(),
                parent_id=ctx.span_id,
                name=name,
                start_s=start_s,
                end_s=end_s,
                service=self.service,
                pid=os.getpid(),
                attrs=attrs,
            )
        )

    # -- cross-process propagation --------------------------------------
    def from_wire(self, tc) -> TraceContext:
        """Rebuild a context from its wire triple and open a local buffer.

        The worker-child entry point: spans recorded under the returned
        context accumulate until :meth:`drain` ships them back in the
        reply meta.
        """
        trace_id, span_id, flags = int(tc[0]), int(tc[1]), int(tc[2])
        with self._lock:
            self._live.setdefault(trace_id, [])
        return TraceContext(self, trace_id, span_id, bool(flags & 1))

    def drain(self, trace_id: int) -> list[dict]:
        """Remove and return one live trace's spans as JSON-safe dicts."""
        with self._lock:
            spans = self._live.pop(trace_id, [])
        return [span.to_dict() for span in spans]

    def absorb(self, span_dicts) -> None:
        """Merge spans recorded by another process into their live traces.

        The parent-side half of wire propagation: reply-meta span dicts
        re-join the trace they belong to (dropped if it already closed
        — a reply that outlived its root carries no tree to join).
        """
        for record in span_dicts or ():
            self._append(Span.from_dict(record))

    # -- internals ------------------------------------------------------
    def _append(self, span: Span) -> None:
        with self._lock:
            buffer = self._live.get(span.trace_id)
            if buffer is None:
                return
            if len(buffer) >= self.max_spans_per_trace:
                self._spans_dropped += 1
                return
            buffer.append(span)

    def _close(self, handle: _SpanHandle) -> None:
        ctx = handle.ctx
        span = Span(
            trace_id=ctx.trace_id,
            span_id=ctx.span_id,
            parent_id=handle._parent_id,
            name=handle.name,
            start_s=handle._start_s,
            end_s=self.clock(),
            service=self.service,
            pid=os.getpid(),
            attrs=handle.attrs,
        )
        self._append(span)
        if handle._root:
            self._finalize(span, ctx.sampled)

    def _finalize(self, root: Span, sampled: bool) -> None:
        """Root closed: commit (and roll up) or discard the buffered trace."""
        slow = self.slow_trace_s is not None and root.duration_s >= self.slow_trace_s
        with self._lock:
            spans = self._live.pop(root.trace_id, [])
            if not (sampled or slow):
                self._discarded += 1
                return
            self._committed += 1
            self._traces.append(
                {
                    "trace_id": root.trace_id,
                    "root": root.name,
                    "duration_s": root.duration_s,
                    "sampled": "head" if sampled else "slow",
                    "spans": spans,
                }
            )
        if self.metrics is not None:
            # single rollup site: absorbed child-process spans are in the
            # buffer too, so worker stages land in the same histograms
            for span in spans:
                self.metrics.histogram("trace_stage_seconds", stage=span.name).observe(span.duration_s)
            self.metrics.counter("trace_traces_total", sampled="head" if sampled else "slow").inc()

    # -- readout --------------------------------------------------------
    def counts(self) -> dict:
        """Sampling/commit accounting (JSON-safe)."""
        with self._lock:
            return {
                "started": self._started,
                "sampled": self._sampled,
                "committed": self._committed,
                "discarded": self._discarded,
                "spans_dropped": self._spans_dropped,
                "live": len(self._live),
                "stored": len(self._traces),
            }

    def trace_trees(self, limit: int | None = None) -> list[dict]:
        """Recent committed traces as nested span trees, newest first.

        Each tree node is the span's dict plus ``children``; spans whose
        parent never closed (or was dropped) surface under the trace's
        ``orphans`` list rather than being silently re-parented — a
        connected tree in this output really is connected.
        """
        with self._lock:
            committed = list(self._traces)
        committed.reverse()
        if limit is not None:
            committed = committed[:limit]
        trees = []
        for entry in committed:
            nodes = {span.span_id: {**span.to_dict(), "children": []} for span in entry["spans"]}
            root = None
            orphans = []
            for span in entry["spans"]:
                node = nodes[span.span_id]
                if span.parent_id is None:
                    root = node
                elif span.parent_id in nodes:
                    nodes[span.parent_id]["children"].append(node)
                else:
                    orphans.append(node)
            trees.append(
                {
                    "trace_id": entry["trace_id"],
                    "root_name": entry["root"],
                    "duration_s": entry["duration_s"],
                    "sampled": entry["sampled"],
                    "root": root,
                    "orphans": orphans,
                }
            )
        return trees

    def to_chrome(self, limit: int | None = None) -> dict:
        """Chrome trace-event JSON (``chrome://tracing`` / Perfetto).

        Complete events (``ph="X"``) with microsecond timestamps; each
        trace renders as one thread lane (``tid`` = trace id) and each
        process keeps its real pid, so the worker hop is visible as a
        lane handoff.
        """
        with self._lock:
            committed = list(self._traces)
        if limit is not None:
            committed = committed[-limit:]
        events = []
        for entry in committed:
            for span in entry["spans"]:
                events.append(
                    {
                        "name": span.name,
                        "cat": span.service,
                        "ph": "X",
                        "ts": span.start_s * 1e6,
                        "dur": span.duration_s * 1e6,
                        "pid": span.pid,
                        "tid": entry["trace_id"] & 0xFFFFFFFF,
                        "args": span.attrs,
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}
