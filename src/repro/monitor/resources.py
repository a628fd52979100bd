"""Process resource telemetry: RSS and CPU seconds from ``/proc``.

An operator sizing a serving process needs its memory and CPU next to
its latency quantiles.  This module reads those two numbers from
``/proc/<pid>/stat`` (one ~300-byte read, no allocation-heavy psutil
dependency) and exports them in the standard Prometheus process-metrics
vocabulary:

- ``process_resident_bytes{pid="..."}`` — gauge, resident set size;
- ``process_cpu_seconds_total{pid="..."}`` — counter, user+system CPU
  time consumed since process start.

The ``pid`` label keeps per-worker series distinct after
:func:`~repro.monitor.metrics.merge_snapshots` (gauges sum across
snapshots, so unlabeled series from eight workers would merge into one
meaningless total — labeled ones survive as eight inspectable series).

:func:`install_process_metrics` wires a :class:`ResourceSampler` into a
registry as a snapshot-time collector, so every existing readout path —
the worker ``metrics`` wire op, ``ShardedFleet.metrics()``, the
``/metrics`` exposition endpoint — sees current values with no caller
changes.

On platforms without ``/proc`` the reader falls back to
``resource.getrusage`` (coarser RSS units, still correct CPU seconds).
"""

from __future__ import annotations

import os
import resource

__all__ = [
    "ResourceSampler",
    "install_process_metrics",
    "read_process_stats",
]

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100
_PAGE_SIZE = resource.getpagesize()


def read_process_stats(pid: int | str = "self") -> dict:
    """RSS bytes and cumulative CPU seconds for one process.

    Parses ``/proc/<pid>/stat``: the comm field may contain spaces and
    parentheses, so fields are split only after the *last* ``)``.
    After that split, utime/stime are fields 11/12 and RSS (pages) is
    field 21 (0-indexed; fields 14/15/24 in proc(5)'s 1-indexed
    numbering).  Falls back to ``getrusage`` when ``/proc`` is absent
    (only valid for the calling process).
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            raw = fh.read().decode("ascii", "replace")
        fields = raw[raw.rfind(")") + 2 :].split()
        cpu_seconds = (int(fields[11]) + int(fields[12])) / _CLK_TCK
        rss_bytes = int(fields[21]) * _PAGE_SIZE
        return {"rss_bytes": rss_bytes, "cpu_seconds": cpu_seconds}
    except (OSError, IndexError, ValueError):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        # ru_maxrss is kilobytes on Linux (peak, not current — the best
        # available without /proc)
        return {
            "rss_bytes": usage.ru_maxrss * 1024,
            "cpu_seconds": usage.ru_utime + usage.ru_stime,
        }


class ResourceSampler:
    """Refreshes one process's RSS/CPU instruments on each :meth:`sample`.

    Parameters
    ----------
    metrics:
        :class:`~repro.monitor.metrics.MetricsRegistry`; each
        :meth:`sample` refreshes ``process_resident_bytes{pid=}`` and
        advances ``process_cpu_seconds_total{pid=}`` by the
        (non-negative) CPU delta since the previous sample, preserving
        counter semantics.
    pid:
        Process to read (default: the calling process).
    """

    def __init__(self, metrics, pid: int | None = None):
        self.pid = int(pid if pid is not None else os.getpid())
        self._last_cpu: float | None = None
        label = str(self.pid)
        self._rss_gauge = metrics.gauge("process_resident_bytes", pid=label)
        self._cpu_counter = metrics.counter("process_cpu_seconds_total", pid=label)

    def sample(self) -> dict:
        """Take one reading and update the instruments."""
        stats = read_process_stats(self.pid)
        self._rss_gauge.set(stats["rss_bytes"])
        prev = self._last_cpu
        if prev is None:
            self._cpu_counter.inc(stats["cpu_seconds"])
        elif stats["cpu_seconds"] > prev:
            self._cpu_counter.inc(stats["cpu_seconds"] - prev)
        self._last_cpu = stats["cpu_seconds"]
        return stats


def install_process_metrics(registry) -> ResourceSampler:
    """Attach self-process RSS/CPU series to ``registry`` (idempotent).

    Registers a :class:`ResourceSampler` as a snapshot-time collector so
    ``process_resident_bytes`` / ``process_cpu_seconds_total`` are fresh
    on every readout.  Calling it again on the same registry returns the
    existing sampler — the engine, gateway, and CLI can each install
    defensively without duplicating series updates.
    """
    sampler = getattr(registry, "_process_sampler", None)
    if sampler is not None:
        return sampler
    sampler = ResourceSampler(metrics=registry)
    registry._process_sampler = sampler
    registry.add_collector(sampler.sample)
    return sampler
