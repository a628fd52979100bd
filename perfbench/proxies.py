"""Timing proxies placed at layer boundaries, from outside the program.

A :class:`Timed` proxy wraps whatever sits below a boundary — the
engine or fleet the gateway talks to, or one worker client behind a
:class:`~repro.serve.sharding.ShardedFleet` — and records, per call,
its wall time, the calling thread's CPU time and its rows.  Every
other attribute is forwarded untouched, so the layer above cannot tell
the proxy from the real object.  No span is added inside the program.
"""

from __future__ import annotations

import time
from collections import Counter

TIMED_OPS = ("estimate", "predict", "contains", "rollout_fleet")


class Meter:
    """Totals for one boundary: wall and CPU seconds, calls and rows per op."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self.calls: Counter = Counter()
        self.rows: Counter = Counter()

    @property
    def n_calls(self) -> int:
        return sum(self.calls.values())

    @property
    def compute_calls(self) -> int:
        """Calls that carry rows: estimate, predict and rollout."""
        return self.n_calls - self.calls["contains"]

    @property
    def compute_rows(self) -> int:
        return sum(self.rows.values())


class Timed:
    """Forwarding proxy that meters the serving calls made through it."""

    def __init__(self, inner, meter: Meter):
        self._inner = inner
        self._meter = meter

    def _timed(self, op: str, rows: int, fn, *args, **kwargs):
        meter = self._meter
        w0, c0 = time.perf_counter(), time.thread_time()
        try:
            return fn(*args, **kwargs)
        finally:
            meter.wall += time.perf_counter() - w0
            meter.cpu += time.thread_time() - c0
            meter.calls[op] += 1
            meter.rows[op] += rows

    def estimate(self, cell_ids, *args, **kwargs):
        return self._timed("estimate", len(cell_ids), self._inner.estimate, cell_ids, *args, **kwargs)

    def predict(self, cell_ids, *args, **kwargs):
        return self._timed("predict", len(cell_ids), self._inner.predict, cell_ids, *args, **kwargs)

    def rollout_fleet(self, assignments, step_s, **kwargs):
        pairs = list(assignments)
        return self._timed("rollout_fleet", len(pairs), self._inner.rollout_fleet, pairs, step_s, **kwargs)

    def __contains__(self, cell_id) -> bool:
        return self._timed("contains", 0, self._inner.__contains__, cell_id)

    def __len__(self) -> int:
        return len(self._inner)

    def __getattr__(self, name):
        return getattr(self._inner, name)
