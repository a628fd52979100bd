"""Lock-cheap metrics primitives: counters, gauges, streaming quantiles.

The serving stack (engine, gateway, shard workers) needs *live*
accounting that costs almost nothing on the hot path and can be read
out as one coherent snapshot — across threads, and across the process
boundary of :class:`~repro.serve.workers.ShardWorker` peers.
This module provides the three classic instrument kinds behind a
:class:`MetricsRegistry` of labeled series:

- :class:`Counter` — monotone float, ``inc()``;
- :class:`Gauge` — last-written float, ``set()``;
- :class:`Histogram` — count/sum/min/max plus **streaming quantiles**
  (p50/p95/p99 by default) via the P² algorithm [Jain & Chlamtac,
  CACM 1985]: five markers per target quantile, O(1) memory and O(1)
  update, no samples stored.  The previous gateway accounting kept a
  262k-entry latency reservoir per endpoint; a P² sketch replaces it
  with ~45 floats at ~1% accuracy on smooth distributions (pinned
  against ``numpy.percentile`` in ``tests/test_monitor_metrics.py``).

**Lock discipline.**  Series *creation* takes the registry lock;
*updates* are single attribute mutations on the instrument object,
which CPython's GIL makes safe enough for accounting (a torn read can
at worst momentarily under-report — no state is ever corrupted).
Callers on a hot path should cache the instrument object returned by
:meth:`MetricsRegistry.counter` and friends instead of re-resolving
the label set per call.

**Exposition.**  :meth:`MetricsRegistry.snapshot` returns a plain-JSON
dict (the wire/merge format), :meth:`MetricsRegistry.to_prometheus`
the Prometheus text format.  :func:`merge_snapshots` combines
snapshots from many processes into one fleet view: counters and gauges
sum, histogram counts/sums sum, min/max combine exactly, and quantiles
merge as count-weighted averages (an approximation — the only part of
a merged snapshot that is not exact, and flagged as such in the
monitor README).
"""

from __future__ import annotations

import bisect
import math
import threading

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "escape_label_value",
    "merge_snapshots",
    "prometheus_text",
    "series_key",
]

DEFAULT_QUANTILES = (0.5, 0.95, 0.99)


class P2Quantile:
    """One streaming quantile via the P² algorithm (5 markers, O(1) update).

    Parameters
    ----------
    p:
        Target quantile in (0, 1), e.g. ``0.95``.

    The first five observations are stored and sorted (the marker
    seed); from the sixth on, each observation moves the five marker
    heights by at most one parabolic (or linear) adjustment.  Until
    enough samples arrive, :meth:`value` falls back to the empirical
    quantile of what has been seen.
    """

    __slots__ = ("p", "_count", "_q", "_n", "_np", "_dn")

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be within (0, 1), got {p!r}")
        self.p = float(p)
        self._count = 0
        self._q: list[float] = []  # marker heights (sorted seed, then P² markers)
        self._n: list[int] = []  # actual marker positions
        self._np: list[float] = []  # desired marker positions
        self._dn: list[float] = []  # desired-position increments

    def add(self, x: float) -> None:
        """Fold one observation into the sketch."""
        x = float(x)
        self._count += 1
        if self._count <= 5:
            bisect.insort(self._q, x)
            if self._count == 5:
                p = self.p
                self._n = [0, 1, 2, 3, 4]
                self._np = [0.0, 2 * p, 4 * p, 2 + 2 * p, 4.0]
                self._dn = [0.0, p / 2, p, (1 + p) / 2, 1.0]
            return
        q, n = self._q, self._n
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[4]:
            q[4] = x
            k = 3
        else:
            k = 0
            while x >= q[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1
        for i in range(5):
            self._np[i] += self._dn[i]
        for i in (1, 2, 3):
            d = self._np[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1) or (d <= -1.0 and n[i - 1] - n[i] < -1):
                s = 1 if d >= 1.0 else -1
                candidate = self._parabolic(i, s)
                if not q[i - 1] < candidate < q[i + 1]:
                    candidate = self._linear(i, s)
                q[i] = candidate
                n[i] += s

    def _parabolic(self, i: int, s: int) -> float:
        q, n = self._q, self._n
        return q[i] + s / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + s) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - s) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, s: int) -> float:
        q, n = self._q, self._n
        return q[i] + s * (q[i + s] - q[i]) / (n[i + s] - n[i])

    def value(self) -> float:
        """Current quantile estimate (NaN before the first observation)."""
        if self._count == 0:
            return math.nan
        if self._count <= 5:
            # empirical quantile with linear interpolation (numpy's default)
            pos = self.p * (len(self._q) - 1)
            lo = int(pos)
            hi = min(lo + 1, len(self._q) - 1)
            return self._q[lo] + (pos - lo) * (self._q[hi] - self._q[lo])
        return self._q[2]

    def __len__(self) -> int:
        return self._count


class Counter:
    """Monotone accumulator.  ``inc`` is one attribute add — no lock."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must not be negative — counters only go up)."""
        self.value += amount


class Gauge:
    """Last-written value.  ``set`` is one attribute store — no lock."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """count/sum/min/max plus P² streaming quantiles, no stored samples.

    Two observation paths:

    - :meth:`observe` — one sample; updates everything including every
      quantile sketch (use for per-request latencies and the like);
    - :meth:`observe_batch` — a whole array at once; count/sum/min/max
      update vectorized and each sketch absorbs the **batch mean** as a
      single observation.  This is the hot-path form: a fleet rollout
      window contributes thousands of residuals per call, and feeding
      each one through a Python-level sketch update would put an O(n)
      interpreter loop back on the path the engine just vectorized.
      Quantiles of batch-observed series are therefore quantiles *of
      per-batch means* — exactly what the engine's "physics-residual
      summaries per window" need, and documented at the call sites.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "_sketches")

    def __init__(self, quantiles: tuple[float, ...] = DEFAULT_QUANTILES):
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self._sketches = {float(p): P2Quantile(p) for p in quantiles}

    def observe(self, value: float) -> None:
        """Fold one sample into counts and every quantile sketch."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        for sketch in self._sketches.values():
            sketch.add(value)

    def observe_batch(self, values: np.ndarray) -> None:
        """Fold an array of samples in; sketches absorb the batch mean."""
        n = values.size
        if n == 0:
            return
        self.count += n
        total = float(values.sum())
        self.total += total
        vmin = float(values.min())
        vmax = float(values.max())
        if vmin < self.vmin:
            self.vmin = vmin
        if vmax > self.vmax:
            self.vmax = vmax
        mean = total / n
        for sketch in self._sketches.values():
            sketch.add(mean)

    def quantile(self, p: float) -> float:
        """Current estimate for one of the configured quantiles."""
        return self._sketches[float(p)].value()

    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def summary(self) -> dict:
        """JSON-safe state: count, sum, min, max, quantile estimates."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": None if self.count == 0 else self.vmin,
            "max": None if self.count == 0 else self.vmax,
            "quantiles": {
                repr(p): (None if self.count == 0 else sketch.value())
                for p, sketch in self._sketches.items()
            },
        }


def escape_label_value(value) -> str:
    """Escape a label value per the Prometheus text-format spec.

    Backslash, double-quote, and line-feed are the three characters the
    exposition format requires escaping inside a quoted label value;
    anything else passes through.  Applied at series-key construction,
    so snapshot keys (the wire/merge format) are already exposition-safe
    and :func:`prometheus_text` can emit them verbatim.
    """
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def series_key(name: str, labels: dict[str, str] | None) -> str:
    """Canonical series identity: ``name`` or ``name{k="v",...}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{escape_label_value(labels[k])}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Labeled series of counters/gauges/histograms with one snapshot view.

    ``counter``/``gauge``/``histogram`` get-or-create a series under
    the registry lock and return the instrument object; updates on that
    object are lock-free (see the module docstring).  Labels are
    keyword arguments::

        reg = MetricsRegistry()
        served = reg.counter("engine_requests_total", op="estimate", model="lg-a")
        served.inc(128)
        reg.histogram("gateway_latency_seconds", endpoint="predict").observe(0.004)

    :meth:`snapshot` is the JSON/merge format, :meth:`to_prometheus`
    the text exposition.  One registry instance is meant to be shared
    by every component of a process (engine, gateway, drift monitor);
    cross-process topologies merge child snapshots with
    :func:`merge_snapshots`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list = []

    def add_collector(self, collect) -> None:
        """Register a zero-arg callable run before every :meth:`snapshot`.

        Collectors refresh pull-style series (process RSS/CPU from
        ``/proc``) so every readout path — worker wire ops, topology
        merges, ``/metrics`` exposition — sees current values without
        each caller knowing to poll.  Collector exceptions are swallowed:
        a broken sampler must never take down the readout path.
        """
        self._collectors.append(collect)

    # -- series creation ------------------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        """Get-or-create a counter series."""
        key = series_key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(key, Counter())
        return instrument

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get-or-create a gauge series."""
        key = series_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(key, Gauge())
        return instrument

    def histogram(
        self, name: str, quantiles: tuple[float, ...] = DEFAULT_QUANTILES, **labels: str
    ) -> Histogram:
        """Get-or-create a histogram series (quantiles fixed at creation)."""
        key = series_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(key, Histogram(quantiles))
        return instrument

    # -- readout ---------------------------------------------------------
    def snapshot(self) -> dict:
        """All series as one JSON-safe dict (the wire and merge format)."""
        for collect in self._collectors:
            try:
                collect()
            except Exception:
                pass
        with self._lock:
            return {
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {k: h.summary() for k, h in self._histograms.items()},
            }

    def to_prometheus(self) -> str:
        """Prometheus text exposition of the current snapshot."""
        return prometheus_text(self.snapshot())

    def counter_value(self, name: str, **labels: str) -> float:
        """Read one counter series (0.0 when it does not exist yet)."""
        instrument = self._counters.get(series_key(name, labels))
        return 0.0 if instrument is None else instrument.value


# -- snapshot-level operations ------------------------------------------
def _split_key(key: str) -> tuple[str, str]:
    """``name{labels}`` -> ``(name, "{labels}")`` (labels part may be empty)."""
    brace = key.find("{")
    if brace < 0:
        return key, ""
    return key[:brace], key[brace:]


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Combine per-process snapshots into one fleet-wide view.

    Counters and gauges sum (the gauges this package emits are
    extensive quantities — cell counts, ring-buffer depths — so
    summing across shards is the meaningful combination).  Histograms
    sum count/sum, combine min/max exactly, and average quantile
    estimates weighted by observation count — approximate, but the
    count/sum/min/max stay exact.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hist_acc: dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for key, value in snap.get("counters", {}).items():
            counters[key] = counters.get(key, 0.0) + value
        for key, value in snap.get("gauges", {}).items():
            gauges[key] = gauges.get(key, 0.0) + value
        for key, summary in snap.get("histograms", {}).items():
            acc = hist_acc.setdefault(key, {"count": 0, "sum": 0.0, "min": None, "max": None, "_wq": {}})
            count = summary.get("count", 0)
            acc["count"] += count
            acc["sum"] += summary.get("sum", 0.0)
            for bound, pick in (("min", min), ("max", max)):
                value = summary.get(bound)
                if value is not None:
                    acc[bound] = value if acc[bound] is None else pick(acc[bound], value)
            if count:
                for p, q in (summary.get("quantiles") or {}).items():
                    if q is not None:
                        total, weight = acc["_wq"].get(p, (0.0, 0))
                        acc["_wq"][p] = (total + q * count, weight + count)
    histograms = {}
    for key, acc in hist_acc.items():
        weighted = acc.pop("_wq")
        acc["quantiles"] = {p: total / weight for p, (total, weight) in weighted.items()}
        histograms[key] = acc
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def prometheus_text(snapshot: dict) -> str:
    """Render a snapshot (or merged snapshot) in Prometheus text format.

    Counters and gauges emit one sample line per series; histograms
    emit the summary convention — ``name{quantile="0.95",...}`` lines
    plus ``name_count`` / ``name_sum`` — with ``name_min`` /
    ``name_max`` as companion gauges.
    """
    lines: list[str] = []
    for kind, type_tag in (("counters", "counter"), ("gauges", "gauge")):
        seen: set[str] = set()
        for key in sorted(snapshot.get(kind, {})):
            name, _ = _split_key(key)
            if name not in seen:
                seen.add(name)
                lines.append(f"# TYPE {name} {type_tag}")
            lines.append(f"{key} {snapshot[kind][key]:g}")
    seen = set()
    for key in sorted(snapshot.get("histograms", {})):
        summary = snapshot["histograms"][key]
        name, labels = _split_key(key)
        if name not in seen:
            seen.add(name)
            lines.append(f"# TYPE {name} summary")
        inner = labels[1:-1] if labels else ""
        for p, q in sorted((summary.get("quantiles") or {}).items()):
            if q is None:
                continue
            label_str = f'quantile="{escape_label_value(p)}"' + (f",{inner}" if inner else "")
            lines.append(f"{name}{{{label_str}}} {q:g}")
        lines.append(f"{name}_count{labels} {summary.get('count', 0):g}")
        lines.append(f"{name}_sum{labels} {summary.get('sum', 0.0):g}")
        for bound in ("min", "max"):
            value = summary.get(bound)
            if value is not None:
                lines.append(f"{name}_{bound}{labels} {value:g}")
    return "\n".join(lines) + ("\n" if lines else "")
