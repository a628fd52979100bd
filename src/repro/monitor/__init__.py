"""``repro.monitor`` — live observability and the fleet control plane.

The watchdog layer over :mod:`repro.serve`: every serving component can
feed a shared :class:`MetricsRegistry`, residual streams flow through
O(1)-per-cell drift detectors, and an auto-pilot turns the canary
lifecycle from "a human reads a shadow report" into a closed loop on
live traffic.

- :mod:`repro.monitor.metrics` — :class:`MetricsRegistry`: labeled
  counters/gauges/streaming-quantile histograms (P² sketches — p50/p95/
  p99 without storing samples), JSON snapshots, Prometheus text
  exposition, and cross-process snapshot merging;
- :mod:`repro.monitor.drift` — :class:`DriftMonitor`: vectorized
  Page–Hinkley and CUSUM banks over per-cell physics-residual streams,
  physics-bounds checks (SoC range, chemistry-derived rate ceiling),
  typed :class:`DriftEvent` records in a bounded ring buffer;
- :mod:`repro.monitor.autopilot` — :class:`AutoCanaryPolicy` +
  :class:`DivergenceProbe` + :class:`ControlLoop`: live stable-vs-
  candidate divergence measured through the serving path, an EWMA
  budget / drift-veto / cooldown decision rule, automatic
  ``CanaryController.promote()/rollback()``;
- :mod:`repro.monitor.tracing` — :class:`SpanTracer`: sampling span
  tracer with explicit :class:`TraceContext` propagation through the
  serving path (gateway → batcher → shards → wire → worker → kernel),
  slow-trace tail capture, per-stage histogram rollup, and Chrome
  trace-event export;
- :mod:`repro.monitor.exposition` — :class:`ExpositionServer`: a
  stdlib-threaded HTTP endpoint serving ``/metrics`` (Prometheus
  text), ``/traces`` (span trees as JSON), and ``/healthz``.

See ``src/repro/monitor/README.md`` for signal definitions, the
exposition formats, the span taxonomy, and the autopilot decision rule.
"""

from .autopilot import AutoCanaryPolicy, AutopilotConfig, ControlLoop, DivergenceProbe, ProbeTiming
from .drift import (
    Cusum,
    CusumConfig,
    DriftEvent,
    DriftMonitor,
    PageHinkley,
    PageHinkleyConfig,
    PhysicsBounds,
    residual_stream,
)
from .exposition import ExpositionServer
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
    escape_label_value,
    merge_snapshots,
    prometheus_text,
)
from .resources import ResourceSampler, install_process_metrics, read_process_stats
from .tracing import Span, SpanTracer, TraceContext, activate, current_context, stage

__all__ = [
    "AutoCanaryPolicy",
    "AutopilotConfig",
    "ControlLoop",
    "Counter",
    "Cusum",
    "CusumConfig",
    "DivergenceProbe",
    "DriftEvent",
    "DriftMonitor",
    "ExpositionServer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "P2Quantile",
    "PageHinkley",
    "PageHinkleyConfig",
    "PhysicsBounds",
    "ProbeTiming",
    "ResourceSampler",
    "Span",
    "SpanTracer",
    "TraceContext",
    "activate",
    "current_context",
    "escape_label_value",
    "install_process_metrics",
    "merge_snapshots",
    "prometheus_text",
    "read_process_stats",
    "residual_stream",
    "stage",
]
