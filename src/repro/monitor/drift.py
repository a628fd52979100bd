"""Streaming drift detection over per-cell residual streams.

The paper's two-branch coupling makes *model-free health signals*
cheap on the serving path: Branch 2's prediction should track the
coulomb-counting integral of Eq. 1, so the per-window residual

.. math::

    r_w = \\bigl| (SoC_{w+1} - SoC_w) - \\tfrac{-I_{avg} N}{3600\\,C} \\bigr|

is exactly the magnitude of the learned correction over pure physics —
the innovation-style indicator EKF practice tracks (Tu et al.) and the
ODE-residual consistency check of the PINN literature (Dang & Wang).
A healthy checkpoint keeps that stream stationary; a drifting one (bad
retrain, sensor fault, aged cell outside the training envelope) shifts
its mean.  This module watches those streams with O(1) state per cell:

- :class:`PageHinkley` — cumulative deviation from the running mean
  with drift allowance ``delta``; alarms when the deviation climbs
  ``threshold`` above its running minimum.  The classic mean-increase
  detector: ignores level, catches sustained shifts.
- :class:`Cusum` — two-sided cumulative sum with slack ``k`` against a
  reference (fixed, or the running mean when ``reference=None``);
  alarms when either side exceeds ``threshold``.
- physics-bounds monitoring (:class:`PhysicsBounds`) — flags served
  SoC outside ``[soc_min, soc_max]`` and SoC rate-of-change above a
  chemistry-derived ceiling (a cell discharging at its maximum C-rate
  moves SoC by ``C_max/3600`` per second; anything faster than
  ``margin`` times that is physically impossible, not drift).

:class:`DriftMonitor` is the fleet-facing object: detectors live in
flat numpy arrays indexed by a per-cell slot (:meth:`DriftMonitor.track`),
so a rollout window updates every active cell's detector in a handful
of vectorized ops, and alarms materialize as typed :class:`DriftEvent`
records in a bounded ring buffer (``collections.deque(maxlen=...)``),
with per-kind counters in an attached
:class:`~repro.monitor.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Sequence

import numpy as np

from .metrics import MetricsRegistry
from .tracing import TRACE_STATE

__all__ = [
    "Cusum",
    "CusumConfig",
    "DriftEvent",
    "DriftMonitor",
    "PageHinkley",
    "PageHinkleyConfig",
    "PhysicsBounds",
    "residual_stream",
]


@dataclasses.dataclass(frozen=True)
class DriftEvent:
    """One detector alarm.

    Attributes
    ----------
    kind:
        ``"page_hinkley"`` / ``"cusum"`` (residual drift),
        ``"soc_bounds"`` / ``"soc_rate"`` (physics violations).
    cell_id:
        Cell whose stream alarmed.
    value:
        The statistic that crossed (cumulative deviation, SoC, rate).
    threshold:
        The limit it crossed.
    window:
        Rollout window index when available (``None`` for request-path
        observations).
    detail:
        Human-readable context.
    trace_ids:
        Exemplar trace ids: when the alarm fired inside a traced
        request (an active :mod:`~repro.monitor.tracing` context on the
        emitting thread), the ids link this event to the span trees
        that produced it — the drift dashboard's "show me the request".
    """

    kind: str
    cell_id: str
    value: float
    threshold: float
    window: int | None = None
    detail: str = ""
    trace_ids: tuple = ()


@dataclasses.dataclass(frozen=True)
class PageHinkleyConfig:
    """Page–Hinkley parameters.

    ``delta`` is the tolerated per-sample drift (magnitude changes
    smaller than this never alarm); ``threshold`` the cumulative
    deviation budget; ``min_samples`` suppresses alarms while the
    running mean is still warming up.
    """

    delta: float = 0.005
    threshold: float = 0.1
    min_samples: int = 10


@dataclasses.dataclass(frozen=True)
class CusumConfig:
    """Two-sided CUSUM parameters.

    ``slack`` is the half-width of the in-control band around the
    reference; ``reference=None`` tracks the running mean (sustained
    *shifts* alarm, steady offsets do not), a float pins a fixed
    target (the deterministic-test configuration).
    """

    slack: float = 0.005
    threshold: float = 0.1
    min_samples: int = 10
    reference: float | None = None


@dataclasses.dataclass(frozen=True)
class PhysicsBounds:
    """Physical plausibility limits for served SoC.

    ``max_rate_per_s`` defaults to a 10C-equivalent ceiling with a
    1.5x margin; use :meth:`for_c_rate` to derive it from a fleet's
    actual maximum discharge C-rate.
    """

    soc_min: float = -0.05
    soc_max: float = 1.05
    max_rate_per_s: float = 1.5 * 10.0 / 3600.0

    @classmethod
    def for_c_rate(
        cls,
        max_discharge_c: float,
        margin: float = 1.5,
        soc_min: float = -0.05,
        soc_max: float = 1.05,
    ) -> PhysicsBounds:
        """Bounds whose rate ceiling comes from a chemistry's max C-rate."""
        return cls(soc_min=soc_min, soc_max=soc_max, max_rate_per_s=margin * max_discharge_c / 3600.0)


class PageHinkley:
    """Scalar Page–Hinkley detector (the single-stream reference form).

    :meth:`update` returns ``True`` on alarm and resets the detector so
    it can re-arm on the post-change regime.  The vectorized bank in
    :class:`DriftMonitor` computes the identical recurrence; the test
    suite pins them sample-for-sample.
    """

    def __init__(self, config: PageHinkleyConfig | None = None, **kwargs):
        self.config = config if config is not None else PageHinkleyConfig(**kwargs)
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m = 0.0
        self.m_min = 0.0

    def update(self, x: float) -> bool:
        """Fold one observation in; ``True`` when the stream alarmed."""
        cfg = self.config
        self.n += 1
        self.mean += (x - self.mean) / self.n
        self.m += x - self.mean - cfg.delta
        if self.m < self.m_min:
            self.m_min = self.m
        if self.n >= cfg.min_samples and self.m - self.m_min > cfg.threshold:
            self.reset()
            return True
        return False


class Cusum:
    """Scalar two-sided CUSUM detector.

    With ``reference=None`` the target is the running mean, so the
    detector is self-calibrating: a steady residual level is in
    control, a sustained shift alarms.  A fixed reference makes the
    trigger point exactly computable (see the deterministic tests).
    """

    def __init__(self, config: CusumConfig | None = None, **kwargs):
        self.config = config if config is not None else CusumConfig(**kwargs)
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.pos = 0.0
        self.neg = 0.0

    def update(self, x: float) -> bool:
        """Fold one observation in; ``True`` when either side alarmed."""
        cfg = self.config
        self.n += 1
        self.mean += (x - self.mean) / self.n
        ref = cfg.reference if cfg.reference is not None else self.mean
        self.pos = max(0.0, self.pos + x - ref - cfg.slack)
        self.neg = max(0.0, self.neg + ref - x - cfg.slack)
        if self.n >= cfg.min_samples and (self.pos > cfg.threshold or self.neg > cfg.threshold):
            self.reset()
            return True
        return False


class _DetectorBank:
    """Flat per-cell detector state, grown geometrically with the fleet."""

    _FIELDS: tuple[str, ...] = ()

    def __init__(self):
        self._capacity = 0
        for field in self._FIELDS:
            setattr(self, field, np.empty(0))

    def ensure(self, n: int) -> None:
        if n <= self._capacity:
            return
        capacity = max(n, 2 * self._capacity, 64)
        for field in self._FIELDS:
            old = getattr(self, field)
            grown = np.zeros(capacity)
            grown[: len(old)] = old
            setattr(self, field, grown)
        self._capacity = capacity


class _PageHinkleyBank(_DetectorBank):
    """Vectorized Page–Hinkley over many cells (same math as the scalar)."""

    _FIELDS = ("n", "mean", "m", "m_min")

    def __init__(self, config: PageHinkleyConfig):
        super().__init__()
        self.config = config

    def update(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Advance the streams at ``idx`` by ``x``; boolean alarms per row."""
        cfg = self.config
        n = self.n[idx] + 1.0
        mean = self.mean[idx] + (x - self.mean[idx]) / n
        m = self.m[idx] + x - mean - cfg.delta
        m_min = np.minimum(self.m_min[idx], m)
        triggered = (n >= cfg.min_samples) & (m - m_min > cfg.threshold)
        if triggered.any():
            n[triggered] = 0.0
            mean[triggered] = 0.0
            m[triggered] = 0.0
            m_min[triggered] = 0.0
        self.n[idx] = n
        self.mean[idx] = mean
        self.m[idx] = m
        self.m_min[idx] = m_min
        return triggered


class _CusumBank(_DetectorBank):
    """Vectorized two-sided CUSUM over many cells."""

    _FIELDS = ("n", "mean", "pos", "neg")

    def __init__(self, config: CusumConfig):
        super().__init__()
        self.config = config

    def update(self, idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        cfg = self.config
        n = self.n[idx] + 1.0
        mean = self.mean[idx] + (x - self.mean[idx]) / n
        ref = cfg.reference if cfg.reference is not None else mean
        pos = np.maximum(0.0, self.pos[idx] + x - ref - cfg.slack)
        neg = np.maximum(0.0, self.neg[idx] + ref - x - cfg.slack)
        triggered = (n >= cfg.min_samples) & ((pos > cfg.threshold) | (neg > cfg.threshold))
        if triggered.any():
            n[triggered] = 0.0
            mean[triggered] = 0.0
            pos[triggered] = 0.0
            neg[triggered] = 0.0
        self.n[idx] = n
        self.mean[idx] = mean
        self.pos[idx] = pos
        self.neg[idx] = neg
        return triggered


class DriftMonitor:
    """Fleet-wide drift and physics-bounds watcher.

    Parameters
    ----------
    page_hinkley, cusum:
        Residual-stream detector configs (``None`` disables one).
    bounds:
        Physics-plausibility limits (``None`` disables the check).
    max_events:
        Ring-buffer depth; older events fall off the back.
    metrics:
        Optional registry receiving ``drift_events_total{kind=...}``
        counters and a ``drift_tracked_cells`` gauge.

    The hot-path contract: :meth:`observe_soc` costs two scalar
    reductions when nothing is wrong (no per-cell Python work unless a
    violation actually fires), and the engine's single-row estimate
    path skips even that by calling it only once its own per-cell
    compare against :attr:`bounds` finds a violation; and
    :meth:`observe_residuals` is a fixed number of numpy ops over the
    active batch regardless of fleet size.
    """

    def __init__(
        self,
        page_hinkley: PageHinkleyConfig | None = PageHinkleyConfig(),
        cusum: CusumConfig | None = CusumConfig(),
        bounds: PhysicsBounds | None = PhysicsBounds(),
        max_events: int = 1024,
        metrics: MetricsRegistry | None = None,
    ):
        self.bounds = bounds
        self.metrics = metrics
        self._ph = None if page_hinkley is None else _PageHinkleyBank(page_hinkley)
        self._cusum = None if cusum is None else _CusumBank(cusum)
        self._events: collections.deque[DriftEvent] = collections.deque(maxlen=max_events)
        self._index: dict[str, int] = {}
        self._ids: list[str] = []
        self._kind_counts: dict[str, int] = {}
        self.events_total = 0

    # -- membership ------------------------------------------------------
    def track(self, cell_ids: Sequence[str]) -> np.ndarray:
        """Slot indices for ``cell_ids``, registering new cells as needed.

        The returned array is what :meth:`observe_residuals` consumes —
        resolve it once per batch/model-group, not per window.
        """
        index = self._index
        missing = [cid for cid in cell_ids if cid not in index]
        for cid in missing:
            index[cid] = len(self._ids)
            self._ids.append(cid)
        if missing:
            n = len(self._ids)
            if self._ph is not None:
                self._ph.ensure(n)
            if self._cusum is not None:
                self._cusum.ensure(n)
            if self.metrics is not None:
                self.metrics.gauge("drift_tracked_cells").set(n)
        return np.fromiter((index[cid] for cid in cell_ids), dtype=np.intp, count=len(cell_ids))

    @property
    def n_tracked(self) -> int:
        return len(self._ids)

    # -- observation -----------------------------------------------------
    def observe_residuals(self, indices: np.ndarray, residuals: np.ndarray, window: int | None = None) -> int:
        """Advance the residual-stream detectors; returns events emitted."""
        emitted = 0
        if self._ph is not None:
            triggered = self._ph.update(indices, residuals)
            emitted += self._emit_triggers(
                "page_hinkley", indices, residuals, triggered, self._ph.config.threshold, window
            )
        if self._cusum is not None:
            triggered = self._cusum.update(indices, residuals)
            emitted += self._emit_triggers(
                "cusum", indices, residuals, triggered, self._cusum.config.threshold, window
            )
        return emitted

    def observe_soc(
        self,
        cell_ids: Sequence[str],
        soc: np.ndarray,
        delta: np.ndarray | None = None,
        horizon_s: np.ndarray | float | None = None,
        window: int | None = None,
        positions: np.ndarray | None = None,
    ) -> int:
        """Physics-bounds check on a batch of served SoC values.

        ``delta``/``horizon_s`` (predicted SoC change and the step it
        happened over) enable the rate-of-change check.  ``positions``
        maps batch rows back into ``cell_ids`` (for callers whose batch
        is a fancy-indexed subset, like the engine's rollout loop) —
        row ``k`` names ``cell_ids[positions[k]]``.  The clean-path
        cost is two scalar reductions (plus the rate check when
        ``delta`` is given); no per-cell Python work happens unless a
        violation fires.  An empty batch emits nothing.
        """
        bounds = self.bounds
        if bounds is None or soc.size == 0:
            return 0
        emitted = 0
        # clean-path fast check: two scalar reductions beat three
        # elementwise ops + any() at request-path batch sizes, and the
        # mask is only ever materialized once a violation exists.  A NaN
        # row makes both reductions NaN, so the negated form sends that
        # batch to the mask instead of hiding its real violations
        if not (soc.min() >= bounds.soc_min and soc.max() <= bounds.soc_max):
            bad = (soc < bounds.soc_min) | (soc > bounds.soc_max)
            for k in np.flatnonzero(bad):
                cid = cell_ids[int(positions[k])] if positions is not None else cell_ids[k]
                emitted += self._emit(
                    DriftEvent(
                        kind="soc_bounds",
                        cell_id=cid,
                        value=float(soc[k]),
                        threshold=bounds.soc_max if soc[k] > bounds.soc_max else bounds.soc_min,
                        window=window,
                        detail=f"SoC outside [{bounds.soc_min:g}, {bounds.soc_max:g}]",
                    )
                )
        if delta is not None and horizon_s is not None:
            rate = np.abs(delta) / np.maximum(np.asarray(horizon_s, dtype=np.float64), 1e-9)
            fast = rate > bounds.max_rate_per_s
            if fast.any():
                for k in np.flatnonzero(fast):
                    cid = cell_ids[int(positions[k])] if positions is not None else cell_ids[k]
                    emitted += self._emit(
                        DriftEvent(
                            kind="soc_rate",
                            cell_id=cid,
                            value=float(rate[k]),
                            threshold=bounds.max_rate_per_s,
                            window=window,
                            detail="SoC rate above the chemistry ceiling",
                        )
                    )
        return emitted

    # -- readout ---------------------------------------------------------
    def events(self) -> list[DriftEvent]:
        """Ring-buffer contents, oldest first."""
        return list(self._events)

    def event_counts(self) -> dict[str, int]:
        """Events *ever* emitted, by kind (not capped by the ring)."""
        return dict(self._kind_counts)

    def clear(self) -> None:
        """Drop buffered events (detector state and counters stay)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    # ----------------------------------------------------------------
    def _emit_triggers(
        self,
        kind: str,
        indices: np.ndarray,
        values: np.ndarray,
        triggered: np.ndarray,
        threshold: float,
        window: int | None,
    ) -> int:
        if not triggered.any():
            return 0
        emitted = 0
        for k in np.flatnonzero(triggered):
            emitted += self._emit(
                DriftEvent(
                    kind=kind,
                    cell_id=self._ids[int(indices[k])],
                    value=float(values[k]),
                    threshold=threshold,
                    window=window,
                    detail=f"{kind} alarm on the physics-residual stream",
                )
            )
        return emitted

    def _emit(self, event: DriftEvent) -> int:
        # exemplar: when the alarm fires inside a traced request, pin the
        # trace id to the event so it links back to the span tree
        ctx = getattr(TRACE_STATE, "ctx", None)
        if ctx is not None and not event.trace_ids:
            event = dataclasses.replace(event, trace_ids=(ctx.trace_id,))
        self._events.append(event)
        self.events_total += 1
        self._kind_counts[event.kind] = self._kind_counts.get(event.kind, 0) + 1
        if self.metrics is not None:
            self.metrics.counter("drift_events_total", kind=event.kind).inc()
        return 1


def residual_stream(
    soc_before: np.ndarray,
    soc_after: np.ndarray,
    i_avg: np.ndarray,
    horizon_s: np.ndarray,
    capacity_ah: np.ndarray,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``|predicted ΔSoC − coulomb-counting ΔSoC|`` for one window batch.

    The reference implementation of the residual the engine computes
    in-place on its preallocated buffers; kept here (and exported) so
    tests and offline analysis share one definition.
    """
    if out is None:
        out = np.empty_like(np.asarray(soc_after, dtype=np.float64))
    np.subtract(soc_after, soc_before, out=out)
    coulomb = -(np.asarray(i_avg) * np.asarray(horizon_s)) / (3600.0 * np.asarray(capacity_ah))
    np.subtract(out, coulomb, out=out)
    np.abs(out, out=out)
    return out

