"""The retrain loop: drift events in, canary candidates out.

:class:`RetrainLoop` is the piece that closes the loop the previous
layers left open.  Drift detectors alarm
(:class:`~repro.monitor.drift.DriftMonitor`), the autopilot steers
canaries (:class:`~repro.monitor.autopilot.AutoCanaryPolicy`) — but
until now a *human* read the drift events and produced the candidate.
A ``RetrainLoop`` ticks inside the
:class:`~repro.monitor.autopilot.ControlLoop` (or standalone, via
``repro-soc retrain``) and, when enough fresh drift has accumulated:

1. **harvests** the drifted cells' journaled windows into training rows
   (:func:`~repro.learn.harvest.harvest_training_set`);
2. **fine-tunes** a candidate warm-started from the currently-stable
   checkpoint (:func:`~repro.learn.finetune.fine_tune`);
3. **publishes** it to the canary channel
   (:func:`~repro.learn.publish.publish_candidate`), where the
   autopilot qualifies it on live traffic — divergence budget, drift
   veto, canary latency — and promotes or rolls back.

The loop is deliberately *slow-path*: one tick does at most one
harvest + fine-tune, never publishes while a canary is being judged,
and backs off (``cooldown_ticks``) after every action, so the control
plane's pacing bounds retrain churn.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Sequence

from .finetune import FineTuneConfig, fine_tune
from .harvest import harvest_training_set
from .publish import publish_candidate

__all__ = ["RetrainConfig", "RetrainLoop"]


@dataclasses.dataclass(frozen=True)
class RetrainConfig:
    """Policy knobs for the retrain loop.

    Attributes
    ----------
    name:
        Registry name whose stable checkpoint is retrained (and whose
        canary channel receives candidates).
    min_events:
        Fresh drift events required before a retrain is attempted —
        single alarms are noise, sustained drift is signal.
    min_rows:
        Harvested rows required to actually fine-tune; below it the
        events are consumed (their windows are too sparse to learn
        from, e.g. compacted away) and the loop cools down.
    cooldown_ticks:
        Ticks to sit out after any action (published or no-data), so a
        candidate's canary gets traffic before the next attempt.
    max_gaps:
        Archived-segment gap budget forwarded to the harvester.
    chemistry:
        Restrict training to one chemistry's partition (``None`` pools
        every harvested row).
    finetune:
        Fine-tune settings (:class:`~repro.learn.finetune.FineTuneConfig`).
    """

    name: str
    min_events: int = 1
    min_rows: int = 4
    cooldown_ticks: int = 1
    max_gaps: int = 0
    chemistry: str | None = None
    finetune: FineTuneConfig = FineTuneConfig()

    def __post_init__(self):
        if self.min_events < 1:
            raise ValueError("min_events must be at least 1")
        if self.min_rows < 1:
            raise ValueError("min_rows must be at least 1")
        if self.cooldown_ticks < 0:
            raise ValueError("cooldown_ticks cannot be negative")


class RetrainLoop:
    """Drift-triggered retraining, one bounded step per :meth:`tick`.

    Parameters
    ----------
    source:
        Where drift events come from: anything with ``drift_events()``
        (a :class:`~repro.serve.engine.Fleet` such as
        :class:`~repro.serve.engine.FleetEngine` or
        :class:`~repro.serve.sharding.ShardedFleet`, or a
        :class:`~repro.serve.client.SocClient`).
    journals:
        Journal path(s) the harvester replays — the shard workers'
        journals, so rebalanced cells' history is found wherever it
        lives.
    registry:
        :class:`~repro.serve.registry.ModelRegistry` holding the stable
        base checkpoint (and the canary-channel pointer the loop checks
        before publishing).
    target:
        Publish target (controller, client, or registry — see
        :func:`~repro.learn.publish.publish_candidate`).
    config:
        :class:`RetrainConfig`.
    store:
        Optional :class:`~repro.serve.archive.ArchiveStore` with the
        journals' cold segments.
    metrics:
        Optional :class:`~repro.monitor.metrics.MetricsRegistry`;
        ticks land in ``retrain_ticks_total{status=...}``.
    """

    def __init__(
        self,
        source,
        journals: str | Path | Sequence[str | Path],
        registry,
        target,
        config: RetrainConfig,
        store=None,
        metrics=None,
    ):
        self.source = source
        self.journals = journals
        self.registry = registry
        self.target = target
        self.config = config
        self.store = store
        self.metrics = metrics
        self.retrains = 0
        self.last_report: dict | None = None
        self._consumed = 0
        self._cooldown = 0

    def tick(self) -> dict:
        """One bounded retrain step; returns what happened.

        ``status`` is one of ``cooldown``, ``canary-active``, ``idle``
        (not enough fresh drift), ``no-data`` (drift but no harvestable
        windows), or ``published`` (+ ``version`` of the candidate).
        """
        report = self._tick()
        self.last_report = report
        if self.metrics is not None:
            self.metrics.counter("retrain_ticks_total", status=report["status"]).inc()
        return report

    def _tick(self) -> dict:
        if self._cooldown > 0:
            self._cooldown -= 1
            return {"status": "cooldown", "remaining": self._cooldown}
        if self._canary_active():
            return {"status": "canary-active"}
        events = list(self.source.drift_events())
        fresh = max(0, len(events) - self._consumed)
        if fresh < self.config.min_events:
            return {"status": "idle", "fresh_events": fresh}
        harvest = harvest_training_set(
            self.journals, events=events, store=self.store, max_gaps=self.config.max_gaps
        )
        if self.config.chemistry is not None:
            samples = harvest.partition(self.config.chemistry)
        else:
            samples = harvest.samples
        rows = 0 if samples is None else len(samples)
        if rows < self.config.min_rows:
            self._settle(events)
            return {"status": "no-data", "fresh_events": fresh, "rows": rows}
        base_entry = self.registry.describe(self.config.name)
        candidate = fine_tune(
            self.registry.load(self.config.name), samples, self.config.finetune
        )
        try:
            version = publish_candidate(
                self.target,
                self.config.name,
                candidate,
                chemistry=base_entry.chemistry,
                dataset=base_entry.dataset,
                extra={
                    "retrained_from": base_entry.version,
                    "harvest_rows": rows,
                    "harvest_cells": len(harvest.cells),
                },
            )
        except ValueError:
            # a canary raced us between the check and the publish;
            # leave the events unconsumed and retry after its verdict
            return {"status": "canary-active"}
        self._settle(events)
        self.retrains += 1
        return {
            "status": "published",
            "version": int(version),
            "rows": rows,
            "cells": len(harvest.cells),
            "fresh_events": fresh,
        }

    # ------------------------------------------------------------------
    def _settle(self, events: list) -> None:
        self._consumed = len(events)
        self._cooldown = self.config.cooldown_ticks

    def _canary_active(self) -> bool:
        active = getattr(self.target, "active", None)
        if active is not None:
            return bool(active)
        try:
            return "canary" in self.registry.channels(self.config.name)
        except KeyError:
            return False
