"""Auto-piloted canaries: live divergence probing and promote/rollback policy.

PR 2's :class:`~repro.serve.canary.CanaryController` stages a candidate
checkpoint on a hash-selected fleet slice and judges it by *offline*
shadow replay — a human runs ``evaluate()`` and then decides.  This
module closes that loop on live traffic:

- :class:`DivergenceProbe` measures the **live** stable-vs-candidate
  divergence through the serving path itself.  Canary-pinned cells and
  stable-routed cells are given the *same* probe queries (a grid of
  ``soc_now`` starting points under a fixed workload, via
  ``engine.predict(..., commit=False)``); since Branch 2 is a pure
  function of its inputs, any difference between the two groups'
  outputs is exactly the checkpoint divergence — measured through
  whatever topology is serving (a single engine or sharded workers),
  with no second engine and no state disturbance.
- :class:`AutoCanaryPolicy` folds those probes into an EWMA and applies
  the decision rule: **veto** (fresh drift/physics events since the
  canary started → roll back), **hard ceiling** (any probe above
  ``hard_divergence`` → roll back), **budget** (after
  ``min_observations`` probes, EWMA within ``divergence_budget`` →
  promote, above it → roll back), otherwise **hold**.  Decisions drive
  ``CanaryController.promote()/rollback()`` directly, and a cooldown
  keeps the policy quiet for a few ticks after every verdict.
- :class:`ControlLoop` ticks the whole control plane: restart dead
  shard workers (``engine.restart_dead_workers()``), run the probe,
  step the policy — one call per monitoring interval, driven by a
  scheduler, a thread, or a test loop.

Everything here is duck-typed against the serving API (``cells()`` /
``predict`` / ``reroute_cell`` and the controller's
``active``/``promote``/``rollback``), deliberately importing nothing
from :mod:`repro.serve` so the monitor package stays import-cycle-free.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable

import numpy as np

from .drift import DriftMonitor
from .metrics import MetricsRegistry

__all__ = ["AutoCanaryPolicy", "AutopilotConfig", "ControlLoop", "DivergenceProbe", "ProbeTiming"]


@dataclasses.dataclass(frozen=True)
class ProbeTiming:
    """Serving-path latency of one probe measurement, per arm.

    Each is the *minimum* per-grid-point wall time of the batched
    ``predict`` against that arm's cells — the minimum because a probe
    tick issues several identical calls and the best one is the least
    noisy estimate of the path cost (a one-off scheduling stall or a
    first-use kernel compile should not fail a good candidate).
    """

    candidate_s: float
    stable_s: float

    @property
    def ratio(self) -> float:
        """Candidate-over-stable latency (1.0 = parity; inf when stable is 0)."""
        if self.stable_s <= 0.0:
            return 1.0 if self.candidate_s <= 0.0 else float("inf")
        return self.candidate_s / self.stable_s


@dataclasses.dataclass(frozen=True)
class AutopilotConfig:
    """Decision rule for :class:`AutoCanaryPolicy`.

    Attributes
    ----------
    min_observations:
        Probe ticks required before a promote/rollback verdict (holds
        until then, unless a veto or hard ceiling fires first).
    divergence_budget:
        EWMA divergence (absolute SoC units, as in the paper's error
        metrics) a candidate must stay within to promote.
    hard_divergence:
        Any single probe above this rolls back immediately — no need
        to average a checkpoint that is obviously wrong.
    ewma_alpha:
        EWMA smoothing factor (1.0 = last probe only).
    cooldown_ticks:
        Ticks the policy stays idle after a promote or rollback, so a
        freshly started canary is not judged on stale state.
    veto_kinds:
        Drift-event kinds that veto promotion; any fresh event of one
        of these kinds since the canary started forces a rollback.
    latency_budget:
        Maximum candidate-over-stable serving-latency ratio (EWMA of
        :attr:`ProbeTiming.ratio`) a candidate may hold at promote
        time; above it the would-be promote becomes a rollback — a
        checkpoint that is accurate but slow must not ship.  ``None``
        (the default) disables the latency gate.
    """

    min_observations: int = 5
    divergence_budget: float = 0.01
    hard_divergence: float = 0.25
    ewma_alpha: float = 0.3
    cooldown_ticks: int = 2
    veto_kinds: tuple[str, ...] = ("page_hinkley", "cusum", "soc_bounds", "soc_rate")
    latency_budget: float | None = None


class DivergenceProbe:
    """Measure live stable-vs-candidate divergence through the serving path.

    Parameters
    ----------
    engine:
        The live fleet (anything with ``cells()`` and the batched
        ``predict`` API — a ``FleetEngine`` or ``ShardedFleet`` over
        any worker kind).
    controller:
        The :class:`~repro.serve.canary.CanaryController` whose pinned
        slice is being judged.
    soc_grid:
        ``soc_now`` starting points probed each measurement.
    current_a, temp_c, horizon_s:
        The fixed probe workload.
    sample:
        Cells sampled per group (both groups get identical inputs, so
        one cell per group already isolates the checkpoint difference;
        more adds cross-shard coverage).
    """

    def __init__(
        self,
        engine,
        controller,
        soc_grid: tuple[float, ...] = (0.2, 0.5, 0.8),
        current_a: float = 1.0,
        temp_c: float = 25.0,
        horizon_s: float = 60.0,
        sample: int = 4,
    ):
        if sample < 1:
            raise ValueError("sample must be at least 1")
        self.engine = engine
        self.controller = controller
        self.soc_grid = tuple(float(s) for s in soc_grid)
        self.current_a = float(current_a)
        self.temp_c = float(temp_c)
        self.horizon_s = float(horizon_s)
        self.sample = sample
        self.last_timing: ProbeTiming | None = None

    def measure(self) -> np.ndarray | None:
        """Per-grid-point ``|SoC_candidate − SoC_stable|``, or ``None``.

        ``None`` means there is nothing to probe: no active canary, or
        one of the two groups has no cells (e.g. fraction 1.0 pinned
        the whole fleet).

        As a side channel, each successful measurement also records the
        serving-path wall time of the two probe arms in
        :attr:`last_timing` (the latency signal the autopilot's
        ``latency_budget`` gate consumes) — both arms issue identical
        batched predicts, so the timing difference is the candidate
        checkpoint's serving cost, measured through whatever topology
        is live.
        """
        self.last_timing = None
        if not self.controller.active:
            return None
        pinned = self.controller.canary_cells()[: self.sample]
        if not pinned:
            return None
        pinned_set = set(self.controller.canary_cells())
        stable = []
        for state in self.engine.cells():
            if state.model_key == self.controller.name and state.cell_id not in pinned_set:
                stable.append(state.cell_id)
                if len(stable) >= self.sample:
                    break
        if not stable:
            return None
        diffs = np.empty(len(self.soc_grid))
        t_candidate = t_stable = float("inf")
        for k, soc in enumerate(self.soc_grid):
            t0 = time.perf_counter()
            out_candidate = self.engine.predict(
                pinned, self.current_a, self.temp_c, self.horizon_s, soc_now=soc
            )
            t1 = time.perf_counter()
            out_stable = self.engine.predict(stable, self.current_a, self.temp_c, self.horizon_s, soc_now=soc)
            t2 = time.perf_counter()
            t_candidate = min(t_candidate, t1 - t0)
            t_stable = min(t_stable, t2 - t1)
            diffs[k] = abs(float(out_candidate.mean()) - float(out_stable.mean()))
        self.last_timing = ProbeTiming(candidate_s=t_candidate, stable_s=t_stable)
        return diffs


class AutoCanaryPolicy:
    """Promote/hold/rollback decisions over the live divergence series.

    Feed it probe measurements (:meth:`observe` or directly via
    :meth:`step`); it tracks an EWMA of the mean divergence, watches a
    :class:`~repro.monitor.drift.DriftMonitor` for veto events, and
    drives the controller when a verdict is reached.  Decisions land in
    the metrics registry as ``autopilot_decisions_total{decision=...}``
    and the policy state is inspectable (:attr:`ewma`,
    :attr:`observations`).
    """

    def __init__(
        self,
        controller,
        drift: DriftMonitor | None = None,
        config: AutopilotConfig | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.controller = controller
        self.drift = drift
        self.config = config if config is not None else AutopilotConfig()
        self.metrics = metrics
        self.ewma: float | None = None
        self.last_max: float | None = None
        self.latency_ewma: float | None = None
        self.observations = 0
        self.cooldown = 0
        self.last_reason: str | None = None
        self._watched_version: int | None = None
        self._drift_baseline: dict[str, int] = {}

    # -- observation -----------------------------------------------------
    def observe(
        self, divergences: np.ndarray | None, latency: ProbeTiming | None = None
    ) -> None:
        """Fold one probe measurement into the EWMAs (``None`` is a no-op).

        ``latency`` is the probe's :attr:`DivergenceProbe.last_timing`;
        its candidate-over-stable ratio feeds :attr:`latency_ewma`, the
        series the ``latency_budget`` gate judges at promote time.
        """
        self._sync_canary()
        if divergences is None or len(divergences) == 0:
            return
        mean = float(np.mean(divergences))
        self.last_max = float(np.max(divergences))
        alpha = self.config.ewma_alpha
        self.ewma = mean if self.ewma is None else alpha * mean + (1 - alpha) * self.ewma
        if latency is not None:
            ratio = float(latency.ratio)
            self.latency_ewma = (
                ratio if self.latency_ewma is None else alpha * ratio + (1 - alpha) * self.latency_ewma
            )
        self.observations += 1

    # -- decision --------------------------------------------------------
    def decide(self) -> str:
        """Current verdict: ``promote`` / ``rollback`` / ``hold`` / ``idle``.

        :attr:`last_reason` records why (``drift-veto`` /
        ``hard-divergence`` / ``over-budget`` / ``latency`` / ...), for
        operators and tests — it is deliberately *not* a metrics label,
        so the ``autopilot_decisions_total`` series stays low-cardinality.
        """
        self._sync_canary()
        if not self.controller.active:
            self.last_reason = "idle"
            return "idle"
        if self.cooldown > 0:
            self.last_reason = "cooldown"
            return "hold"
        if self._fresh_veto_events() > 0:
            self.last_reason = "drift-veto"
            return "rollback"
        cfg = self.config
        if self.last_max is not None and self.last_max > cfg.hard_divergence:
            self.last_reason = "hard-divergence"
            return "rollback"
        if self.observations < cfg.min_observations or self.ewma is None:
            self.last_reason = "warming-up"
            return "hold"
        if self.ewma > cfg.divergence_budget:
            self.last_reason = "over-budget"
            return "rollback"
        # accuracy passed; the latency gate gets the last word
        if (
            cfg.latency_budget is not None
            and self.latency_ewma is not None
            and self.latency_ewma > cfg.latency_budget
        ):
            self.last_reason = "latency"
            return "rollback"
        self.last_reason = "within-budget"
        return "promote"

    def step(
        self,
        divergences: np.ndarray | None = None,
        latency: ProbeTiming | None = None,
    ) -> str:
        """Observe, decide, and *act*: drives the controller on a verdict.

        Returns the decision actually applied.  ``promote`` calls
        ``controller.promote()``, ``rollback`` calls
        ``controller.rollback()``; both start the cooldown.
        """
        if self.cooldown > 0:
            self.cooldown -= 1
        self.observe(divergences, latency=latency)
        decision = self.decide()
        if decision == "promote":
            self.controller.promote()
            self._reset_after_verdict()
        elif decision == "rollback":
            self.controller.rollback()
            self._reset_after_verdict()
        if self.metrics is not None:
            self.metrics.counter("autopilot_decisions_total", decision=decision).inc()
        return decision

    # ----------------------------------------------------------------
    def _sync_canary(self) -> None:
        """Reset judgement state when a new canary starts (or none runs)."""
        version = self.controller.candidate_version if self.controller.active else None
        if version != self._watched_version:
            self._watched_version = version
            self.ewma = None
            self.last_max = None
            self.latency_ewma = None
            self.observations = 0
            if self.drift is not None:
                self._drift_baseline = self.drift.event_counts()

    def _fresh_veto_events(self) -> int:
        """Veto-kind events emitted since the watched canary started."""
        if self.drift is None:
            return 0
        counts = self.drift.event_counts()
        baseline = self._drift_baseline
        return sum(max(0, counts.get(kind, 0) - baseline.get(kind, 0)) for kind in self.config.veto_kinds)

    def _reset_after_verdict(self) -> None:
        self.cooldown = self.config.cooldown_ticks
        self._watched_version = None
        self.ewma = None
        self.last_max = None
        self.latency_ewma = None
        self.observations = 0


class ControlLoop:
    """One tick of the control plane: heal workers, probe, steer the canary.

    Parameters
    ----------
    engine:
        Optional fleet; when it exposes ``restart_dead_workers()``
        (see :class:`~repro.serve.sharding.ShardedFleet`) each tick
        heals dead shard workers before probing.
    autopilot, probe:
        Optional policy and its divergence probe; a tick feeds the
        probe measurement (and its latency timing) into
        ``autopilot.step``.
    retrain:
        Optional retrain loop (duck-typed: anything with ``tick() ->
        dict``, see :class:`repro.learn.RetrainLoop`); each pass runs
        it *after* canary steering, so a verdict that just freed the
        canary channel lets a pending retrain publish on the very next
        tick.
    interval_s, clock:
        Pacing for :meth:`run`; tests call :meth:`tick` directly.
    """

    def __init__(
        self,
        engine=None,
        autopilot: AutoCanaryPolicy | None = None,
        probe: DivergenceProbe | None = None,
        retrain=None,
        interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsRegistry | None = None,
    ):
        self.engine = engine
        self.autopilot = autopilot
        self.probe = probe
        self.retrain = retrain
        self.interval_s = float(interval_s)
        self.clock = clock
        self.metrics = metrics
        self.ticks = 0

    def tick(self) -> dict:
        """Run one control-plane pass; returns what happened.

        Keys: ``restarted`` (shard indices healed), ``divergence``
        (mean of this tick's probe, or ``None``), ``decision`` (the
        autopilot verdict, or ``None`` without an autopilot),
        ``retrain`` (the retrain loop's tick report, or ``None``
        without one).
        """
        self.ticks += 1
        restarted: list[int] = []
        if self.engine is not None:
            restart = getattr(self.engine, "restart_dead_workers", None)
            if restart is not None:
                restarted = restart()
        divergences = self.probe.measure() if self.probe is not None else None
        decision = None
        if self.autopilot is not None:
            decision = self.autopilot.step(
                divergences, latency=getattr(self.probe, "last_timing", None)
            )
        retrain_report = None
        if self.retrain is not None:
            retrain_report = self.retrain.tick()
        if self.metrics is not None:
            self.metrics.counter("control_loop_ticks_total").inc()
            if restarted:
                self.metrics.counter("control_loop_worker_restarts_total").inc(len(restarted))
        return {
            "restarted": restarted,
            "divergence": None if divergences is None else float(np.mean(divergences)),
            "decision": decision,
            "retrain": retrain_report,
        }

    def run(self, max_ticks: int, sleep: Callable[[float], None] = time.sleep) -> list[dict]:
        """Tick up to ``max_ticks`` times at ``interval_s`` pacing.

        Without a retrain loop, stops early once the autopilot reaches
        a verdict and goes idle (no active canary); with one attached
        the loop keeps ticking — idle is exactly when a retrain may
        start the next canary.  Returns the per-tick reports.
        """
        reports = []
        for _ in range(max_ticks):
            report = self.tick()
            reports.append(report)
            if self.autopilot is not None and self.retrain is None and report["decision"] == "idle":
                break
            sleep(self.interval_s)
        return reports
