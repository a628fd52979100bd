"""Tests for the canary autopilot (:mod:`repro.monitor.autopilot`).

Covers the decision rule in isolation (promote / rollback / veto /
cooldown), live divergence probing on in-process fleets, and the
end-to-end control-plane story on a **process-sharded** fleet: a
degraded candidate is flagged by the live monitors and rolled back
without human intervention, a golden-equivalent candidate is
auto-promoted — with every shard worker's metrics merging into one
registry view.
"""

import copy

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.monitor import (
    AutoCanaryPolicy,
    AutopilotConfig,
    ControlLoop,
    DivergenceProbe,
    DriftMonitor,
    MetricsRegistry,
)
from repro.monitor.drift import DriftEvent
from repro.serve import (
    CanaryController,
    FleetEngine,
    ModelRegistry,
    ShardedFleet,
    WorkerSpec,
)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


def clone_model(model, perturb: float = 0.0, seed: int = 99) -> TwoBranchSoCNet:
    """A new model object with identical (or noise-perturbed) weights."""
    clone = TwoBranchSoCNet(model.config, rng=np.random.default_rng(1))
    state = copy.deepcopy(model.state_dict())
    if perturb:
        rng = np.random.default_rng(seed)
        state = {k: v + perturb * rng.standard_normal(np.shape(v)) for k, v in state.items()}
    clone.load_state_dict(state)
    return clone


def make_fleet(tmp_path, model, n_cells=16, fraction=0.5):
    """A single-engine fleet serving ``name`` from a fresh registry."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("serve", model)
    engine = FleetEngine(registry=registry)
    for k in range(n_cells):
        engine.register_cell(f"cell-{k:03d}")
    controller = CanaryController(engine, registry, "serve", fraction=fraction)
    return engine, registry, controller


class FakeController:
    """Minimal controller double for exercising the decision rule."""

    def __init__(self):
        self.active = True
        self.candidate_version = 2
        self.promoted = 0
        self.rolled_back = 0

    def promote(self):
        self.active = False
        self.promoted += 1

    def rollback(self):
        self.active = False
        self.rolled_back += 1


# ----------------------------------------------------------------------
class TestDecisionRule:
    def test_holds_until_min_observations_then_promotes(self):
        controller = FakeController()
        policy = AutoCanaryPolicy(
            controller, config=AutopilotConfig(min_observations=3, divergence_budget=0.01)
        )
        decisions = [policy.step(np.array([0.001])) for _ in range(3)]
        assert decisions == ["hold", "hold", "promote"]
        assert controller.promoted == 1 and controller.rolled_back == 0
        # after the verdict the policy idles (cooldown, no active canary)
        assert policy.step(None) == "idle"

    def test_budget_breach_rolls_back(self):
        controller = FakeController()
        policy = AutoCanaryPolicy(
            controller, config=AutopilotConfig(min_observations=2, divergence_budget=0.01)
        )
        policy.step(np.array([0.05]))
        decision = policy.step(np.array([0.05]))
        assert decision == "rollback"
        assert controller.rolled_back == 1

    def test_hard_ceiling_short_circuits_min_observations(self):
        controller = FakeController()
        policy = AutoCanaryPolicy(
            controller,
            config=AutopilotConfig(min_observations=10, hard_divergence=0.2),
        )
        assert policy.step(np.array([0.5])) == "rollback"

    def test_drift_event_vetoes_promotion(self):
        controller = FakeController()
        drift = DriftMonitor(page_hinkley=None, cusum=None, bounds=None)
        policy = AutoCanaryPolicy(
            controller,
            drift=drift,
            config=AutopilotConfig(min_observations=1, divergence_budget=0.5),
        )
        policy.observe(np.array([0.001]))  # would promote on its own
        drift._emit(DriftEvent(kind="cusum", cell_id="c", value=1.0, threshold=0.1))
        assert policy.step(np.array([0.001])) == "rollback"
        assert controller.rolled_back == 1

    def test_stale_drift_events_do_not_veto_a_new_canary(self):
        drift = DriftMonitor(page_hinkley=None, cusum=None, bounds=None)
        drift._emit(DriftEvent(kind="cusum", cell_id="c", value=1.0, threshold=0.1))
        controller = FakeController()
        policy = AutoCanaryPolicy(
            controller,
            drift=drift,
            config=AutopilotConfig(min_observations=1, divergence_budget=0.5),
        )
        # baseline snapshots at first sight of the canary: old events ignored
        assert policy.step(np.array([0.001])) == "promote"

    def test_cooldown_keeps_policy_quiet_after_a_verdict(self):
        controller = FakeController()
        policy = AutoCanaryPolicy(
            controller,
            config=AutopilotConfig(min_observations=1, divergence_budget=0.5, cooldown_ticks=2),
        )
        assert policy.step(np.array([0.001])) == "promote"
        controller.active = True  # a new canary starts immediately
        controller.candidate_version = 3
        assert policy.step(np.array([0.001])) == "hold"  # cooling down
        assert policy.step(np.array([0.001])) == "promote"

    def test_decisions_land_in_metrics(self):
        metrics = MetricsRegistry()
        policy = AutoCanaryPolicy(
            FakeController(),
            config=AutopilotConfig(min_observations=1, divergence_budget=0.5),
            metrics=metrics,
        )
        policy.step(np.array([0.001]))
        assert metrics.counter_value("autopilot_decisions_total", decision="promote") == 1.0


# ----------------------------------------------------------------------
class TestDivergenceProbe:
    def test_golden_candidate_measures_zero(self, tmp_path, model):
        engine, registry, controller = make_fleet(tmp_path, model)
        controller.start(candidate=clone_model(model))
        probe = DivergenceProbe(engine, controller)
        diffs = probe.measure()
        assert diffs is not None and len(diffs) == 3
        np.testing.assert_allclose(diffs, 0.0, atol=1e-12)

    def test_degraded_candidate_measures_large(self, tmp_path, model):
        engine, registry, controller = make_fleet(tmp_path, model)
        controller.start(candidate=clone_model(model, perturb=0.5))
        diffs = DivergenceProbe(engine, controller).measure()
        assert float(np.max(diffs)) > 0.01

    def test_no_canary_or_no_pair_measures_none(self, tmp_path, model):
        engine, registry, controller = make_fleet(tmp_path, model, fraction=1.0)
        probe = DivergenceProbe(engine, controller)
        assert probe.measure() is None  # inactive
        controller.start(candidate=clone_model(model))
        assert probe.measure() is None  # every cell pinned: no stable group

    def test_probe_leaves_serving_state_untouched(self, tmp_path, model):
        engine, registry, controller = make_fleet(tmp_path, model)
        engine.estimate([f"cell-{k:03d}" for k in range(16)], 3.7, 1.0, 25.0)
        before = {s.cell_id: s.soc for s in engine.cells()}
        controller.start(candidate=clone_model(model))
        DivergenceProbe(engine, controller).measure()
        after = {s.cell_id: s.soc for s in engine.cells()}
        assert before == after


# ----------------------------------------------------------------------
class TestControlLoopEndToEnd:
    def test_in_process_fleet_rolls_back_degraded_then_promotes_golden(self, tmp_path, model):
        engine, registry, controller = make_fleet(tmp_path, model)
        drift = DriftMonitor()
        policy = AutoCanaryPolicy(
            controller,
            drift=drift,
            config=AutopilotConfig(min_observations=3, divergence_budget=1e-3, cooldown_ticks=0),
        )
        loop = ControlLoop(
            engine=engine,
            autopilot=policy,
            probe=DivergenceProbe(engine, controller),
            interval_s=0.0,
        )
        controller.start(candidate=clone_model(model, perturb=0.5))
        reports = loop.run(10, sleep=lambda s: None)
        assert reports[-1]["decision"] == "idle"
        assert "rollback" in [r["decision"] for r in reports]
        assert not controller.active
        assert registry.channels("serve") == {"stable": 1}

        controller.start(candidate=clone_model(model))
        reports = loop.run(10, sleep=lambda s: None)
        assert "promote" in [r["decision"] for r in reports]
        assert registry.channels("serve") == {"stable": 3}
        # the fleet serves the promoted version via bare-name routing
        assert all(s.model_key == "serve" for s in engine.cells())

    def test_process_sharded_fleet_full_control_plane(self, tmp_path, model):
        """The acceptance scenario: live subprocess workers, a degraded
        candidate auto-rolled-back, a golden candidate auto-promoted,
        and the whole topology's metrics merging into one view."""
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("serve", model)
        spec = WorkerSpec(
            url="pipe://",
            registry=tmp_path / "registry",
            journal=str(tmp_path / "w{shard}.journal"),
            name="w{shard}",
            monitor=True,
        )

        with ShardedFleet(2, registry=registry, spec=spec) as fleet:
            for k in range(16):
                fleet.register_cell(f"cell-{k:03d}")
            controller = CanaryController(fleet, registry, "serve", fraction=0.5)
            policy = AutoCanaryPolicy(
                controller,
                config=AutopilotConfig(min_observations=3, divergence_budget=1e-3, cooldown_ticks=0),
            )
            loop = ControlLoop(
                engine=fleet,
                autopilot=policy,
                probe=DivergenceProbe(fleet, controller),
                interval_s=0.0,
            )

            # degraded candidate: the divergence monitors flag it and the
            # autopilot rolls it back without human intervention
            controller.start(candidate=clone_model(model, perturb=0.5))
            assert controller.canary_cells()  # slice really is pinned
            reports = loop.run(10, sleep=lambda s: None)
            assert "rollback" in [r["decision"] for r in reports]
            assert registry.channels("serve") == {"stable": 1}
            assert not controller.active

            # golden-equivalent candidate: auto-promoted
            controller.start(candidate=clone_model(model))
            reports = loop.run(10, sleep=lambda s: None)
            assert "promote" in [r["decision"] for r in reports]
            assert registry.channels("serve") == {"stable": 3}

            # the promoted checkpoint serves: estimates flow and every
            # worker's metrics merge into one registry view
            ids = [f"cell-{k:03d}" for k in range(16)]
            fleet.estimate(ids, 3.7, 1.0, 25.0)
            merged = fleet.metrics_snapshot()
            estimates = sum(
                value
                for key, value in merged["counters"].items()
                if key.startswith("engine_requests_total") and 'op="estimate"' in key
            )
            assert estimates >= 16  # both shards contributed
            predicts = sum(
                value
                for key, value in merged["counters"].items()
                if key.startswith("engine_requests_total") and 'op="predict"' in key
            )
            assert predicts > 0  # the probes themselves were served (and counted)


# ----------------------------------------------------------------------
class TestLatencyGate:
    """The canary latency signal: ProbeTiming and the promote-time gate."""

    def test_probe_timing_ratio(self):
        from repro.monitor import ProbeTiming

        assert ProbeTiming(candidate_s=2.0, stable_s=1.0).ratio == 2.0
        assert ProbeTiming(candidate_s=0.0, stable_s=0.0).ratio == 1.0
        assert ProbeTiming(candidate_s=1.0, stable_s=0.0).ratio == float("inf")

    def test_probe_records_last_timing_only_on_a_measurement(self, tmp_path, model):
        engine, registry, controller = make_fleet(tmp_path, model)
        probe = DivergenceProbe(engine, controller)
        assert probe.measure() is None and probe.last_timing is None
        controller.start(candidate=clone_model(model))
        assert probe.measure() is not None
        timing = probe.last_timing
        assert timing.candidate_s > 0 and timing.stable_s > 0
        controller.rollback()
        assert probe.measure() is None and probe.last_timing is None

    def _stepped(self, latency_budget, ratio, n=2):
        from repro.monitor import ProbeTiming

        controller = FakeController()
        policy = AutoCanaryPolicy(
            controller,
            config=AutopilotConfig(
                min_observations=n, divergence_budget=0.5, latency_budget=latency_budget
            ),
        )
        timing = ProbeTiming(candidate_s=ratio, stable_s=1.0)
        for _ in range(n - 1):
            assert policy.step(np.array([0.001]), latency=timing) == "hold"
        return policy, controller, policy.step(np.array([0.001]), latency=timing)

    def test_accurate_but_slow_candidate_is_vetoed(self):
        policy, controller, decision = self._stepped(latency_budget=1.5, ratio=3.0)
        assert decision == "rollback"
        assert policy.last_reason == "latency"
        assert controller.rolled_back == 1 and controller.promoted == 0

    def test_within_budget_latency_promotes(self):
        policy, controller, decision = self._stepped(latency_budget=1.5, ratio=1.2)
        assert decision == "promote"
        assert policy.last_reason == "within-budget"

    def test_no_budget_means_no_gate(self):
        policy, controller, decision = self._stepped(latency_budget=None, ratio=50.0)
        assert decision == "promote"

    def test_latency_only_vetoes_a_would_be_promotion(self):
        from repro.monitor import ProbeTiming

        controller = FakeController()
        policy = AutoCanaryPolicy(
            controller,
            config=AutopilotConfig(min_observations=5, divergence_budget=0.5, latency_budget=1.5),
        )
        slow = ProbeTiming(candidate_s=9.0, stable_s=1.0)
        assert policy.step(np.array([0.001]), latency=slow) == "hold"
        assert policy.last_reason == "warming-up"  # not "latency": still observing

    def test_latency_ewma_resets_between_canaries(self):
        policy, controller, decision = self._stepped(latency_budget=1.5, ratio=3.0)
        assert decision == "rollback"
        assert policy.latency_ewma is None  # next canary is judged fresh


# ----------------------------------------------------------------------
class TestControlLoopRetrain:
    """ControlLoop drives an attached retrain loop after canary steering."""

    class FakeRetrain:
        def __init__(self):
            self.ticks = 0

        def tick(self):
            self.ticks += 1
            return {"status": "idle", "fresh_events": 0}

    def test_tick_report_carries_the_retrain_report(self):
        retrain = self.FakeRetrain()
        loop = ControlLoop(retrain=retrain, interval_s=0.0)
        report = loop.tick()
        assert report["retrain"] == {"status": "idle", "fresh_events": 0}
        assert retrain.ticks == 1

    def test_without_a_retrain_loop_the_key_is_none(self):
        assert ControlLoop(interval_s=0.0).tick()["retrain"] is None

    def test_run_keeps_ticking_while_a_retrain_loop_is_attached(self):
        controller = FakeController()
        controller.active = False  # autopilot reports idle immediately
        policy = AutoCanaryPolicy(controller, config=AutopilotConfig(min_observations=1))
        retrain = self.FakeRetrain()
        loop = ControlLoop(autopilot=policy, retrain=retrain, interval_s=0.0)
        reports = loop.run(5, sleep=lambda s: None)
        assert len(reports) == 5  # idle no longer stops the loop
        assert retrain.ticks == 5
        without = ControlLoop(autopilot=policy, interval_s=0.0)
        assert len(without.run(5, sleep=lambda s: None)) == 1  # old early-stop intact
