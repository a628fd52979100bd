"""Tests for the retrain loop and publisher (:mod:`repro.learn.loop`)."""

import types

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.learn import FineTuneConfig, RetrainConfig, RetrainLoop, publish_candidate
from repro.monitor import MetricsRegistry
from repro.monitor.drift import DriftEvent
from repro.serve import ModelRegistry, StateJournal
from repro.serve.engine import CellState

FAST_TUNE = FineTuneConfig(epochs=2)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


def _event(cell_id):
    return DriftEvent(kind="cusum", cell_id=cell_id, value=1.0, threshold=0.1)


def make_journal(tmp_path, cells=("a", "b"), windows=8):
    path = tmp_path / "w.journal"
    with StateJournal(path) as journal:
        for cid in cells:
            journal.append_cells([CellState(cell_id=cid, chemistry=None, model_key="serve")])
        journal.begin_rollout(120.0)
        for cid in cells:
            position = journal.intern([cid])
            journal.append_windows(0, position, [0.9])
            for w in range(1, windows):
                journal.append_windows(w, position, [0.9 - 0.05 * w], ([1.0], [25.0], [120.0], [2.0]))
    return path


def make_loop(tmp_path, model, target=None, metrics=None, **config):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("serve", model)
    journal = make_journal(tmp_path)
    events = []
    config = RetrainConfig(name="serve", finetune=FAST_TUNE, **config)
    loop = RetrainLoop(
        source=types.SimpleNamespace(drift_events=lambda: list(events)),
        journals=journal,
        registry=registry,
        target=registry if target is None else target,
        config=config,
        metrics=metrics,
    )
    return loop, registry, events


class FakeController:
    def __init__(self):
        self.active = False
        self.started = []

    def start(self, candidate=None, version=None, chemistry=None, dataset=None, extra=None):
        if self.active:
            raise ValueError("canary already active")
        self.active = True
        self.started.append((candidate, chemistry, dataset, extra))
        return 2

    @property
    def candidate_version(self):
        return 2 if self.active else None


# ----------------------------------------------------------------------
class TestRetrainLoop:
    def test_idles_without_fresh_drift(self, tmp_path, model):
        loop, registry, events = make_loop(tmp_path, model)
        report = loop.tick()
        assert report == {"status": "idle", "fresh_events": 0}
        assert registry.channels("serve") == {"stable": 1}

    def test_drift_produces_a_canary_candidate_then_cools_down(self, tmp_path, model):
        metrics = MetricsRegistry()
        loop, registry, events = make_loop(tmp_path, model, metrics=metrics)
        events.append(_event("a"))
        report = loop.tick()
        assert report["status"] == "published"
        assert report["version"] == 2
        assert report["rows"] >= loop.config.min_rows
        assert report["cells"] == 1
        assert registry.channels("serve") == {"stable": 1, "canary": 2}
        entry = registry.describe("serve@canary")
        assert entry.extra["retrained_from"] == 1
        assert entry.extra["harvest_rows"] == report["rows"]
        assert loop.retrains == 1
        assert metrics.counter_value("retrain_ticks_total", status="published") == 1.0

    def test_waits_out_an_active_canary_before_retraining_again(self, tmp_path, model):
        loop, registry, events = make_loop(tmp_path, model, cooldown_ticks=1)
        events.append(_event("a"))
        assert loop.tick()["status"] == "published"
        events.append(_event("b"))
        assert loop.tick()["status"] == "cooldown"
        # canary from the first retrain is still being judged
        assert loop.tick()["status"] == "canary-active"
        registry.promote("serve")
        report = loop.tick()
        assert report["status"] == "published"
        assert report["fresh_events"] == 1  # only the unconsumed event counted
        assert registry.describe("serve@canary").extra["retrained_from"] == 2

    def test_consumed_events_do_not_retrigger(self, tmp_path, model):
        loop, registry, events = make_loop(tmp_path, model, cooldown_ticks=0)
        events.append(_event("a"))
        assert loop.tick()["status"] == "published"
        registry.rollback("serve")  # verdict lands; no new drift since
        assert loop.tick() == {"status": "idle", "fresh_events": 0}

    def test_sparse_windows_consume_events_without_publishing(self, tmp_path, model):
        loop, registry, events = make_loop(tmp_path, model, min_rows=64)
        events.append(_event("a"))
        report = loop.tick()
        assert report["status"] == "no-data"
        assert 0 < report["rows"] < 64
        assert registry.channels("serve") == {"stable": 1}
        assert loop.tick()["status"] == "cooldown"

    def test_min_events_threshold_filters_single_alarms(self, tmp_path, model):
        loop, registry, events = make_loop(tmp_path, model, min_events=3)
        events.append(_event("a"))
        assert loop.tick()["status"] == "idle"
        events.extend([_event("a"), _event("b")])
        assert loop.tick()["status"] == "published"

    def test_publishes_through_a_controller(self, tmp_path, model):
        controller = FakeController()
        loop, registry, events = make_loop(tmp_path, model, target=controller)
        events.append(_event("a"))
        report = loop.tick()
        assert report["status"] == "published" and report["version"] == 2
        (candidate, chemistry, dataset, extra) = controller.started[0]
        assert isinstance(candidate, TwoBranchSoCNet)
        assert extra["retrained_from"] == 1
        # the controller's own .active now gates the next attempt
        events.append(_event("b"))
        loop.tick()  # cooldown
        assert loop.tick()["status"] == "canary-active"

    def test_a_canary_racing_the_publish_leaves_events_unconsumed(self, tmp_path, model):
        controller = FakeController()
        loop, registry, events = make_loop(tmp_path, model, target=controller, cooldown_ticks=0)

        events.append(_event("a"))
        real_active = FakeController.start

        def race(self, **kwargs):
            # a human (or another loop) started a canary between the
            # loop's check and its publish
            raise ValueError("canary already active")

        controller.start = race.__get__(controller)
        report = loop.tick()
        assert report["status"] == "canary-active"
        assert loop.retrains == 0
        # the drift is still fresh: once the lane clears, it retrains
        controller.start = real_active.__get__(controller)
        assert loop.tick()["status"] == "published"

    def test_config_validation(self):
        with pytest.raises(ValueError, match="min_events"):
            RetrainConfig(name="serve", min_events=0)
        with pytest.raises(ValueError, match="min_rows"):
            RetrainConfig(name="serve", min_rows=0)
        with pytest.raises(ValueError, match="cooldown"):
            RetrainConfig(name="serve", cooldown_ticks=-1)


# ----------------------------------------------------------------------
class TestPublishCandidate:
    def test_registry_target_publishes_to_canary_channel(self, tmp_path, model):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("serve", model)
        version = publish_candidate(registry, "serve", model, extra={"k": 1})
        assert version == 2
        assert registry.channels("serve") == {"stable": 1, "canary": 2}
        assert registry.describe("serve@canary").extra["k"] == 1

    def test_controller_target_starts_the_canary(self, model):
        controller = FakeController()
        assert publish_candidate(controller, "serve", model) == 2
        assert controller.active

    def test_unknown_target_is_a_type_error(self, model):
        with pytest.raises(TypeError, match="cannot publish through"):
            publish_candidate(object(), "serve", model)
