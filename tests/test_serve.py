"""Tests for the fleet serving subsystem (:mod:`repro.serve`)."""

import numpy as np
import pytest

from repro.core import ModelConfig, TwoBranchSoCNet, model_rollout
from repro.serve import (
    FleetEngine,
    MicroBatcher,
    ModelRegistry,
    generate_fleet,
)

FAST_FLEET = dict(
    ambient_temps_c=(25.0,),
    c_rates=(1.0, 2.0),
    protocols=("discharge",),
    max_time_s=1800.0,
)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_fleet():
    """12-cell fleet over a couple of light discharge conditions."""
    return generate_fleet(12, seed=7, **FAST_FLEET)


@pytest.fixture(scope="module")
def mixed_fleet():
    """Fleet spanning both protocols so cycle lengths differ per cell."""
    return generate_fleet(
        10, seed=3, ambient_temps_c=(10.0, 25.0), c_rates=(1.0,), max_time_s=1800.0
    )


@pytest.fixture(scope="module")
def bench_fleet():
    """The benchmark fleet's shape: 1800 s discharges of four cell specs,
    27 or 28 windows at a 60 s step, some cells sharing one trace."""
    return generate_fleet(
        16,
        seed=0,
        cell_names=("sandia-nca", "sandia-nmc", "sandia-lfp", "lg-hg2"),
        protocols=("discharge",),
        max_time_s=1800.0,
    )


@pytest.fixture(scope="module")
def ragged_fleet():
    """24 cells over both protocols and two C-rates: 14, 15, 28 or 35
    windows at a 120 s step, most ending in a partial tail window."""
    return generate_fleet(
        24, seed=5, ambient_temps_c=(10.0, 25.0), c_rates=(1.0, 2.0), max_time_s=1800.0
    )


# ----------------------------------------------------------------------
class TestFleetSim:
    def test_deterministic_by_seed(self):
        a = generate_fleet(6, seed=5, **FAST_FLEET)
        b = generate_fleet(6, seed=5, **FAST_FLEET)
        for ma, mb in zip(a.members, b.members):
            assert ma.cell_id == mb.cell_id
            assert ma.cycle.name == mb.cycle.name
            np.testing.assert_array_equal(ma.cycle.data.voltage, mb.cycle.data.voltage)

    def test_conditions_shared_across_members(self, small_fleet):
        assert small_fleet.n_conditions() < len(small_fleet)

    def test_mixed_chemistries(self):
        fleet = generate_fleet(40, seed=0, **FAST_FLEET)
        assert len(fleet.chemistries()) >= 2
        assert sum(fleet.chemistries().values()) == 40

    def test_cycles_carry_chemistry_tags(self, small_fleet):
        for m in small_fleet.members:
            assert m.cycle.tags["chemistry"] == m.chemistry
            assert len(m.cycle) > 10

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_fleet(0)
        with pytest.raises(ValueError):
            generate_fleet(3, protocols=("udds",))


# ----------------------------------------------------------------------
class TestFleetEngine:
    def test_requires_model_or_registry(self):
        with pytest.raises(ValueError):
            FleetEngine()

    def test_estimate_matches_single_cell_calls(self, model):
        engine = FleetEngine(default_model=model)
        ids = [f"c{k}" for k in range(5)]
        for cid in ids:
            engine.register_cell(cid, chemistry="nmc")
        v = np.linspace(3.2, 4.0, 5)
        i = np.linspace(0.5, 3.0, 5)
        t = np.full(5, 25.0)
        batched = engine.estimate(ids, v, i, t)
        for k, cid in enumerate(ids):
            expected = float(model.estimate_soc(v[k], i[k], t[k])[0])
            assert batched[k] == pytest.approx(expected, abs=1e-12)
            assert engine.cell(cid).soc == pytest.approx(expected, abs=1e-12)

    def test_predict_uses_stored_soc_and_commit(self, model):
        engine = FleetEngine(default_model=model)
        engine.register_cell("a")
        with pytest.raises(ValueError, match="no stored SoC"):
            engine.predict(["a"], 2.0, 25.0, 120.0)
        engine.estimate(["a"], 3.7, 1.0, 25.0)
        stored = engine.cell("a").soc
        out = engine.predict(["a"], 2.0, 25.0, 120.0)
        assert engine.cell("a").soc == stored  # what-if leaves state alone
        engine.predict(["a"], 2.0, 25.0, 120.0, commit=True)
        assert engine.cell("a").soc == pytest.approx(float(out[0]))

    def test_unknown_cell_raises(self, model):
        engine = FleetEngine(default_model=model)
        with pytest.raises(KeyError):
            engine.estimate(["ghost"], 3.7, 1.0, 25.0)

    def test_scalar_inputs_broadcast_across_batch(self, model):
        engine = FleetEngine(default_model=model)
        for cid in ("a", "b"):
            engine.register_cell(cid)
        out = engine.estimate(["a", "b"], [3.7, 3.8], [1.0, 1.2], 25.0)
        assert len(out) == 2
        expected_b = float(model.estimate_soc(3.8, 1.2, 25.0)[0])
        assert out[1] == pytest.approx(expected_b, abs=1e-12)
        pred = engine.predict(["a", "b"], 2.0, 25.0, 120.0, soc_now=0.5)
        assert len(pred) == 2
        assert pred[0] == pred[1]  # identical query rows

    def test_republished_model_served_without_engine_rebuild(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("m", TwoBranchSoCNet(rng=np.random.default_rng(0)))
        engine = FleetEngine(registry=registry)
        engine.register_cell("a")
        first = float(engine.estimate(["a"], 3.7, 1.0, 25.0)[0])
        registry.publish("m", TwoBranchSoCNet(rng=np.random.default_rng(9)))
        second = float(engine.estimate(["a"], 3.7, 1.0, 25.0)[0])
        assert first != second

    def test_promote_between_calls_served_on_next_call(self, tmp_path):
        """A promote, made through this registry or another process's
        copy of it, is served from the engine's next call on."""
        import os

        registry = ModelRegistry(tmp_path)
        models = [TwoBranchSoCNet(rng=np.random.default_rng(k)) for k in range(3)]
        registry.publish("m", models[0])
        engine = FleetEngine(registry=registry)
        engine.register_cell("a")
        expected = [float(m.estimate_soc(3.7, 1.0, 25.0)[0]) for m in models]
        assert engine.estimate(["a"], 3.7, 1.0, 25.0)[0] == pytest.approx(expected[0], abs=1e-12)
        registry.publish("m", models[1], channel="canary")
        assert engine.estimate(["a"], 3.7, 1.0, 25.0)[0] == pytest.approx(expected[0], abs=1e-12)
        registry.promote("m")
        assert engine.estimate(["a"], 3.7, 1.0, 25.0)[0] == pytest.approx(expected[1], abs=1e-12)

        other = ModelRegistry(tmp_path)
        other.publish("m", models[2])
        # step the file's mtime so the rewrite cannot share the previous
        # one's (mtime, size) signature within one filesystem tick
        path = tmp_path / "channels.json"
        stat = path.stat()
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        assert engine.estimate(["a"], 3.7, 1.0, 25.0)[0] == pytest.approx(expected[2], abs=1e-12)

    def test_registry_checked_once_per_call(self, tmp_path, monkeypatch):
        """One generation read per call; a model is loaded only when the
        generation changed since the engine last served its key."""
        registry = ModelRegistry(tmp_path)
        for k in range(4):
            registry.publish(f"m{k}", TwoBranchSoCNet(rng=np.random.default_rng(k)))
        engine = FleetEngine(registry=registry)
        ids = [f"c{k}" for k in range(64)]
        for k, cid in enumerate(ids):
            engine.register_cell(cid, model_name=f"m{k % 4}")
        calls = {"sync": 0, "load": 0}
        sync, load = registry._sync_channels, registry.load

        def counting_sync():
            calls["sync"] += 1
            return sync()

        def counting_load(ref):
            calls["load"] += 1
            return load(ref)

        first = engine.estimate(ids, 3.7, 1.0, 25.0)
        monkeypatch.setattr(registry, "_sync_channels", counting_sync)
        monkeypatch.setattr(registry, "load", counting_load)
        np.testing.assert_array_equal(engine.estimate(ids, 3.7, 1.0, 25.0), first)
        assert calls == {"sync": 1, "load": 0}
        engine.predict(ids, 2.0, 25.0, 120.0)
        assert calls == {"sync": 2, "load": 0}
        registry.publish("m1", TwoBranchSoCNet(rng=np.random.default_rng(9)))
        again = engine.estimate(ids, 3.7, 1.0, 25.0)
        assert calls["load"] == 4  # every key asks once after the publish
        changed = np.flatnonzero(again != first)
        np.testing.assert_array_equal(changed, np.arange(1, 64, 4))

    def test_rollout_fleet_matches_per_cell_loop(self, model, mixed_fleet):
        """The acceptance property: batched == loop to 1e-9, per cell,
        across heterogeneous cycle lengths (partial tails included)."""
        engine = FleetEngine(default_model=model)
        results = engine.rollout_fleet(mixed_fleet.assignments(), step_s=120.0)
        assert set(results) == {m.cell_id for m in mixed_fleet.members}
        for m in mixed_fleet.members:
            ref = model_rollout(model, m.cycle, 120.0)
            got = results[m.cell_id]
            assert len(got) == len(ref)
            np.testing.assert_allclose(got.soc_pred, ref.soc_pred, atol=1e-9, rtol=0)
            np.testing.assert_array_equal(got.time_s, ref.time_s)
            np.testing.assert_array_equal(got.soc_true, ref.soc_true)
            assert got.tail_s == ref.tail_s
            assert got.initial_soc == pytest.approx(ref.initial_soc, abs=1e-12)

    def test_rollout_results_own_their_arrays(self, model, bench_fleet):
        """Writing into one cell's result changes no other cell on the
        same trace, and no result of a later call."""
        engine = FleetEngine(default_model=model)
        pairs = bench_fleet.assignments()
        first = engine.rollout_fleet(pairs, step_s=60.0)
        assert {len(r) - 1 for r in first.values()} == {27, 28}
        for cid, cycle in pairs:
            ref = model_rollout(model, cycle, 60.0)
            np.testing.assert_allclose(first[cid].soc_pred, ref.soc_pred, atol=1e-9, rtol=0)
            np.testing.assert_array_equal(first[cid].time_s, ref.time_s)
            np.testing.assert_array_equal(first[cid].soc_true, ref.soc_true)

        by_trace: dict[int, list[str]] = {}
        for cid, cycle in pairs:
            by_trace.setdefault(id(cycle), []).append(cid)
        a, b = next(cids for cids in by_trace.values() if len(cids) > 1)[:2]
        fields = ("soc_pred", "time_s", "soc_true")
        kept = {cid: {f: getattr(r, f).copy() for f in fields} for cid, r in first.items()}
        second = engine.rollout_fleet(pairs, step_s=60.0)
        for f in fields:
            getattr(first[a], f)[:] = -1.0
        for f in fields:
            np.testing.assert_array_equal(getattr(first[b], f), kept[b][f])
        third = engine.rollout_fleet(pairs, step_s=60.0)
        for cid in first:
            for f in fields:
                np.testing.assert_array_equal(getattr(second[cid], f), kept[cid][f])
                np.testing.assert_array_equal(getattr(third[cid], f), kept[cid][f])

    @pytest.mark.parametrize("n_models", [1, 4])
    def test_rollout_order_and_heterogeneity(self, model, ragged_fleet, tmp_path, n_models):
        """Shortest cycle first, mixed protocols, partial tails, one or
        four model groups: every trajectory matches the scalar loop, the
        results keep assignment order and each cell stores its last
        prediction."""
        pairs = sorted(ragged_fleet.assignments(), key=lambda pair: len(pair[1].data))
        if n_models == 1:
            engine = FleetEngine(default_model=model)
            model_of = {cid: model for cid, _ in pairs}
        else:
            registry = ModelRegistry(tmp_path)
            models = [TwoBranchSoCNet(rng=np.random.default_rng(10 + k)) for k in range(n_models)]
            for k, m in enumerate(models):
                registry.publish(f"m{k}", m)
            engine = FleetEngine(registry=registry)
            model_of = {}
            for k, (cid, cycle) in enumerate(pairs):
                engine.register_cell(cid, chemistry=cycle.tags["chemistry"], model_name=f"m{k % n_models}")
                model_of[cid] = models[k % n_models]
        results = engine.rollout_fleet(pairs, step_s=120.0)
        assert list(results) == [cid for cid, _ in pairs]
        assert {len(r) - 1 for r in results.values()} == {14, 15, 28, 35}
        assert any(r.tail_s for r in results.values())
        for cid, cycle in pairs:
            ref = model_rollout(model_of[cid], cycle, 120.0)
            got = results[cid]
            np.testing.assert_allclose(got.soc_pred, ref.soc_pred, atol=1e-9, rtol=0)
            np.testing.assert_array_equal(got.time_s, ref.time_s)
            np.testing.assert_array_equal(got.soc_true, ref.soc_true)
            assert (got.step_s, got.tail_s) == (ref.step_s, ref.tail_s)
            assert got.initial_soc == got.soc_pred[0]
            assert engine.cell(cid).soc == got.soc_pred[-1]

    def test_rollout_mixed_sampling_periods(self, model, mixed_period_pairs):
        """Traces sampled every 8, 16 and 24 s (float32) in one rollout:
        one plan averages them all, and every trajectory matches the
        scalar loop."""
        assert {cycle.sampling_period_s for _, cycle in mixed_period_pairs} == {8.0, 16.0, 24.0}
        engine = FleetEngine(default_model=model)
        results = engine.rollout_fleet(mixed_period_pairs, step_s=60.0)
        # 60 s rounds to 8, 4 and 2 samples
        assert {r.step_s for r in results.values()} == {64.0, 48.0}
        for cid, cycle in mixed_period_pairs:
            ref = model_rollout(model, cycle, 60.0)
            got = results[cid]
            np.testing.assert_allclose(got.soc_pred, ref.soc_pred, atol=1e-9, rtol=0)
            np.testing.assert_array_equal(got.time_s, ref.time_s)
            np.testing.assert_array_equal(got.soc_true, ref.soc_true)
            assert (got.step_s, got.tail_s) == (ref.step_s, ref.tail_s)

    def test_rollout_updates_cell_state(self, model, small_fleet):
        engine = FleetEngine(default_model=model)
        results = engine.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        for m in small_fleet.members:
            state = engine.cell(m.cell_id)
            assert state.soc == pytest.approx(float(results[m.cell_id].soc_pred[-1]))
            assert state.chemistry == m.chemistry

    def test_registry_routes_by_chemistry(self, model, tmp_path, small_fleet):
        registry = ModelRegistry(tmp_path)
        rng = np.random.default_rng(1)
        per_chem = {}
        for chem in ("nca", "nmc", "lfp"):
            m = TwoBranchSoCNet(rng=rng)
            registry.publish(chem, m, chemistry=chem)
            per_chem[chem] = m
        engine = FleetEngine(registry=registry)
        results = engine.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        for m in small_fleet.members:
            assert engine.cell(m.cell_id).model_key == m.chemistry
            ref = model_rollout(per_chem[m.chemistry], m.cycle, 120.0)
            np.testing.assert_allclose(
                results[m.cell_id].soc_pred, ref.soc_pred, atol=1e-9, rtol=0
            )

    def test_registry_miss_falls_back_to_default(self, model, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.publish("nca-only", TwoBranchSoCNet(rng=np.random.default_rng(2)), chemistry="nca")
        engine = FleetEngine(default_model=model, registry=registry)
        state = engine.register_cell("x", chemistry="lfp")
        assert state.model_key == "__default__"
        engine_no_default = FleetEngine(registry=registry)
        with pytest.raises(KeyError):
            engine_no_default.register_cell("y", chemistry="lfp")


# ----------------------------------------------------------------------
class TestModelRegistry:
    def test_publish_load_roundtrip(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = TwoBranchSoCNet(
            ModelConfig(horizon_scale_s=70.0), rng=np.random.default_rng(4)
        )
        entry = registry.publish("lg-a", model, chemistry="NMC", dataset="lg",
                                 extra={"seed": 4})
        assert entry.chemistry == "nmc"  # normalized
        loaded = registry.load("lg-a")
        assert loaded.config.horizon_scale_s == 70.0
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(dict(loaded.named_parameters())[name].data, param.data)
        out = loaded.estimate_soc(3.7, 1.0, 25.0)
        np.testing.assert_allclose(out, model.estimate_soc(3.7, 1.0, 25.0))

    def test_reopen_reindexes_from_disk(self, tmp_path):
        first = ModelRegistry(tmp_path)
        first.publish("a", TwoBranchSoCNet(rng=np.random.default_rng(0)), chemistry="nca")
        second = ModelRegistry(tmp_path)
        assert second.names() == ["a"]
        assert second.describe("a").chemistry == "nca"

    def test_resolution_specificity(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        rng = np.random.default_rng(0)
        registry.publish("generalist", TwoBranchSoCNet(rng=rng))
        registry.publish("lfp-any", TwoBranchSoCNet(rng=rng), chemistry="lfp")
        registry.publish("lfp-sandia", TwoBranchSoCNet(rng=rng), chemistry="lfp", dataset="sandia")
        registry.publish("sandia-any", TwoBranchSoCNet(rng=rng), dataset="sandia")
        assert registry.resolve(chemistry="lfp", dataset="sandia") == "lfp-sandia"
        assert registry.resolve(chemistry="lfp") == "lfp-any"
        assert registry.resolve(chemistry="nmc", dataset="sandia") == "sandia-any"
        assert registry.resolve(chemistry="nmc") == "generalist"
        assert registry.resolve() == "generalist"

    def test_resolve_empty_registry_raises(self, tmp_path):
        with pytest.raises(KeyError, match="no model"):
            ModelRegistry(tmp_path / "empty").resolve(chemistry="nmc")

    def test_invalid_names_and_reserved_extras(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        model = TwoBranchSoCNet(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            registry.publish("", model)
        with pytest.raises(ValueError):
            registry.publish("../escape", model)
        with pytest.raises(ValueError, match="reserved"):
            registry.publish("ok", model, extra={"hidden": [1]})

    def test_republish_replaces_cached_model(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        m1 = TwoBranchSoCNet(rng=np.random.default_rng(0))
        registry.publish("m", m1)
        first = registry.load("m").estimate_soc(3.7, 1.0, 25.0)
        m2 = TwoBranchSoCNet(rng=np.random.default_rng(9))
        registry.publish("m", m2)
        second = registry.load("m").estimate_soc(3.7, 1.0, 25.0)
        assert not np.allclose(first, second)

    def test_plain_checkpoints_ignored(self, tmp_path):
        from repro.nn.serialization import save_state

        save_state({"w": np.ones(3)}, tmp_path / "foreign.npz", meta={"note": "not registry"})
        registry = ModelRegistry(tmp_path)
        assert registry.names() == []


# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, dt):
        self.now += dt

    def __call__(self):
        return self.now


class TestMicroBatcher:
    @pytest.fixture()
    def engine(self, model):
        engine = FleetEngine(default_model=model)
        for k in range(8):
            engine.register_cell(f"c{k}")
        return engine

    def test_size_trigger_coalesces(self, engine, model):
        clock = FakeClock()
        batcher = MicroBatcher(engine, max_batch=4, max_delay_s=10.0, clock=clock)
        for k in range(4):
            batcher.submit_estimate(f"c{k}", 3.5 + 0.1 * k, 1.0, 25.0)
        done = batcher.drain()
        assert len(done) == 4
        assert all(c.batch_size == 4 for c in done)
        assert batcher.stats.size_flushes == 1
        assert batcher.pending == 0
        for c in done:
            k = int(c.cell_id[1:])
            expected = float(model.estimate_soc(3.5 + 0.1 * k, 1.0, 25.0)[0])
            assert c.value == pytest.approx(expected, abs=1e-12)

    def test_deadline_trigger(self, engine):
        clock = FakeClock()
        batcher = MicroBatcher(engine, max_batch=100, max_delay_s=0.5, clock=clock)
        batcher.submit_estimate("c0", 3.7, 1.0, 25.0)
        assert batcher.poll() == []  # not due yet
        clock.advance(0.6)
        done = batcher.poll()
        assert len(done) == 1
        assert done[0].wait_s == pytest.approx(0.6)
        assert batcher.stats.deadline_flushes == 1

    def test_kinds_queue_independently(self, engine):
        clock = FakeClock()
        batcher = MicroBatcher(engine, max_batch=2, max_delay_s=10.0, clock=clock)
        batcher.submit_estimate("c0", 3.7, 1.0, 25.0)
        batcher.submit_predict("c0", 2.0, 25.0, 120.0)
        assert batcher.pending == 2  # neither kind full
        batcher.submit_estimate("c1", 3.6, 1.0, 25.0)  # fills estimate queue
        done = batcher.drain()
        assert {c.kind for c in done} == {"estimate"}
        done_rest = batcher.flush()
        assert [c.kind for c in done_rest] == ["predict"]
        assert batcher.stats.forced_flushes == 1

    def test_latency_accounting(self, engine):
        clock = FakeClock()
        batcher = MicroBatcher(engine, max_batch=100, max_delay_s=1.0, clock=clock)
        batcher.submit_estimate("c0", 3.7, 1.0, 25.0)
        clock.advance(0.25)
        batcher.submit_estimate("c1", 3.6, 1.0, 25.0)
        clock.advance(0.25)
        batcher.flush()
        assert batcher.stats.requests == 2
        assert batcher.stats.mean_batch_size() == 2.0
        assert batcher.stats.mean_wait_s() == pytest.approx((0.5 + 0.25) / 2)
        assert batcher.stats.max_wait_s == pytest.approx(0.5)

    def test_bad_request_does_not_sink_batch(self, engine):
        """A predict for a cell with no stored SoC errors alone; its
        batchmates still complete."""
        clock = FakeClock()
        engine.estimate(["c0"], 3.7, 1.0, 25.0)  # c0 ready, c1 not
        batcher = MicroBatcher(engine, max_batch=2, clock=clock)
        batcher.submit_predict("c1", 2.0, 25.0, 120.0)
        batcher.submit_predict("c0", 2.0, 25.0, 120.0)
        done = {c.cell_id: c for c in batcher.drain()}
        assert len(done) == 2
        assert done["c0"].ok and np.isfinite(done["c0"].value)
        assert not done["c1"].ok
        assert "no stored SoC" in done["c1"].error
        assert np.isnan(done["c1"].value)
        assert batcher.stats.errors == 1
        assert batcher.pending == 0

    def test_unregistered_cell_gets_error_completion(self, engine, model):
        """A request for a cell the engine does not know must surface as
        an ok=False completion — never be silently dropped — and must
        not poison its batchmates' single batched engine call."""
        clock = FakeClock()
        batcher = MicroBatcher(engine, max_batch=3, max_delay_s=10.0, clock=clock)
        batcher.submit_estimate("ghost", 3.7, 1.0, 25.0)
        batcher.submit_estimate("c0", 3.5, 1.0, 25.0)
        batcher.submit_estimate("c1", 3.6, 1.0, 25.0)
        done = {c.cell_id: c for c in batcher.drain()}
        assert set(done) == {"ghost", "c0", "c1"}  # nothing dropped
        assert not done["ghost"].ok
        assert "unknown cell 'ghost'" in done["ghost"].error
        assert np.isnan(done["ghost"].value)
        for cid, volts in (("c0", 3.5), ("c1", 3.6)):
            assert done[cid].ok
            expected = float(model.estimate_soc(volts, 1.0, 25.0)[0])
            assert done[cid].value == pytest.approx(expected, abs=1e-12)
            assert engine.cell(cid).n_requests == 1  # served once, not retried
        assert batcher.stats.errors == 1
        assert batcher.pending == 0

    def test_unregistered_cell_error_on_deadline_poll(self, engine):
        clock = FakeClock()
        batcher = MicroBatcher(engine, max_batch=100, max_delay_s=0.5, clock=clock)
        batcher.submit_predict("ghost", 2.0, 25.0, 120.0)
        clock.advance(1.0)
        done = batcher.poll()
        assert len(done) == 1
        assert not done[0].ok and "unknown cell" in done[0].error

    def test_rejects_bad_config(self, engine):
        with pytest.raises(ValueError):
            MicroBatcher(engine, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(engine, max_delay_s=-1.0)
