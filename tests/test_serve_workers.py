"""Tests for subprocess shard workers (:mod:`repro.serve.workers`)."""

import os

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.serve import (
    FleetEngine,
    ShardedFleet,
    ShardWorker,
    WorkerCrashError,
    WorkerSpec,
    generate_fleet,
)
from repro.serve import workers

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
    return generate_fleet(16, seed=7, **FAST_FLEET)


# ----------------------------------------------------------------------
class TestPipeWorker:
    def test_requires_model_or_registry(self):
        with pytest.raises(ValueError, match="default model"):
            WorkerSpec(url="pipe://")

    def test_graceful_close_exits_zero(self, model):
        worker = ShardWorker(WorkerSpec(url="pipe://", model=model, name="drain"))
        worker.register_cell("a")
        assert worker.close() == 0
        assert not worker.alive
        assert worker.close() == 0  # idempotent
        with pytest.raises(WorkerCrashError, match="not running"):
            worker.cell("a")

    def test_crash_detection_reports_exit_code(self, model, small_fleet):
        worker = ShardWorker(WorkerSpec(url="pipe://", model=model, name="crashy"))
        worker.crash_after_window(2)
        with pytest.raises(WorkerCrashError, match="exit code 86"):
            worker.rollout_fleet(small_fleet.assignments(), 120.0)
        assert not worker.alive
        assert worker.exit_code == 86
        with pytest.raises(WorkerCrashError, match="not running"):
            worker.estimate(["a"], 3.7, 1.0, 25.0)
        worker.close()

    def test_restart_without_journal_comes_back_empty(self, model):
        worker = ShardWorker(WorkerSpec(url="pipe://", model=model, name="amnesiac"))
        worker.register_cell("a")
        worker.close()
        worker.restart()
        assert worker.alive
        assert worker.restarts == 1
        assert len(worker) == 0
        worker.close()

    def test_restart_restores_state_from_journal(self, model, tmp_path):
        path = tmp_path / "worker.journal"
        worker = ShardWorker(WorkerSpec(url="pipe://", model=model, journal=path, name="durable"))
        assert worker.durable
        worker.register_cell("a", chemistry="nmc")
        worker.estimate(["a"], 3.7, 1.0, 25.0)
        soc = worker.cell("a").soc
        worker.close()
        worker.restart()
        state = worker.cell("a")
        assert state.soc == soc
        assert state.chemistry == "nmc"
        worker.close()

# ----------------------------------------------------------------------
class TestShardedFleetProcessWorkers:
    def test_rebalance_migrates_live_state_between_processes(self, model):
        sharded = ShardedFleet(2, spec=WorkerSpec(url="pipe://", model=model, name="r{shard}"))
        with sharded:
            ids = [f"c{k}" for k in range(20)]
            for cid in ids:
                sharded.register_cell(cid)
            sharded.estimate(ids, 3.7, 1.0, 25.0)
            socs = {cid: sharded.cell(cid).soc for cid in ids}
            moved = sharded.rebalance(3)
            assert sharded.n_shards == 3
            assert 0 < moved < len(ids)  # stable rebalancing, not a reshuffle
            for cid in ids:
                assert sharded.cell(cid).soc == socs[cid]

    def test_rebalance_migration_survives_worker_restarts(self, model, tmp_path):
        """Migrated cells must land in their new owner's journal (and
        leave the old owner's), or a restart after a rebalance loses
        them / resurrects stale copies."""
        spec = WorkerSpec(
            url="pipe://",
            model=model,
            journal=str(tmp_path / "shard{shard}.journal"),
            name="m{shard}",
        )
        sharded = ShardedFleet(2, spec=spec)
        ids = [f"c{k}" for k in range(20)]
        for cid in ids:
            sharded.register_cell(cid)
        sharded.estimate(ids, 3.7, 1.0, 25.0)
        socs = {cid: sharded.cell(cid).soc for cid in ids}
        assert sharded.rebalance(3) > 0
        for worker in sharded._shards:  # every worker restarts from its journal
            worker.close()
            worker.restart()
        for cid in ids:
            assert sharded.cell(cid).soc == socs[cid]
        assert sum(sharded.shard_sizes()) == len(ids)  # no stale resurrections
        sharded.close()

    def test_shared_journal_instance_is_rejected_for_process_workers(self, model, tmp_path):
        from repro.serve import StateJournal

        journal = StateJournal(tmp_path / "shared.journal")
        spec = WorkerSpec(url="pipe://", model=model, journal=journal)
        with pytest.raises(ValueError, match="own their journal file"):
            ShardedFleet(2, spec=spec)

# ----------------------------------------------------------------------
class TestShmWorkers:
    """The ``shm://`` scheme: same subprocess, payloads ride slab rings."""

    def test_shm_worker_matches_pipe_worker_everywhere(self, model, small_fleet):
        ids = [f"c{k}" for k in range(64)]
        rng = np.random.default_rng(3)
        v = rng.uniform(2.8, 4.2, 64)
        i = rng.uniform(-5, 5, 64)
        t = rng.uniform(0, 45, 64)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="pipe")) as pipe_worker:
            with ShardWorker(WorkerSpec(url="shm://", model=model, name="shm")) as shm_worker:
                for cid in ids:
                    pipe_worker.register_cell(cid)
                    shm_worker.register_cell(cid)
                np.testing.assert_array_equal(
                    shm_worker.estimate(ids, v, i, t), pipe_worker.estimate(ids, v, i, t)
                )
                np.testing.assert_array_equal(
                    shm_worker.predict(ids, i, t, 60.0), pipe_worker.predict(ids, i, t, 60.0)
                )
                got = shm_worker.rollout_fleet(small_fleet.assignments(), 120.0)
                ref = pipe_worker.rollout_fleet(small_fleet.assignments(), 120.0)
                for cell_id, _ in small_fleet.assignments():
                    np.testing.assert_array_equal(got[cell_id].soc_pred, ref[cell_id].soc_pred)

    def test_ring_files_are_created_and_cleaned_up(self, model):
        from repro.serve.transport import shm_ring_dir

        worker = ShardWorker(WorkerSpec(url="shm://", model=model, name="rings"))
        rings = worker._rings
        assert rings is not None and all(os.path.exists(ring.path) for ring in rings)
        assert all(ring.path.startswith(shm_ring_dir()) for ring in rings)
        worker.close()
        assert all(not os.path.exists(ring.path) for ring in rings)

    def test_restart_swaps_in_fresh_rings(self, model):
        worker = ShardWorker(WorkerSpec(url="shm://", model=model, name="reborn"))
        worker.register_cell("a")
        before = worker.estimate(["a"], 3.7, 1.0, 25.0)
        old_paths = [ring.path for ring in worker._rings]
        worker._proc.kill()
        worker._proc.wait()
        worker.restart()
        worker.register_cell("a")
        assert all(not os.path.exists(path) for path in old_paths)  # dead rings unlinked
        assert [ring.path for ring in worker._rings] != old_paths
        np.testing.assert_array_equal(worker.estimate(["a"], 3.7, 1.0, 25.0), before)
        worker.close()

    def test_undersized_ring_falls_back_to_inline_frames(self, model, monkeypatch):
        ids = [f"c{k}" for k in range(256)]
        monkeypatch.setattr(workers, "DEFAULT_SHM_SLOTS", 1)
        monkeypatch.setattr(workers, "DEFAULT_SHM_SLAB_BYTES", 256)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="tiny")) as ref_worker:
            with ShardWorker(WorkerSpec(url="shm://", model=model, name="tiny-shm")) as shm_worker:
                assert [(ring.slots, ring.slab_bytes) for ring in shm_worker._rings] == [(1, 256)] * 2
                for cid in ids:
                    ref_worker.register_cell(cid)
                    shm_worker.register_cell(cid)
                v = np.linspace(3.0, 4.1, 256)
                np.testing.assert_array_equal(
                    shm_worker.estimate(ids, v, 1.0, 25.0), ref_worker.estimate(ids, v, 1.0, 25.0)
                )

# ----------------------------------------------------------------------
class TestWorkerMetrics:
    """The ``metrics`` wire op: each worker ships its registry snapshot
    to the parent, and ``ShardedFleet.metrics_snapshot()`` merges the topology."""

    def test_snapshot_is_none_without_monitoring(self, model):
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="quiet")) as worker:
            worker.register_cell("a")
            worker.estimate(["a"], 3.7, 1.0, 25.0)
            assert worker.metrics_snapshot() is None

    def test_monitored_worker_ships_its_snapshot(self, model):
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="mon", monitor=True)) as worker:
            worker.register_cell("a")
            worker.register_cell("b")
            worker.estimate(["a", "b"], 3.7, 1.0, 25.0)
            snap = worker.metrics_snapshot()
        key = 'engine_requests_total{model="__default__",op="estimate"}'
        assert snap["counters"][key] == 2.0
        assert snap["gauges"]["engine_cells"] == 2.0

    def test_sharded_fleet_merges_all_workers(self, model, small_fleet):
        spec = WorkerSpec(url="pipe://", model=model, name="m{shard}", monitor=True)
        with ShardedFleet(2, spec=spec) as fleet:
            ids = [m.cell_id for m in small_fleet.members]
            for cid in ids:
                fleet.register_cell(cid)
            assert all(size > 0 for size in fleet.shard_sizes())  # both shards populated
            fleet.estimate(ids, 3.7, 1.0, 25.0)
            fleet.rollout_fleet(small_fleet.assignments(), 120.0)
            merged = fleet.metrics_snapshot()
        key = 'engine_requests_total{model="__default__",op="estimate"}'
        assert merged["counters"][key] == float(len(ids))
        rollout_key = 'engine_requests_total{model="__default__",op="rollout"}'
        assert merged["counters"][rollout_key] == float(len(ids))
        assert merged["gauges"]["engine_cells"] == float(len(ids))  # gauges sum across shards
        hist = merged["histograms"]['engine_physics_residual{model="__default__"}']
        assert hist["count"] > 0
        assert hist["min"] >= 0.0

    def test_dead_workers_are_skipped_not_fatal(self, model):
        spec = WorkerSpec(url="pipe://", model=model, name="d{shard}", monitor=True)
        fleet = ShardedFleet(2, spec=spec)
        try:
            for k in range(8):
                fleet.register_cell(f"c{k}")
            fleet.estimate([f"c{k}" for k in range(8)], 3.7, 1.0, 25.0)
            victim = fleet._shards[0]
            victim._proc.kill()
            victim._proc.wait()
            merged = fleet.metrics_snapshot()  # no raise; surviving shard reports
            key = 'engine_requests_total{model="__default__",op="estimate"}'
            assert 0 < merged["counters"][key] < 8.0
        finally:
            fleet.close()


# ----------------------------------------------------------------------
class TestWorkerDriftEvents:
    """``WorkerSpec(monitor=True)`` workers report their drift monitor's
    events over the wire, and the fleet merges every shard's."""

    # SoC 5.0 is out of bounds, and any prediction that comes back inside
    # them moved at least 3.95 in one second: past the rate ceiling
    VIOLATION = dict(current_avg=1.0, temp_avg_c=25.0, horizon_s=1.0, soc_now=5.0)

    def test_worker_reports_drift_events(self, model):
        with ShardWorker(WorkerSpec(url="pipe://", model=model, monitor=True)) as worker:
            worker.register_cell("hot")
            assert worker.drift_events() == []
            worker.predict(["hot"], **self.VIOLATION)
            events = worker.drift_events()
            assert events and {event.cell_id for event in events} == {"hot"}
            assert {event.kind for event in events} <= {"soc_bounds", "soc_rate"}

    def test_sharded_fleet_merges_worker_drift_events(self, model):
        spec = WorkerSpec(url="pipe://", model=model, name="dr{shard}", monitor=True)
        with ShardedFleet(2, spec=spec) as fleet:
            ids = [f"c{k}" for k in range(8)]
            for cid in ids:
                fleet.register_cell(cid)
            assert all(size > 0 for size in fleet.shard_sizes())
            fleet.predict(ids, **self.VIOLATION)
            events = fleet.drift_events()
            assert {event.cell_id for event in events} == set(ids)
