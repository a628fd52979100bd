"""Tests for sharded fleet serving (:mod:`repro.serve.sharding`)."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.serve import (
    ModelRegistry,
    ShardedFleet,
    WorkerSpec,
    generate_fleet,
    shard_for,
)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def fleet():
    """Fleet spanning both protocols so cycle lengths differ per cell."""
    return generate_fleet(
        24, seed=3, ambient_temps_c=(10.0, 25.0), c_rates=(1.0,), max_time_s=1800.0
    )


# ----------------------------------------------------------------------
class TestShardFor:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 5, 16):
            for k in range(50):
                s = shard_for(f"cell-{k:05d}", n)
                assert 0 <= s < n
                assert s == shard_for(f"cell-{k:05d}", n)

    def test_distribution_roughly_uniform(self):
        counts = [0] * 8
        for k in range(4000):
            counts[shard_for(f"cell-{k:05d}", 8)] += 1
        assert min(counts) > 4000 / 8 * 0.7  # no starving shard

    def test_stable_rebalancing_moves_about_one_over_n(self):
        """Growing 4 -> 5 shards should re-home ~1/5 of cells, never more
        than a full reshuffle's worth."""
        ids = [f"cell-{k:05d}" for k in range(4000)]
        moved = sum(shard_for(c, 4) != shard_for(c, 5) for c in ids)
        assert 0.12 < moved / len(ids) < 0.30

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            shard_for("a", 0)


# ----------------------------------------------------------------------
class TestShardedFleet:
    def test_rejects_bad_config(self, model):
        with pytest.raises(ValueError):
            ShardedFleet(0, spec=WorkerSpec(model=model))
        with pytest.raises(ValueError):
            ShardedFleet(2)  # no model, no registry

    def test_cells_live_on_their_hash_shard(self, model, fleet):
        sharded = ShardedFleet(4, spec=WorkerSpec(model=model))
        sharded.rollout_fleet(fleet.assignments(), step_s=120.0)
        for m in fleet.members:
            assert m.cell_id in sharded
            assert sharded.shard_of(m.cell_id) == shard_for(m.cell_id, 4)
            assert sharded.cell(m.cell_id).soc is not None
        assert len(sharded) == len(fleet)
        assert len(list(sharded.cells())) == len(fleet)

    def test_rebalance_preserves_state_and_moves_minimum(self, model, fleet):
        sharded = ShardedFleet(4, spec=WorkerSpec(model=model))
        sharded.rollout_fleet(fleet.assignments(), step_s=120.0)
        before = {s.cell_id: (s.soc, s.n_requests) for s in sharded.cells()}
        moved = sharded.rebalance(6)
        assert sharded.n_shards == 6
        assert len(sharded) == len(fleet)
        # only cells whose rendezvous winner changed may move
        expected_moves = sum(
            shard_for(m.cell_id, 4) != shard_for(m.cell_id, 6) for m in fleet.members
        )
        assert moved == expected_moves
        for m in fleet.members:
            assert sharded.shard_of(m.cell_id) == shard_for(m.cell_id, 6)
            state = sharded.cell(m.cell_id)
            assert (state.soc, state.n_requests) == before[m.cell_id]

    def test_registry_routing_through_shards(self, fleet, tmp_path):
        registry = ModelRegistry(tmp_path)
        rng = np.random.default_rng(1)
        for chem in ("nca", "nmc", "lfp"):
            registry.publish(chem, TwoBranchSoCNet(rng=rng), chemistry=chem)
        sharded = ShardedFleet(4, registry=registry)
        sharded.rollout_fleet(fleet.assignments(), step_s=120.0)
        for m in fleet.members:
            assert sharded.cell(m.cell_id).model_key == m.chemistry

    def test_shared_registry_merges_once(self, model):
        """Each monitored in-process shard owns a registry; ``metrics()``
        merges them into fleet totals."""
        sharded = ShardedFleet(2, spec=WorkerSpec(model=model, monitor=True))
        ids = [f"cell-{k}" for k in range(8)]
        for cid in ids:
            sharded.register_cell(cid)
        sharded.estimate(ids, 3.7, 1.0, 25.0)
        assert min(sharded.shard_sizes()) > 0
        merged = sharded.metrics_snapshot()
        estimates = sum(
            value
            for key, value in merged["counters"].items()
            if key.startswith("engine_requests_total{") and 'op="estimate"' in key
        )
        assert estimates == 8
        assert merged["gauges"]["engine_cells"] == 8


# ----------------------------------------------------------------------
def _truncated(cycle, n_samples: int):
    """``cycle`` cut to its first ``n_samples`` recorded samples."""
    d = cycle.data
    channels = {
        f.name: getattr(d, f.name)[:n_samples]
        for f in dataclasses.fields(d)
        if isinstance(getattr(d, f.name), np.ndarray)
    }
    return dataclasses.replace(cycle, data=dataclasses.replace(d, **channels))


class TestBadCycleTouchesNoShard:
    """A cycle that cannot be planned fails the fleet rollout before the
    first shard runs: earlier shards commit no state and no journal
    windows."""

    @pytest.mark.parametrize("resume, topology", [(False, "inproc"), (False, "pipe"), (True, "pipe")])
    def test_state_and_journals_unchanged(self, model, fleet, tmp_path, topology, resume):
        if topology == "inproc":
            sharded = ShardedFleet(2, spec=WorkerSpec(model=model))
            journal_files = []
        else:
            spec = WorkerSpec(url="pipe://", model=model, journal=str(tmp_path / "s{shard}.journal"))
            sharded = ShardedFleet(2, spec=spec)
            journal_files = [tmp_path / "s0.journal", tmp_path / "s1.journal"]
        with sharded:
            pairs = fleet.assignments()[:8]
            assert {sharded.shard_of(cid) for cid, _ in pairs} == {0, 1}
            sharded.rollout_fleet(pairs, step_s=120.0)
            before = {cid: (sharded.cell(cid).soc, sharded.cell(cid).n_requests) for cid, _ in pairs}
            journals = [Path(p).read_bytes() for p in journal_files]

            # the bad cycle sits on the last shard, which runs last
            k = max(k for k, (cid, _) in enumerate(pairs) if sharded.shard_of(cid) == 1)
            bad = list(pairs)
            bad[k] = (pairs[k][0], _truncated(pairs[k][1], 2))
            run = sharded.resume_rollout_fleet if resume else sharded.rollout_fleet
            with pytest.raises(ValueError, match="shorter than a single rollout step"):
                run(bad, step_s=120.0)

            assert {cid: (sharded.cell(cid).soc, sharded.cell(cid).n_requests) for cid, _ in pairs} == before
            assert [Path(p).read_bytes() for p in journal_files] == journals

    def test_unencodable_tags_touch_no_shard(self, model, fleet, tmp_path):
        """Tags the wire codec cannot carry fail the whole rollout up front
        on a 2-worker pipe fleet: no shard's cells or journal change."""
        spec = WorkerSpec(url="pipe://", model=model, journal=str(tmp_path / "s{shard}.journal"))
        journal_files = [tmp_path / "s0.journal", tmp_path / "s1.journal"]
        with ShardedFleet(2, spec=spec) as sharded:
            pairs = fleet.assignments()[:8]
            assert {sharded.shard_of(cid) for cid, _ in pairs} == {0, 1}
            sharded.rollout_fleet(pairs, step_s=120.0)
            before = [dataclasses.astuple(sharded.cell(cid)) for cid, _ in pairs]
            journals = [p.read_bytes() for p in journal_files]

            k = max(k for k, (cid, _) in enumerate(pairs) if sharded.shard_of(cid) == 1)
            cycle = pairs[k][1]
            bad = list(pairs)
            bad[k] = (pairs[k][0], dataclasses.replace(cycle, tags={**cycle.tags, "blob": {1, 2}}))
            with pytest.raises(ValueError, match="cannot cross the wire"):
                sharded.rollout_fleet(bad, step_s=120.0)

            assert [dataclasses.astuple(sharded.cell(cid)) for cid, _ in pairs] == before
            assert [p.read_bytes() for p in journal_files] == journals

    @pytest.mark.parametrize("resume, topology", [(False, "inproc"), (False, "pipe"), (True, "pipe")])
    def test_duplicate_cell_id_touches_no_shard(self, model, fleet, tmp_path, topology, resume):
        """A cell id assigned twice fails the fleet rollout in the parent,
        naming the id: no shard registers a newcomer or changes a cell
        or its journal."""
        if topology == "inproc":
            sharded = ShardedFleet(2, spec=WorkerSpec(model=model))
            journal_files = []
        else:
            spec = WorkerSpec(url="pipe://", model=model, journal=str(tmp_path / "s{shard}.journal"))
            sharded = ShardedFleet(2, spec=spec)
            journal_files = [tmp_path / "s0.journal", tmp_path / "s1.journal"]
        with sharded:
            pairs = fleet.assignments()[:8]
            sharded.rollout_fleet(pairs, step_s=120.0)
            before = [dataclasses.astuple(sharded.cell(cid)) for cid, _ in pairs]
            journals = [Path(p).read_bytes() for p in journal_files]

            dup = pairs[-1][0]
            bad = [("newcomer", pairs[0][1]), *pairs, (dup, pairs[0][1])]
            run = sharded.resume_rollout_fleet if resume else sharded.rollout_fleet
            with pytest.raises(ValueError, match=f"cell '{dup}' appears more than once"):
                run(bad, step_s=120.0)

            assert "newcomer" not in sharded
            assert [dataclasses.astuple(sharded.cell(cid)) for cid, _ in pairs] == before
            assert [Path(p).read_bytes() for p in journal_files] == journals
