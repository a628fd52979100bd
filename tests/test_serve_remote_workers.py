"""Socket-backed shard workers and the :class:`WorkerSpec` factory.

The launch-mode lifecycle (API, errors, crash, probe, restart, close)
is checked once per mode in ``test_serve_worker_lifecycle.py``, and
fleet equivalence in ``test_serve_fleet_contract.py``; this file covers the socket-only edges — restart rules, the single
:class:`WorkerSpec` factory the fleet resolves every topology through,
and socket fleets (heartbeat heal, growth by URL).
"""

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.serve import (
    FleetEngine,
    ShardedFleet,
    ShardWorker,
    StateJournal,
    WorkerCrashError,
    WorkerSpec,
)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
class TestTcpWorker:
    def test_restart_requires_a_dialable_url(self, model):
        """An inbound worker (dialed us; built around its transport) has
        no address to redial — restart must say so, not hang."""
        import io

        from repro.serve.transport import PipeTransport
        from repro.serve import wire

        # a canned transport that answers the init handshake
        rd = io.BytesIO(b"".join(wire.encode_v2("ok", {"value": "ready"}, [])))
        transport = PipeTransport(io.BytesIO(), rd, peer="inbound")
        worker = ShardWorker(WorkerSpec(model=model), "inbound", transport=transport)
        worker._drop_link()
        with pytest.raises(WorkerCrashError, match="dial back in"):
            worker.restart()

    def test_restart_while_alive_is_an_error(self, model):
        worker = ShardWorker(WorkerSpec(url="tcp://127.0.0.1:0", model=model, spawn=True, name="up"))
        try:
            with pytest.raises(RuntimeError, match="still running"):
                worker.restart()
        finally:
            worker.close()


# ----------------------------------------------------------------------
class TestWorkerSpec:
    def test_resolves_every_topology(self, model):
        assert isinstance(WorkerSpec(model=model).resolve(0), FleetEngine)
        pipe_worker = WorkerSpec(url="pipe://", model=model).resolve(0)
        assert isinstance(pipe_worker, ShardWorker)
        pipe_worker.close()
        tcp_worker = WorkerSpec(url="tcp://127.0.0.1:0", model=model, spawn=True).resolve(0)
        assert isinstance(tcp_worker, ShardWorker)
        tcp_worker.close()

    def test_shard_templating(self, model, tmp_path):
        spec = WorkerSpec(
            url="pipe://",
            model=model,
            name="rack{shard}",
            journal=tmp_path / "fleet.journal",
        )
        assert spec._journal_path(2) == str(tmp_path / "fleet.journal.shard2")
        templated = WorkerSpec(
            url="pipe://", model=model, journal=str(tmp_path / "j{shard}.journal")
        )
        assert templated._journal_path(1) == str(tmp_path / "j1.journal")

    def test_needs_model_or_registry_for_workers(self):
        with pytest.raises(ValueError, match="default model"):
            WorkerSpec(url="pipe://")

    def test_rejects_journal_instance_for_process_workers(self, model, tmp_path):
        journal = StateJournal(tmp_path / "shared.journal")
        spec = WorkerSpec(url="pipe://", model=model, journal=journal)
        with pytest.raises(ValueError, match="pass a path template"):
            spec.resolve(0)

    def test_rejects_journal_path_for_in_process_shards(self, model, tmp_path):
        spec = WorkerSpec(model=model, journal=str(tmp_path / "fleet.journal"))
        with pytest.raises(ValueError, match="not durable"):
            spec.resolve(0)


# ----------------------------------------------------------------------
class TestShardedFleetSpec:
    def test_worker_factory_kwarg_is_gone(self):
        # WorkerSpec is the single construction seam: the callable factory
        # and the shared-engine kwargs are gone
        for kwarg in ("worker_factory", "default_model", "journal", "metrics", "drift"):
            with pytest.raises(TypeError, match=kwarg):
                ShardedFleet(2, **{kwarg: object()})

    def test_heartbeat_flags_dead_tcp_worker_and_heals(self, model, tmp_path):
        fleet = ShardedFleet(
            2,
            spec=WorkerSpec(
                url="tcp://127.0.0.1:0",
                model=model,
                spawn=True,
                name="h{shard}",
                journal=tmp_path / "h.journal",
            ),
        )
        with fleet:
            fleet.register_cell("a")
            assert fleet.heartbeat(timeout_s=5.0) == [True, True]
            fleet._shards[0]._proc.kill()
            fleet._shards[0]._proc.wait(timeout=10)
            assert fleet.heartbeat(timeout_s=2.0) == [False, True]
            assert fleet.restart_dead_workers() == [0]
            assert fleet.heartbeat(timeout_s=5.0) == [True, True]
            assert "a" in fleet  # state restored, not a blank respawn

    def test_fixed_endpoint_in_use_is_refused_on_every_growth_path(self, model):
        """A second shard dialing a live worker's fixed URL would hang in
        ``init``: construction, ``rebalance`` and ``add_worker`` refuse
        it before dialing, and the fleet is left as it was."""
        spare = WorkerSpec(url="tcp://127.0.0.1:0", model=model, spawn=True).resolve(0)
        spare._drop_link()  # free the listener: the fleet dials it next
        spec = WorkerSpec(url=spare.url, model=model, call_timeout_s=3.0)
        with pytest.raises(ValueError, match="endpoint"):
            ShardedFleet(2, spec=spec)
        with ShardedFleet(1, spec=spec) as fleet:
            fleet.register_cell("a")
            with pytest.raises(ValueError, match="endpoint"):
                fleet.rebalance(2)
            with pytest.raises(ValueError, match="endpoint"):
                fleet.add_worker(spare.url)
            assert fleet.n_shards == 1
            assert "a" in fleet
        spare.close()

    def test_add_worker_by_url_migrates_cells(self, model):
        """The daemon registration path: growing the fleet by a bare
        URL reuses the spec template and migrates ~1/n of the cells."""
        spare = WorkerSpec(url="tcp://127.0.0.1:0", model=model, spawn=True).resolve(0)
        spare._drop_link()  # free the listener: the fleet dials it next
        fleet = ShardedFleet(
            2, spec=WorkerSpec(url="tcp://127.0.0.1:0", model=model, spawn=True, name="g{shard}")
        )
        with fleet:
            ids = [f"c{k}" for k in range(20)]
            for cid in ids:
                fleet.register_cell(cid)
            socs = {cid: fleet.cell(cid).soc for cid in ids}
            index = fleet.add_worker(spare.url)
            assert index == 2 and fleet.n_shards == 3
            assert sum(fleet.shard_sizes()) == len(ids)
            assert fleet.shard_sizes()[index] > 0  # rendezvous moved some cells over
            for cid in ids:
                assert fleet.cell(cid).soc == socs[cid]
        spare.close()

    def test_rebalance_after_add_worker_grows_from_the_spec(self, model):
        """A worker added by URL does not become the template: growing
        afterwards still builds ``pipe://`` shards from the fleet's spec
        instead of dialing the added worker's fixed address again."""
        spare = WorkerSpec(url="tcp://127.0.0.1:0", model=model, spawn=True).resolve(0)
        spare._drop_link()  # free the listener: the fleet dials it next
        spec = WorkerSpec(url="pipe://", model=model, call_timeout_s=30.0)
        with ShardedFleet(1, spec=spec) as fleet:
            ids = [f"c{k}" for k in range(10)]
            for cid in ids:
                fleet.register_cell(cid)
            fleet.estimate(ids, np.linspace(3.2, 4.0, len(ids)), 1.0, 25.0)
            socs = {cid: fleet.cell(cid).soc for cid in ids}
            assert fleet.add_worker(spare.url) == 1
            fleet.rebalance(3)
            assert fleet.n_shards == 3
            assert fleet._shards[2].url == "pipe://"
            assert fleet.spec is spec
            for cid in ids:
                assert fleet.cell(cid).soc == socs[cid]
        spare.close()
