"""One conformance suite for the :class:`~repro.serve.engine.Fleet` contract.

A journaled engine, two in-process shards, two journaled ``pipe://``
workers and a daemon behind a :class:`SocClient` each answer what one
in-process :class:`FleetEngine` oracle answers: values to 1e-9, cell
state and errors.  Durable backends resume bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TwoBranchSoCNet
from repro.serve import (
    Fleet,
    FleetEngine,
    ModelRegistry,
    ShardedFleet,
    SocClient,
    SocDaemon,
    StateJournal,
    WorkerSpec,
    generate_fleet,
)

STEP_S = 120.0
IDS = [f"c{k}" for k in range(12)]


class ClientFleet:
    """A :class:`SocClient` behind the batched fleet API, one request per row.

    The daemon's batcher stamps ``last_seen_s`` with its clock, so each
    call pins that clock to ``now_s``.
    """

    def __init__(self, daemon: SocDaemon):
        self.daemon = daemon
        self.client = SocClient(daemon.url)
        self.registry = daemon.engine.registry

    def __getattr__(self, name):
        return getattr(self.client, name)

    def __len__(self):
        return len(self.client)

    def __contains__(self, cell_id):
        return cell_id in self.client

    def estimate(self, cell_ids, voltage, current, temp_c, now_s=None):
        return self._per_row(self.client.estimate, cell_ids, (voltage, current, temp_c), now_s)

    def predict(self, cell_ids, current_avg, temp_avg_c, horizon_s, soc_now=None, commit=False, now_s=None):
        if soc_now is not None or commit:
            raise NotImplementedError("the daemon's predict anchors on the stored SoC and never commits")
        return self._per_row(self.client.predict, cell_ids, (current_avg, temp_avg_c, horizon_s), now_s)

    def rollout_fleet(self, assignments, step_s, step_hook=None):
        return self.client.rollout(assignments, step_s)

    def resume_rollout_fleet(self, assignments, step_s, step_hook=None):
        raise NotImplementedError("the daemon serves no resume op")

    def heartbeat(self, timeout_s=2.0):
        return self.client.heartbeat()

    def restart_dead_workers(self):
        return []  # the daemon's control loop heals its own workers

    def close(self):
        self.client.close()
        self.daemon.stop()

    def _per_row(self, call, cell_ids, columns, now_s):
        self.daemon.gateway.batcher.clock = lambda: now_s
        n = len(cell_ids)
        rows = zip(*(np.broadcast_to(np.asarray(c, dtype=np.float64), (n,)).tolist() for c in columns))
        return np.array([call(cid, *row) for cid, row in zip(cell_ids, rows)])


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(ModelConfig(hidden=(8,)), rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def registry(tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"))
    for k, chemistry in enumerate(("nmc", "lfp")):
        net = TwoBranchSoCNet(ModelConfig(hidden=(8,)), rng=np.random.default_rng(10 + k))
        registry.publish(chemistry, net, chemistry=chemistry)
    return registry


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        10, seed=7, ambient_temps_c=(25.0,), c_rates=(1.0, 2.0), protocols=("discharge",), max_time_s=1800.0
    )


@pytest.fixture()
def oracle(model, registry):
    return FleetEngine(default_model=model, registry=registry)


@pytest.fixture(params=("engine", "sharded", "pipe", "client"))
def backend(request, model, registry, tmp_path):
    if request.param == "engine":
        journal = StateJournal(tmp_path / "e.journal")
        fleet = FleetEngine(default_model=model, registry=registry, journal=journal)
    elif request.param == "sharded":
        fleet = ShardedFleet(2, registry=registry, spec=WorkerSpec(model=model, registry=registry))
    elif request.param == "pipe":
        journal = str(tmp_path / "s{shard}.journal")
        spec = WorkerSpec(url="pipe://", model=model, registry=registry, journal=journal)
        fleet = ShardedFleet(2, registry=registry, spec=spec)
    else:
        engine = FleetEngine(default_model=model, registry=registry)
        fleet = ClientFleet(SocDaemon(engine, "tcp://127.0.0.1:0", max_batch=1, control_interval_s=0).start())
    yield fleet
    fleet.close()
    if request.param == "engine":
        fleet.journal.close()


def _served(backend, oracle, call):
    """``call`` on both sides: the backend answers what the oracle does, to 1e-9."""
    np.testing.assert_allclose(call(backend), call(oracle), atol=1e-9, rtol=0)


def _assert_same_cells(backend, oracle):
    """Same cells, routing and counters; SoCs to 1e-9."""
    got, want = (sorted(dataclasses.astuple(s) for s in f.cells()) for f in (backend, oracle))
    assert [s[:3] + s[4:] for s in got] == [s[:3] + s[4:] for s in want]
    _served(got, want, lambda states: np.array([s[3] for s in states], dtype=np.float64))
    assert len(backend) == len(oracle)


def _assert_same_rollout(got, want, exact=False):
    assert list(got) == list(want)
    for cid, result in want.items():
        np.testing.assert_array_equal(got[cid].time_s, result.time_s)
        np.testing.assert_allclose(got[cid].soc_pred, result.soc_pred, atol=0 if exact else 1e-9, rtol=0)


# ----------------------------------------------------------------------
def test_is_a_fleet_with_live_workers(backend):
    assert isinstance(backend, Fleet)
    health = backend.worker_health()
    assert all(health)
    assert backend.heartbeat(timeout_s=5.0) == health
    assert backend.restart_dead_workers() == []
    assert backend.drift_events() == []
    assert backend.metrics_snapshot() is None or isinstance(backend.metrics_snapshot(), dict)


def test_estimate_and_predict_match_the_oracle(backend, oracle):
    for f in (backend, oracle):
        for k, cid in enumerate(IDS):
            f.register_cell(cid, chemistry=("nmc", "lfp", None)[k % 3])
        f.register_cell("pinned", model_name="lfp")
    _assert_same_cells(backend, oracle)
    v, i = np.linspace(3.2, 4.0, len(IDS)), np.linspace(-2.0, 3.0, len(IDS))
    _served(backend, oracle, lambda f: f.estimate(IDS, v, i, 25.0, now_s=1.0))
    _served(backend, oracle, lambda f: f.predict(IDS[::2], 2.0, 25.0, 600.0, now_s=2.0))
    for f in (backend, oracle):
        assert f.reroute_cell(IDS[0], model_name="lfp").model_key == "lfp"
    _served(backend, oracle, lambda f: f.estimate(IDS[:1], 3.7, 1.0, 25.0, now_s=3.0))
    _assert_same_cells(backend, oracle)
    if not isinstance(backend, ClientFleet):
        soc = np.linspace(0.2, 0.9, len(IDS))
        what_if = dict(soc_now=soc, commit=True, now_s=4.0)
        _served(backend, oracle, lambda f: f.predict(IDS, 1.5, 20.0, 300.0, **what_if))
        _assert_same_cells(backend, oracle)


def test_rollout_matches_the_oracle(backend, oracle, fleet):
    for f in (backend, oracle):
        f.register_cell("bystander", chemistry="nmc")
    got, want = (f.rollout_fleet(fleet.assignments(), STEP_S) for f in (backend, oracle))
    _assert_same_rollout(got, want)
    _assert_same_cells(backend, oracle)


def test_errors_match_the_oracle(backend, oracle):
    for f in (backend, oracle):
        f.register_cell("a", chemistry="nmc")
        for call in (f.cell, f.deregister_cell, f.reroute_cell):
            with pytest.raises(KeyError, match="unknown cell 'ghost'"):
                call("ghost")
        with pytest.raises(KeyError, match="no-such-model"):
            f.reroute_cell("a", model_name="no-such-model")
        with pytest.raises(ValueError, match="contains NUL"):
            f.register_cell("bad\x00id")
        with pytest.raises(KeyError, match="unknown cell 'ghost'"):
            f.estimate(["ghost"], 3.7, 1.0, 25.0, now_s=1.0)
    _assert_same_cells(backend, oracle)
    assert backend.deregister_cell("a") == oracle.deregister_cell("a")
    assert "a" not in backend and len(backend) == 0


@pytest.mark.parametrize("backend", ("engine", "pipe"), indirect=True)
def test_resume_after_a_crash_is_bit_for_bit(backend, oracle, fleet):
    """Crash mid-rollout, heal, resume: the stitched trajectories equal
    the backend's uninterrupted run exactly and the oracle's to 1e-9."""
    pairs = fleet.assignments()
    uninterrupted = backend.rollout_fleet(pairs, STEP_S)
    oracle.rollout_fleet(pairs, STEP_S)
    want = oracle.rollout_fleet(pairs, STEP_S)  # as many completed rollouts as the backend's
    hook = None
    if isinstance(backend, FleetEngine):

        def hook(window):
            if window >= 3:
                raise RuntimeError("crash")

    else:
        backend._shards[0].crash_after_window(3)  # shards run in index order
    with pytest.raises(RuntimeError):  # a WorkerCrashError from a worker
        backend.rollout_fleet(pairs, STEP_S, step_hook=hook)
    assert backend.restart_dead_workers() == ([] if hook else [0])
    resumed = backend.resume_rollout_fleet(pairs, STEP_S)
    _assert_same_rollout(resumed, uninterrupted, exact=True)
    _assert_same_rollout(resumed, want)
    _assert_same_cells(backend, oracle)


@pytest.mark.parametrize("backend", ("sharded",), indirect=True)
def test_resume_without_journals_is_refused(backend, oracle, fleet):
    for f in (backend, oracle):
        with pytest.raises(ValueError, match="resume requires"):
            f.resume_rollout_fleet(fleet.assignments(), STEP_S)
    assert len(backend) == len(oracle) == 0
