"""End-to-end tests for ``repro-soc serve`` (:mod:`repro.serve.daemon`).

The acceptance property lives here: a daemon with socket workers
survives a worker being killed — /metrics and /healthz keep answering,
estimates keep serving — and the worker heals by dialing back in
(reattach by name), not by operator surgery.
"""

import json
import os
import subprocess
import sys
import time
import types
import urllib.request

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TwoBranchSoCNet
from repro.monitor.drift import DriftMonitor, PhysicsBounds
from repro.serve import (
    CanaryController,
    DaemonUnavailable,
    FleetEngine,
    ModelRegistry,
    ShardedFleet,
    SocClient,
    WorkerSpec,
)
from repro.serve import wire
from repro.serve.daemon import SocDaemon
from repro.serve.transport import connect

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def wait_for(pred, timeout_s=30.0, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if pred():
            return
        time.sleep(0.1)
    raise AssertionError(f"timed out waiting for {what}")


def _join_code(daemon_url: str, name: str) -> list[str]:
    """Command line for a standalone ``--connect`` worker process."""
    code = (
        "import sys\n"
        "from repro.serve.workers import run_worker_connect\n"
        f"sys.exit(run_worker_connect({daemon_url!r}, {name!r}, connect_timeout_s=10.0))\n"
    )
    return [sys.executable, "-c", code]


def _worker_env() -> dict:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture(scope="module")
def model():
    # a tiny net: daemon tests exercise plumbing, not accuracy
    return TwoBranchSoCNet(ModelConfig(hidden=(8,)), rng=np.random.default_rng(0))


# ----------------------------------------------------------------------
class TestDaemonE2E:
    def test_worker_kill_and_restart_by_reconnect(self, model, tmp_path):
        spec = WorkerSpec(
            url="tcp://127.0.0.1:0",
            model=model,
            spawn=True,
            journal=str(tmp_path / "fleet.journal"),
        )
        fleet = ShardedFleet(2, spec=spec)
        daemon = SocDaemon(
            fleet,
            "tcp://127.0.0.1:0",
            control_interval_s=0.2,
            exposition_port=0,
        )
        joiner = rejoiner = None
        with daemon, SocClient(daemon.url) as client:
            client.register_cell("cellA")
            client.register_cell("cellB")
            base = client.estimate("cellA", 3.7, 1.0, 25.0)

            # a standalone worker dials in and becomes shard 3
            joiner = subprocess.Popen(_join_code(daemon.url, "joiner"), env=_worker_env())
            wait_for(lambda: fleet.n_shards == 3, what="joiner attach")
            assert client.worker_health() == [True, True, True]
            assert client.estimate("cellA", 3.7, 1.0, 25.0) == base

            # kill it: the control loop's heartbeat flags the dead shard...
            joiner.kill()
            joiner.wait(timeout=10)
            wait_for(lambda: not all(client.worker_health()), what="death detection")

            # ...while the plane stays up: scrapes answer, traffic serves
            health = json.load(urllib.request.urlopen(daemon.exposition_url + "/healthz"))
            assert health["ok"] is True
            assert False in health["workers"]
            scrape = urllib.request.urlopen(daemon.exposition_url + "/metrics").read()
            assert b"gateway" in scrape
            assert client.estimate("cellA", 3.7, 1.0, 25.0) == base

            # restart-by-reconnect: same name, fresh process — the dead
            # shard heals in place instead of joining as new capacity
            rejoiner = subprocess.Popen(_join_code(daemon.url, "joiner"), env=_worker_env())
            wait_for(
                lambda: all(client.worker_health()) and fleet.n_shards == 3,
                what="reattach heal",
            )
            assert client.estimate("cellA", 3.7, 1.0, 25.0) == base

            client.shutdown_daemon()
            assert daemon.wait(timeout_s=10)
        for proc in (joiner, rejoiner):
            if proc is not None:
                proc.poll() is None and proc.kill()
                proc.wait(timeout=10)

    def test_add_worker_by_url_through_client(self, model):
        spec = WorkerSpec(url="tcp://127.0.0.1:0", model=model, spawn=True)
        fleet = ShardedFleet(2, spec=spec)
        spare = spec.resolve(0)
        spare._drop_link()  # free its listener for the daemon to dial
        daemon = SocDaemon(fleet, "tcp://127.0.0.1:0", control_interval_s=0)
        with daemon, SocClient(daemon.url) as client:
            client.register_cell("a")
            with pytest.raises(ValueError, match="URL string"):
                client.add_worker({"url": spare.url})
            index = client.add_worker(spare.url)
            assert index == 2
            assert client.worker_health() == [True, True, True]
        spare.close()

    def test_serve_client_example_runs(self):
        """``examples/serve_client.py`` runs end to end against the current API."""
        example = os.path.join(os.path.dirname(SRC_ROOT), "examples", "serve_client.py")
        done = subprocess.run(
            [sys.executable, example], env=_worker_env(), capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert "joined as shard 2" in done.stdout


# ----------------------------------------------------------------------
class TestDaemonClients:
    @pytest.fixture()
    def daemon(self, model):
        daemon = SocDaemon(
            FleetEngine(default_model=model), "tcp://127.0.0.1:0", control_interval_s=0
        )
        with daemon:
            yield daemon

    def test_hello_ping_and_stats(self, daemon):
        with SocClient(daemon.url) as client:
            hello = client.hello()
            assert hello["service"] == "repro-soc"
            assert "estimate" in hello["ops"]
            assert client.ping()
            stats = client.stats()
            assert stats["retries"] == 0 and stats["elapsed_s"] > 0

    def test_idle_connection_survives_the_accept_poll(self, daemon):
        """The idle wait must not poison the stream: a client that goes
        quiet for several poll intervals still gets served."""
        with SocClient(daemon.url) as client:
            client.register_cell("a")
            first = client.estimate("a", 3.7, 1.0, 25.0)
            time.sleep(0.8)  # > 3 poll intervals of 0.25s
            assert client.estimate("a", 3.7, 1.0, 25.0) == first

    def test_unknown_op_is_a_typed_error_on_a_usable_connection(self, daemon):
        transport = connect(daemon.url, timeout_s=5.0)
        try:
            reply = transport.request("format_disk", wire.call_meta(("/",)), timeout_s=5.0)
            assert reply.kind == "err" and reply.meta["type"] == "RuntimeError"
            assert "unknown daemon op 'format_disk'" in reply.meta["message"]
            assert transport.request("ping", wire.call_meta(), timeout_s=5.0).meta == {"value": "pong"}
        finally:
            transport.close()

    def test_malformed_body_drops_only_that_connection(self, daemon):
        with SocClient(daemon.url) as bystander:
            bystander.register_cell("a")
            bad = connect(daemon.url, timeout_s=5.0)
            try:
                body = b"\xb2\x03" + b"\xff" * 12  # a meta length far past the body
                bad.send_chunks([wire.frame_header(len(body)), body])
                assert bad.recv_frame(timeout_s=5.0) is None  # hung up, no reply
            finally:
                bad.close()
            assert "a" in bystander  # the open connection is untouched
        with SocClient(daemon.url) as fresh:  # and the daemon still accepts new ones
            assert fresh.ping() and "a" in fresh

    def test_client_reconnects_after_transport_loss(self, daemon):
        with SocClient(daemon.url) as client:
            client.register_cell("a")
            client._transport.close()  # simulate a dropped connection
            assert "a" in client  # the next call redials

    def test_stopped_daemon_raises_daemon_unavailable(self, model):
        daemon = SocDaemon(
            FleetEngine(default_model=model), "tcp://127.0.0.1:0", control_interval_s=0
        )
        daemon.start()
        client = SocClient(daemon.url)
        assert client.ping()
        daemon.stop()
        assert client.ping() is False  # ping degrades to False, never raises
        with pytest.raises(DaemonUnavailable):
            client.hello()
        client.close()

    def test_registry_ops_without_a_registry_are_runtime_errors(self, daemon, model):
        with SocClient(daemon.url) as client:
            with pytest.raises(ValueError, match="requires a registry"):
                client.register_cell("a", model_name="canary-v2")
            with pytest.raises(RuntimeError, match="no model registry"):
                client.publish("serve", model)
            with pytest.raises(RuntimeError, match="no model registry"):
                client.promote("serve")
            with pytest.raises(RuntimeError, match="no model registry"):
                client.rollback("serve")

    def test_inbound_worker_dropped_by_single_engine_daemon(self, daemon):
        """A worker_hello on a daemon over one FleetEngine (it cannot
        provision workers) is acked (protocol) and then dropped, never
        half-adopted."""
        transport = connect(daemon.url, timeout_s=5.0)
        try:
            transport.send_v2("worker_hello", wire.call_meta(("stray",)), [])
            assert transport.recv_frame(timeout_s=5.0) == wire.V2Frame("ok", {"value": "attach"}, [])
            # the attach fails daemon-side (not a ShardedFleet): it hangs up
            assert transport.recv_frame(timeout_s=5.0) is None
        finally:
            transport.close()
        assert len(daemon.engine) == 0  # nothing was adopted

    def test_single_engine_daemon_has_no_workers_and_closes_its_engine(self, model):
        """Over one FleetEngine the worker ops answer empty, growth is
        refused with its documented text, and stop() closes the engine."""
        engine = FleetEngine(default_model=model)
        closed = []
        engine.close = lambda: closed.append(True)
        daemon = SocDaemon(engine, "tcp://127.0.0.1:0", control_interval_s=0)
        with daemon, SocClient(daemon.url) as client:
            assert client.worker_health() == []
            assert client.heartbeat() == []
            refused = r"^engine does not accept workers \(not a ShardedFleet\)$"
            with pytest.raises(RuntimeError, match=refused):
                client.add_worker("tcp://127.0.0.1:9")
            assert daemon.control_tick()["restarted"] == []
            assert closed == []
        assert closed == [True]


# ----------------------------------------------------------------------
class TestDaemonRegistryOps:
    """Model-lifecycle ops over the wire: publish / promote / rollback /
    drift_events — the surface a remote retrain pipeline drives."""

    @pytest.fixture()
    def candidate(self):
        return TwoBranchSoCNet(ModelConfig(hidden=(8,)), rng=np.random.default_rng(1))

    def _registry_daemon(self, model, tmp_path, drift=None, autopilot=None):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("serve", model)
        engine = FleetEngine(registry=registry, drift=drift)
        return (
            SocDaemon(engine, "tcp://127.0.0.1:0", control_interval_s=0, autopilot=autopilot),
            registry,
            engine,
        )

    def test_publish_promote_rollback_roundtrip(self, model, candidate, tmp_path):
        daemon, registry, _ = self._registry_daemon(model, tmp_path)
        with daemon, SocClient(daemon.url) as client:
            # the shipped weights land in the registry verbatim
            assert client.publish("serve", candidate, chemistry="nmc") == 2
            assert registry.channels("serve") == {"stable": 2}
            assert registry.describe("serve").chemistry == "nmc"
            restored = registry.load("serve")
            for key, value in candidate.state_dict().items():
                np.testing.assert_array_equal(restored.state_dict()[key], value)

            assert client.publish("serve", candidate, channel="canary") == 3
            assert registry.channels("serve") == {"stable": 2, "canary": 3}
            assert client.promote("serve") == 3
            assert registry.channels("serve") == {"stable": 3}

            assert client.publish("serve", candidate, channel="canary") == 4
            assert client.rollback("serve") == 3
            assert registry.channels("serve") == {"stable": 3}

    def test_canary_publish_routes_through_the_autopilot_controller(
        self, model, candidate, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("serve", model)
        engine = FleetEngine(registry=registry)
        controller = CanaryController(engine, registry, "serve", fraction=1.0)
        autopilot = types.SimpleNamespace(controller=controller)
        daemon = SocDaemon(engine, "tcp://127.0.0.1:0", control_interval_s=0, autopilot=autopilot)
        with daemon, SocClient(daemon.url) as client:
            client.register_cell("a", model_name="serve")
            version = client.publish("serve", candidate, channel="canary")
            assert version == 2
            # not just a channel flip: the controller staged a *steered*
            # canary with the traffic slice pinned
            assert controller.active and controller.candidate_version == 2
            assert controller.canary_cells() == ["a"]
            with pytest.raises(ValueError, match="already active"):
                client.publish("serve", candidate, channel="canary")
            # promote routes through the controller too: slice unpinned
            assert client.promote("serve") == 2
            assert not controller.active
            assert registry.channels("serve") == {"stable": 2}

            assert client.publish("serve", candidate, channel="canary") == 3
            assert client.rollback("serve") == 2
            assert not controller.active and registry.channels("serve") == {"stable": 2}

    def test_canary_publish_for_other_models_skips_the_controller(
        self, model, candidate, tmp_path
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("serve", model)
        registry.publish("aux", model)
        engine = FleetEngine(registry=registry)
        controller = CanaryController(engine, registry, "serve", fraction=1.0)
        autopilot = types.SimpleNamespace(controller=controller)
        daemon = SocDaemon(engine, "tcp://127.0.0.1:0", control_interval_s=0, autopilot=autopilot)
        with daemon, SocClient(daemon.url) as client:
            assert client.publish("aux", candidate, channel="canary") == 2
            assert not controller.active  # steers "serve", not "aux"
            assert registry.channels("aux") == {"stable": 1, "canary": 2}

    def test_drift_events_travel_the_wire(self, model, tmp_path):
        # impossible bounds: every estimate is a violation
        monitor = DriftMonitor(
            page_hinkley=None, cusum=None, bounds=PhysicsBounds(soc_min=1.5, soc_max=2.0)
        )
        daemon, _, _ = self._registry_daemon(model, tmp_path, drift=monitor)
        with daemon, SocClient(daemon.url) as client:
            client.register_cell("a", model_name="serve")
            assert client.drift_events() == []
            client.estimate("a", 3.7, 1.0, 25.0)
            events = client.drift_events()
            assert events and all(event.cell_id == "a" for event in events)
            assert {event.kind for event in events} == {"soc_bounds"}

    def test_drift_events_empty_without_a_monitor(self, model, tmp_path):
        daemon, _, _ = self._registry_daemon(model, tmp_path)
        with daemon, SocClient(daemon.url) as client:
            client.register_cell("a", model_name="serve")
            client.estimate("a", 3.7, 1.0, 25.0)
            assert client.drift_events() == []
