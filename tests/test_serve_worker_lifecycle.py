"""One lifecycle suite over every way a :class:`ShardWorker` peer is launched.

A ``pipe://`` child, an ``shm://`` child, a spawned ``tcp://`` worker,
a ``unix://`` worker that is only dialed, and an inbound peer that
dialed us all go through the same checks: the engine API round trip,
engine errors crossing the wire with their type, crash detection (with
the exit code when we spawned the peer), the ``check_alive`` probe,
``restart()`` plus a bit-for-bit resume from the journal, and a
graceful ``close()``.
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile

import numpy as np
import pytest

from repro.core.config import ModelConfig
from repro.core.model import TwoBranchSoCNet
from repro.serve import FleetEngine, ShardWorker, WorkerCrashError, WorkerSpec, generate_fleet
from repro.serve.transport import TransportListener

SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MODES = ("pipe", "shm", "tcp", "unix", "inbound")
SPAWNED = ("pipe", "shm", "tcp")  # modes where the client launches the peer itself

LISTEN = "import sys; from repro.serve.workers import run_worker; sys.exit(run_worker(sys.argv[1]))"
CONNECT = (
    "import sys; from repro.serve.workers import run_worker_connect; "
    "sys.exit(run_worker_connect(sys.argv[1], 'inbound', reconnect=False))"
)


def _python(code: str, *argv: str, stdout=None) -> subprocess.Popen:
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen([sys.executable, "-c", code, *argv], stdout=stdout, env=env)


class Launcher:
    """Opens a worker in one launch mode, then kills and revives its peer.

    ``unix`` and ``inbound`` peers are processes the test starts itself
    (a listening worker to dial, a ``--connect`` worker to accept);
    the other modes leave launching to :class:`ShardWorker`.
    """

    def __init__(self, mode: str, workdir: str):
        self.mode = mode
        self.workdir = workdir
        self.peer: subprocess.Popen | None = None
        self.listener: TransportListener | None = None
        self.worker: ShardWorker | None = None

    def open(self, **fields) -> ShardWorker:
        """Open a worker described by ``WorkerSpec(**fields)`` in this mode."""
        if self.mode in ("pipe", "shm"):
            self.worker = ShardWorker(WorkerSpec(url=f"{self.mode}://", name=self.mode, **fields))
        elif self.mode == "tcp":
            spec = WorkerSpec(url="tcp://127.0.0.1:0", spawn=True, name=self.mode, **fields)
            self.worker = ShardWorker(spec)
        elif self.mode == "unix":
            url = self._start_listening_peer()
            self.worker = ShardWorker(WorkerSpec(url=url, name=self.mode, **fields))
        else:
            self.listener = TransportListener("tcp://127.0.0.1:0")
            transport = self._accept_inbound()
            self.worker = ShardWorker(WorkerSpec(**fields), self.mode, transport=transport)
        return self.worker

    def peer_process(self) -> subprocess.Popen:
        return self.worker._proc if self.mode in SPAWNED else self.peer

    def kill(self) -> None:
        proc = self.peer_process()
        proc.kill()
        proc.wait(timeout=10)

    def revive(self) -> None:
        """Bring the peer back the way an operator (or supervisor) would."""
        if self.mode == "inbound":
            with pytest.raises(WorkerCrashError, match="dial back in"):
                self.worker.restart()
            self.peer.wait(timeout=10)
            self.worker.attach(self._accept_inbound())
            return
        if self.mode == "unix":
            self.peer.wait(timeout=10)
            self._start_listening_peer()
        self.worker.restart()

    def cleanup(self) -> None:
        if self.worker is not None:
            self.worker.close()
        if self.peer is not None:
            if self.peer.poll() is None:
                self.peer.kill()
            self.peer.wait(timeout=10)
            if self.peer.stdout is not None:
                self.peer.stdout.close()
        if self.listener is not None:
            self.listener.close()

    def _start_listening_peer(self) -> str:
        if self.peer is not None and self.peer.stdout is not None:
            self.peer.stdout.close()
        url = f"unix://{self.workdir}/worker.sock"
        self.peer = _python(LISTEN, url, stdout=subprocess.PIPE)
        assert self.peer.stdout.readline().startswith(b"worker listening on ")
        return url

    def _accept_inbound(self):
        self.peer = _python(CONNECT, str(self.listener.url))
        transport = self.listener.accept(timeout_s=30.0)
        assert transport.recv_frame(timeout_s=30.0).kind == "worker_hello"
        transport.reply(lambda: "attach")
        return transport


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(ModelConfig(hidden=(8,)), rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(
        8, seed=7, ambient_temps_c=(25.0,), c_rates=(1.0, 2.0), protocols=("discharge",), max_time_s=1800.0
    )


@pytest.fixture(params=MODES)
def launch(request):
    # a short directory: unix socket paths are capped near 100 bytes
    workdir = tempfile.mkdtemp(prefix="soc-")
    launcher = Launcher(request.param, workdir)
    try:
        yield launcher
    finally:
        launcher.cleanup()
        shutil.rmtree(workdir, ignore_errors=True)


# ----------------------------------------------------------------------
def test_api_round_trip(launch, model, small_fleet):
    local = FleetEngine(default_model=model)
    worker = launch.open(model=model)
    for engine in (local, worker):
        engine.register_cell("a", chemistry="nmc")
        engine.register_cell("b", chemistry="lfp")
    assert len(worker) == 2
    assert "a" in worker and "ghost" not in worker
    args = (["a", "b"], [3.7, 3.6], [1.0, 2.0], 25.0)
    np.testing.assert_array_equal(worker.estimate(*args), local.estimate(*args))
    args = (["a", "b"], 2.0, 25.0, 120.0)
    np.testing.assert_array_equal(worker.predict(*args), local.predict(*args))
    assert worker.cell("a").soc == local.cell("a").soc
    assert {s.cell_id for s in worker.cells()} == {"a", "b"}
    assert worker.deregister_cell("b").cell_id == "b"
    assert len(worker) == 1

    pairs = small_fleet.assignments()
    got = worker.rollout_fleet(pairs, 120.0)
    ref = FleetEngine(default_model=model).rollout_fleet(pairs, 120.0)
    for cell_id, _ in pairs:
        np.testing.assert_array_equal(got[cell_id].soc_pred, ref[cell_id].soc_pred)
        np.testing.assert_array_equal(got[cell_id].time_s, ref[cell_id].time_s)


def test_engine_errors_cross_the_wire_with_their_type(launch, model, small_fleet):
    worker = launch.open(model=model)
    with pytest.raises(KeyError, match="ghost"):
        worker.cell("ghost")
    # planned worker-side: the cycle is far shorter than one step
    with pytest.raises(ValueError, match="shorter than a single rollout step"):
        worker.rollout_fleet(small_fleet.assignments()[:1], 1e9)
    with pytest.raises(ValueError, match="process boundary"):
        worker.rollout_fleet([], 60.0, step_hook=lambda w: None)
    # engine errors leave the worker serving
    assert worker.alive and worker.check_alive(timeout_s=5.0)


def test_kill_gives_crash_error(launch, model):
    worker = launch.open(model=model)
    worker.register_cell("a")
    launch.kill()
    with pytest.raises(WorkerCrashError, match="died during 'estimate'") as info:
        worker.estimate(["a"], 3.7, 1.0, 25.0)
    if launch.mode in SPAWNED:
        assert f"exit code {-signal.SIGKILL}" in str(info.value)
        assert worker.exit_code == -signal.SIGKILL
    else:
        assert worker.exit_code is None  # not observable for a peer we did not spawn
    assert not worker.alive
    with pytest.raises(WorkerCrashError, match="not running"):
        worker.cell("a")


def test_check_alive_probes_the_peer(launch, model):
    worker = launch.open(model=model)
    assert worker.check_alive(timeout_s=5.0) is True
    with pytest.raises(RuntimeError, match="still running"):
        worker.restart()
    launch.kill()
    assert worker.check_alive(timeout_s=2.0) is False
    assert not worker.alive


def test_restart_resumes_rollout_bit_for_bit(launch, model, small_fleet):
    pairs = small_fleet.assignments()
    ref = FleetEngine(default_model=model).rollout_fleet(pairs, 120.0)
    worker = launch.open(model=model, journal=os.path.join(launch.workdir, "w.journal"))
    assert worker.durable
    worker.crash_after_window(3)
    with pytest.raises(WorkerCrashError) as info:
        worker.rollout_fleet(pairs, 120.0)
    if launch.mode in SPAWNED:
        assert "exit code 86" in str(info.value)
    launch.revive()
    assert len(worker) == len(small_fleet)  # cells restored before serving
    resumed = worker.resume_rollout_fleet(pairs, 120.0)
    for cell_id, _ in pairs:
        np.testing.assert_array_equal(resumed[cell_id].soc_pred, ref[cell_id].soc_pred)


def test_close_returns_zero(launch, model):
    worker = launch.open(model=model)
    worker.register_cell("a")
    assert worker.close() == 0
    assert not worker.alive
    assert worker.close() == 0  # idempotent
    with pytest.raises(WorkerCrashError, match="not running"):
        worker.cell("a")
    if launch.peer is not None:
        assert launch.peer.wait(timeout=10) == 0  # the drained peer exited cleanly
