"""The layer ledger: the same inputs through each layer's public API in turn.

Layers, bottom up: the compiled kernel, the engine, the batcher, the
gateway, in-process shards, and workers over ``pipe://``, ``shm://``
and ``tcp://127.0.0.1``.  Each entry is microseconds per call (median
of repeated timed loops); ``*.overhead_x`` is a layer's time over the
layer below it on the same 64-row batch.  The 64-row batch spans all
four models, so the engine serves it through the fused kernel, which is
therefore the kernel it is compared with.  The wire codec, the
transports (2 MB echo), the journal and the monitor are timed the same
way.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.kernels import CompiledTwoBranchKernel, FusedTwoBranchKernel
from repro.monitor.drift import DriftMonitor
from repro.monitor.metrics import MetricsRegistry
from repro.serve import wire
from repro.serve.engine import FleetEngine
from repro.serve.gateway import SocGateway
from repro.serve.persistence import StateJournal
from repro.serve.registry import ModelRegistry
from repro.serve.scheduler import MicroBatcher
from repro.serve.sharding import ShardedFleet
from repro.serve.transport import DEFAULT_SHM_SLAB_BYTES, DEFAULT_SHM_SLOTS, PipeTransport, ShmRing
from repro.serve.workers import WorkerSpec

import common
from common import CELL_NAMES, STEP_S, Inputs
from proxies import Meter, Timed

SIZES = (1, 64, 1024)
ECHO_BYTES = 2 * 2**20
REPS = 5


class Clock:
    """Per-call timing with a fixed time budget per entry."""

    def __init__(self, budget_s: float):
        self.budget_s = budget_s

    def _loops(self, fn) -> int:
        n = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            if time.perf_counter() - t0 >= self.budget_s / (2 * REPS) or n >= 1 << 16:
                return n
            n *= 2

    def us(self, fn) -> float:
        """Median over ``REPS`` timed loops of ``fn()``, in µs per call."""
        fn()
        n = self._loops(fn)
        samples = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            samples.append((time.perf_counter() - t0) / n)
        return statistics.median(samples) * 1e6

    @staticmethod
    def each_us(fn, reps: int = 3) -> float:
        """Median of single timed calls (for calls of many milliseconds)."""
        samples = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples) * 1e6

    async def aus(self, make) -> float:
        """Async twin of :meth:`us`: ``make()`` returns an awaitable."""
        await make()
        n = 1
        while True:
            t0 = time.perf_counter()
            for _ in range(n):
                await make()
            if time.perf_counter() - t0 >= self.budget_s / (2 * REPS) or n >= 1 << 14:
                break
            n *= 2
        samples = []
        for _ in range(REPS):
            t0 = time.perf_counter()
            for _ in range(n):
                await make()
            samples.append((time.perf_counter() - t0) / n)
        return statistics.median(samples) * 1e6


class Batch:
    """One ledger batch: the first ``size`` cells with their first readings."""

    def __init__(self, inputs: Inputs, size: int):
        self.cells = list(range(min(size, inputs.n)))
        self.ids = [inputs.ids[k] for k in self.cells]
        rows = inputs.first[self.cells]
        self.v, self.i, self.t = (np.ascontiguousarray(rows[:, c]) for c in range(3))
        self.h = np.full(len(self.cells), STEP_S)
        self.soc = np.linspace(0.2, 0.9, len(self.cells))
        self.floats = list(zip(self.ids, self.v.tolist(), self.i.tolist(), self.t.tolist()))

    def estimate(self, backend):
        return backend.estimate(self.ids, self.v, self.i, self.t)

    def predict(self, backend):
        return backend.predict(self.ids, self.i, self.t, self.h)

    def through_batcher(self, batcher: MicroBatcher) -> None:
        for cid, v, i, t in self.floats:
            batcher.submit_estimate(cid, v, i, t)
        done = batcher.flush()
        if len(done) != len(self.ids) or not all(c.ok for c in done):
            raise RuntimeError("ledger batch did not complete through the batcher")

    async def through_gateway(self, gateway: SocGateway) -> None:
        done = await asyncio.gather(*(gateway.estimate(cid, v, i, t) for cid, v, i, t in self.floats))
        if not all(c.ok for c in done):
            raise RuntimeError("ledger batch did not complete through the gateway")


def _ready(backend, inputs: Inputs, cells) -> None:
    common.register(backend, inputs, cells)
    common.seed_estimates(backend, inputs, cells)


def run_ledger(inputs: Inputs, workdir: Path, budget_s: float) -> dict[str, float]:
    """Time every layer; returns the ledger's per-layer metrics."""
    clock = Clock(budget_s)
    b = {size: Batch(inputs, size) for size in SIZES}
    b64 = b[64]
    root = inputs.registry_root
    out: dict[str, float] = {}

    # -- core/kernels ------------------------------------------------------
    registry = ModelRegistry(root)
    kernels = {name: CompiledTwoBranchKernel(registry.load(name)) for name in CELL_NAMES}
    one = kernels[CELL_NAMES[0]]
    for size in SIZES:
        out[f"kernel.estimate_us.b{size}"] = clock.us(lambda s=size: one.estimate_soc(b[s].v, b[s].i, b[s].t))
    out["kernel.predict_us.b64"] = clock.us(lambda: one.predict_soc(b64.soc, b64.i, b64.t, b64.h))
    order = sorted(set(inputs.model_of[k] for k in b64.cells))
    fused = FusedTwoBranchKernel([kernels[name] for name in order])
    member = np.array([order.index(inputs.model_of[k]) for k in b64.cells])
    out["kernel.fused_estimate_us.b64"] = clock.us(lambda: fused.estimate_soc(b64.v, b64.i, b64.t, member))

    # -- serve/engine --------------------------------------------------------
    engine = FleetEngine(registry=ModelRegistry(root))
    _ready(engine, inputs, range(inputs.n))
    for size in SIZES:
        out[f"engine.estimate_us.b{size}"] = clock.us(lambda s=size: b[s].estimate(engine))
    out["engine.predict_us.b64"] = clock.us(lambda: b64.predict(engine))
    out["engine.overhead_x.b64"] = out["engine.estimate_us.b64"] / out["kernel.fused_estimate_us.b64"]
    engine.rollout_fleet(inputs.pairs, STEP_S)
    rollout_us = clock.each_us(lambda: engine.rollout_fleet(inputs.pairs, STEP_S), reps=REPS)
    out["engine.rollout_ms"] = rollout_us / 1e3

    # -- serve/scheduler and serve/gateway -----------------------------------
    batcher = MicroBatcher(engine, max_batch=64, max_delay_s=60.0)
    out["batcher.flush_us.b64"] = clock.us(lambda: b64.through_batcher(batcher))
    out["batcher.overhead_x.b64"] = out["batcher.flush_us.b64"] / out["engine.estimate_us.b64"]

    async def gateway_us() -> float:
        async with SocGateway(engine, max_batch=64, max_delay_s=60.0) as gateway:
            return await clock.aus(lambda: b64.through_gateway(gateway))

    out["gateway.req_us.b64"] = asyncio.run(gateway_us())
    out["gateway.overhead_x.b64"] = out["gateway.req_us.b64"] / out["batcher.flush_us.b64"]

    # -- serve/sharding (in-process shards) -----------------------------------
    shards = ShardedFleet(2, registry=ModelRegistry(root))
    _ready(shards, inputs, b64.cells)
    out["sharding.overhead_x.b64"] = clock.us(lambda: b64.estimate(shards)) / out["engine.estimate_us.b64"]

    # -- monitor -------------------------------------------------------------
    metrics = MetricsRegistry()
    monitored = FleetEngine(registry=ModelRegistry(root), metrics=metrics, drift=DriftMonitor(metrics=metrics))
    _ready(monitored, inputs, b64.cells)
    out["monitor.overhead_x.b64"] = clock.us(lambda: b64.estimate(monitored)) / out["engine.estimate_us.b64"]

    # -- serve/persistence ---------------------------------------------------
    path = workdir / "ledger-journal.jsonl"
    journal = StateJournal(path)
    try:
        durable = FleetEngine(registry=ModelRegistry(root), journal=journal)
        _ready(durable, inputs, range(inputs.n))
        size0 = path.stat().st_size
        first = Clock.each_us(lambda: durable.rollout_fleet(inputs.pairs, STEP_S), reps=1)
        out["journal.bytes_per_cell_step"] = (path.stat().st_size - size0) / inputs.cell_steps
        again = Clock.each_us(lambda: durable.rollout_fleet(inputs.pairs, STEP_S), reps=2)
        out["journal.rollout_overhead_x"] = statistics.median([first, again]) / rollout_us
        states = [durable.cell(cid) for cid in b64.ids]
        out["journal.append_us.b64"] = clock.us(lambda: journal.append_cells(states))
    finally:
        journal.close()

    # -- serve/wire ----------------------------------------------------------
    payload = [wire.encode_str_list(b64.ids), b64.v, b64.i, b64.t]

    def codec() -> None:
        body = b"".join(wire.encode_v2("estimate", {"n": 64, "now_s": None}, payload))
        frame = wire.decode_body(body[wire.LENGTH_PREFIX_SIZE :])
        wire.decode_str_list(frame.arrays[0], 64)

    out["wire.codec_us.b64"] = clock.us(codec)

    # -- serve/transport -----------------------------------------------------
    for scheme in ("pipe", "shm"):
        out[f"transport.echo_us.2mb.{scheme}"] = _echo_us(clock, workdir, shm=(scheme == "shm"))

    # -- serve/workers -------------------------------------------------------
    out.update(_worker_entries(clock, inputs, b, out["engine.estimate_us.b64"]))
    return out


def _worker_entries(clock: Clock, inputs: Inputs, b: dict, engine_b64_us: float) -> dict[str, float]:
    out: dict[str, float] = {}
    b64 = b[64]
    registry = str(inputs.registry_root)
    pipe = WorkerSpec(url="pipe://", registry=registry).resolve(0)
    try:
        _ready(pipe, inputs, range(inputs.n))
        for size in SIZES:
            out[f"worker.estimate_us.b{size}.pipe"] = clock.us(lambda s=size: b[s].estimate(pipe))
    finally:
        pipe.close()
    out["worker.overhead_x.b64"] = out["worker.estimate_us.b64.pipe"] / engine_b64_us
    for scheme, spec in (
        ("shm", WorkerSpec(url="shm://", registry=registry)),
        ("tcp", WorkerSpec(url="tcp://127.0.0.1:0", spawn=True, registry=registry)),
    ):
        worker = spec.resolve(0)
        try:
            _ready(worker, inputs, b64.cells)
            out[f"worker.estimate_us.b64.{scheme}"] = clock.us(lambda w=worker: b64.estimate(w))
        finally:
            worker.close()
    # RPCs one 64-request batch costs on a two-worker pipe fleet, counted
    # at the fleet -> worker boundary; the inputs are fixed, so it repeats
    meter = Meter()
    fleet = ShardedFleet(2, spec=common.WrappingSpec(url="pipe://", registry=registry, wrap=lambda w: Timed(w, meter)))
    try:
        _ready(fleet, inputs, b64.cells)
        batcher = MicroBatcher(fleet, max_batch=64, max_delay_s=60.0)
        meter.reset()
        b64.through_batcher(batcher)
        out["worker.rpcs_per_batch"] = float(meter.n_calls)
    finally:
        fleet.close()
    return out


def _echo_us(clock: Clock, workdir: Path, shm: bool) -> float:
    """Round trip of one 2 MB array through an echo peer over pipes or shm rings."""
    env = dict(os.environ)
    src = str(Path(common.__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, str(Path(__file__).with_name("echo_peer.py"))]
    rings = None
    if shm:
        tag = f"echo-{os.getpid()}"
        rings = tuple(
            ShmRing(str(workdir / f"{tag}-{end}"), DEFAULT_SHM_SLOTS, DEFAULT_SHM_SLAB_BYTES, create=True)
            for end in ("req", "rep")
        )
        cmd += [rings[0].path, rings[1].path, str(DEFAULT_SHM_SLOTS), str(DEFAULT_SHM_SLAB_BYTES)]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
    transport = PipeTransport(proc.stdin, proc.stdout, peer="pipe://echo")
    if rings is not None:
        transport.attach_shm(tx=rings[0], rx=rings[1])
    data = np.arange(ECHO_BYTES // 8, dtype=np.float64)

    def echo() -> None:
        reply = transport.request_with(lambda t: t.send_v2("echo", {}, [data]))
        if reply.arrays[0].nbytes != ECHO_BYTES or reply.arrays[0][-1] != data[-1]:
            raise RuntimeError("echo peer returned a different payload")

    try:
        return clock.us(echo)
    finally:
        transport.close()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        for ring in rings or ():
            ring.close(unlink=True)
