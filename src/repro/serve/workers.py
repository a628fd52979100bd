"""Shard workers: a full :class:`~repro.serve.engine.FleetEngine` behind a transport.

:class:`~repro.serve.sharding.ShardedFleet` assumes nothing in-process
about its shard workers — placement is a pure hash, the journal
protocol is append-only files, and every worker call goes through the
engine serving API.  :class:`ShardWorker` cashes that in: one client
runs the engine API over the length-prefixed frame protocol
(:mod:`repro.serve.wire`) on any
:class:`~repro.serve.transport.Transport`.  The only thing that varies
is how the peer is launched, and the URL scheme decides it:

=====================  ===============================================
URL                    peer
=====================  ===============================================
``pipe://``            a child running :func:`worker_main` on its
                       stdin/stdout pipes
``shm://``             the same child; bulk array payloads ride a pair
                       of :class:`~repro.serve.transport.ShmRing`
                       rings, created fresh at every spawn
``tcp://host:port``,   ``spawn=True``: a child running
``unix:///path``       :func:`run_worker` on that address (port 0
                       picks one); otherwise a worker already
                       listening there (``repro-soc worker --listen``)
inbound                ``ShardWorker(spec, name, transport=...)``: a
                       worker that dialed us
                       (``repro-soc worker --connect``)
=====================  ===============================================

:class:`WorkerSpec` is the one description of a shard worker, and every
topology resolves from it, the in-process engine included:
``WorkerSpec(url=...).resolve(k)`` builds shard ``k``, and
``ShardWorker(spec, name, transport=...)`` wraps an inbound peer with
the same engine description.

Wire protocol (one reply per request, strictly in order; see
:mod:`repro.serve.wire` for the codec)::

    frame   := header body
    header  := 4-byte big-endian unsigned length of body
    body    := 0xB2 struct header + JSON meta + raw arrays
    request := V2Frame(op, {"args": [...], "kwargs": {...}}, [])  control ops
             | V2Frame(op, meta, arrays)                         bulk ops
    reply   := V2Frame("ok", {"value": ...}, [])                 control ops
             | V2Frame("ok", meta, arrays)                       bulk ops
             | V2Frame("err", {"type": ..., "message": ...}, [])

Control ops (init, registration, state migration, metrics, drift
events, shutdown) carry their arguments and results in the JSON meta;
the bulk inference messages (``estimate``/``predict``/
``rollout_fleet``/``resume_rollout_fleet``) carry theirs as raw array
payloads decoded with ``np.frombuffer``.  No message decodes to
anything but numbers, strings and the codec's closed set of tagged
types, whatever the peer sends.  The serving side is
:class:`WorkerEndpoint` — the one dispatch loop :func:`worker_main`
(pipes), :func:`run_worker` (socket listener, the ``repro-soc worker``
entry point) and :func:`run_worker_connect` all run.

Lifecycle, one rule for every launch mode:

- **crash detection** — a link that fails mid-call is dropped and the
  call raises :class:`WorkerCrashError`.  If we spawned the peer, a
  bounded wait reaps it and the error carries its exit code.
  ``alive`` is the cached view between calls;
  :meth:`ShardWorker.check_alive` probes the peer with a
  deadline-bounded ping.
- **recovery** — give the worker a journal and its engine journals
  every mutation.  ``restart()`` respawns a child that is gone and
  redials a socket peer that is still up; an inbound peer must dial
  back in and is re-attached with :meth:`ShardWorker.attach`.  Either
  way the engine restores from its journal, so an interrupted fleet
  rollout resumes bit-for-bit via ``resume_rollout_fleet``.
- **graceful drain** — ``close()`` sends a ``shutdown`` op: the
  worker flushes and closes its journal, replies, and exits 0; a
  spawning parent escalates to ``kill`` only after a grace period.

Fault injection for tests: ``crash_after_window`` arms the worker to
hard-exit (``os._exit``, no journal close — the crash being
simulated) after committing a given rollout window.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.config import ModelConfig
from ..core.model import TwoBranchSoCNet
from ..core.rollout import RolloutResult
from ..datasets.base import CycleRecord
from ..monitor.tracing import activate
from ..monitor.tracing import stage as trace_stage
from . import wire
from .engine import CellState, FleetEngine
from .persistence import StateJournal
from .registry import ModelRegistry
from .transport import (
    DEFAULT_SHM_SLAB_BYTES,
    DEFAULT_SHM_SLOTS,
    PipeTransport,
    ShmRing,
    Transport,
    TransportError,
    TransportListener,
    connect,
    parse_url,
    shm_ring_dir,
)

__all__ = [
    "ShardWorker",
    "WorkerCrashError",
    "WorkerEndpoint",
    "WorkerSpec",
    "run_worker",
    "run_worker_connect",
    "worker_main",
]


class WorkerCrashError(RuntimeError):
    """A shard worker process died (or its link dropped) during a call."""


def _wire_col(col) -> np.ndarray:
    """One inference operand as a contiguous 1-D float64 wire payload.

    Scalars ship as a single element — the remote engine broadcasts
    them across the batch exactly as the in-process engine would — so
    a fleet-wide constant never crosses the wire N times.
    """
    array = np.asarray(col, dtype=np.float64)
    if array.ndim == 0:
        array = array.reshape(1)
    return np.ascontiguousarray(array)


# -- model shipping ----------------------------------------------------
def _model_spec(model: TwoBranchSoCNet | None) -> dict | None:
    """Serializable description of a model (config + weights)."""
    if model is None:
        return None
    return {
        "hidden": list(model.config.hidden),
        "horizon_scale_s": float(model.config.horizon_scale_s),
        "state": model.state_dict(),
    }


def _build_model(spec: dict | None) -> TwoBranchSoCNet | None:
    if spec is None:
        return None
    config = ModelConfig(hidden=tuple(spec["hidden"]), horizon_scale_s=spec["horizon_scale_s"])
    model = TwoBranchSoCNet(config, rng=np.random.default_rng(0))
    model.load_state_dict(spec["state"])
    return model


# How long a failed link waits for a child we spawned to exit before the
# error is raised without its exit code.  A crashed worker is reapable at
# once; a live one (e.g. after a call timeout) is left for restart().
_REAP_TIMEOUT_S = 2.0

# A child runs ``_BOOTSTRAP.format(entry)`` with the entry's arguments as
# argv.  -c (not -m): runpy would re-execute this module on top of the
# copy the package __init__ already imported.
_BOOTSTRAP = "import sys; from repro.serve.workers import {0}; sys.exit({0}(*sys.argv[1:]))"


class ShardWorker:
    """One shard worker: a :class:`FleetEngine` served over a :class:`Transport`.

    Implements the shard-worker interface :class:`ShardedFleet
    <repro.serve.sharding.ShardedFleet>` assumes (``register_cell`` /
    ``estimate`` / ``predict`` / ``rollout_fleet`` / state
    adopt/evict / ``len`` / ``in``), each call one round-trip on the
    wire protocol.  The spec's URL scheme picks how the peer is
    launched (see the module docstring); everything else — the RPC
    surface, zero-copy encoding, trace propagation, the lifecycle — is
    the same for every launch mode.

    ``spec`` describes the worker (see :class:`WorkerSpec`); ``shard``
    — an index, or an inbound worker's name — picks its URL, name and
    journal from the spec's templates.  A ``transport`` makes it an
    inbound peer: a worker that dialed us (``repro-soc worker
    --connect``) has no URL to redial, so after a disconnect it must
    dial again and is re-attached with :meth:`attach`.
    """

    _proc: subprocess.Popen | None = None
    _transport: Transport | None = None
    _rings: tuple[ShmRing, ShmRing] | None = None

    def __init__(self, spec: WorkerSpec, shard: int | str = 0, transport: Transport | None = None):
        self.spec = spec
        self.name = _fill(spec.name, shard) if isinstance(shard, int) else shard
        self._init_payload = spec.init_payload(shard)
        # the address restart() comes back to; None for inbound peers
        self._requested_url = None if transport is not None else spec.url_for(shard)
        if transport is None and self._requested_url is None:
            raise ValueError("a spec without a url resolves to an in-process engine, not a worker")
        self.url: str | None = self._requested_url
        self._exit_code: int | None = None
        self.restarts = 0
        if transport is not None:
            self.attach(transport)
        else:
            self._open()

    # -- lifecycle -----------------------------------------------------
    @property
    def alive(self) -> bool:
        """Cached liveness: the link is up and a child we spawned still runs.

        Cheap enough for ``/healthz``; a silently-dead peer we did not
        spawn stays ``True`` until a call fails or :meth:`check_alive`
        probes it.
        """
        if self._proc is not None and self._proc.poll() is not None:
            return False
        return self._transport is not None and not self._transport.closed

    @property
    def durable(self) -> bool:
        """Whether this worker journals its state (restart restores it)."""
        return self._init_payload["journal_path"] is not None

    @property
    def exit_code(self) -> int | None:
        """How the last peer went away; ``None`` while the link is up.

        The exit code of a child we spawned, 0 for a peer we did not
        spawn that acknowledged :meth:`close`, else ``None`` — the exit
        of a peer we did not spawn is not observable, which is why
        :meth:`check_alive` exists.
        """
        return self._exit_code

    def check_alive(self, timeout_s: float = 2.0) -> bool:
        """Actively probe the peer: one ``ping`` with a receive deadline.

        Returns ``False`` — and drops the link, reaping a child we
        spawned — if the peer is down, the link is torn, or no
        ``pong`` arrives within ``timeout_s``.  This is the heartbeat
        the control plane runs between requests; the only way back from
        ``False`` is :meth:`restart` (or :meth:`attach`).
        """
        transport = self._transport
        if transport is None or transport.closed:
            return False
        try:
            reply = transport.request("ping", wire.call_meta(), timeout_s=timeout_s)
        except TransportError as exc:
            self._transport_failed("ping", exc)
            return False
        return reply.kind == "ok" and reply.meta.get("value") == "pong"

    def restart(self) -> None:
        """Bring a dead worker back; its journal restores the engine.

        Respawns a child that is gone (a ``pipe://``/``shm://`` child
        always is once its link dropped) and redials a socket peer that
        is still up.  An inbound peer has no address to redial: it must
        dial back in and be re-attached with :meth:`attach`.  With a
        ``journal`` the new engine replays cells, model routing
        and in-flight rollout progress before serving; an interrupted
        ``rollout_fleet`` is then completed with
        :meth:`resume_rollout_fleet`.
        """
        if self.alive:
            raise RuntimeError(f"shard worker {self.name!r} is still running")
        if self._requested_url is None:
            raise WorkerCrashError(
                f"shard worker {self.name!r} connected inbound; "
                "it must dial back in (reattach by name)"
            )
        self.restarts += 1
        self._drop_link()
        self._reap(0, kill=self.spec.scheme in ("pipe", "shm"))
        self._open()

    def attach(self, transport: Transport) -> None:
        """Adopt a fresh transport for this worker and re-init its engine.

        The reconnect half of the ``--connect`` flow: a worker that
        dialed back in after a crash is re-attached here; its engine
        restores from its journal during ``init``, after which
        ``resume_rollout_fleet`` completes any interrupted windows.
        """
        self._drop_link()
        self._transport = transport
        self._exit_code = None
        self._call("init", self._init_payload)

    def close(self, grace_s: float = 5.0) -> int | None:
        """Drain the worker and drop the link; returns :attr:`exit_code`.

        Sends ``shutdown`` (the worker flushes and closes its journal,
        replies, and exits), drops the transport, and reaps a child we
        spawned — waiting up to ``grace_s`` before escalating to
        ``kill``.  Safe to call on a dead or already-closed worker.
        """
        if self._transport is not None and not self._transport.closed:
            try:
                self._call("shutdown")
                self._exit_code = 0
            except WorkerCrashError:
                pass  # it died before acking; reap below
        self._drop_link()
        self._reap(grace_s, kill=True)
        return self._exit_code

    def __enter__(self) -> ShardWorker:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # best-effort: do not leak children or ring files
        try:
            if self._proc is not None and self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            for ring in self._rings or ():
                ring.close(unlink=True)
        except Exception:
            pass

    # -- connection ----------------------------------------------------
    def _open(self) -> None:
        """Launch the peer when it is ours to launch, connect, send ``init``."""
        self._exit_code = None
        payload = self._init_payload
        scheme = self.spec.scheme
        if scheme in ("pipe", "shm"):
            self._proc = subprocess.Popen(
                [sys.executable, "-c", _BOOTSTRAP.format("worker_main")],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                env=_child_env(),
            )
            self._transport = PipeTransport(
                self._proc.stdin, self._proc.stdout, peer=f"{scheme}://{self.name}"
            )
            if scheme == "shm":
                payload = {**payload, "shm": self._attach_rings()}
        else:
            if self.spec.spawn and self._proc is None:
                self._spawn_listener()
            try:
                self._transport = connect(self.url, timeout_s=self.spec.connect_timeout_s)
            except TransportError as exc:
                raise WorkerCrashError(f"shard worker {self.name!r} unreachable: {exc}") from exc
        self._call("init", payload)

    def _attach_rings(self) -> dict:
        """Fresh shm rings for a new child; returns their ``init`` entry.

        A respawned child must never read a dead sibling's cursor
        state.  ``req`` is parent-writes/child-reads, ``rep`` the
        reverse; the child learns the paths (and its swapped roles)
        from the entry.  The geometry is the module's
        ``DEFAULT_SHM_SLOTS`` x ``DEFAULT_SHM_SLAB_BYTES``, read at
        call time; oversized messages fall back to in-band frames.
        """
        tag = os.path.join(shm_ring_dir(), f"repro-soc-{os.getpid()}-{id(self):x}-{self.restarts}")
        geometry = {"slots": DEFAULT_SHM_SLOTS, "slab_bytes": DEFAULT_SHM_SLAB_BYTES}
        req, rep = (ShmRing(f"{tag}-{end}", create=True, **geometry) for end in ("req", "rep"))
        self._rings = (req, rep)
        self._transport.attach_shm(tx=req, rx=rep)
        return {"req": req.path, "rep": rep.path, **geometry}

    def _spawn_listener(self) -> None:
        """Launch a standalone socket worker and learn its bound URL."""
        proc = subprocess.Popen(
            [sys.executable, "-c", _BOOTSTRAP.format("run_worker"), self._requested_url],
            stdout=subprocess.PIPE,
            env=_child_env(),
        )
        # the worker announces its resolved address (ephemeral ports!)
        # on stdout before accepting; an empty read means it died
        line = proc.stdout.readline().decode("utf-8", "replace").strip()
        if not line.startswith(WORKER_ANNOUNCE):
            proc.kill()
            code = proc.wait()
            proc.stdout.close()
            raise WorkerCrashError(
                f"spawned worker {self.name!r} failed to listen on "
                f"{self._requested_url} (exit code {code}, said {line!r})"
            )
        self._proc = proc
        self.url = line[len(WORKER_ANNOUNCE) :].strip()

    def _drop_link(self) -> None:
        transport, self._transport = self._transport, None
        rings, self._rings = self._rings, None
        if transport is not None:
            transport.close()
        for ring in rings or ():
            ring.close(unlink=True)

    def _reap(self, timeout_s: float, kill: bool = False) -> int | None:
        """Wait up to ``timeout_s`` for the child we spawned; record its exit code.

        ``kill`` escalates when the wait runs out.  Without it a child
        still running stays attached and ``None`` comes back, so a
        live socket peer can be redialed.
        """
        proc = self._proc
        if proc is None:
            return None
        try:
            code = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            if not kill:
                return None
            proc.kill()
            code = proc.wait()
        self._proc = None
        self._exit_code = code
        for stream in (proc.stdin, proc.stdout):
            if stream is not None:
                with contextlib.suppress(OSError, ValueError):
                    stream.close()
        return code

    def _transport_failed(self, op: str, exc: Exception) -> WorkerCrashError:
        """Drop the dead link, reap our child (bounded), describe the failure."""
        self._drop_link()
        code = self._reap(_REAP_TIMEOUT_S)
        detail = str(exc) if code is None else f"exit code {code}"
        return WorkerCrashError(f"shard worker {self.name!r} died during {op!r} ({detail})")

    # -- engine API (one RPC each) --------------------------------------
    def register_cell(
        self, cell_id: str, chemistry: str | None = None, model_name: str | None = None
    ) -> CellState:
        """Register a cell on the worker's engine (see ``FleetEngine``)."""
        return self._call("register_cell", cell_id, chemistry=chemistry, model_name=model_name)

    def deregister_cell(self, cell_id: str) -> CellState:
        """Remove a cell; returns its final state."""
        return self._call("deregister_cell", cell_id)

    def reroute_cell(self, cell_id: str, model_name: str | None = None) -> CellState:
        """Re-resolve a cell's serving model in place."""
        return self._call("reroute_cell", cell_id, model_name=model_name)

    def cell(self, cell_id: str) -> CellState:
        """State record for one registered cell (KeyError when unknown)."""
        return self._call("cell", cell_id)

    def cells(self) -> Iterator[CellState]:
        """Iterate detached copies of all cells' state records."""
        return iter(self._call("cells"))

    def __len__(self) -> int:
        return int(self._call("len"))

    def __contains__(self, cell_id: str) -> bool:
        return bool(self._call("contains", cell_id))

    def estimate(
        self,
        cell_ids: Sequence[str],
        voltage,
        current,
        temp_c,
        now_s: float | None = None,
    ) -> np.ndarray:
        """Batched Branch 1 on the worker (see ``FleetEngine.estimate``).

        Ships the batch as one zero-copy frame: a struct header, the
        cell-id blob, and three raw float payloads.  Over an shm
        transport the payloads ride the shared-memory ring
        (:meth:`Transport.send_v2 <repro.serve.transport.Transport.send_v2>`).
        """
        ids = list(cell_ids)
        n = len(ids)
        meta = {"n": n, "now_s": now_s}
        # the wire.request span covers encode + round-trip + decode; its
        # context rides in the frame meta so the worker's worker.* spans
        # parent under it
        with trace_stage("wire.request", op="estimate") as h:
            if h is not None:
                meta[wire.TRACE_META_KEY] = wire.pack_trace_context(h.ctx)
            payload = [wire.encode_str_list(ids), *(_wire_col(col) for col in (voltage, current, temp_c))]
            reply = self._roundtrip(lambda t: t.send_v2("estimate", meta, payload), "estimate")
            if h is not None:
                h.ctx.tracer.absorb(reply.meta.get("spans") or ())
            # copy out of the frame body: callers get writable arrays, as
            # they would from an in-process engine
            return reply.arrays[0].copy()

    def predict(
        self,
        cell_ids: Sequence[str],
        current_avg,
        temp_avg_c,
        horizon_s,
        soc_now=None,
        commit: bool = False,
        now_s: float | None = None,
    ) -> np.ndarray:
        """Batched Branch 2 on the worker (see ``FleetEngine.predict``)."""
        ids = list(cell_ids)
        n = len(ids)
        meta = {"n": n, "has_soc": soc_now is not None, "commit": bool(commit), "now_s": now_s}
        with trace_stage("wire.request", op="predict") as h:
            if h is not None:
                meta[wire.TRACE_META_KEY] = wire.pack_trace_context(h.ctx)
            arrays = [_wire_col(col) for col in (current_avg, temp_avg_c, horizon_s)]
            if soc_now is not None:
                arrays.append(_wire_col(soc_now))
            payload = [wire.encode_str_list(ids), *arrays]
            reply = self._roundtrip(lambda t: t.send_v2("predict", meta, payload), "predict")
            if h is not None:
                h.ctx.tracer.absorb(reply.meta.get("spans") or ())
            return reply.arrays[0].copy()

    def rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Fleet rollout on the worker; numerically the in-process result.

        Assignments ship as one frame — deduplicated cycle channel
        arrays plus a raw pair list — and the reply streams every
        trajectory back as three stacked arrays.  Cycle tags ride in the
        JSON meta, so a tag the codec cannot carry raises ``TypeError``
        before anything is sent.  ``step_hook`` cannot cross the process
        boundary — use
        :meth:`crash_after_window` for fault injection instead.
        """
        return self._rollout_call("rollout_fleet", assignments, step_s, step_hook)

    def resume_rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Finish an interrupted rollout from the worker's journal."""
        return self._rollout_call("resume_rollout_fleet", assignments, step_s, step_hook)

    def _rollout_call(self, op, assignments, step_s, step_hook) -> dict[str, RolloutResult]:
        if step_hook is not None:
            raise ValueError("step_hook cannot cross the process boundary")
        pairs = list(assignments)
        with trace_stage("wire.request", op=op) as h:
            meta, arrays = wire.encode_rollout_request(pairs, float(step_s))
            if h is not None:
                meta[wire.TRACE_META_KEY] = wire.pack_trace_context(h.ctx)
            reply = self._roundtrip(lambda t: t.send_v2(op, meta, arrays), op)
            if h is not None:
                h.ctx.tracer.absorb(reply.meta.get("spans") or ())
            return wire.decode_rollout_results(reply.meta, reply.arrays)

    def metrics_snapshot(self) -> dict | None:
        """The worker engine's metrics snapshot (``None`` unless ``monitor``).

        One ``metrics`` round-trip; the snapshot is plain JSON, so it
        merges with other workers' via
        :func:`repro.monitor.metrics.merge_snapshots`.
        """
        return self._call("metrics")

    def drift_events(self) -> list:
        """The worker monitor's drift-event ring (empty unless ``monitor``).

        One ``drift_events`` round-trip;
        :class:`~repro.monitor.drift.DriftEvent` is one of the codec's
        tagged types, so the records arrive intact and feed the
        harvester / autopilot on the parent side.
        """
        return self._call("drift_events")

    def _adopt_state(self, state: CellState) -> None:
        """Install a migrating cell's state (rebalance protocol).

        A durable worker journals the adoption, so the migrated cell
        survives a restart of its *new* owner.
        """
        self._call("adopt_state", state)

    def _evict_state(self, cell_id: str) -> CellState:
        """Remove and return a migrating cell's state (rebalance protocol).

        A durable worker journals the drop, so a restart of the *old*
        owner cannot resurrect a cell the hash no longer routes to it.
        """
        return self._call("evict_state", cell_id)

    # -- fault injection -------------------------------------------------
    def crash_after_window(self, window: int) -> None:
        """Arm the worker to hard-exit after committing rollout ``window``.

        The worker calls ``os._exit`` from the engine's ``step_hook`` —
        after the window's journal records flushed, before any
        shutdown path runs — simulating a mid-rollout process crash.
        """
        self._call("crash_after", int(window))

    # ------------------------------------------------------------------
    def _call(self, op: str, *args, **kwargs):
        """One control-op round-trip; the reply's value."""
        meta = wire.call_meta(args, kwargs)
        return self._roundtrip(lambda t: t.send_v2(op, meta, ()), op).meta.get("value")

    def _roundtrip(self, send: Callable[[Transport], None], op: str) -> wire.V2Frame:
        transport = self._transport
        if transport is None:
            raise WorkerCrashError(
                f"shard worker {self.name!r} is not running (exit code {self._exit_code}); call restart()"
            )
        try:
            return wire.check_reply(transport.request_with(send, timeout_s=self.spec.call_timeout_s))
        except TransportError as exc:
            raise self._transport_failed(op, exc) from exc


def _child_env() -> dict:
    env = os.environ.copy()
    src_root = str(Path(__file__).resolve().parents[2])
    pythonpath = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root if not pythonpath else src_root + os.pathsep + pythonpath
    return env


def _fill(template: str, shard: int | str) -> str:
    """``template`` with its ``{shard}`` placeholder, if any, set to ``shard``."""
    return template.format(shard=shard) if "{shard}" in template else template


# -- worker specification ----------------------------------------------
@dataclasses.dataclass
class WorkerSpec:
    """The one description of a shard worker; every topology resolves from it.

    :class:`ShardedFleet <repro.serve.sharding.ShardedFleet>` builds
    every shard through :meth:`resolve`: ``url=None`` gives an
    in-process :class:`FleetEngine`, any other ``url`` a
    :class:`ShardWorker`.  ``ShardWorker(spec, name, transport=...)``
    wraps an inbound peer with the same engine description, so a
    worker that dialed in serves exactly what a resolved one would.

    ``name``, ``url`` and ``journal`` are templates: a ``{shard}``
    placeholder is substituted with the shard index (an inbound
    worker's name); a journal path without one gets a ``.shard{k}``
    (``.{name}``) suffix so workers never share a journal file.

    Fields
    ------
    url:
        ``None`` for an in-process engine; ``pipe://`` or ``shm://``
        (spawn a child over stdio; ``shm://`` moves bulk payloads
        through shared-memory rings); ``tcp://host:port`` or
        ``unix:///path`` (spawn or dial a socket worker).
        ``tcp://127.0.0.1:0`` with ``spawn=True`` picks ephemeral
        ports, so one spec serves any shard count.
    model:
        Default model, shipped to a worker at init (weights over the
        wire).
    registry:
        :class:`~repro.serve.registry.ModelRegistry` (or its root
        directory) for per-chemistry routing; workers open their own
        copy of the root.  A worker needs a ``model``, a ``registry``,
        or both.
    journal:
        Per-worker :class:`~repro.serve.persistence.StateJournal` path
        template.  A restart restores the engine from it (crash
        recovery); without one a restart comes back empty.  In-process
        shards are not durable and take none.
    monitor:
        Give each engine its own
        :class:`~repro.monitor.metrics.MetricsRegistry` and
        :class:`~repro.monitor.drift.DriftMonitor` (default
        configurations; one tuning watches every chemistry).  The
        parent reads a worker's registry and drift events over the wire
        (:meth:`ShardWorker.metrics_snapshot`,
        :meth:`ShardWorker.drift_events`), and :meth:`ShardedFleet.metrics
        <repro.serve.sharding.ShardedFleet.metrics>` and
        :meth:`ShardedFleet.drift_events
        <repro.serve.sharding.ShardedFleet.drift_events>` merge the
        topology.
    trace:
        Distributed tracing in the worker: requests whose frame carries
        trace context (:data:`repro.serve.wire.TRACE_META_KEY`) get
        ``worker.deserialize`` / ``worker.compute`` /
        ``worker.serialize`` spans, shipped back in the reply meta.
    archive_root, journal_segment_bytes:
        Cold-store directory and segment size for the worker journal
        (see :mod:`repro.serve.archive`).
    spawn:
        Socket schemes only: launch :func:`run_worker` on the URL
        first instead of dialing a worker that is already listening.
    name:
        Label in error messages and health reports; an inbound worker
        is re-attached by it.
    connect_timeout_s, call_timeout_s:
        Dial deadline (refused connections are retried until it) and
        optional per-call reply deadline.
    """

    url: str | None = None
    model: TwoBranchSoCNet | None = None
    registry: ModelRegistry | str | Path | None = None
    journal: str | Path | None = None
    monitor: bool = False
    trace: bool = False
    archive_root: str | Path | None = None
    journal_segment_bytes: int = 0
    spawn: bool = False
    name: str = "shard{shard}"
    connect_timeout_s: float = 10.0
    call_timeout_s: float | None = None

    def __post_init__(self):
        self.url_for(0)  # refuses an unknown scheme
        if self.model is None and self.registry is None and self.url is not None:
            raise ValueError("need a default model, a registry root, or both")

    @property
    def scheme(self) -> str | None:
        """``None`` for in-process, else the transport scheme."""
        return None if self.url is None else parse_url(self.url_for(0)).scheme

    def url_for(self, shard: int | str) -> str | None:
        """The normalized URL of shard ``shard`` (``None`` in-process)."""
        return None if self.url is None else str(parse_url(_fill(self.url, shard)))

    def resolve(self, index: int):
        """Build the worker for shard ``index`` (engine or :class:`ShardWorker`)."""
        if self.url is not None:
            return ShardWorker(self, index)
        if self.journal is not None:
            raise ValueError("in-process shards are not durable; journal a pipe:// or socket worker")
        registry = self.registry
        if registry is not None and not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry)
        return FleetEngine(**_engine_kwargs(self.model, registry, self.monitor))

    def init_payload(self, shard: int | str) -> dict:
        """The ``init`` message a worker for ``shard`` builds its engine from."""
        registry = self.registry.root if isinstance(self.registry, ModelRegistry) else self.registry
        return {
            "model": _model_spec(self.model),
            "registry_root": None if registry is None else str(registry),
            "journal_path": self._journal_path(shard),
            "monitor": bool(self.monitor),
            "trace": bool(self.trace),
            "archive_root": None if self.archive_root is None else str(self.archive_root),
            "journal_segment_bytes": int(self.journal_segment_bytes),
        }

    def _journal_path(self, shard: int | str) -> str | None:
        if self.journal is None:
            return None
        if isinstance(self.journal, StateJournal):
            raise ValueError(
                "process/socket workers own their journal file; pass a path template, "
                "not a StateJournal instance"
            )
        template = str(self.journal)
        if "{shard}" in template:
            return template.format(shard=shard)
        return f"{template}.shard{shard}" if isinstance(shard, int) else f"{template}.{shard}"


# -- worker side -------------------------------------------------------
WORKER_ANNOUNCE = "worker listening on "

# Keys an ``init`` message may carry: the init_payload keys plus the shm
# ring description.  A peer from another build may send settings this
# worker does not have; it gets an error instead of an engine that
# silently ignores them.
_INIT_KEYS = frozenset(WorkerSpec().init_payload(0)) | {"shm"}


def _engine_kwargs(model: TwoBranchSoCNet | None, registry: ModelRegistry | None, monitor: bool) -> dict:
    """``FleetEngine`` kwargs for one shard: its own registry and monitor, if any."""
    metrics = drift = None
    if monitor:
        from ..monitor.drift import DriftMonitor
        from ..monitor.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        drift = DriftMonitor(metrics=metrics)
    return dict(default_model=model, registry=registry, metrics=metrics, drift=drift)


def _build_engine(spec: dict) -> FleetEngine:
    unexpected = sorted(set(spec) - _INIT_KEYS)
    if unexpected:
        raise ValueError(f"init spec has unexpected keys: {', '.join(unexpected)}")
    model = _build_model(spec["model"])
    registry = None if spec["registry_root"] is None else ModelRegistry(spec["registry_root"])
    kwargs = _engine_kwargs(model, registry, bool(spec.get("monitor")))
    journal_path = spec["journal_path"]
    if journal_path is None:
        return FleetEngine(**kwargs)
    archive = None
    if spec.get("archive_root"):
        from .archive import DirectoryArchiveStore

        archive = DirectoryArchiveStore(spec["archive_root"])
    journal = StateJournal(
        journal_path,
        archive=archive,
        max_segment_bytes=spec.get("journal_segment_bytes", 0) or 0,
    )
    return FleetEngine.restore(journal, **kwargs)


def _crash_hook(after_window: int) -> Callable[[int], None]:
    def hook(window: int) -> None:
        if window >= after_window:
            os._exit(86)  # hard crash: skip journal close, atexit, everything

    return hook


# Ops a worker serves.  Bulk ops carry array payloads and may carry trace
# context; every other op is a control op with JSON args, and the
# _ENGINE_CALLS among them pass straight through to the engine.
_BULK_OPS = ("estimate", "predict", "rollout_fleet", "resume_rollout_fleet")
_ENGINE_CALLS = ("register_cell", "deregister_cell", "reroute_cell", "cell", "drift_events")
_CONTROL_OPS = ("init", "shutdown", "ping", "metrics", "crash_after", "cells", "len", "contains")
_WORKER_OPS = frozenset(_BULK_OPS + _ENGINE_CALLS + _CONTROL_OPS + ("adopt_state", "evict_state"))


class WorkerEndpoint:
    """The worker-side serving loop: read frames, dispatch, reply.

    One endpoint serves one :class:`Transport` until the peer goes
    away (``serve`` returns ``"closed"`` — a listener may then accept
    a new connection) or sends the ``shutdown`` op (``"shutdown"`` —
    the process should exit).  Both ``worker_main`` (pipes) and
    :func:`run_worker` (socket listener) are thin wrappers over this
    class, so the dispatch semantics — including journal close on
    drain and the crash-injection hook — are identical on every
    transport.  Every request gets exactly one reply through
    :meth:`Transport.reply <repro.serve.transport.Transport.reply>`:
    an unknown op or a failing engine call is an ``err`` reply on a
    connection that stays usable, while a body that does not decode
    drops the connection.
    """

    def __init__(self, transport: Transport):
        self.transport = transport
        self.engine: FleetEngine | None = None
        self._crash_after: int | None = None
        self._tracer = None
        self._draining = False

    def serve(self) -> str:
        """Serve until the peer closes (``"closed"``) or drains (``"shutdown"``)."""
        while True:
            try:
                frame = self.transport.recv_frame()
            except TransportError:
                frame = None  # peer vanished mid-frame or sent garbage: same as a close
            if frame is None:
                self._close_journal()
                return "closed"
            try:
                self.transport.reply(lambda: self._dispatch(frame))
            except TransportError:
                # the peer died while we were replying; nothing to tell it
                self._close_journal()
                return "closed"
            if self._draining:
                return "shutdown"

    def _close_journal(self) -> None:
        if self.engine is not None and self.engine.journal is not None:
            self.engine.journal.close()

    def _dispatch(self, frame: wire.V2Frame):
        """One request's reply: a value (control ops) or a reply frame (bulk ops)."""
        op = frame.kind
        if op not in _WORKER_OPS:
            raise RuntimeError(f"unknown op {op!r}")
        if op in _BULK_OPS:
            return self._serve_bulk(frame)
        args, kwargs = wire.call_args(frame)
        engine = self.engine
        if op == "init":
            self._init(*args)
            return "ready"
        if op == "shutdown":
            self._close_journal()
            self._draining = True
            return "bye"
        if op == "ping":
            return "pong"
        if op == "metrics":
            return None if engine is None else engine.metrics_snapshot()
        if op == "crash_after":
            self._crash_after = int(args[0])
            return self._crash_after
        if engine is None:
            raise RuntimeError(f"worker received {op!r} before 'init'")
        if op == "cells":
            return list(engine.cells())
        if op == "len":
            return len(engine)
        if op == "contains":
            return args[0] in engine
        if op == "adopt_state":
            # this worker's own journal must learn about cells
            # migrating in, or a restart would lose them
            engine._adopt_state(args[0])
            if engine.journal is not None:
                engine.journal.append_cells([args[0]])
            return None
        if op == "evict_state":
            state = engine._evict_state(args[0])
            if engine.journal is not None:
                engine.journal.drop_cell(args[0])
            return state
        return getattr(engine, op)(*args, **kwargs)  # one of _ENGINE_CALLS

    def _init(self, spec: dict) -> None:
        self.engine = _build_engine(spec)
        shm_spec = spec.get("shm")
        if shm_spec is not None:
            # roles swap on this side: the parent's request ring is
            # our receive ring, its reply ring is our transmit ring
            rx = ShmRing(shm_spec["req"], slots=shm_spec["slots"], slab_bytes=shm_spec["slab_bytes"])
            tx = ShmRing(shm_spec["rep"], slots=shm_spec["slots"], slab_bytes=shm_spec["slab_bytes"])
            self.transport.attach_shm(tx=tx, rx=rx)
        if spec.get("trace"):
            from ..monitor.tracing import SpanTracer

            # recorder only: no head sampling, no metrics — the
            # parent commits traces and owns the rollup
            self._tracer = SpanTracer(sample_rate=0.0, service="worker")

    def _serve_bulk(self, frame: wire.V2Frame) -> wire.V2Frame:
        """Serve one bulk request; its ``ok`` reply frame.

        When the frame meta carries trace context and this worker was
        built with ``trace=True``, the worker records
        ``worker.deserialize`` / ``worker.compute`` /
        ``worker.serialize`` spans against the propagated trace and
        ships them back in the reply meta (``"spans"``).  The
        serialize span covers reply-payload *assembly* only — the
        spans ride inside the frame, so the frame write itself cannot
        be timed from in here.  Timestamps are ``time.monotonic``,
        machine-wide on Linux, so they align with the parent's spans.
        """
        engine, tracer = self.engine, self._tracer
        kind, meta, arrays = frame.kind, frame.meta, frame.arrays
        ctx = None
        if tracer is not None and meta.get(wire.TRACE_META_KEY):
            ctx = tracer.from_wire(meta[wire.TRACE_META_KEY])
        try:
            if engine is None:
                raise RuntimeError(f"worker received {kind!r} before 'init'")
            t0 = time.monotonic()
            if kind == "estimate":
                ids = wire.decode_str_list(arrays[0], meta["n"])
                if ctx is not None:
                    tracer.record(ctx, "worker.deserialize", t0, time.monotonic(), op=kind)
                with activate(ctx), trace_stage("worker.compute", op=kind):
                    out = engine.estimate(ids, arrays[1], arrays[2], arrays[3], now_s=meta["now_s"])
                reply_meta, reply_arrays = {}, [out]
            elif kind == "predict":
                ids = wire.decode_str_list(arrays[0], meta["n"])
                if ctx is not None:
                    tracer.record(ctx, "worker.deserialize", t0, time.monotonic(), op=kind)
                with activate(ctx), trace_stage("worker.compute", op=kind):
                    out = engine.predict(
                        ids,
                        arrays[1],
                        arrays[2],
                        arrays[3],
                        soc_now=arrays[4] if meta["has_soc"] else None,
                        commit=meta["commit"],
                        now_s=meta["now_s"],
                    )
                reply_meta, reply_arrays = {}, [out]
            else:
                pairs, step_s = wire.decode_rollout_request(meta, arrays)
                if ctx is not None:
                    tracer.record(ctx, "worker.deserialize", t0, time.monotonic(), op=kind)
                hook = None if self._crash_after is None else _crash_hook(self._crash_after)
                with activate(ctx), trace_stage("worker.compute", op=kind):
                    results = getattr(engine, kind)(pairs, step_s, step_hook=hook)
                t_ser = time.monotonic()
                reply_meta, reply_arrays = wire.encode_rollout_results(results)
                if ctx is not None:
                    tracer.record(ctx, "worker.serialize", t_ser, time.monotonic(), op=kind)
        except Exception:
            if ctx is not None:
                tracer.drain(ctx.trace_id)  # discard: never leak a live buffer on errors
            raise
        if ctx is not None:
            if kind in ("estimate", "predict"):
                # zero-copy replies have no assembly step; the span marks
                # the (empty) serialize stage so trees stay uniform
                tracer.record(ctx, "worker.serialize", time.monotonic(), time.monotonic(), op=kind)
            reply_meta["spans"] = tracer.drain(ctx.trace_id)
        return wire.V2Frame("ok", reply_meta, reply_arrays)


def worker_main(stdin=None, stdout=None) -> int:
    """Child-process serving loop over the stdio pipes.

    Runs until the parent closes the pipe (implicit drain) or sends the
    ``shutdown`` op (explicit drain: journal closed, reply sent, exit
    0).  Exposed as ``python -m repro.serve.workers``.
    """
    rd = stdin if stdin is not None else sys.stdin.buffer
    wr = stdout if stdout is not None else sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the frame stream
    WorkerEndpoint(PipeTransport(wr, rd, peer="pipe://parent")).serve()
    return 0


def run_worker(listen_url: str, once: bool = False, announce=None) -> int:
    """Standalone socket worker: bind, announce, serve (``repro-soc worker``).

    Binds ``listen_url`` (``tcp://host:port`` — port 0 for ephemeral —
    or ``unix:///path``), prints ``worker listening on <resolved-url>``
    to stdout so a spawning parent can learn the address, then serves
    one connection at a time.  A peer that disconnects (parent crash)
    just returns the worker to ``accept`` — state lives in the journal
    and the next ``init`` restores it — while the ``shutdown`` op ends
    the process.  ``once=True`` exits after the first connection
    closes (tests).
    """
    listener = TransportListener(listen_url)
    message = f"{WORKER_ANNOUNCE}{listener.url}"
    if announce is not None:
        announce(message)
    else:
        print(message, flush=True)
    sys.stdout = sys.stderr  # same hygiene as the pipe path, post-announce
    try:
        while True:
            try:
                peer = listener.accept()
            except TransportError:
                return 0  # listener closed under us
            try:
                reason = WorkerEndpoint(peer).serve()
            finally:
                peer.close()
            if reason == "shutdown" or once:
                return 0
    except KeyboardInterrupt:
        return 0
    finally:
        listener.close()


def run_worker_connect(
    daemon_url: str,
    name: str,
    reconnect: bool = True,
    connect_timeout_s: float = 10.0,
    announce=None,
) -> int:
    """Dial a daemon and serve as one of its shard workers (NAT-friendly).

    The inverse topology of :func:`run_worker`: instead of listening
    for the fleet to dial in, the worker dials the daemon's control
    URL, introduces itself with a ``worker_hello`` frame carrying its
    ``name``, and then the roles flip — the daemon wraps this very
    connection in a :class:`ShardWorker` and starts sending
    engine ops, which a :class:`WorkerEndpoint` serves.

    ``name`` is the worker's identity across reconnects: if this
    worker (or its link) dies and the process dials back in with the
    same name, the daemon re-attaches it to its old shard — journal
    restore plus ``resume_rollout_fleet`` make the comeback
    state-exact.  With ``reconnect=True`` (the default, the
    ``repro-soc worker --connect`` behavior) a dropped daemon
    connection is redialed until the daemon comes back or the process
    is killed; a clean ``shutdown`` op always ends the loop.
    """
    notify = announce if announce is not None else lambda m: print(m, flush=True)
    while True:
        try:
            transport = connect(daemon_url, timeout_s=connect_timeout_s)
        except TransportError as exc:
            if not reconnect:
                raise
            notify(f"daemon at {daemon_url} unreachable ({exc}); retrying")
            time.sleep(min(connect_timeout_s, 1.0))
            continue
        try:
            reply = transport.request("worker_hello", wire.call_meta((name,)), timeout_s=connect_timeout_s)
        except TransportError:
            transport.close()
            if not reconnect:
                return 1
            continue
        if reply.kind != "ok" or reply.meta.get("value") != "attach":
            transport.close()
            notify(f"daemon at {daemon_url} refused worker {name!r}: {reply.kind} {reply.meta!r}")
            return 1
        notify(f"worker {name!r} attached to {daemon_url}")
        try:
            reason = WorkerEndpoint(transport).serve()
        finally:
            transport.close()
        if reason == "shutdown" or not reconnect:
            return 0
        notify(f"daemon connection lost; worker {name!r} re-dialing {daemon_url}")


if __name__ == "__main__":
    sys.exit(worker_main())
