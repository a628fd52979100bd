"""``repro-soc serve``: the long-running multi-host serving daemon.

Everything below existed as parts — :class:`~repro.serve.gateway.SocGateway`
for admission + micro-batching, :class:`~repro.serve.sharding.ShardedFleet`
for placement, :class:`~repro.monitor.autopilot.ControlLoop` for healing
and canary steering, :class:`~repro.monitor.exposition.ExpositionServer`
for scrapes — but only wired together inside one simulation process
(``serve-sim``).  :class:`SocDaemon` is the deployment shape: one
process that owns those pieces *indefinitely*, listens on a control URL
(``unix://`` or ``tcp://``, same :mod:`~repro.serve.transport` frames as
the workers), and lets two kinds of peers dial in:

- **clients** (:class:`~repro.serve.client.SocClient`): request ops
  (``estimate``/``predict``/``rollout``/registration/stats) in the
  workers' frame format — JSON arguments, raw arrays for rollouts —
  bridged onto the gateway's asyncio loop: one connection, one handler
  thread, requests resolved through the same micro-batcher as every
  other client's.  Every request gets one reply through
  :meth:`Transport.reply <repro.serve.transport.Transport.reply>`: an
  unknown op or a failing call is an ``err`` reply and the connection
  stays usable; a body that does not decode drops that connection
  only;
- **workers** (``repro-soc worker --connect``): a ``worker_hello``
  frame flips the connection's roles — the daemon wraps the transport
  in a :class:`~repro.serve.workers.ShardWorker` and the dialer
  becomes a served shard.  Registration by name makes
  restart-by-reconnect work: a worker that crashes and dials back in
  is re-attached to its old shard (journal restore + ``init`` over the
  new transport), not added as new capacity.  Workers can also be
  registered *outbound* by URL (``add_worker``) when the daemon can
  reach them.

Concurrency: the gateway's batcher lock is the one serialization
point, exactly as in-process — client handler threads take it for
direct engine ops, the control thread takes it for heartbeat probes
and heal ticks (transport frames must never interleave with traffic),
and the asyncio loop's executor takes it for batched inference.  The
exposition server stays lock-free (cached health, snapshot metrics),
so ``/metrics`` and ``/healthz`` answer even while a worker is dead
and healing.
"""

from __future__ import annotations

import asyncio
import threading

from ..monitor.autopilot import ControlLoop
from . import wire
from .gateway import SocGateway
from .transport import Transport, TransportError, TransportListener, TransportTimeout
from .workers import ShardWorker, _build_model

__all__ = ["SocDaemon", "run_daemon"]

_CLIENT_OPS = (
    "hello",
    "ping",
    "estimate",
    "predict",
    "rollout",
    "register_cell",
    "deregister_cell",
    "reroute_cell",
    "cell",
    "cells",
    "len",
    "contains",
    "stats",
    "metrics",
    "worker_health",
    "heartbeat",
    "add_worker",
    "drift_events",
    "publish",
    "promote",
    "rollback",
    "shutdown",
)


class SocDaemon:
    """One long-running serving plane: gateway + control loop + scrapes.

    Parameters
    ----------
    engine:
        The fleet to serve — a :class:`~repro.serve.engine.FleetEngine`
        or (for worker registration / healing to mean anything) a
        :class:`~repro.serve.sharding.ShardedFleet`, whose
        :attr:`~repro.serve.sharding.ShardedFleet.spec` describes the
        workers that join later (``worker_hello`` or ``add_worker``).
        A single engine acks a ``worker_hello`` and then drops it, and
        refuses ``add_worker``.  The daemon owns the engine:
        :meth:`stop` closes it.
    listen:
        Control URL to accept clients and inbound workers on
        (``unix:///path`` or ``tcp://host:port``; port 0 binds an
        ephemeral port — read :attr:`url`).
    max_batch, max_delay_s, max_in_flight, metrics, tracer:
        Passed to the :class:`~repro.serve.gateway.SocGateway`.
    control_interval_s:
        Control-plane pacing: every interval the daemon takes the
        batcher lock, pings probe-capable workers
        (:meth:`ShardedFleet.heartbeat
        <repro.serve.sharding.ShardedFleet.heartbeat>`), and runs one
        :class:`~repro.monitor.autopilot.ControlLoop` tick (heal dead
        workers, steer the canary).  0 disables the thread; call
        :meth:`control_tick` yourself.
    autopilot, probe:
        Optional canary policy + divergence probe for the control loop.
        With an autopilot attached, the registry ops (``publish`` to the
        canary channel, ``promote``, ``rollback``) route through its
        :class:`~repro.serve.canary.CanaryController`, so remote
        retrain pipelines and the in-daemon steering never race on
        ``channels.json``.
    retrain:
        Optional retrain loop (e.g. :class:`repro.learn.RetrainLoop`)
        run as part of every control tick, after canary steering — the
        fully closed drift → retrain → canary → promote loop.
    exposition_host, exposition_port:
        Bind an :class:`~repro.monitor.exposition.ExpositionServer`
        (``/metrics``, ``/traces``, ``/healthz``) when
        ``exposition_port`` is not ``None`` (0 = ephemeral; read
        :attr:`exposition_url`).
    """

    def __init__(
        self,
        engine,
        listen: str,
        *,
        max_batch: int = 64,
        max_delay_s: float = 0.010,
        max_in_flight: int = 1024,
        metrics=None,
        tracer=None,
        control_interval_s: float = 1.0,
        autopilot=None,
        probe=None,
        retrain=None,
        heartbeat_timeout_s: float = 2.0,
        exposition_host: str = "127.0.0.1",
        exposition_port: int | None = None,
    ):
        self.engine = engine
        self.autopilot = autopilot
        self.gateway = SocGateway(
            engine,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            max_in_flight=max_in_flight,
            metrics=metrics,
            tracer=tracer,
        )
        self.control = ControlLoop(
            engine=engine,
            autopilot=autopilot,
            probe=probe,
            retrain=retrain,
            interval_s=control_interval_s,
            metrics=self.gateway.metrics,
        )
        self.control_interval_s = float(control_interval_s)
        self.heartbeat_timeout_s = float(heartbeat_timeout_s)
        self._listener = TransportListener(listen)
        self.url = str(self._listener.url)
        self.exposition = None
        if exposition_port is not None:
            from ..monitor.exposition import ExpositionServer

            self.exposition = ExpositionServer(
                metrics=self.gateway.metrics_snapshot,
                tracer=tracer,
                health=self._health,
                host=exposition_host,
                port=exposition_port,
            )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._loop_thread: threading.Thread | None = None
        self._accept_thread: threading.Thread | None = None
        self._control_thread: threading.Thread | None = None
        self._client_threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._started = False

    # -- lifecycle -----------------------------------------------------
    @property
    def exposition_url(self) -> str | None:
        """Base URL of the scrape endpoint (``None`` when not exposed)."""
        return None if self.exposition is None else self.exposition.url

    def start(self) -> SocDaemon:
        """Bring the plane up: asyncio loop, acceptor, control thread, scrapes."""
        if self._started:
            return self
        self._started = True
        self._loop = asyncio.new_event_loop()
        ready = threading.Event()

        def _run_loop() -> None:
            asyncio.set_event_loop(self._loop)
            self._loop.call_soon(ready.set)
            self._loop.run_forever()

        self._loop_thread = threading.Thread(target=_run_loop, name="soc-daemon-loop", daemon=True)
        self._loop_thread.start()
        ready.wait()
        self._await(self._async_start_gateway())
        if self.exposition is not None:
            self.exposition.start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="soc-daemon-accept", daemon=True
        )
        self._accept_thread.start()
        if self.control_interval_s > 0:
            self._control_thread = threading.Thread(
                target=self._control_loop, name="soc-daemon-control", daemon=True
            )
            self._control_thread.start()
        return self

    def stop(self) -> None:
        """Drain and tear down: listener, gateway, workers, scrapes."""
        if not self._started or self._stopping.is_set():
            self._stopping.set()
            return
        self._stopping.set()
        self._listener.close()
        for thread in (self._accept_thread, self._control_thread):
            if thread is not None:
                thread.join(timeout=5.0)
        for thread in list(self._client_threads):
            thread.join(timeout=5.0)
        self._await(self.gateway.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._loop_thread.join(timeout=5.0)
        self._loop.close()
        if self.exposition is not None:
            self.exposition.stop()
        closer = getattr(self.engine, "close", None)
        if closer is not None:
            closer()

    def wait(self, timeout_s: float | None = None) -> bool:
        """Block until :meth:`stop` is requested (a client ``shutdown``
        op, or another thread); returns whether it was."""
        return self._stopping.wait(timeout=timeout_s)

    def __enter__(self) -> SocDaemon:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def control_tick(self) -> dict:
        """One control-plane pass under the batcher lock (probe + heal)."""
        with self.gateway.batcher.lock:
            heartbeat = getattr(self.engine, "heartbeat", None)
            if heartbeat is not None:
                heartbeat(self.heartbeat_timeout_s)
            return self.control.tick()

    # -- internals -----------------------------------------------------
    async def _async_start_gateway(self) -> None:
        self.gateway.start()

    def _await(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def _health(self) -> dict:
        # the daemon answering IS the liveness signal; worker state is
        # detail (a dead worker mid-heal must not flip /healthz to 503)
        health = getattr(self.engine, "worker_health", None)
        workers = health() if health is not None else []
        return {"ok": True, "workers": list(workers), "url": self.url}

    def _control_loop(self) -> None:
        while not self._stopping.wait(self.control_interval_s):
            try:
                self.control_tick()
            except Exception:
                continue  # one bad tick must not kill the control plane

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                peer = self._listener.accept(timeout_s=0.25)
            except TransportTimeout:
                continue
            except TransportError:
                return  # listener closed
            thread = threading.Thread(
                target=self._serve_connection, args=(peer,), name="soc-daemon-client", daemon=True
            )
            self._client_threads.append(thread)
            thread.start()

    def _serve_connection(self, transport: Transport) -> None:
        """Serve one inbound connection until it closes (or flips roles)."""
        handed_off = False
        try:
            while not self._stopping.is_set():
                # idle-wait without a recv deadline: a deadline poisons
                # the stream, wait_readable just polls the stop flag
                if not transport.wait_readable(timeout_s=0.25):
                    continue
                try:
                    frame = transport.recv_frame()
                except TransportError:
                    break
                if frame is None:
                    break
                if frame.kind == "worker_hello":
                    # role flip: the dialer is a worker, not a client.
                    # Reply first (the worker waits for the ack before
                    # serving), then hand the transport to the fleet.
                    try:
                        args, kwargs = wire.call_args(frame)
                        name = str(args[0] if args else kwargs.get("name", "worker"))
                        transport.reply(lambda: "attach")
                        self._attach_worker(name, transport)
                    except Exception:
                        break
                    handed_off = True
                    return  # the transport now belongs to the shard worker
                try:
                    transport.reply(lambda: self._dispatch(frame))
                except TransportError:
                    break
                if frame.kind == "shutdown":
                    threading.Thread(target=self.stop, daemon=True).start()
                    break
        finally:
            if not handed_off:
                transport.close()

    def _attach_worker(self, name: str, transport: Transport) -> None:
        """Re-attach a returning worker by name, or adopt it as new capacity."""
        with self.gateway.batcher.lock:
            reattach = getattr(self.engine, "reattach_worker", None)
            if reattach is not None and reattach(name, transport) is not None:
                return
            spec = getattr(self.engine, "spec", None)
            if spec is None:
                raise RuntimeError("engine does not accept workers (not a ShardedFleet)")
            self.engine.adopt_worker(ShardWorker(spec, name, transport=transport))

    def _dispatch(self, frame: wire.V2Frame):
        """One client op's reply; engine mutations go under the batcher lock."""
        op = frame.kind
        if op not in _CLIENT_OPS:
            raise RuntimeError(f"unknown daemon op {op!r}")
        gateway = self.gateway
        if op == "rollout":
            pairs, step_s = wire.decode_rollout_request(frame.meta, frame.arrays)
            results = self._await(gateway.rollout(pairs, step_s))
            return wire.V2Frame("ok", *wire.encode_rollout_results(results))
        args, kwargs = wire.call_args(frame)
        if op == "hello":
            return {"service": "repro-soc", "url": self.url, "ops": list(_CLIENT_OPS)}
        if op == "ping":
            return "pong"
        if op == "estimate":
            completion = self._await(gateway.estimate(*args, **kwargs))
            if completion.error is not None:
                raise RuntimeError(completion.error)
            return float(completion.value)
        if op == "predict":
            completion = self._await(gateway.predict(*args, **kwargs))
            if completion.error is not None:
                raise RuntimeError(completion.error)
            return float(completion.value)
        if op == "stats":
            return gateway.stats_dict()
        if op == "metrics":
            return gateway.metrics_snapshot()
        if op == "worker_health":
            health = getattr(self.engine, "worker_health", None)
            return [] if health is None else list(health())
        if op == "heartbeat":
            with gateway.batcher.lock:
                heartbeat = getattr(self.engine, "heartbeat", None)
                return [] if heartbeat is None else list(heartbeat(self.heartbeat_timeout_s))
        if op == "add_worker":
            with gateway.batcher.lock:
                add = getattr(self.engine, "add_worker", None)
                if add is None:
                    raise RuntimeError("engine does not accept workers (not a ShardedFleet)")
                if not args or not isinstance(args[0], str):
                    raise ValueError("add_worker takes one worker URL string")
                return int(add(args[0]))
        if op == "shutdown":
            return "stopping"
        with gateway.batcher.lock:
            if op == "cells":
                return list(self.engine.cells())
            if op == "len":
                return len(self.engine)
            if op == "contains":
                return args[0] in self.engine
            if op == "drift_events":
                fetch = getattr(self.engine, "drift_events", None)
                return [] if fetch is None else list(fetch())
            if op == "publish":
                return self._publish(*args, **kwargs)
            if op in ("promote", "rollback"):
                return self._steer_channel(op, *args)
            # register_cell / deregister_cell / reroute_cell / cell
            return getattr(self.engine, op)(*args, **kwargs)

    # -- registry ops (batcher lock held) -------------------------------
    def _registry(self):
        registry = getattr(self.engine, "registry", None)
        if registry is None:
            raise RuntimeError("engine has no model registry attached")
        return registry

    def _controller_for(self, name: str):
        """The autopilot's canary controller, when it steers ``name``."""
        controller = getattr(self.autopilot, "controller", None)
        if controller is not None and getattr(controller, "name", None) == name:
            return controller
        return None

    def _publish(
        self,
        name: str,
        model_spec: dict,
        chemistry: str | None = None,
        dataset: str | None = None,
        extra: dict | None = None,
        channel: str = "stable",
    ) -> int:
        """Publish a candidate shipped as a wire spec; returns its version.

        A canary-channel publish for the autopilot's model routes
        through its :class:`~repro.serve.canary.CanaryController`
        (publish + pin the traffic slice in one step), so a remote
        retrain pipeline starts a *steered* canary rather than racing
        the control loop on ``channels.json``.
        """
        model = _build_model(model_spec)
        if model is None:
            raise ValueError("publish needs a model spec (config + weights)")
        if channel == "canary":
            controller = self._controller_for(name)
            if controller is not None:
                if controller.active:
                    raise ValueError(
                        f"canary of {name!r} already active; promote or roll back first"
                    )
                return int(
                    controller.start(
                        candidate=model, chemistry=chemistry, dataset=dataset, extra=extra
                    )
                )
        entry = self._registry().publish(
            name, model, chemistry=chemistry, dataset=dataset, extra=extra, channel=channel
        )
        return int(entry.version)

    def _steer_channel(self, op: str, name: str) -> int:
        """Promote/rollback ``name``, through the controller when it steers it."""
        controller = self._controller_for(name)
        if controller is not None and controller.active:
            return int(getattr(controller, op)())
        return int(getattr(self._registry(), op)(name))


def run_daemon(daemon: SocDaemon, announce=print) -> int:
    """CLI run loop: start, announce the control/scrape URLs, block."""
    daemon.start()
    announce(f"daemon listening on {daemon.url}")
    if daemon.exposition_url is not None:
        announce(f"exposition at {daemon.exposition_url}")
    try:
        daemon.wait()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.stop()
    return 0
