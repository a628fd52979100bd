"""Public client for a running ``repro-soc serve`` daemon.

Before this module, anything that wanted to talk to the serving stack
imported gateway internals and built the whole stack in-process —
fine for simulation, wrong for a daemon that is already running.
:class:`SocClient` is the supported surface: connect by URL, call
methods mirroring the gateway endpoints, get plain Python values
back.  Examples and soak scripts depend on this module and nothing
deeper.

The wire is the frame protocol the workers use (:mod:`repro.serve.wire`
over :mod:`repro.serve.transport`): each op is one frame with its
arguments in the JSON meta, and a rollout ships its cycles and
trajectories as raw arrays, exactly as a shard worker's does.  One
request/reply pair at a time per connection — a client is **not**
thread-safe; open one per thread (connections are cheap, the daemon
serves each on its own handler thread).  Remote errors come back as
raised exceptions mapped from the daemon's ``err`` frames by
:func:`~repro.serve.wire.check_reply` (``KeyError`` for unknown cells,
``RuntimeError`` otherwise — including gateway shedding).

Usage::

    from repro.serve.client import SocClient

    with SocClient("unix:///run/repro-soc.sock") as client:
        client.register_cell("pack7.cell3", chemistry="nca")
        soc = client.estimate("pack7.cell3", voltage=3.71, current=1.2, temp_c=24.0)
        fleet_soc = client.predict("pack7.cell3", current_avg=1.0,
                                   temp_avg_c=25.0, horizon_s=600.0)
"""

from __future__ import annotations

from typing import Callable, Iterable

from . import wire
from .transport import PeerGone, Transport, TransportError, connect

__all__ = ["SocClient", "DaemonUnavailable"]


class DaemonUnavailable(ConnectionError):
    """The daemon could not be reached (or the link died mid-call)."""


class SocClient:
    """One connection to a :class:`~repro.serve.daemon.SocDaemon`.

    Parameters
    ----------
    url:
        The daemon's control URL (``unix:///path`` or
        ``tcp://host:port``) — what ``repro-soc serve`` printed at
        startup.
    connect_timeout_s:
        How long to keep retrying a refused connection (a daemon still
        binding, or restarting) before raising
        :class:`DaemonUnavailable`.
    call_timeout_s:
        Per-call receive deadline (``None`` waits forever — rollouts
        can be long).  A deadline hit poisons the connection; the
        client transparently reconnects before the next call.
    """

    def __init__(
        self,
        url: str,
        connect_timeout_s: float = 10.0,
        call_timeout_s: float | None = None,
    ):
        self.url = url
        self.connect_timeout_s = float(connect_timeout_s)
        self.call_timeout_s = call_timeout_s
        self._transport: Transport | None = None
        self._connect()

    # -- gateway endpoints ----------------------------------------------
    def estimate(self, cell_id: str, voltage: float, current: float, temp_c: float) -> float:
        """Branch 1 SoC from an instantaneous measurement (micro-batched)."""
        return float(self._call("estimate", cell_id, float(voltage), float(current), float(temp_c)))

    def predict(
        self,
        cell_id: str,
        current_avg: float,
        temp_avg_c: float,
        horizon_s: float,
    ) -> float:
        """Branch 2 SoC at ``horizon_s`` ahead (micro-batched).

        The prediction anchors on the cell's *stored* SoC (an earlier
        :meth:`estimate` must have completed); per-request anchors are
        an engine-level feature the batched path does not carry.
        """
        return float(
            self._call(
                "predict",
                cell_id,
                float(current_avg),
                float(temp_avg_c),
                float(horizon_s),
            )
        )

    def rollout(self, assignments: Iterable[tuple[str, object]], step_s: float) -> dict:
        """Fleet rollout over registered cells; ``{cell_id: RolloutResult}``."""
        meta, arrays = wire.encode_rollout_request(list(assignments), float(step_s))
        reply = self._roundtrip(lambda t: t.send_v2("rollout", meta, arrays), "rollout")
        return wire.decode_rollout_results(reply.meta, reply.arrays)

    # -- fleet membership ----------------------------------------------
    def register_cell(self, cell_id: str, chemistry: str | None = None, model_name: str | None = None):
        """Register a cell with the daemon's fleet."""
        return self._call("register_cell", cell_id, chemistry=chemistry, model_name=model_name)

    def deregister_cell(self, cell_id: str):
        """Remove a cell; returns its final state."""
        return self._call("deregister_cell", cell_id)

    def reroute_cell(self, cell_id: str, model_name: str | None = None):
        """Re-resolve a cell's serving model in place."""
        return self._call("reroute_cell", cell_id, model_name=model_name)

    def cell(self, cell_id: str):
        """State record for one registered cell."""
        return self._call("cell", cell_id)

    def cells(self) -> list:
        """Detached state records of every registered cell."""
        return list(self._call("cells"))

    def __len__(self) -> int:
        return int(self._call("len"))

    def __contains__(self, cell_id: str) -> bool:
        return bool(self._call("contains", cell_id))

    # -- operations -----------------------------------------------------
    def ping(self) -> bool:
        """Round-trip liveness check against the daemon."""
        try:
            return self._call("ping") == "pong"
        except (DaemonUnavailable, RuntimeError):
            return False

    def hello(self) -> dict:
        """Daemon identity: service name, URL, supported ops."""
        return self._call("hello")

    def stats(self) -> dict:
        """Gateway per-endpoint counters/latency percentiles (live)."""
        return self._call("stats")

    def metrics_snapshot(self) -> dict:
        """The daemon gateway's metrics snapshot (workers keep their own)."""
        return self._call("metrics")

    def worker_health(self) -> list[bool]:
        """Cached per-shard liveness, as the daemon sees it."""
        return list(self._call("worker_health"))

    def heartbeat(self) -> list[bool]:
        """Actively probe every shard worker through the daemon."""
        return list(self._call("heartbeat"))

    def add_worker(self, url: str) -> int:
        """Register a new shard worker by URL; returns its shard index."""
        return int(self._call("add_worker", url))

    # -- registry ops ---------------------------------------------------
    def drift_events(self) -> list:
        """Drift events gathered across the daemon's whole fleet."""
        return list(self._call("drift_events"))

    def publish(
        self,
        name: str,
        model,
        chemistry: str | None = None,
        dataset: str | None = None,
        extra: dict | None = None,
        channel: str = "stable",
    ) -> int:
        """Publish a model through the daemon; returns the new version.

        The model's config + weights travel the wire as a spec (the
        same encoding spawned workers get at ``init``), so the daemon rebuilds
        it without the client touching the registry directory.  A
        ``channel="canary"`` publish for the autopilot's model starts a
        *steered* canary — pinned traffic slice, autopilot verdicts —
        rather than just flipping a channel pointer; this is how a
        remote retrain pipeline hands off a candidate without racing
        the daemon on ``channels.json``.
        """
        from .workers import _model_spec

        return int(
            self._call(
                "publish",
                name,
                _model_spec(model),
                chemistry=chemistry,
                dataset=dataset,
                extra=extra,
                channel=channel,
            )
        )

    def promote(self, name: str) -> int:
        """Promote ``name``'s canary to stable; returns the version."""
        return int(self._call("promote", name))

    def rollback(self, name: str) -> int:
        """Abandon ``name``'s canary; returns the stable version."""
        return int(self._call("rollback", name))

    def shutdown_daemon(self) -> None:
        """Ask the daemon to stop (drains workers, closes journals)."""
        self._call("shutdown")

    def close(self) -> None:
        """Close the connection (the daemon keeps serving others)."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def __enter__(self) -> SocClient:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        try:
            self._transport = connect(self.url, timeout_s=self.connect_timeout_s)
        except (TransportError, ValueError) as exc:
            if isinstance(exc, ValueError):
                raise
            raise DaemonUnavailable(f"no daemon at {self.url}: {exc}") from exc

    def _call(self, op: str, *args, **kwargs):
        """One control-op round-trip; the reply's value."""
        meta = wire.call_meta(args, kwargs)
        return self._roundtrip(lambda t: t.send_v2(op, meta, ()), op).meta.get("value")

    def _roundtrip(self, send: Callable[[Transport], None], op: str) -> wire.V2Frame:
        if self._transport is None or self._transport.closed:
            self._connect()
        try:
            return wire.check_reply(self._transport.request_with(send, timeout_s=self.call_timeout_s))
        except PeerGone as exc:
            self.close()
            raise DaemonUnavailable(f"daemon at {self.url} went away during {op!r}: {exc}") from exc
        except TransportError as exc:
            self.close()  # timeout or garbage poisons the stream; reconnect next call
            raise DaemonUnavailable(f"daemon at {self.url} did not answer {op!r}: {exc}") from exc
