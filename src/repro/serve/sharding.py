"""Sharded fleet serving: partition cells across shard workers.

One :class:`~repro.serve.engine.FleetEngine` holds every cell's state
in a single process-wide dict — fine at thousands of cells, a
bottleneck (and a single blast radius) at fleet scale.
:class:`ShardedFleet` splits the fleet across ``n_shards`` workers,
each a full engine with its own state table, behind the *same* API:
``estimate``/``predict``/``rollout_fleet`` fan the batch out by cell
ownership, run each shard's slice through that shard's batched
forwards, and gather results back into request order.

Placement is **rendezvous (highest-random-weight) hashing** on the
cell id (:func:`shard_for`): every cell's owner is a pure function of
``(cell_id, n_shards)``, so no routing table needs to be stored or
replicated, and :meth:`ShardedFleet.rebalance` to a different shard
count moves only the cells whose winner changed (~``1/n`` of the
fleet when growing by one shard) — never a full reshuffle, and the
moved cells carry their :class:`~repro.serve.engine.CellState` with
them.

Because the engine's forwards are row-independent, a shard serving a
subset of a batch computes the same per-row numbers the single engine
would have — typically bit-for-bit, and always far inside the fleet's
1e-9 equivalence budget (re-partitioned batches can shift BLAS
rounding at the ~1e-17 level), which the test suite asserts against
the single-engine path.  Worker topology is declared with one
:class:`~repro.serve.workers.WorkerSpec` — ``url=None`` for in-process
:class:`FleetEngine` shards (the default), ``url="pipe://"`` for
subprocess workers, ``url="tcp://..."``/``"unix://..."`` for socket
workers on this or any other host — and every shard, whatever the
medium, speaks the same duck-typed engine API.

Durability is per worker: a spec with a ``journal`` path template
gives every process or socket worker its own journal, a restarted
worker restores from it, and :meth:`ShardedFleet.resume_rollout_fleet`
finishes an interrupted rollout shard by shard.  In-process shards are
not durable.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Iterable, Sequence

import numpy as np

from ..core.rollout import RolloutResult
from ..datasets.base import CycleRecord
from ..monitor.tracing import stage
from . import wire
from .engine import CellState, FleetEngine, _FleetPlan
from .registry import ModelRegistry
from .workers import WorkerCrashError, WorkerSpec

__all__ = ["ShardedFleet", "shard_for"]


def shard_for(cell_id: str, n_shards: int) -> int:
    """Rendezvous-hash owner shard of a cell.

    Each shard "bids" ``blake2b(cell_id # shard)``; the highest bid
    wins.  Changing ``n_shards`` only re-homes cells whose winning
    shard appears or disappears — the stable-rebalancing property.
    (CRC-style checksums are unusable here: they are affine, so the
    bids of equal-length cell ids differ by a constant XOR and whole
    id families collapse onto the same shard.)
    """
    if n_shards < 1:
        raise ValueError("need at least one shard")
    if n_shards == 1:
        return 0
    best, best_weight = 0, -1
    for shard in range(n_shards):
        digest = hashlib.blake2b(f"{cell_id}#{shard}".encode(), digest_size=8).digest()
        weight = int.from_bytes(digest, "big")
        if weight > best_weight:
            best, best_weight = shard, weight
    return best


def _plan_cycles(pairs: list[tuple[str, CycleRecord]], step_s: float) -> None:
    """Plan the whole rollout once; raises before any shard is called.

    Shards plan their own slices again, but a later shard's bad cycle,
    or a cell id assigned twice, must not surface after earlier shards
    committed state and journal windows.  The same holds for cycle tags
    the wire codec cannot carry: they are refused here for every
    topology, in-process shards included, so a fleet accepts the same
    cycles whatever its workers.
    """
    _FleetPlan.build(pairs, step_s)
    for cycle in {id(cycle): cycle for _, cycle in pairs}.values():
        wire.check_encodable(cycle.tags, f"tags of cycle {cycle.name!r}")


class ShardedFleet:
    """Fleet engine sharded by cell id, behind the single-engine API.

    Parameters
    ----------
    n_shards:
        Number of shard workers.
    registry:
        The parent-side :class:`~repro.serve.registry.ModelRegistry`
        that fleet-level tooling
        (:class:`~repro.serve.canary.CanaryController`, the autopilot)
        publishes and promotes through.  Without a ``spec`` the shards
        are in-process engines sharing this instance (a checkpoint is
        materialized once); workers open their own copy of the same
        registry root and follow promotions via ``channels.json``.
    spec:
        The :class:`~repro.serve.workers.WorkerSpec` every shard is
        built from, growth included (exposed as :attr:`spec`): transport
        URL, model, registry, journal template, monitor/trace flags.
        Default: ``WorkerSpec(registry=registry)``, in-process shards.
    """

    def __init__(
        self,
        n_shards: int,
        registry: ModelRegistry | None = None,
        spec: WorkerSpec | None = None,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self.spec = WorkerSpec(registry=registry) if spec is None else spec
        self.registry = registry
        self._shards: list = []
        self._check_endpoints(self.spec, range(n_shards))
        self._shards = [self.spec.resolve(k) for k in range(n_shards)]

    # -- topology ------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Current number of shard workers."""
        return len(self._shards)

    def shard_of(self, cell_id: str) -> int:
        """Owner shard index of a cell id (registered or not)."""
        return shard_for(cell_id, self.n_shards)

    def shard_sizes(self) -> list[int]:
        """Registered-cell count per shard."""
        return [len(shard) for shard in self._shards]

    def rebalance(self, n_shards: int) -> int:
        """Re-shard to a new worker count; returns cells moved.

        Rendezvous placement keeps every cell whose winning shard
        survives exactly where it is; only cells on removed shards (or
        won by newly added ones) migrate, and they keep their live
        state — no SoC is lost to a topology change.
        """
        if n_shards < 1:
            raise ValueError("need at least one shard")
        old = self._shards
        self._check_endpoints(self.spec, range(len(old), n_shards))
        self._shards = old[:n_shards] + [self.spec.resolve(k) for k in range(len(old), n_shards)]
        moved = self._migrate(old)
        for removed in old[n_shards:]:
            self._close_worker(removed)
        return moved

    # -- fleet membership ----------------------------------------------
    def register_cell(
        self,
        cell_id: str,
        chemistry: str | None = None,
        model_name: str | None = None,
    ) -> CellState:
        """Add (or re-route) a cell on its owner shard."""
        return self._shards[self.shard_of(cell_id)].register_cell(
            cell_id, chemistry=chemistry, model_name=model_name
        )

    def deregister_cell(self, cell_id: str) -> CellState:
        """Remove a cell from its owner shard; returns its final state."""
        return self._owner(cell_id).deregister_cell(cell_id)

    def reroute_cell(self, cell_id: str, model_name: str | None = None) -> CellState:
        """Re-resolve a cell's serving model in place (state preserved)."""
        return self._owner(cell_id).reroute_cell(cell_id, model_name=model_name)

    def cell(self, cell_id: str) -> CellState:
        """State record for one registered cell (KeyError when unknown)."""
        return self._owner(cell_id).cell(cell_id)

    def cells(self) -> Iterable[CellState]:
        """Iterate all cells' state records, shard by shard."""
        for shard in self._shards:
            yield from shard.cells()

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, cell_id: str) -> bool:
        return cell_id in self._shards[self.shard_of(cell_id)]

    # -- batched inference ---------------------------------------------
    def estimate(
        self,
        cell_ids: Sequence[str],
        voltage,
        current,
        temp_c,
        now_s: float | None = None,
    ) -> np.ndarray:
        """Batched Branch 1 across shards (see :meth:`FleetEngine.estimate`)."""
        v = np.broadcast_to(np.asarray(voltage, dtype=np.float64), (len(cell_ids),))
        i = np.broadcast_to(np.asarray(current, dtype=np.float64), (len(cell_ids),))
        t = np.broadcast_to(np.asarray(temp_c, dtype=np.float64), (len(cell_ids),))
        out = np.empty(len(cell_ids))
        for shard, idx in self._partition(cell_ids).items():
            sub_ids = [cell_ids[k] for k in idx]
            with stage("shard.estimate", shard=str(shard), rows=len(idx)):
                out[idx] = self._shards[shard].estimate(sub_ids, v[idx], i[idx], t[idx], now_s=now_s)
        return out

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
        """Batched Branch 2 across shards (see :meth:`FleetEngine.predict`)."""
        i_avg = np.broadcast_to(np.asarray(current_avg, dtype=np.float64), (len(cell_ids),))
        t_avg = np.broadcast_to(np.asarray(temp_avg_c, dtype=np.float64), (len(cell_ids),))
        horizon = np.broadcast_to(np.asarray(horizon_s, dtype=np.float64), (len(cell_ids),))
        soc = None
        if soc_now is not None:
            soc = np.broadcast_to(np.asarray(soc_now, dtype=np.float64), (len(cell_ids),))
        out = np.empty(len(cell_ids))
        for shard, idx in self._partition(cell_ids).items():
            sub_ids = [cell_ids[k] for k in idx]
            with stage("shard.predict", shard=str(shard), rows=len(idx)):
                out[idx] = self._shards[shard].predict(
                    sub_ids,
                    i_avg[idx],
                    t_avg[idx],
                    horizon[idx],
                    soc_now=None if soc is None else soc[idx],
                    commit=commit,
                    now_s=now_s,
                )
        return out

    # -- batched rollout ------------------------------------------------
    def rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Fan a fleet rollout out to the shards and gather the results.

        Each shard rolls its slice in lock-step batches (see
        :meth:`FleetEngine.rollout_fleet`), and a durable worker
        journals its own slice.  Every cycle is planned and its tags
        checked before the first shard call, so one that cannot be
        planned, or whose tags cannot cross the wire, or a cell id
        assigned twice, raises ``ValueError`` with no shard state or
        journal changed.
        """
        pairs = list(assignments)
        _plan_cycles(pairs, step_s)
        return self._fan_rollout(pairs, step_s, step_hook, resume=False)

    def resume_rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Finish an interrupted fleet rollout from the workers' journals.

        Every shard must be durable (a journaled
        :class:`~repro.serve.workers.ShardWorker`): each replays its own
        cells' journaled windows and computes only the remainder (see
        :meth:`FleetEngine.resume_rollout_fleet`).
        """
        if not all(getattr(shard, "durable", False) for shard in self._shards):
            raise ValueError("resume requires every shard to be a journaled worker")
        pairs = list(assignments)
        _plan_cycles(pairs, step_s)
        return self._fan_rollout(pairs, step_s, step_hook, resume=True)

    # -- worker lifecycle ----------------------------------------------
    def worker_health(self) -> list[bool]:
        """Liveness per shard worker (in-process engines are always up)."""
        return [bool(getattr(shard, "alive", True)) for shard in self._shards]

    def restart_dead_workers(self) -> list[int]:
        """Respawn every dead shard worker; returns the healed indices.

        The recovery half of gateway retry (and the
        :class:`~repro.monitor.autopilot.ControlLoop` health tick):
        journaled :class:`~repro.serve.workers.ShardWorker` peers
        restore their cells and in-flight rollout progress from their
        journals, so requests retried after this call land
        on a fleet that looks exactly like the one that crashed.
        In-process engines cannot die, so this is a no-op for them.
        """
        restarted: list[int] = []
        for k, shard in enumerate(self._shards):
            if getattr(shard, "alive", True):
                continue
            restart = getattr(shard, "restart", None)
            if restart is None:
                continue
            try:
                restart()
            except WorkerCrashError:
                continue  # died again during respawn/init; stays dead, callers see per-cell errors
            except RuntimeError:
                continue  # a concurrent recovery beat us to it (worker already running)
            restarted.append(k)
        return restarted

    def heartbeat(self, timeout_s: float = 2.0) -> list[bool]:
        """Actively probe every shard worker; returns liveness per shard.

        :meth:`worker_health` is the cached view (cheap, but a
        silently-dead peer stays green until a call fails); this one
        sends every :class:`~repro.serve.workers.ShardWorker`, whatever
        its launch mode, a deadline-bounded ping
        (:meth:`~repro.serve.workers.ShardWorker.check_alive`), marking
        unresponsive workers dead so :meth:`restart_dead_workers` can
        heal them.  In-process engines have no probe and report their
        cached liveness.  Callers serialize this against traffic —
        probes share the request channel.
        """
        health: list[bool] = []
        for shard in self._shards:
            probe = getattr(shard, "check_alive", None)
            if probe is not None:
                health.append(bool(probe(timeout_s)))
            else:
                health.append(bool(getattr(shard, "alive", True)))
        return health

    def add_worker(self, url: str) -> int:
        """Grow the fleet by the worker listening at ``url``; returns its index.

        The daemon's outbound registration path: the new shard is
        :attr:`spec` dialing ``url`` (same model, journal template,
        monitor flags), and :attr:`spec` itself is left as it was, so
        later growth still builds from it.  Rendezvous hashing then
        migrates ~1/n of the cells onto the new shard, live state
        intact.
        """
        index = len(self._shards)
        spec = dataclasses.replace(self.spec, url=url, spawn=False)
        self._check_endpoints(spec, [index])
        return self.adopt_worker(spec.resolve(index))

    def adopt_worker(self, worker) -> int:
        """Attach an already-built worker as a new shard; returns its index.

        The inbound-registration half of the serve daemon: a worker
        that dialed in (``repro-soc worker --connect``) arrives as a
        live :class:`~repro.serve.workers.ShardWorker` built from
        :attr:`spec` around its transport, not a spec to resolve.  Cells
        the new shard now wins migrate in with their state (the same
        move :meth:`rebalance` performs).
        """
        old = list(self._shards)
        self._shards.append(worker)
        self._migrate(old)
        return len(old)

    def reattach_worker(self, name: str, transport) -> int | None:
        """Re-home a returning ``--connect`` worker onto its old shard.

        Matches a *dead* shard worker by ``name`` and hands it the
        fresh transport (:meth:`ShardWorker.attach
        <repro.serve.workers.ShardWorker.attach>`): the worker
        re-inits, restores from its journal, and the shard heals in
        place — no rebalance, no lost cells.  Returns the shard index,
        or ``None`` when no dead worker carries that name (the caller
        should :meth:`adopt_worker` it as new capacity instead).
        """
        for k, shard in enumerate(self._shards):
            if getattr(shard, "name", None) != name:
                continue
            if getattr(shard, "alive", True):
                continue
            attach = getattr(shard, "attach", None)
            if attach is None:
                continue
            attach(transport)
            return k
        return None

    # -- observability --------------------------------------------------
    def metrics(self) -> dict:
        """One merged metrics snapshot across the whole shard topology.

        Every shard built with ``monitor=True`` contributes its own
        registry's snapshot (workers ship theirs over the wire, the
        ``metrics`` op).  Dead workers are skipped — their series
        resume after :meth:`restart_dead_workers`.  Merge rules are
        those of :func:`repro.monitor.metrics.merge_snapshots`.
        """
        from ..monitor.metrics import merge_snapshots

        snapshots: list[dict] = []
        for shard in self._shards:
            try:
                snapshot = shard.metrics_snapshot()
            except WorkerCrashError:
                continue
            if snapshot:
                snapshots.append(snapshot)
        return merge_snapshots(snapshots)

    def drift_events(self) -> list:
        """Drift events gathered across the whole shard topology.

        Fans :meth:`FleetEngine.drift_events` out to every shard
        (workers ship their events over the wire, the ``drift_events``
        op).  Dead workers are skipped.  Order is per-shard
        oldest-first; cell ids are fleet-unique, so events never
        collide across shards.
        """
        events: list = []
        for shard in self._shards:
            try:
                events.extend(shard.drift_events())
            except WorkerCrashError:
                continue
        return events

    def close(self) -> None:
        """Shut down shard workers that hold external resources.

        Process-backed workers drain gracefully (journals flushed,
        children reaped); in-process engines have nothing to release.
        """
        for shard in self._shards:
            self._close_worker(shard)

    def __enter__(self) -> ShardedFleet:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _check_endpoints(self, spec: WorkerSpec, indices: Iterable[int]) -> None:
        """Refuse new shards ``indices`` of ``spec`` that would dial an endpoint in use.

        A standalone worker serves one connection at a time, so a second
        shard dialing its fixed URL would hang in ``init``; this runs
        before any dial.  It compares against the live shards' URLs
        (after :meth:`add_worker` some shards dial URLs :attr:`spec`
        does not name).  Spawned, ``pipe://`` and ``shm://`` workers
        and in-process shards dial nothing shared.
        """
        if spec.url is None or spec.spawn or spec.scheme in ("pipe", "shm"):
            return
        in_use = {getattr(shard, "url", None) for shard in self._shards}
        for index in indices:
            url = spec.url_for(index)
            if url in in_use:
                raise ValueError(
                    f"shard {index} would share worker endpoint {url!r} with another shard; "
                    "use a {shard} URL template or spawn=True"
                )
            in_use.add(url)

    def _migrate(self, old_shards: list) -> int:
        """Move cells from ``old_shards`` to their owners in the current topology.

        ``old_shards[k]`` was shard ``k``; every cell whose rendezvous
        owner is now another index migrates with its live state.
        Returns the number of cells moved.
        """
        moved = 0
        for source, shard in enumerate(old_shards):
            for state in list(shard.cells()):
                target = self.shard_of(state.cell_id)
                if target != source:
                    shard._evict_state(state.cell_id)
                    self._shards[target]._adopt_state(state)
                    moved += 1
        return moved

    @staticmethod
    def _close_worker(worker) -> None:
        closer = getattr(worker, "close", None)
        if closer is not None:
            closer()

    def _fan_rollout(
        self,
        pairs: list[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None,
        resume: bool,
    ) -> dict[str, RolloutResult]:
        by_shard: dict[int, list[tuple[str, CycleRecord]]] = {}
        for cell_id, cycle in pairs:
            by_shard.setdefault(self.shard_of(cell_id), []).append((cell_id, cycle))
        results: dict[str, RolloutResult] = {}
        for shard, shard_pairs in sorted(by_shard.items()):
            engine = self._shards[shard]
            with stage("shard.rollout", shard=str(shard), cells=len(shard_pairs)):
                if resume:
                    results.update(
                        engine.resume_rollout_fleet(shard_pairs, step_s, step_hook=step_hook)
                    )
                else:
                    results.update(engine.rollout_fleet(shard_pairs, step_s, step_hook=step_hook))
        return {cell_id: results[cell_id] for cell_id, _ in pairs}

    def _owner(self, cell_id: str) -> FleetEngine:
        shard = self._shards[self.shard_of(cell_id)]
        if cell_id not in shard:
            raise KeyError(f"unknown cell {cell_id!r}; {len(self)} cells registered")
        return shard

    def _partition(self, cell_ids: Sequence[str]) -> dict[int, np.ndarray]:
        groups: dict[int, list[int]] = {}
        for k, cid in enumerate(cell_ids):
            groups.setdefault(self.shard_of(cid), []).append(k)
        return {shard: np.asarray(idx) for shard, idx in groups.items()}
