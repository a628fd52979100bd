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

A shared :class:`~repro.serve.persistence.StateJournal` makes the
whole sharded fleet durable: shards append cell/window records to the
one journal (a fleet rollout is bracketed once via
``journal.rollout_scope``), and :meth:`ShardedFleet.restore` re-places
every journaled cell by hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..core.model import TwoBranchSoCNet
from ..core.rollout import RolloutResult, cycle_windows
from ..datasets.base import CycleRecord
from ..monitor.tracing import stage
from . import wire
from .engine import CellState, FleetEngine
from .persistence import StateJournal
from .registry import ModelRegistry
from .workers import WorkerCrashError, WorkerSpec

if TYPE_CHECKING:
    from ..monitor.drift import DriftMonitor
    from ..monitor.metrics import MetricsRegistry

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
    """Plan every unique cycle once; raises before any shard is called.

    Shards plan their own slices again, but a later shard's bad cycle
    must not surface after earlier shards committed state and journal
    windows.  The same holds for cycle tags the wire codec cannot
    carry: they are refused here for every topology, in-process shards
    included, so a fleet accepts the same cycles whatever its workers.
    """
    for cycle in {id(cycle): cycle for _, cycle in pairs}.values():
        cycle_windows(cycle, step_s)
        wire.check_encodable(cycle.tags, f"tags of cycle {cycle.name!r}")


class ShardedFleet:
    """Fleet engine sharded by cell id, behind the single-engine API.

    Parameters
    ----------
    n_shards:
        Number of shard workers (each a :class:`FleetEngine` by
        default).
    spec:
        A :class:`~repro.serve.workers.WorkerSpec` (one template for
        every shard) or a sequence of them (per-shard; growth beyond
        the sequence reuses its last entry).  The spec carries the
        whole worker description — transport URL, model, registry,
        journal template, monitor/trace flags — so it replaces the
        ``default_model``/``journal``/``metrics``/``drift`` kwargs,
        which cannot be combined with it.
    default_model, registry:
        Passed to every in-process shard engine (shards share the
        registry's model cache, so a checkpoint is materialized once).
        With a ``spec``, ``registry`` may still be given: workers open
        their own copy of the same registry *root*, and the parent-side
        instance is what fleet-level tooling
        (:class:`~repro.serve.canary.CanaryController`, the autopilot)
        publishes and promotes through — workers follow via the shared
        ``channels.json``.
    journal:
        Optional shared :class:`StateJournal` for the whole fleet
        (in-process workers only — process/socket workers own their
        durability, e.g. one journal per worker process, declared via
        ``WorkerSpec.journal``).
    metrics, drift:
        Optional :class:`~repro.monitor.metrics.MetricsRegistry` /
        :class:`~repro.monitor.drift.DriftMonitor` shared by every
        in-process shard engine (one registry, one detector bank —
        cell ids are fleet-unique, so shards cannot collide).  With a
        ``spec``, declare monitoring there instead (``monitor=True``);
        worker snapshots merge in :meth:`metrics`.
    """

    def __init__(
        self,
        n_shards: int,
        default_model: TwoBranchSoCNet | None = None,
        registry: ModelRegistry | None = None,
        journal: StateJournal | None = None,
        metrics: MetricsRegistry | None = None,
        drift: DriftMonitor | None = None,
        spec: WorkerSpec | Sequence[WorkerSpec] | None = None,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        self._specs: list[WorkerSpec] | None = None
        if spec is not None:
            if default_model is not None or journal is not None or metrics is not None or drift is not None:
                raise ValueError(
                    "spec carries the worker description; drop the "
                    "default_model/journal/metrics/drift kwargs"
                )
            self._specs = [spec] if isinstance(spec, WorkerSpec) else list(spec)
            if not self._specs:
                raise ValueError("spec sequence cannot be empty")
            self._check_spec_addresses(n_shards)
            journal = next(
                (s.journal for s in self._specs if isinstance(s.journal, StateJournal)), None
            )
        self._default_model = default_model
        self.registry = registry
        self.journal = journal
        # named metrics_registry (not .metrics) because .metrics() is the
        # topology-wide snapshot method — mirroring ISSUE/API naming
        self.metrics_registry = metrics
        self.drift = drift
        self._shards = [self._new_worker(k) for k in range(n_shards)]

    @classmethod
    def restore(
        cls,
        journal: StateJournal,
        n_shards: int,
        default_model: TwoBranchSoCNet | None = None,
        registry: ModelRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        drift: DriftMonitor | None = None,
    ) -> ShardedFleet:
        """Rebuild a sharded fleet from a journal after a restart.

        Ownership is recomputed from the cell ids, so the journal needs
        no shard map — restoring at a *different* ``n_shards`` than the
        crashed process ran is valid and simply re-places the cells.
        (Resuming a rollout at the same shard count is bit-for-bit
        exact; a different count re-partitions the batches, which can
        shift trajectories by BLAS rounding ~1e-17.)
        """
        fleet = cls(
            n_shards,
            default_model=default_model,
            registry=registry,
            journal=journal,
            metrics=metrics,
            drift=drift,
        )
        for state in journal.snapshot().cells.values():
            shard = shard_for(state.cell_id, n_shards)
            fleet._shards[shard]._adopt_state(dataclasses.replace(state))
        return fleet

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
        self._shards = old[:n_shards] + [self._new_worker(k) for k in range(len(old), n_shards)]
        moved = 0
        for source, shard in enumerate(old):
            for state in list(shard.cells()):
                target = shard_for(state.cell_id, n_shards)
                if target != source:
                    shard._evict_state(state.cell_id)
                    self._shards[target]._adopt_state(state)
                    moved += 1
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
        :meth:`FleetEngine.rollout_fleet`); one journal rollout marker
        brackets the whole fleet, so restore/resume sees a single
        rollout regardless of shard count.  Every cycle is planned and
        its tags checked before the first shard call, so one that cannot
        be planned, or whose tags cannot cross the wire, raises
        ``ValueError`` with no shard state or journal changed.
        """
        pairs = list(assignments)
        _plan_cycles(pairs, step_s)
        if self.journal is not None:
            with self.journal.rollout_scope(step_s):
                return self._fan_rollout(pairs, step_s, step_hook, resume=False)
        return self._fan_rollout(pairs, step_s, step_hook, resume=False)

    def resume_rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Finish an interrupted fleet rollout from the shared journal.

        Shards replay their own cells' journaled windows and compute
        only the remainder (see
        :meth:`FleetEngine.resume_rollout_fleet`); the shard count may
        differ from the run that crashed.  Durable spec-declared workers
        (journaled :class:`~repro.serve.workers.ShardWorker`) resume
        from their own per-worker journals instead of a shared one.
        """
        if self.journal is None and not all(getattr(s, "durable", False) for s in self._shards):
            raise ValueError("resume requires a fleet with a journal attached")
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

    def add_worker(self, spec: WorkerSpec | str) -> int:
        """Grow the fleet by one shard worker; returns its index.

        ``spec`` may be a full :class:`~repro.serve.workers.WorkerSpec`
        or just a transport URL string — the daemon's worker
        registration path — in which case the fleet's spec template is
        reused with the new address (same model, journal template,
        monitor flags).  Rendezvous hashing then migrates ~1/n of the
        cells onto the new shard, live state intact.
        """
        if isinstance(spec, str):
            template = self._spec_for(len(self._shards))
            spec = dataclasses.replace(template, url=spec, spawn=False)
        worker = spec.resolve(len(self._shards))
        if self._specs is not None:
            self._specs.append(spec)
        return self.adopt_worker(worker)

    def adopt_worker(self, worker) -> int:
        """Attach an already-built worker as a new shard; returns its index.

        The inbound-registration half of the serve daemon: a worker
        that dialed in (``repro-soc worker --connect``) arrives as a
        live :class:`~repro.serve.workers.ShardWorker`
        (:meth:`WorkerSpec.adopt <repro.serve.workers.WorkerSpec.adopt>`),
        not a spec to resolve.  Cells the new shard now wins migrate in
        with their state (the same move :meth:`rebalance` performs).
        """
        self._shards.append(worker)
        n = len(self._shards)
        for source, shard in enumerate(self._shards[:-1]):
            for state in list(shard.cells()):
                target = shard_for(state.cell_id, n)
                if target != source:
                    shard._evict_state(state.cell_id)
                    self._shards[target]._adopt_state(state)
        return n - 1

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

        In-process shards sharing one registry contribute it once
        (deduplicated by object identity); subprocess workers built
        with ``monitor=True`` ship their snapshots over the wire
        (``metrics`` op).  Dead workers are skipped — their series
        resume after :meth:`restart_dead_workers`.  Merge rules are
        those of :func:`repro.monitor.metrics.merge_snapshots`.
        """
        from ..monitor.metrics import merge_snapshots

        snapshots: list[dict] = []
        seen: set[int] = set()
        for shard in self._shards:
            snapshot_fn = getattr(shard, "metrics_snapshot", None)
            if snapshot_fn is None:
                continue
            registry = getattr(shard, "metrics", None)
            if registry is not None:
                if id(registry) in seen:
                    continue
                seen.add(id(registry))
            try:
                snapshot = snapshot_fn()
            except WorkerCrashError:
                continue
            if snapshot:
                snapshots.append(snapshot)
        return merge_snapshots(snapshots)

    def drift_events(self) -> list:
        """Drift events gathered across the whole shard topology.

        Fans :meth:`FleetEngine.drift_events` out to every shard:
        in-process shards sharing one monitor (or router) contribute it
        once (deduplicated by object identity), subprocess workers ship
        their events over the wire (``drift_events`` op).  Dead workers
        are skipped.  Order is per-shard oldest-first; cell ids are
        fleet-unique, so events never collide across shards.
        """
        events: list = []
        seen: set[int] = set()
        for shard in self._shards:
            fetch = getattr(shard, "drift_events", None)
            if fetch is None:
                continue
            monitor = getattr(shard, "drift", None)
            if monitor is not None:
                if id(monitor) in seen:
                    continue
                seen.add(id(monitor))
            try:
                events.extend(fetch())
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
    def _new_worker(self, index: int):
        return self._spec_for(index).resolve(index)

    def _spec_for(self, index: int) -> WorkerSpec:
        """The :class:`WorkerSpec` governing shard ``index``.

        Legacy kwargs are folded into an in-process spec, so there is
        exactly one construction path whatever the API vintage.
        """
        if self._specs is not None:
            return self._specs[min(index, len(self._specs) - 1)]
        return WorkerSpec(
            url=None,
            model=self._default_model,
            registry=self.registry,
            journal=self.journal,
            metrics=self.metrics_registry,
            drift=self.drift,
        )

    def _check_spec_addresses(self, n_shards: int) -> None:
        """Reject socket topologies where shards would share one endpoint.

        A standalone worker serves one connection at a time, so two
        shards dialing the same fixed URL would deadlock the second;
        catching it at construction beats a hung ``connect``.  Spawned
        workers (fresh process per shard) and ``{shard}``-templated
        URLs are fine, as is a spec list with distinct addresses.
        """
        fixed: set[str] = set()
        for index in range(n_shards):
            s = self._specs[min(index, len(self._specs) - 1)]
            if s.url is None or s.spawn or "{shard}" in s.url or s.scheme in ("pipe", "shm"):
                continue
            if s.url in fixed:
                raise ValueError(
                    f"{n_shards} shards would share one worker endpoint {s.url!r}; "
                    "use a {shard} URL template, spawn=True, or distinct per-shard specs"
                )
            fixed.add(s.url)

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
