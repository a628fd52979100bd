"""Fleet-scale inference engine: batched SoC estimation and rollout.

The paper's deployment story is a 2,322-parameter network cheap enough
to run per cell on a BMS; a *fleet* backend inverts the problem — one
process serving thousands of cells.  Calling the model once per cell
wastes almost all wall-clock on Python overhead, because a forward pass
through the two branches is a handful of tiny matmuls.

:class:`FleetEngine` keeps per-cell state (last SoC, chemistry, request
counters), resolves one model per cell (a shared default, or per-
chemistry checkpoints from a :class:`~repro.serve.registry.ModelRegistry`),
and batches every operation across all cells that share a model:

- :meth:`estimate` — one Branch 1 forward for N cells' sensor rows;
- :meth:`predict` — one Branch 2 forward for N what-if queries;
- :meth:`rollout_fleet` — autoregressive rollout advancing every cell
  of every model per step in one stacked GEMM chain per architecture,
  matching :func:`repro.core.rollout.model_rollout` cell by cell to
  1e-9 (both paths consume :func:`repro.core.rollout.plan_windows`
  workloads).
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
import time
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

from ..core.kernels import CompiledTwoBranchKernel, FusedTwoBranchKernel
from ..core.model import TwoBranchSoCNet
from ..core.rollout import RolloutResult, WindowStack, plan_windows
from ..datasets.base import CycleRecord
from ..monitor.tracing import current_context
from ..monitor.tracing import stage as trace_stage
from .registry import ModelRegistry

if TYPE_CHECKING:
    from ..monitor.drift import DriftMonitor
    from ..monitor.metrics import MetricsRegistry
    from .persistence import StateJournal

__all__ = ["CellState", "Fleet", "FleetEngine"]

_DEFAULT_MODEL_KEY = "__default__"

# A rollout lane costs one more GEMM per stage: on a 2-vCPU x86 host
# one Branch 2 chain over 1024 rows took the same ~86 us cut into 1 to
# 32 lanes and ~240 us cut into 256, about 0.6 us per lane against
# ~0.08 us per row
_LANE_ROWS = 8


@dataclasses.dataclass
class CellState:
    """Mutable serving-side record for one fleet cell.

    Attributes
    ----------
    cell_id:
        Fleet-unique identifier.
    chemistry:
        Chemistry tag used for model resolution (may be ``None``).
    model_key:
        Resolved registry name (or the shared-default sentinel).
    soc:
        Last served SoC estimate (``None`` until the first estimate).
    last_seen_s:
        Clock reading of the most recent request (``None`` untracked).
    n_requests:
        Requests served for this cell since registration.
    """

    cell_id: str
    chemistry: str | None
    model_key: str
    soc: float | None = None
    last_seen_s: float | None = None
    n_requests: int = 0


@runtime_checkable
class Fleet(Protocol):
    """The serving surface every fleet backend answers.

    The batcher, gateway, daemon, CLI and autopilot call these members
    and nothing else on the backend they serve.  :class:`FleetEngine`
    has no workers, so it answers :meth:`worker_health`,
    :meth:`heartbeat` and :meth:`restart_dead_workers` with ``[]`` and
    :meth:`close` with nothing;
    :class:`~repro.serve.sharding.ShardedFleet` answers them per shard.
    Growing a fleet (``add_worker``, ``adopt_worker``,
    ``reattach_worker``) is ``ShardedFleet``'s alone.

    Every backend serves what one in-process :class:`FleetEngine`
    serves, to 1e-9, keeps the same cell state, and raises the same
    errors (``KeyError`` for an unknown cell).
    """

    registry: ModelRegistry | None

    def register_cell(
        self, cell_id: str, chemistry: str | None = None, model_name: str | None = None
    ) -> CellState: ...

    def deregister_cell(self, cell_id: str) -> CellState: ...

    def reroute_cell(self, cell_id: str, model_name: str | None = None) -> CellState: ...

    def cell(self, cell_id: str) -> CellState: ...

    def cells(self) -> Iterable[CellState]: ...

    def __len__(self) -> int: ...

    def __contains__(self, cell_id: str) -> bool: ...

    def estimate(
        self, cell_ids: Sequence[str], voltage, current, temp_c, now_s: float | None = None
    ) -> np.ndarray: ...

    def predict(
        self,
        cell_ids: Sequence[str],
        current_avg,
        temp_avg_c,
        horizon_s,
        soc_now=None,
        commit: bool = False,
        now_s: float | None = None,
    ) -> np.ndarray: ...

    def rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]: ...

    def resume_rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]: ...

    def metrics_snapshot(self) -> dict | None: ...

    def drift_events(self) -> list: ...

    def worker_health(self) -> list[bool]: ...

    def heartbeat(self, timeout_s: float = 2.0) -> list[bool]: ...

    def restart_dead_workers(self) -> list[int]: ...

    def close(self) -> None: ...


def _block_rows(mat: np.ndarray, blocks: list[tuple[int, int, int]]) -> Iterator[np.ndarray]:
    """Row views of ``mat``, rows ``a:b`` of each ``(a, b, width)`` block cut to ``width``."""
    return itertools.chain.from_iterable(mat[a:b, :width] for a, b, width in blocks)


@dataclasses.dataclass(frozen=True)
class _FleetPlan:
    """The plan of one fleet rollout, built before any state changes.

    ``ids[k]`` and ``trace[k]`` are assignment ``k``'s cell and trace.
    Cells that follow the same recorded cycle share one trace, and one
    :func:`~repro.core.rollout.plan_windows` call plans every unique
    trace as a column of ``windows``.  Its workloads are window-major,
    ``(windows, traces)``, so a model group's column gather is a
    C-contiguous ``(windows, cells)`` matrix in which each window is one
    contiguous row; its boundary series are trace-major, ``(traces,
    boundaries)``, because results are row views of their row gather.
    """

    ids: tuple[str, ...]  # cell id of each assignment
    trace: np.ndarray  # (cells,) trace of each assignment
    windows: WindowStack
    first: np.ndarray  # (traces, 3) first sensor sample: V, I, T
    capacity_ah: np.ndarray  # (traces,)

    @classmethod
    def build(cls, pairs: list[tuple[str, CycleRecord]], step_s: float) -> _FleetPlan:
        """Plan every unique trace; raises before the caller changes any state.

        A cell id may appear once per call: two trajectories cannot be
        served, stored and journaled under one id.  Traces are told
        apart by object identity, which is safe here because ``pairs``
        keeps every cycle alive for the whole call.
        """
        ids, cycles = zip(*pairs) if pairs else ((), ())
        if len(set(ids)) < len(ids):
            seen: set[str] = set()
            for cell_id in ids:
                if cell_id in seen:
                    raise ValueError(f"cell {cell_id!r} appears more than once in one rollout")
                seen.add(cell_id)
        # unique traces (in id order; any order serves) and each
        # assignment's trace
        keys = np.fromiter(map(id, cycles), dtype=np.uintp, count=len(cycles))
        _, index, trace = np.unique(keys, return_index=True, return_inverse=True)
        cycles = [cycles[k] for k in index.tolist()]
        return cls(
            ids=ids,
            trace=trace,
            windows=plan_windows(cycles, step_s),
            first=np.array(
                [[c.data.voltage[0], c.data.current[0], c.data.temp_c[0]] for c in cycles]
            ).reshape(len(cycles), 3),
            capacity_ah=np.array([c.capacity_ah for c in cycles], dtype=np.float64),
        )


def _lane_width(sizes: np.ndarray) -> int:
    """The lane width of a stack whose model groups hold ``sizes`` rows.

    A group of ``m`` rows fills ``ceil(m / width)`` lanes of ``width``
    rows.  Padded rows stay within 1.25x the real rows, and among the
    widths that keep that bound the cheapest wins: a lane costs about
    as much as ``_LANE_ROWS`` more rows, ties going to the widest.  So
    groups of similar size get one lane each, and a 95/5 split cuts
    both groups into narrow lanes instead of padding the small group
    to the large one's size.
    """
    widths = np.arange(1, int(sizes.max()) + 1)
    lanes = -(-sizes[:, None] // widths)
    padded = (lanes * widths).sum(axis=0)
    cost = np.where(4 * padded <= 5 * int(sizes.sum()), padded + _LANE_ROWS * lanes.sum(axis=0), np.inf)
    return int(widths[::-1][np.argmin(cost[::-1])])


def _cut_lanes(n_w: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cut model groups' sorted rows into lanes of one width, longest lane first.

    Group ``g`` holds rows ``bounds[g]:bounds[g + 1]``, longest cycle
    (``n_w``) first.  Returns each lane's group, the ``(lanes, width)``
    row of each slot and the mask of real slots; a padding slot repeats
    its lane's last row.  Lanes are ordered by their first (longest)
    row, so the lanes running at window ``w`` are always a prefix.
    """
    begin, end = bounds[:-1], bounds[1:]
    width = _lane_width(end - begin)
    per_group = -(-(end - begin) // width)
    group = np.repeat(np.arange(len(begin)), per_group)
    start = begin[group] + width * (np.arange(len(group)) - (np.cumsum(per_group) - per_group)[group])
    by_length = np.argsort(-n_w[start], kind="stable")
    group, start = group[by_length], start[by_length]
    last = np.minimum(start + width, end[group]) - 1
    rows = start[:, None] + np.arange(width)
    real = rows <= last[:, None]
    return group, np.minimum(rows, last[:, None]), real


class FleetEngine:
    """Batched multi-cell server over one or more two-branch models.

    Parameters
    ----------
    default_model:
        Model used for cells the registry cannot place (and for the
        whole fleet when no registry is given).
    registry:
        Optional :class:`ModelRegistry`; cells are routed to
        ``registry.resolve(chemistry=...)`` at registration time.
    journal:
        Optional :class:`~repro.serve.persistence.StateJournal`; every
        per-cell state mutation (registration, estimates, predictions,
        rollout windows) is appended to it, making the fleet restorable
        via :meth:`restore` / :meth:`resume_rollout_fleet`.
    metrics:
        Optional :class:`~repro.monitor.metrics.MetricsRegistry`; when
        attached the engine reports per-model request counters
        (``engine_requests_total{op=,model=}``), rollout window
        counts, per-window physics-residual summaries
        (``engine_physics_residual{model=}``) and a fleet-size gauge.
        ``None`` (the default) keeps the hot path entirely
        instrumentation-free.
    drift:
        Optional :class:`~repro.monitor.drift.DriftMonitor`; estimates
        and predictions get physics-bounds checks, and fleet rollouts
        stream the per-cell ``|coulomb ΔSoC − predicted ΔSoC|``
        residual (the Branch 2 correction magnitude over Eq. 1) into
        its Page–Hinkley/CUSUM banks.  One monitor watches every
        chemistry with one tuning.

    At least one of ``default_model`` / ``registry`` must be provided.

    Every estimate, predict and rollout is served through float64
    :class:`~repro.core.kernels.CompiledTwoBranchKernel` compiled chains,
    which match the Tensor path to 1e-9 across batch sizes, branches
    and the cascade (``tests/test_core_kernels.py``).  Kernels snapshot
    a model's weights at first use and are recompiled automatically
    when a model *object* is replaced (e.g. a registry promote);
    mutating weights in place on a live engine requires a new engine.
    An estimate or predict batch runs one chain per model group in it.
    A fleet rollout stacks: each window is one batched
    :class:`~repro.core.kernels.FusedTwoBranchKernel` chain per
    architecture.
    """

    def __init__(
        self,
        default_model: TwoBranchSoCNet | None = None,
        registry: ModelRegistry | None = None,
        journal: StateJournal | None = None,
        metrics: MetricsRegistry | None = None,
        drift: DriftMonitor | None = None,
    ):
        if default_model is None and registry is None:
            raise ValueError("need a default model, a registry, or both")
        self.registry = registry
        self.journal = journal
        self.metrics = metrics
        if metrics is not None:
            from ..monitor.resources import install_process_metrics

            install_process_metrics(metrics)
        self.drift = drift
        self._models: dict[str, TwoBranchSoCNet] = {}
        self._kernels: dict[str, CompiledTwoBranchKernel] = {}
        # model keys whose kernel was checked against the registry at
        # registry generation `_generation`; a new generation (publish,
        # promote, out-of-process channels rewrite) clears it
        self._checked: set[str] = set()
        self._generation: int | None = None
        # stacked rollout kernels per sorted model-key set; each entry
        # remembers the member kernels it was built from so a recompile
        # of any member (registry promote) invalidates it
        self._fused: dict[tuple[str, ...], tuple[tuple, FusedTwoBranchKernel]] = {}
        # instrument objects cached per (op, model key): the registry's
        # get-or-create builds a label-string key per call, which is too
        # much work for the per-batch hot path
        self._op_counters: dict[tuple[str, str], object] = {}
        self._residual_hists: dict[str, object] = {}
        if default_model is not None:
            self._models[_DEFAULT_MODEL_KEY] = default_model
        self._cells: dict[str, CellState] = {}

    # -- durability ----------------------------------------------------
    @classmethod
    def restore(
        cls,
        journal: StateJournal,
        default_model: TwoBranchSoCNet | None = None,
        registry: ModelRegistry | None = None,
        metrics: MetricsRegistry | None = None,
        drift: DriftMonitor | None = None,
    ) -> FleetEngine:
        """Rebuild an engine from a journal after a restart.

        Every cell the journal knows about comes back with its last
        served SoC, model routing and request counters; the journal
        stays attached, so serving continues appending to it.  An
        interrupted fleet rollout can then be completed with
        :meth:`resume_rollout_fleet`.
        """
        engine = cls(
            default_model=default_model,
            registry=registry,
            journal=journal,
            metrics=metrics,
            drift=drift,
        )
        for state in journal.cells().values():  # detached copies
            engine._adopt_state(state)
        return engine

    # -- fleet membership ----------------------------------------------
    def register_cell(
        self,
        cell_id: str,
        chemistry: str | None = None,
        model_name: str | None = None,
    ) -> CellState:
        """Add (or re-route) a cell and resolve its serving model.

        Parameters
        ----------
        cell_id:
            Fleet-unique identifier.
        chemistry:
            Chemistry tag; with a registry attached it selects the
            per-chemistry checkpoint.
        model_name:
            Pin the cell to a specific registry model, bypassing
            resolution.

        Raises
        ------
        ValueError
            When ``cell_id`` contains NUL, the separator of the wire
            format's id lists — refused here so that every topology
            accepts the same ids.
        """
        if isinstance(cell_id, str) and "\x00" in cell_id:
            raise ValueError(f"cell id {cell_id!r} contains NUL, which no fleet accepts")
        key = self._resolve_key(chemistry, model_name)
        new = cell_id not in self._cells
        state = CellState(cell_id=cell_id, chemistry=chemistry, model_key=key)
        self._cells[cell_id] = state
        self._record_many([state])
        if new:
            self._track_size(1)
        return state

    def deregister_cell(self, cell_id: str) -> CellState:
        """Remove a cell from the fleet and return its final state."""
        state = self.cell(cell_id)
        del self._cells[cell_id]
        if self.journal is not None:
            self.journal.drop_cell(cell_id)
        self._track_size(-1)
        return state

    def reroute_cell(self, cell_id: str, model_name: str | None = None) -> CellState:
        """Re-resolve a registered cell's serving model, keeping its state.

        Unlike :meth:`register_cell` this preserves the stored SoC and
        counters — it is how canary rollouts pin a slice of the fleet
        to a candidate checkpoint (``model_name="name@v3"``) and later
        return it to channel routing (``model_name="name"``).
        """
        state = self.cell(cell_id)
        state.model_key = self._resolve_key(state.chemistry, model_name)
        self._record_many([state])
        return state

    def cell(self, cell_id: str) -> CellState:
        """State record for one registered cell.

        Raises
        ------
        KeyError
            When the cell is unknown.
        """
        if cell_id not in self._cells:
            raise KeyError(f"unknown cell {cell_id!r}; {len(self._cells)} cells registered")
        return self._cells[cell_id]

    def cells(self) -> Iterable[CellState]:
        """Iterate over all registered cells' state records."""
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def __contains__(self, cell_id: str) -> bool:
        return cell_id in self._cells

    # -- batched inference ---------------------------------------------
    def estimate(
        self,
        cell_ids: Sequence[str],
        voltage,
        current,
        temp_c,
        now_s: float | None = None,
    ) -> np.ndarray:
        """Batched Branch 1: estimate SoC(t) for many cells at once.

        One forward pass per distinct serving model covers the whole
        batch; each cell's stored SoC is updated with its estimate.

        Parameters
        ----------
        cell_ids:
            Registered cells, one per sensor row.
        voltage, current, temp_c:
            Sensor readings aligned with ``cell_ids``.
        now_s:
            Optional clock reading recorded as ``last_seen_s``.
        """
        v = np.broadcast_to(np.asarray(voltage, dtype=np.float64), (len(cell_ids),))
        i = np.broadcast_to(np.asarray(current, dtype=np.float64), (len(cell_ids),))
        t = np.broadcast_to(np.asarray(temp_c, dtype=np.float64), (len(cell_ids),))
        self._follow_registry()
        states, groups = self._states_by_model(cell_ids)
        out = np.empty(len(cell_ids))
        for key, idx in groups.items():
            with trace_stage("engine.estimate", model=key, rows=len(idx)):
                out[idx] = self._infer(key).estimate_soc(v[idx], i[idx], t[idx])
            if self.metrics is not None:
                self._op_counter("estimate", key).inc(len(idx))
        # physics-bounds guard, folded into the state-update loop below:
        # two float compares per cell ride the pass that already
        # materializes each SoC, so the clean path pays ~nothing and the
        # vectorized monitor only runs when a violation actually exists
        bounds = self.drift.bounds if self.drift is not None else None
        in_bounds = True
        for state, soc in zip(states, out.tolist()):
            state.soc = soc
            state.n_requests += 1
            state.last_seen_s = now_s
            if bounds is not None and (soc < bounds.soc_min or soc > bounds.soc_max):
                in_bounds = False
        if not in_bounds:
            self.drift.observe_soc(cell_ids, out)
        self._record_many(states)
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
        """Batched Branch 2: what-if SoC(t+N) for many cells at once.

        Parameters
        ----------
        cell_ids:
            Registered cells, one per query row.
        current_avg, temp_avg_c, horizon_s:
            Hypothesized workload per query.
        soc_now:
            Starting SoC per query; defaults to each cell's stored
            estimate (which must then exist).
        commit:
            Overwrite the stored SoC with the prediction (an
            autoregressive fleet step); default leaves state untouched.
        now_s:
            Optional clock reading recorded as ``last_seen_s``.
        """
        states, groups = self._states_by_model(cell_ids)
        if soc_now is None:
            stored = [state.soc for state in states]
            if None in stored:
                cid = cell_ids[stored.index(None)]
                raise ValueError(f"cell {cid!r} has no stored SoC; estimate first or pass soc_now")
            soc = np.array(stored, dtype=np.float64)
        else:
            soc = np.broadcast_to(np.asarray(soc_now, dtype=np.float64), (len(cell_ids),))
        i_avg = np.broadcast_to(np.asarray(current_avg, dtype=np.float64), (len(cell_ids),))
        t_avg = np.broadcast_to(np.asarray(temp_avg_c, dtype=np.float64), (len(cell_ids),))
        horizon = np.broadcast_to(np.asarray(horizon_s, dtype=np.float64), (len(cell_ids),))
        self._follow_registry()
        out = np.empty(len(cell_ids))
        for key, idx in groups.items():
            with trace_stage("engine.predict", model=key, rows=len(idx)):
                out[idx] = self._infer(key).predict_soc(soc[idx], i_avg[idx], t_avg[idx], horizon[idx])
            if self.metrics is not None:
                self._op_counter("predict", key).inc(len(idx))
        if self.drift is not None:
            self.drift.observe_soc(cell_ids, out, delta=out - soc, horizon_s=horizon)
        for state, value in zip(states, out.tolist()):
            if commit:
                state.soc = value
            state.n_requests += 1
            state.last_seen_s = now_s
        self._record_many(states)
        return out

    # -- batched rollout ------------------------------------------------
    def rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Autoregressive rollout for many cells in lock-step.

        Every cell follows its own recorded cycle, but the whole fleet
        advances together: window ``w`` is one stacked Branch 2 forward
        (:class:`~repro.core.kernels.LaneRollout`) per model stack — the
        models whose chains share one architecture — over every model
        group's still-active cells.  Each group's rows, longest cycle
        first, are cut into lanes of one width, and the lanes are
        ordered longest first, so the lanes still running are always a
        prefix of the stack; cells whose cycles end early compute NaN in
        their lane until it drops off.  Workloads come from one
        :func:`repro.core.rollout.plan_windows` call over every unique
        trace — the same numbers the scalar loop uses — so each
        returned trajectory matches ``model_rollout(model, cycle,
        step_s)`` for that cell to BLAS rounding (pinned at 1e-9).

        With a journal attached, the engine writes a rollout marker,
        then every cell's SoC after every committed window, so a crash
        at any point loses at most the in-flight window (see
        :meth:`resume_rollout_fleet`).

        Parameters
        ----------
        assignments:
            ``(cell_id, cycle)`` pairs, one per cell; cells not yet
            registered are auto-registered with the cycle's
            ``chemistry`` tag.
        step_s:
            Full autoregressive step in seconds (shared by the fleet).
        step_hook:
            Optional hook called as ``hook(window)`` once per fleet
            window, after every model group committed it — for progress
            reporting, throttling, or fault injection in tests.

        Returns
        -------
        dict
            ``{cell_id: RolloutResult}`` in assignment order.  Each
            result's arrays are its own: writing into one never changes
            another cell's result or a later call's.

        Raises
        ------
        ValueError
            When any cycle cannot be planned at ``step_s`` (see
            :func:`~repro.core.rollout.plan_windows`), or a cell id is
            assigned twice.  The plan is built before the first cell is
            registered, state changes or the journal is written, so a
            bad call leaves the engine and its journal untouched.
        """
        pairs = list(assignments)
        plan = _FleetPlan.build(pairs, step_s)
        if self.journal is not None:
            self.journal.begin_rollout(step_s)
        return self._rollout(pairs, plan, prefix={}, step_hook=step_hook)

    def resume_rollout_fleet(
        self,
        assignments: Iterable[tuple[str, CycleRecord]],
        step_s: float,
        step_hook: Callable[[int], None] | None = None,
    ) -> dict[str, RolloutResult]:
        """Finish an interrupted :meth:`rollout_fleet` from the journal.

        Windows the journal already holds are *replayed, not
        recomputed*: each cell picks its recursion back up from its
        last journaled SoC and only the remaining windows run.  The
        journal stores raw float64, so every SoC comes back exactly,
        and a crash between windows leaves every active cell of the
        fleet at the same window, so the resumed run re-issues the very
        same stacked forwards the uninterrupted run would have — the
        combined trajectory is bit-for-bit identical.
        (Resuming under a *different* grouping, e.g. another shard
        count, changes batch compositions and can shift results by
        BLAS-kernel rounding, ~1e-17 — still far inside the fleet's
        1e-9 equivalence budget.)

        Requires an attached journal whose last rollout used the same
        ``step_s``; a cycle that cannot be planned or a cell id assigned
        twice raises ``ValueError`` before anything changes, as in
        :meth:`rollout_fleet`.
        """
        if self.journal is None:
            raise ValueError("resume requires an engine with a journal attached")
        snap = self.journal.snapshot()
        if snap.step_s is not None and snap.step_s != float(step_s):
            raise ValueError(
                f"journal holds a step_s={snap.step_s:g} rollout; cannot resume at {step_s:g}"
            )
        pairs = list(assignments)
        plan = _FleetPlan.build(pairs, step_s)
        return self._rollout(pairs, plan, prefix=snap.windows, step_hook=step_hook)

    def _rollout(
        self,
        pairs: list[tuple[str, CycleRecord]],
        plan: _FleetPlan,
        prefix: dict[str, dict[int, float]],
        step_hook: Callable[[int], None] | None,
    ) -> dict[str, RolloutResult]:
        self._follow_registry()
        trace_ctx = current_context()
        t_call = time.perf_counter() if trace_ctx is not None else 0.0
        # resolve every cell's state once; unknown cells are registered
        # in assignment order
        try:
            states = list(map(self._cells.__getitem__, plan.ids))
        except KeyError:
            states = list(map(self._cells.get, plan.ids))
            for k, (cell_id, cycle) in enumerate(pairs):
                if states[k] is None:
                    states[k] = self.register_cell(cell_id, chemistry=cycle.tags.get("chemistry"))
        n = len(states)
        # one stable sort of the whole fleet: model groups (stack by
        # stack, in order of first appearance), longest cycle first
        # inside each.  Every group is then a contiguous row range
        keys = list(map(operator.attrgetter("model_key"), states))
        stacked = self._stack_keys(dict.fromkeys(keys))
        group_of = {key: g for g, key in enumerate(itertools.chain.from_iterable(stacked))}
        group = np.fromiter(map(group_of.__getitem__, keys), dtype=np.intp, count=n)
        n_w = plan.windows.n_windows[plan.trace]
        order = np.lexsort((-n_w, group))
        trace, n_w = plan.trace[order], n_w[order]
        bounds = np.searchsorted(group[order], np.arange(len(group_of) + 1))
        ids = list(map(plan.ids.__getitem__, order.tolist()))
        states = list(map(states.__getitem__, order.tolist()))
        max_w = int(n_w.max(initial=0))
        windows = plan.windows

        # every stack's rows cut into lanes; slot offset + j * width + c
        # is row c of the stack's lane j, and pred[w, slot] its SoC after
        # window w.  Padding slots start at NaN, and a row past its last
        # window reads NaN workloads, so neither ever leaves the NaNs
        cuts = []
        total = 0
        for g, stack_keys in zip(np.cumsum([0, *map(len, stacked)]).tolist(), stacked):
            lane_group, rows, real = _cut_lanes(n_w, bounds[g : g + len(stack_keys) + 1])
            member = np.array([sorted(stack_keys).index(key) for key in stack_keys])[lane_group]
            cuts.append((self._fused_kernel(stack_keys), member, rows, real, total))
            total += rows.size
        row_slot = np.empty(n, dtype=np.intp)
        pred = np.empty((max_w + 1, total))
        stacks = []
        for fused, member, rows, real, offset in cuts:
            row_slot[rows[real]] = offset + np.flatnonzero(real)
            lanes = fused.lanes(member, rows.shape[1])
            lane_trace = trace[rows]
            stack_pred = pred[:, offset : offset + rows.size].reshape(max_w + 1, *rows.shape)
            # one Branch 1 forward seeds the whole stack
            np.take(plan.first.T, lane_trace, axis=1, out=lanes.seed[:3])
            stack_pred[0] = lanes.estimate()
            pred[0, offset + np.flatnonzero(~real)] = np.nan
            active = np.searchsorted(-n_w[rows[:, 0]], -np.arange(max_w)).tolist()
            stacks.append((lanes, lanes.state, lane_trace, stack_pred, active))
        # replay journaled windows: start_w[r] is the last window whose
        # SoC is already known (its value seeds the recursion); the
        # known values replace the row's seed and predictions
        start_w = np.zeros(n, dtype=np.intp)
        fresh = np.ones(n, dtype=bool)  # a fresh rollout: nothing journaled to replay
        if prefix:
            for r, (cid, w_end) in enumerate(zip(ids, n_w.tolist())):
                done = prefix.get(cid, {})
                k_done = -1
                while k_done + 1 in done and k_done + 1 <= w_end:
                    k_done += 1
                if k_done >= 0:
                    pred[: k_done + 1, row_slot[r]] = [done[w] for w in range(k_done + 1)]
                    start_w[r] = k_done
                    fresh[r] = False
        # the window-major workloads of every trace, (windows, 3, traces)
        work = np.stack((windows.i_avg[:max_w], windows.t_avg[:max_w], windows.horizon_s[:max_w]), axis=1)

        monitored = self.metrics is not None or self.drift is not None
        watched = monitored or self.journal is not None
        if watched:
            # the harvester needs per-row capacities too (Eq. 1
            # recomputation from journaled workloads)
            cap_row = plan.capacity_ah[trace]
        if self.journal is not None:
            roster = self.journal.intern(ids)  # each row's journal roster position
        if monitored:
            # two scratch rows reused by every window's residual
            delta = np.empty(n)
            resid = np.empty(n)
            if self.metrics is not None:
                group_keys = list(group_of)
                for key, a, b in zip(group_keys, bounds.tolist(), bounds[1:].tolist()):
                    self._op_counter("rollout", key).inc(b - a)
                resid_hists = [self._residual_hist(key) for key in group_keys]
                windows_counters = [
                    self.metrics.counter("engine_rollout_windows_total", model=key) for key in group_keys
                ]
            if self.drift is not None:
                slot = self.drift.track(ids)
        seeded = np.flatnonzero(fresh)
        if seeded.size:
            seed = pred[0].take(row_slot[seeded])
            if self.drift is not None:
                self.drift.observe_soc(ids, seed, positions=seeded, window=0)
            if self.journal is not None:
                self.journal.append_windows(0, roster[seeded], seed)

        # windows below `replaying` may still have rows whose next value
        # is journaled: those windows keep the staged values of the rows
        # that do not run, and a window with none to run runs no forward
        replaying = int(start_w.max(initial=0))
        load = True  # the lanes' SoC channel must be (re)loaded from pred
        for w in range(max_w):
            if w < replaying:
                run = np.flatnonzero((n_w > w) & (start_w <= w))
                held = row_slot[np.flatnonzero(start_w > w)]
                kept = pred[w + 1].take(held)
            elif watched:
                run = np.flatnonzero(n_w > w)
            if w >= replaying or run.size:
                for lanes, x, lane_trace, stack_pred, active in stacks:
                    k = active[w]
                    if k:
                        if load:
                            x[0, :k] = stack_pred[w, :k]
                        np.take(work[w], lane_trace[:k], axis=1, out=x[1:4, :k])
                        lanes.predict(k)
                        stack_pred[w + 1, :k] = x[0, :k]
                load = w < replaying
                if load:
                    pred[w + 1, held] = kept
                if watched:
                    count = run.size
                    run_slot = row_slot[run]
                    out = pred[w + 1].take(run_slot)
                    run_trace = trace[run]
                    i_w = windows.i_avg[w].take(run_trace)
                    h_w = windows.horizon_s[w].take(run_trace)
                if monitored:
                    np.subtract(out, pred[w].take(run_slot), out=delta[:count])  # predicted ΔSoC
                    if self.drift is not None:
                        self.drift.observe_soc(
                            ids, out, delta=delta[:count], horizon_s=h_w, positions=run, window=w + 1
                        )
                    # the physics residual |predicted ΔSoC − coulomb ΔSoC|
                    # (the Branch 2 correction magnitude over Eq. 1)
                    coulomb = np.multiply(i_w, h_w)
                    coulomb /= cap_row[run]
                    coulomb /= -3600.0
                    np.subtract(delta[:count], coulomb, out=resid[:count])
                    np.abs(resid[:count], out=resid[:count])
                    if self.metrics is not None:
                        seg = np.searchsorted(run, bounds).tolist()
                        for g, (a, b) in enumerate(zip(seg, seg[1:])):
                            if b > a:
                                resid_hists[g].observe_batch(resid[a:b])
                                windows_counters[g].inc(b - a)
                    if self.drift is not None:
                        self.drift.observe_residuals(slot[run], resid[:count], window=w + 1)
                if self.journal is not None:
                    # the workload that produced the window rides along
                    # for the offline learner
                    workload = (i_w, windows.t_avg[w].take(run_trace), h_w, cap_row[run])
                    self.journal.append_windows(w + 1, roster[run], out, workload)
            if step_hook is not None:
                step_hook(w + 1)

        # results hold disjoint row views of this call's own matrices
        # (the row-major predictions and the boundary gathers), so no
        # result shares an array with another cell or another call.
        # Rows with one window count are one block of the sorted order,
        # so one 2-D slice per block cuts every row to length (three 1-D
        # slices per cell cost ~0.9 ms of a 1024-cell call)
        pred_rows = pred.T.take(row_slot, axis=0)
        edges = [0, *(np.flatnonzero(np.diff(n_w)) + 1).tolist(), n]
        blocks = [(a, b, int(n_w[a]) + 1) for a, b in zip(edges, edges[1:]) if b > a]
        traces = trace.tolist()
        results = list(
            map(
                RolloutResult,
                _block_rows(windows.time_s[trace, : max_w + 1], blocks),
                _block_rows(pred_rows, blocks),
                _block_rows(windows.soc_true[trace, : max_w + 1], blocks),
                pred_rows[:, 0].tolist(),
                map(windows.step_s.tolist().__getitem__, traces),
                map(windows.tail_s.tolist().__getitem__, traces),
            )
        )
        for state, soc in zip(states, pred_rows[np.arange(n), n_w].tolist()):
            state.soc = soc
            state.n_requests += 1
        self._record_many(states)
        if trace_ctx is not None:
            trace_ctx.tracer.record(
                trace_ctx, "engine.rollout", t_call, time.perf_counter(), models=len(group_of), cells=n
            )
        # back to assignment order: assignment k is sorted row rank[k]
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        return dict(zip(plan.ids, map(results.__getitem__, rank.tolist())))

    # -- observability -------------------------------------------------
    def metrics_snapshot(self) -> dict | None:
        """JSON snapshot of the attached metrics registry (``None`` without one).

        The uniform readout surface across worker kinds: in-process
        engines answer directly,
        :class:`~repro.serve.workers.ShardWorker` forwards the call
        over the wire, and
        :meth:`ShardedFleet.metrics_snapshot
        <repro.serve.sharding.ShardedFleet.metrics_snapshot>` merges the
        whole topology.
        """
        return None if self.metrics is None else self.metrics.snapshot()

    def drift_events(self) -> list:
        """Drift events from the attached monitor (oldest first).

        The uniform readout surface the retrain pipeline polls: plain
        engines answer from their monitor's ring, workers forward the
        call over the wire, and :meth:`ShardedFleet.drift_events
        <repro.serve.sharding.ShardedFleet.drift_events>` merges the
        whole topology.  Empty without a drift monitor.
        """
        if self.drift is None:
            return []
        return list(self.drift.events())

    # -- workers: one engine has none ------------------------------------
    def worker_health(self) -> list[bool]:
        """No workers, so no per-worker liveness: ``[]``."""
        return []

    def heartbeat(self, timeout_s: float = 2.0) -> list[bool]:
        """No workers to probe: ``[]``."""
        return []

    def restart_dead_workers(self) -> list[int]:
        """No workers to heal: ``[]``."""
        return []

    def close(self) -> None:
        """Nothing to release: the caller owns an attached journal."""

    def _op_counter(self, op: str, key: str):
        """Cached ``engine_requests_total`` counter for one (op, model)."""
        counter = self._op_counters.get((op, key))
        if counter is None:
            counter = self.metrics.counter("engine_requests_total", op=op, model=key)
            self._op_counters[(op, key)] = counter
        return counter

    def _residual_hist(self, key: str):
        """Cached per-model physics-residual histogram."""
        hist = self._residual_hists.get(key)
        if hist is None:
            hist = self.metrics.histogram("engine_physics_residual", model=key)
            self._residual_hists[key] = hist
        return hist

    def _track_size(self, delta: int) -> None:
        """Adjust the fleet-size gauge by ``delta``.

        Each shard engine owns its registry, and
        :func:`merge_snapshots` sums the shards' gauges into the fleet
        size.
        """
        if self.metrics is not None:
            self.metrics.gauge("engine_cells").inc(delta)

    # ------------------------------------------------------------------
    def _record_many(self, states: list[CellState]) -> None:
        """Journal a batch of cell states with one write (see ``append_cells``)."""
        if self.journal is not None and states:
            self.journal.append_cells(states)

    def _adopt_state(self, state: CellState) -> None:
        """Install a cell's state record without journaling it.

        Used by :meth:`restore` (the journal already holds the record)
        and by shard rebalancing (the move does not change the state).
        """
        new = state.cell_id not in self._cells
        self._cells[state.cell_id] = state
        if new:
            self._track_size(1)

    def _evict_state(self, cell_id: str) -> CellState:
        """Remove and return a cell's state without journaling a drop.

        The shard-rebalancing counterpart of :meth:`_adopt_state`: the
        cell is moving, not leaving the fleet.
        """
        state = self._cells.pop(cell_id)
        self._track_size(-1)
        return state

    def _resolve_key(self, chemistry: str | None, model_name: str | None) -> str:
        if model_name is not None:
            if self.registry is None:
                raise ValueError("model_name requires a registry")
            self.registry.describe(model_name)  # fail fast on unknown names
            return model_name
        if self.registry is not None:
            try:
                return self.registry.resolve(chemistry=chemistry)
            except KeyError:
                if _DEFAULT_MODEL_KEY not in self._models:
                    raise
        if _DEFAULT_MODEL_KEY not in self._models:
            raise ValueError("no default model and the registry cannot place this cell")
        return _DEFAULT_MODEL_KEY

    def _follow_registry(self) -> None:
        """Read the registry's generation once per call (one ``stat``).

        While it is unchanged every key keeps its checked kernel; a new
        generation makes the next use of each key ask the registry
        again, so a live engine follows publishes and promotes, made
        in this process or another, from its next call on.
        """
        if self.registry is not None:
            generation = self.registry.generation
            if generation != self._generation:
                self._generation = generation
                self._checked.clear()

    def _infer(self, key: str) -> CompiledTwoBranchKernel:
        """The compiled kernel serving a model key.

        The model is compiled once into a
        :class:`~repro.core.kernels.CompiledTwoBranchKernel`, cached per
        model key and invalidated by model-object identity — a registry
        promote that loads a new checkpoint object triggers a recompile
        on the key's first use after the promote (replacing the old
        entry, so the cache stays bounded at one kernel per key) and a
        live engine never serves stale weights.
        """
        kernel = self._kernels.get(key)
        if kernel is not None and key in self._checked:
            return kernel
        model = self._models[key] if key in self._models else self.registry.load(key)
        if kernel is None or kernel.model is not model:
            kernel = CompiledTwoBranchKernel(model)
            self._kernels[key] = kernel
        self._checked.add(key)
        return kernel

    def _fused_kernel(self, keys: Iterable[str]) -> FusedTwoBranchKernel:
        """The stacked kernel of one rollout stack, members in sorted key order.

        ``keys`` is one of :meth:`_stack_keys`' stacks, so its chains
        always stack.  The cache key is the *sorted* key set so order
        permutations share one fused kernel; staleness is detected by
        member-kernel identity against ``_infer``'s current compiles.
        """
        keys = tuple(sorted(keys))
        kernels = tuple(self._infer(key) for key in keys)
        cached = self._fused.get(keys)
        if cached is not None and all(a is b for a, b in zip(cached[0], kernels)):
            return cached[1]
        fused = FusedTwoBranchKernel(kernels)
        self._fused[keys] = (kernels, fused)
        return fused

    def _stack_keys(self, keys: Iterable[str]) -> list[list[str]]:
        """Model keys grouped into rollout stacks, in order of first appearance.

        Models whose exported chains share one architecture (both
        branches' :attr:`~repro.core.kernels.CompiledBranchKernel.chain_signature`)
        stack into one batched chain; each other architecture is a
        stack of its own.
        """
        stacks: dict[tuple, list[str]] = {}
        for key in keys:
            kernel = self._infer(key)
            signature = (kernel.branch1.chain_signature, kernel.branch2.chain_signature)
            stacks.setdefault(signature, []).append(key)
        return list(stacks.values())

    def _states_by_model(self, cell_ids: Sequence[str]) -> tuple[list[CellState], dict[str, np.ndarray]]:
        """Every row's state record, and the rows of each model key, in one pass."""
        cells = self._cells
        try:
            states = list(map(cells.__getitem__, cell_ids))
        except KeyError as exc:
            raise KeyError(f"unknown cell {exc.args[0]!r}; {len(cells)} cells registered") from None
        groups: dict[str, list[int]] = {}
        for k, state in enumerate(states):
            groups.setdefault(state.model_key, []).append(k)
        return states, {key: np.asarray(idx) for key, idx in groups.items()}
