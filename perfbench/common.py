"""Inputs, topologies and resource readings shared by every workload.

Everything the benchmark feeds the system is built here from the
workload seed: the 1024-cell fleet (``generate_fleet``, four cell specs,
1800 s discharges), a four-model registry (one seeded, untrained model
per cell spec, same architecture), and the per-request readings.  The
system under test only ever sees these generated inputs.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import numpy as np

from repro.core.config import ModelConfig
from repro.core.model import TwoBranchSoCNet
from repro.core.rollout import cycle_windows
from repro.monitor.resources import read_process_stats
from repro.serve import workers as serve_workers
from repro.serve.engine import FleetEngine
from repro.serve.fleet_sim import generate_fleet
from repro.serve.registry import ModelRegistry
from repro.serve.sharding import ShardedFleet
from repro.serve.workers import WorkerSpec

N_CELLS = 1024
CELL_NAMES = ("sandia-nca", "sandia-nmc", "sandia-lfp", "lg-hg2")
DISCHARGE_S = 1800.0
STEP_S = 60.0
MAX_BATCH = 64
MAX_DELAY_S = 0.002
HORIZONS_S = (30.0, 60.0, 120.0, 300.0)


@dataclasses.dataclass
class Inputs:
    """Seeded inputs of one run (built once, outside every timed region)."""

    ids: list[str]
    chemistry: list[str]
    model_of: list[str]  # registry model name per cell (its cell spec)
    pairs: list  # (cell_id, cycle) rollout assignments in fleet order
    first: np.ndarray  # (n, 3) first sensor sample per cell: V, I, T
    registry_root: Path
    cell_steps: int  # windows per 1024-cell rollout at STEP_S
    samples: np.ndarray  # (3, n, longest cycle) V, I, T per cell, zero-padded
    lengths: np.ndarray  # recorded samples per cell

    @property
    def n(self) -> int:
        return len(self.ids)


def make_inputs(seed: int, workdir: Path, n_cells: int = N_CELLS) -> Inputs:
    """Generate the fleet and publish the four-model registry under ``workdir``."""
    fleet = generate_fleet(n_cells, seed=seed, cell_names=CELL_NAMES, protocols=("discharge",), max_time_s=DISCHARGE_S)
    root = workdir / "registry"
    registry = ModelRegistry(root)
    for k, name in enumerate(CELL_NAMES):
        chemistry = next((m.chemistry for m in fleet.members if m.cell_name == name), None)
        model = TwoBranchSoCNet(ModelConfig(), rng=np.random.default_rng([seed, k]))
        registry.publish(name, model, chemistry=chemistry)
    members = fleet.members
    first = np.array([[m.cycle.data.voltage[0], m.cycle.data.current[0], m.cycle.data.temp_c[0]] for m in members])
    plans = {id(m.cycle): cycle_windows(m.cycle, STEP_S).n_windows for m in members}
    lengths = np.array([len(m.cycle.data) for m in members])
    samples = np.zeros((3, len(members), int(lengths.max())))
    for k, m in enumerate(members):
        d = m.cycle.data
        samples[:, k, : lengths[k]] = (d.voltage, d.current, d.temp_c)
    return Inputs(
        ids=[m.cell_id for m in members],
        chemistry=[m.chemistry for m in members],
        model_of=[m.cell_name for m in members],
        pairs=fleet.assignments(),
        first=first,
        registry_root=root,
        cell_steps=sum(plans[id(m.cycle)] for m in members),
        samples=samples,
        lengths=lengths,
    )


def register(backend, inputs: Inputs, cells) -> None:
    """Register ``cells`` (indices) on ``backend``, each pinned to its model."""
    for k in cells:
        backend.register_cell(inputs.ids[k], chemistry=inputs.chemistry[k], model_name=inputs.model_of[k])


def seed_estimates(backend, inputs: Inputs, cells) -> np.ndarray:
    """One batched estimate per cell from its first sensor sample."""
    cells = list(cells)
    rows = inputs.first[cells]
    return backend.estimate([inputs.ids[k] for k in cells], rows[:, 0], rows[:, 1], rows[:, 2])


def redirect_shm_rings(workdir: Path) -> None:
    """Create ``shm://`` ring files under ``workdir`` so a run writes only inside its checkout."""
    serve_workers.shm_ring_dir = lambda: str(workdir)


# -- topologies ----------------------------------------------------------
@dataclasses.dataclass
class Topology:
    """A built serving backend: what the gateway talks to, plus its teardown."""

    backend: object
    close: object  # zero-argument callable


def build(kind: str, inputs: Inputs, workdir: Path, wrap=None) -> Topology:
    """Build and set up one topology: open the registry (and journals),
    spawn workers, register every cell and seed each with one estimate.

    ``kind`` is ``"inproc"`` (one :class:`FleetEngine`, no journal) or
    ``"pipe2"`` (a :class:`ShardedFleet` of two ``pipe://`` workers,
    each with its own journal under ``workdir``).  ``wrap(obj)`` —
    used by the traced run — wraps the object behind the fleet
    boundary: the engine itself in-process, each worker client over
    pipes.
    """
    if kind == "inproc":
        engine = FleetEngine(registry=ModelRegistry(inputs.registry_root))
        backend = engine if wrap is None else wrap(engine)
        topo = Topology(backend=backend, close=lambda: None)
    elif kind == "pipe2":
        workdir.mkdir(parents=True, exist_ok=True)
        spec = WrappingSpec(
            url="pipe://",
            registry=str(inputs.registry_root),
            journal=str(workdir / "journal-{shard}.jsonl"),
            wrap=wrap,
        )
        fleet = ShardedFleet(2, spec=spec)
        topo = Topology(backend=fleet, close=fleet.close)
    else:
        raise ValueError(f"unknown topology {kind!r}")
    try:
        register(topo.backend, inputs, range(inputs.n))
        seed_estimates(topo.backend, inputs, range(inputs.n))
    except BaseException:
        topo.close()
        raise
    return topo


@dataclasses.dataclass
class WrappingSpec(WorkerSpec):
    """A :class:`WorkerSpec` whose workers come back wrapped (or not)."""

    wrap: object = None

    def resolve(self, index: int):
        worker = super().resolve(index)
        return worker if self.wrap is None else self.wrap(worker)


# -- resources -----------------------------------------------------------
def child_pids(pid: int | None = None) -> list[int]:
    """Direct children of ``pid`` (default: this process), read from ``/proc``."""
    pid = os.getpid() if pid is None else pid
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            continue
    return sorted(set(out))


@dataclasses.dataclass
class Reading:
    """CPU seconds and RSS bytes per process at one phase boundary."""

    cpu: dict[int, float]
    rss: dict[int, int]

    @property
    def rss_total(self) -> int:
        return sum(self.rss.values())


def read_topology() -> Reading:
    """Read the parent and every worker process at a phase boundary."""
    pids = [os.getpid(), *child_pids()]
    stats = {pid: read_process_stats(pid) for pid in pids}
    return Reading(
        cpu={pid: s["cpu_seconds"] for pid, s in stats.items()},
        rss={pid: s["rss_bytes"] for pid, s in stats.items()},
    )


def cpu_between(a: Reading, b: Reading) -> tuple[float, float]:
    """(parent, workers) CPU seconds spent between two readings."""
    parent = os.getpid()
    total = {pid: b.cpu[pid] - a.cpu.get(pid, 0.0) for pid in b.cpu}
    own = total.pop(parent, 0.0)
    return own, sum(total.values())
