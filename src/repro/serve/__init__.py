"""``repro.serve`` — fleet-scale SoC serving.

The deployment layer on top of the paper's model: batched multi-cell
inference instead of one Python call per cell, durable per-cell state,
and versioned checkpoint rollout.

- :mod:`repro.serve.engine` — :class:`FleetEngine`: per-cell state,
  batched Branch 1/2 forwards, lock-step fleet rollout,
  restore/resume from a journal; and :class:`Fleet`, the protocol every
  backend answers;
- :mod:`repro.serve.sharding` — :class:`ShardedFleet`: rendezvous-
  hashed cell partitioning across shard workers behind the engine API,
  with stable rebalancing;
- :mod:`repro.serve.persistence` — :class:`StateJournal`: append-only
  per-cell state/rollout-progress journal of wire frames with atomic
  compaction, and ``read_journal``, its one reader;
- :mod:`repro.serve.registry` — :class:`ModelRegistry`: versioned
  named checkpoints with channels (stable/canary), promote/rollback,
  and chemistry/dataset resolution;
- :mod:`repro.serve.canary` — :class:`CanaryController`: route a hash-
  selected fleet slice to a candidate checkpoint, compare divergence,
  then promote or roll back;
- :mod:`repro.serve.scheduler` — :class:`MicroBatcher`: size- and
  deadline-triggered request coalescing with latency accounting;
- :mod:`repro.serve.gateway` — :class:`SocGateway`: asyncio front-end
  accepting estimate/predict/rollout requests concurrently, with
  admission control, load shedding, worker-crash retry, and
  registry-backed per-endpoint latency stats;
- :mod:`repro.serve.workers` — shard workers behind one declarative
  factory (:class:`WorkerSpec`): one client, :class:`ShardWorker`,
  whose URL says how its peer is launched (``pipe://``/``shm://``
  child, spawned or dialed ``tcp://``/``unix://`` worker, or an
  inbound ``--connect`` peer), and the standalone serving loops
  (``repro-soc worker``);
- :mod:`repro.serve.transport` — :class:`Transport`: the framed
  connection seam under every worker (``pipe://``, ``shm://``,
  ``unix:///path``, ``tcp://host:port``), with torn-stream and
  deadline peer-death detection;
- :mod:`repro.serve.daemon` — :class:`SocDaemon`: the ``repro-soc
  serve`` process — gateway + control loop + scrape endpoint on one
  control URL that clients and workers dial into;
- :mod:`repro.serve.client` — :class:`SocClient`: the public
  by-URL client for a running daemon;
- :mod:`repro.serve.archive` — :class:`DirectoryArchiveStore`: cold
  storage for sealed journal segments (rotation ships, replay
  fetches);
- :mod:`repro.serve.wire` — the one frame codec of every worker and
  client message: struct header, JSON meta (control ops' arguments and
  results) and raw array payloads decoded via ``np.frombuffer`` (the
  bulk inference messages), with a decoder that raises ``FrameError``
  on any malformed body;
- :mod:`repro.serve.fleet_sim` — synthetic heterogeneous fleets for
  benchmarks and the ``repro-soc serve-sim`` subcommand.

Inference always runs on the float64 compiled kernel path
(:mod:`repro.core.kernels`) — flat weight blocks, fused scalers,
preallocated GEMM chains.

See ``src/repro/serve/README.md`` for the compiled-kernel
architecture, gateway architecture, sharding topology, worker wire
protocol (frame layout), journal format, and canary lifecycle.
"""

from .archive import ArchiveError, DirectoryArchiveStore, MissingSegmentError
from .canary import CanaryController, CanaryReport, in_canary_slice
from .client import DaemonUnavailable, SocClient
from .daemon import SocDaemon
from .engine import CellState, Fleet, FleetEngine
from .fleet_sim import FleetMember, FleetScenario, generate_fleet
from .gateway import GatewayOverloaded, SocGateway
from .persistence import JournalSnapshot, StateJournal
from .registry import ModelEntry, ModelRegistry
from .scheduler import BatchStats, Completion, MicroBatcher
from .sharding import ShardedFleet, shard_for
from .transport import PeerGone, Transport, TransportError, TransportTimeout
from .workers import ShardWorker, WorkerCrashError, WorkerSpec

__all__ = [
    "CellState",
    "Fleet",
    "FleetEngine",
    "ShardedFleet",
    "shard_for",
    "SocGateway",
    "GatewayOverloaded",
    "ShardWorker",
    "WorkerSpec",
    "WorkerCrashError",
    "Transport",
    "TransportError",
    "TransportTimeout",
    "PeerGone",
    "SocClient",
    "SocDaemon",
    "DaemonUnavailable",
    "ArchiveError",
    "MissingSegmentError",
    "DirectoryArchiveStore",
    "StateJournal",
    "JournalSnapshot",
    "ModelEntry",
    "ModelRegistry",
    "CanaryController",
    "CanaryReport",
    "in_canary_slice",
    "BatchStats",
    "Completion",
    "MicroBatcher",
    "FleetMember",
    "FleetScenario",
    "generate_fleet",
]
