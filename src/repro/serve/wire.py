"""Worker wire codec: length-prefixed frames, pickle (v1) and zero-copy (v2).

The :class:`~repro.serve.workers.ShardWorker` protocol frames every
message as a 4-byte big-endian length plus a body, whatever the
transport underneath.  A length above :data:`MAX_FRAME_BYTES` is
rejected with :class:`FrameTooLarge` before any body byte is read, so
one hostile header cannot make a listener allocate gigabytes.  PR 3
shipped one body format — a pickle of ``(op, args, kwargs)`` — which is
fine for control traffic but wasteful for the bulk inference messages:
pickling a numpy array walks the object graph, copies the payload into
the pickle stream, and on receive copies it *again* out of the stream
into a fresh array.

The **v2 frame format** added here keeps the outer framing and replaces
the body for bulk messages (``estimate`` / ``predict`` /
``rollout_fleet`` / ``resume_rollout_fleet`` and their replies) with a
struct header plus raw array bytes::

    body    := magic=0xB2 (1B) | version (1B) | meta_len (>I) | n_arrays (>H)
               | meta (UTF-8 JSON, meta_len bytes)
               | array payloads (raw C-order bytes, back to back)

    meta    := {"kind": <message kind>,
                "meta":   <kind-specific JSON object>,
                "arrays": [{"dtype": "<f8", "shape": [n, ...]}, ...]}

The sender writes the header, the JSON block and then each array's
buffer straight from the array memory (no intermediate pickle stream);
the receiver decodes each payload with :func:`numpy.frombuffer` over
the received body — a *view*, not a copy, so a 1,000-cell estimate
batch or a fleet's rollout trajectories cross the pipe with zero
per-element Python work and zero decode-side copies.  Decoded arrays
are read-only (they alias the frame buffer); engine code treats inputs
as immutable, results are copied out at the worker API boundary (so
callers get writable arrays, as from an in-process engine), and
float64 payloads round-trip **bit-for-bit** — the property the worker
equivalence suite pins.

Both formats coexist on one pipe: a pickle body starts with the
protocol-2+ opcode ``0x80``, a v2 body with the magic ``0xB2``, so
:func:`read_frame` dispatches on the first byte.  Control ops (init,
shutdown, registration, state migration) stay on pickle — they are
rare and structural — and anything v2 cannot express (e.g. cycle tags
that are not JSON) falls back to pickle per message, never per
session.

**Shared-memory refs (shm transport).**  Over the ``shm://`` local
transport (:class:`repro.serve.transport.ShmRing`) bulk payloads stop
riding the pipe entirely: :func:`encode_v2_shm` copies each array's
bytes into a preallocated shared-memory slab ring and the frame body
carries only the header + JSON meta, with each array spec extended by
``"shm": [offset, nbytes]``.  The receiver (:func:`decode_body` with a
``shm`` ring attached) maps each ref back with ``np.frombuffer`` over
the ring — the same read-only-view contract as in-band payloads.  A
message whose payloads do not fit the ring returns ``None`` from
:func:`encode_v2_shm` and falls back to an in-band :func:`encode_v2`
frame, so ring capacity bounds memory, never message size.  Ref frames
are only valid between the two endpoints sharing the ring; everything
else about the format (dispatch byte, meta, fallback rules) is
unchanged.

**Trace context.**  The kind-specific ``meta`` block is free-form
JSON, so distributed-tracing context rides as one optional meta key
(:data:`TRACE_META_KEY`): the compact ``[trace_id, span_id, flags]``
triple from :func:`pack_trace_context`.  Replies from a
trace-enabled worker may carry the sibling key ``"spans"`` — span
dicts recorded in the child, re-joined to the parent's trace via
:meth:`repro.monitor.tracing.SpanTracer.absorb`.  Decoders ignore
both keys; pickle-fallback messages carry no trace context (those
paths stay untraced).
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import struct
from typing import Iterable, Sequence

import numpy as np

from ..battery.simulator import SimulationResult
from ..core.rollout import RolloutResult
from ..datasets.base import CycleRecord

__all__ = [
    "FrameTooLarge",
    "LENGTH_PREFIX_SIZE",
    "MAX_FRAME_BYTES",
    "TRACE_META_KEY",
    "TransportError",
    "V2Frame",
    "pack_trace_context",
    "read_frame",
    "read_exact",
    "frame_header",
    "frame_length",
    "pickle_body",
    "decode_body",
    "write_pickle",
    "write_v2",
    "encode_v2",
    "encode_v2_shm",
    "encode_str_list",
    "decode_str_list",
    "encode_rollout_request",
    "decode_rollout_request",
    "encode_rollout_results",
    "decode_rollout_results",
]

V2_MAGIC = 0xB2
V2_VERSION = 2
_LENGTH = struct.Struct(">I")
_V2_HEAD = struct.Struct(">BBIH")

# Optional meta key carrying trace context across the process boundary.
TRACE_META_KEY = "tc"

# Largest frame body either end accepts: 16x the largest frame the test
# suites and benchmarks send (a 1k-cell fleet rollout request is ~4 MB,
# the transport echo 2 MB), far below what a forged header could claim.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class TransportError(ConnectionError):
    """Base class for transport-layer failures."""


class FrameTooLarge(TransportError):
    """A frame header announced a body above :data:`MAX_FRAME_BYTES`.

    Raised before the body is read: the stream is left unframed, so the
    connection must be dropped.
    """


def pack_trace_context(ctx) -> list[int]:
    """``[trace_id, span_id, flags]`` for the :data:`TRACE_META_KEY` meta slot.

    Duck-typed on :class:`~repro.monitor.tracing.TraceContext` so this
    module keeps zero monitor imports; bit 0 of ``flags`` is the
    head-sampled bit.
    """
    return [int(ctx.trace_id), int(ctx.span_id), 1 if ctx.sampled else 0]


@dataclasses.dataclass
class V2Frame:
    """One decoded v2 message: a kind tag, JSON-safe meta, raw arrays."""

    kind: str
    meta: dict
    arrays: list[np.ndarray]


# -- transport ---------------------------------------------------------
LENGTH_PREFIX_SIZE = _LENGTH.size


def read_exact(stream, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; ``None`` on EOF (possibly mid-read)."""
    chunks = []
    while n:
        chunk = stream.read(n)
        if not chunk:
            return None  # EOF (possibly mid-frame: the peer died)
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


_read_exact = read_exact  # internal alias, kept for call-site brevity


def frame_header(body_length: int) -> bytes:
    """The 4-byte length prefix for a ``body_length``-byte frame body."""
    return _LENGTH.pack(body_length)


def frame_length(header: bytes) -> int:
    """Decode a length prefix read with :func:`read_exact`.

    Raises :class:`FrameTooLarge` above :data:`MAX_FRAME_BYTES`.
    """
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    return length


def pickle_body(payload) -> bytes:
    """A v1 frame body: the payload pickled at the highest protocol."""
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def decode_body(body: bytes, shm=None):
    """Decode one frame body: a :class:`V2Frame` or an unpickled payload.

    The first byte dispatches — ``0xB2`` is the v2 magic, ``0x80`` the
    pickle protocol-2+ opcode — exactly as the stream-level
    :func:`read_frame` always did; transports that read bodies
    themselves (for torn-stream detection) decode through this.

    ``shm`` is the receive-side shared-memory ring (any object exposing
    the mapped bytes as ``.buf``); array specs carrying ``"shm"`` refs
    are resolved against it.  Without a ring attached such frames raise
    ``ValueError`` — they are meaningless off their transport.
    """
    if body[:1] == bytes([V2_MAGIC]):
        return _decode_v2(body, shm=shm)
    return pickle.loads(body)


def read_frame(stream):
    """Read one frame; a pickle payload, a :class:`V2Frame`, or ``None`` on EOF."""
    header = _read_exact(stream, _LENGTH.size)
    if header is None:
        return None
    body = _read_exact(stream, frame_length(header))
    if body is None:
        return None
    return decode_body(body)


def write_pickle(stream, payload) -> None:
    """Write one v1 frame (a pickled payload)."""
    body = pickle_body(payload)
    stream.write(_LENGTH.pack(len(body)) + body)
    stream.flush()


def encode_v2(kind: str, meta: dict, arrays: Sequence[np.ndarray]) -> list:
    """Serialize a v2 message into write-ready buffers.

    Fully serializes (including the JSON meta block) **before**
    returning, so a ``TypeError`` from non-JSON meta surfaces while the
    stream is still clean and the caller can fall back to pickle.
    Returns ``[header+meta bytes, array buffer, ...]``; array buffers
    are memoryviews of the (C-contiguous) array memory — no copy.
    """
    if len(arrays) > 0xFFFF:
        # n_arrays is a 2-byte field; a rollout request carrying more
        # unique cycles than that degrades to a pickle frame instead
        raise TypeError(f"{len(arrays)} arrays exceed the v2 frame limit of 65535")
    blocks: list = []
    specs = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise TypeError("v2 frames carry raw numeric arrays, not object dtypes")
        specs.append({"dtype": array.dtype.str, "shape": list(array.shape)})
        if array.size:  # empty views cannot be byte-cast; they carry no payload
            blocks.append(memoryview(array).cast("B"))
    meta_b = json.dumps({"kind": kind, "meta": meta, "arrays": specs}, separators=(",", ":")).encode("utf-8")
    head = _V2_HEAD.pack(V2_MAGIC, V2_VERSION, len(meta_b), len(arrays))
    length = _V2_HEAD.size + len(meta_b) + sum(len(b) for b in blocks)
    return [_LENGTH.pack(length) + head + meta_b, *blocks]


def write_v2(stream, kind: str, meta: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write one v2 frame, streaming array payloads from their buffers."""
    for chunk in encode_v2(kind, meta, arrays):
        stream.write(chunk)
    stream.flush()


def encode_v2_shm(kind: str, meta: dict, arrays: Sequence[np.ndarray], ring) -> list | None:
    """Serialize a v2 message with payloads placed in a shared-memory ring.

    Array bytes are copied into ``ring`` (via its ``place`` method) and
    each spec gains an ``"shm": [offset, nbytes]`` ref; the returned
    buffers carry only the header + meta, so the bulk payload never
    touches the stream.  Returns ``None`` when the payloads do not fit
    the ring — the caller sends a plain in-band :func:`encode_v2` frame
    instead.  Like :func:`encode_v2`, the JSON meta is fully serialized
    before anything is written to the *stream*, so pickle fallback on
    ``TypeError`` still sees a clean stream (slab bytes already placed
    are simply overwritten by a later message).
    """
    if len(arrays) > 0xFFFF:
        raise TypeError(f"{len(arrays)} arrays exceed the v2 frame limit of 65535")
    blocks: list = []
    normalized: list[tuple[np.ndarray, bool]] = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise TypeError("v2 frames carry raw numeric arrays, not object dtypes")
        payload = bool(array.size)  # empty arrays carry no payload, shm or not
        normalized.append((array, payload))
        if payload:
            blocks.append(memoryview(array).cast("B"))
    offsets = ring.place(blocks)
    if offsets is None:
        return None
    refs = iter(offsets)
    specs = []
    for array, payload in normalized:
        spec = {"dtype": array.dtype.str, "shape": list(array.shape)}
        if payload:
            spec["shm"] = [next(refs), array.nbytes]
        specs.append(spec)
    meta_b = json.dumps({"kind": kind, "meta": meta, "arrays": specs}, separators=(",", ":")).encode("utf-8")
    head = _V2_HEAD.pack(V2_MAGIC, V2_VERSION, len(meta_b), len(arrays))
    return [_LENGTH.pack(_V2_HEAD.size + len(meta_b)) + head + meta_b]


def _decode_v2(body: bytes, shm=None) -> V2Frame:
    magic, version, meta_len, n_arrays = _V2_HEAD.unpack_from(body, 0)
    if version > V2_VERSION:
        raise ValueError(f"frame format v{version} is newer than this build (v{V2_VERSION})")
    offset = _V2_HEAD.size
    info = json.loads(body[offset : offset + meta_len].decode("utf-8"))
    offset += meta_len
    if len(info["arrays"]) != n_arrays:
        raise ValueError(f"frame header promises {n_arrays} arrays, meta lists {len(info['arrays'])}")
    arrays = []
    for spec in info["arrays"]:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        ref = spec.get("shm")
        if ref is not None:
            if shm is None:
                raise ValueError("frame carries shm refs but no ring is attached to this transport")
            array = np.frombuffer(shm.buf, dtype=dtype, count=count, offset=int(ref[0])).reshape(shape)
            array.flags.writeable = False  # same read-only-view contract as in-band payloads
        else:
            array = np.frombuffer(body, dtype=dtype, count=count, offset=offset).reshape(shape)
            offset += count * dtype.itemsize
        arrays.append(array)
    return V2Frame(kind=info["kind"], meta=info["meta"], arrays=arrays)


# -- bulk-message payload codecs ---------------------------------------
def encode_str_list(items: Sequence[str]) -> np.ndarray:
    """Pack a list of strings into one raw uint8 payload (NUL-joined).

    Cell-id lists are the one non-numeric bulk payload; shipping them
    inside the JSON meta would put an O(n) string-encode/parse back on
    the hot path, so they ride as a raw byte block instead.  Pair with
    :func:`decode_str_list` (which needs the count, carried in the
    frame meta).

    Raises
    ------
    TypeError
        When an item contains the NUL separator — the caller falls
        back to a pickle frame for that message.
    """
    joined = "\x00".join(items)
    if joined.count("\x00") != max(len(items) - 1, 0):
        raise TypeError("strings containing NUL are not v2-expressible")
    return np.frombuffer(joined.encode("utf-8"), dtype=np.uint8)


def decode_str_list(array: np.ndarray, count: int) -> list[str]:
    """Unpack :func:`encode_str_list` output back into ``count`` strings."""
    if count == 0:
        return []
    items = array.tobytes().decode("utf-8").split("\x00")
    if len(items) != count:
        raise ValueError(f"string block holds {len(items)} items, frame meta promises {count}")
    return items


_CHANNELS = (
    "time_s",
    "voltage",
    "current",
    "temp_c",
    "soc",
    "voltage_true",
    "current_true",
    "temp_true",
)


def encode_rollout_request(
    pairs: Iterable[tuple[str, CycleRecord]], step_s: float
) -> tuple[dict, list[np.ndarray]]:
    """Flatten rollout assignments into v2 meta + raw array blocks.

    Cycles are deduplicated by object identity — a fleet where many
    cells follow one recorded trace ships that trace **once**, and the
    decoder rebuilds the sharing (so the engine plans each trace once
    in the child exactly as in-process).  Only the per-*cycle*
    scalars and tags ride in the JSON meta; the O(cells) pair list is
    two raw blocks (an id blob and a cycle-index array), and the
    recorded channels are raw float payloads.
    """
    cycle_index: dict[int, int] = {}
    cycles: list[CycleRecord] = []
    cell_ids: list[str] = []
    cycle_of: list[int] = []
    for cell_id, cycle in pairs:
        u = cycle_index.setdefault(id(cycle), len(cycles))
        if u == len(cycles):
            cycles.append(cycle)
        cell_ids.append(cell_id)
        cycle_of.append(u)
    specs = []
    arrays: list[np.ndarray] = [
        encode_str_list(cell_ids),
        np.asarray(cycle_of, dtype=np.int64),
    ]
    for cycle in cycles:
        specs.append(
            {
                "name": cycle.name,
                "split": cycle.split,
                "ambient_c": cycle.ambient_c,
                "sampling_period_s": cycle.sampling_period_s,
                "capacity_ah": cycle.capacity_ah,
                "tags": cycle.tags,
                "stopped_early": bool(cycle.data.stopped_early),
                "stop_reason": cycle.data.stop_reason,
            }
        )
        arrays.extend(np.asarray(getattr(cycle.data, channel)) for channel in _CHANNELS)
    return {"step_s": float(step_s), "n_pairs": len(cell_ids), "cycles": specs}, arrays


def decode_rollout_request(meta: dict, arrays: Sequence[np.ndarray]) -> tuple[list, float]:
    """Rebuild ``(cell_id, cycle)`` assignments from a v2 rollout frame."""
    cell_ids = decode_str_list(arrays[0], int(meta["n_pairs"]))
    cycle_of = arrays[1]
    cycles = []
    stride = len(_CHANNELS)
    for k, spec in enumerate(meta["cycles"]):
        channels = dict(zip(_CHANNELS, arrays[2 + stride * k : 2 + stride * (k + 1)]))
        data = SimulationResult(
            stopped_early=spec["stopped_early"], stop_reason=spec["stop_reason"], **channels
        )
        cycles.append(
            CycleRecord(
                name=spec["name"],
                split=spec["split"],
                ambient_c=spec["ambient_c"],
                sampling_period_s=spec["sampling_period_s"],
                capacity_ah=spec["capacity_ah"],
                data=data,
                tags=spec["tags"],
            )
        )
    pairs = [(cell_id, cycles[u]) for cell_id, u in zip(cell_ids, cycle_of)]
    return pairs, float(meta["step_s"])


def encode_rollout_results(results: dict[str, RolloutResult]) -> tuple[dict, list[np.ndarray]]:
    """Flatten per-cell trajectories into v2 meta + stacked raw arrays.

    Everything O(cells) is a raw block: the id blob, the per-cell
    lengths/scalars, and the three concatenated trajectory channels.
    """
    cell_ids = list(results)
    lengths = np.array([len(r.time_s) for r in results.values()], dtype=np.int64)
    scalars = np.array(
        [[r.initial_soc, r.step_s, r.tail_s] for r in results.values()], dtype=np.float64
    ).reshape(len(results), 3)
    empty = np.empty(0)
    stacked = [
        np.concatenate(parts) if parts else empty
        for parts in (
            [r.time_s for r in results.values()],
            [r.soc_pred for r in results.values()],
            [r.soc_true for r in results.values()],
        )
    ]
    arrays = [encode_str_list(cell_ids), lengths, scalars, *stacked]
    return {"n_cells": len(cell_ids)}, arrays


def decode_rollout_results(meta: dict, arrays: Sequence[np.ndarray]) -> dict[str, RolloutResult]:
    """Rebuild the ``{cell_id: RolloutResult}`` mapping from a v2 reply.

    Trajectories are copied out of the frame body so callers receive
    writable arrays — the same contract as an in-process engine — and
    the frame buffer can be released.
    """
    cell_ids = decode_str_list(arrays[0], int(meta["n_cells"]))
    lengths, scalars, time_all, pred_all, true_all = arrays[1:]
    results: dict[str, RolloutResult] = {}
    offset = 0
    for k, cell_id in enumerate(cell_ids):
        n = int(lengths[k])
        results[cell_id] = RolloutResult(
            time_s=time_all[offset : offset + n].copy(),
            soc_pred=pred_all[offset : offset + n].copy(),
            soc_true=true_all[offset : offset + n].copy(),
            initial_soc=float(scalars[k, 0]),
            step_s=float(scalars[k, 1]),
            tail_s=float(scalars[k, 2]),
        )
        offset += n
    return results
