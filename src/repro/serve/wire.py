"""Worker wire codec: one length-prefixed frame format for every message.

Every message between a :class:`~repro.serve.workers.ShardWorker` and
its worker, and between a :class:`~repro.serve.client.SocClient` and
the daemon, is one frame: a 4-byte big-endian length plus a body,
whatever the transport underneath.  A length above
:data:`MAX_FRAME_BYTES` is rejected with :class:`FrameTooLarge` before
any body byte is read, so one hostile header cannot make a listener
allocate gigabytes.  The body is a struct header, a JSON block and raw
array bytes::

    body    := magic=0xB2 (1B) | version=3 (1B) | meta_len (>I) | n_arrays (>I)
               | meta (UTF-8 JSON, meta_len bytes)
               | array payloads (raw C-order bytes, back to back)

    meta    := {"kind": <message kind>,
                "meta":   <kind-specific JSON object>,
                "arrays": [{"dtype": "<f8", "shape": [n, ...]}, ...]}

Bulk messages (``estimate`` / ``predict`` / ``rollout_fleet`` /
``resume_rollout_fleet`` and their replies) carry their numbers as
arrays: the sender writes each array's buffer straight from the array
memory, and the receiver decodes each payload with
:func:`numpy.frombuffer` over the received body — a *view*, not a
copy, so a 1,000-cell estimate batch or a fleet's rollout trajectories
cross the pipe with zero per-element Python work and zero decode-side
copies.  Decoded arrays are read-only (they alias the frame buffer);
engine code treats inputs as immutable, results are copied out at the
worker API boundary (so callers get writable arrays, as from an
in-process engine), and float64 payloads round-trip **bit-for-bit** —
the property the worker equivalence suite pins.

Control messages (``init``, ``ping``, registration, state migration,
metrics, every :class:`~repro.serve.client.SocClient` op, ...) are the
same frame with no arrays.  A request's meta is ``{"args": [...],
"kwargs": {...}}`` (:func:`call_meta`); the reply is ``kind="ok"``
with ``{"value": ...}`` or ``kind="err"`` with ``{"type", "message"}``
(:func:`error_meta`), which :func:`check_reply` turns back into the
exception on the calling side.  Values JSON cannot carry travel as
tagged objects over a closed set of types — :class:`CellState`,
:class:`DriftEvent` and numeric ndarrays (a model's ``state_dict``);
numeric numpy scalars become plain JSON numbers.  Anything else fails
to encode with ``TypeError`` before a byte is written, and an unknown
tag fails to decode.

**Decoding is total.**  :func:`decode_body` returns a :class:`V2Frame`
or raises :class:`FrameError` — a short header, a foreign magic or
version, bad UTF-8 or JSON, a malformed array spec (non-numeric dtype,
a negative or non-integer dimension), a payload that does not exactly
fill the body, or an out-of-range shm ref.  :class:`FrameError` is a
:class:`TransportError`, so every receive path drops the connection
on it exactly as on a torn stream; nothing from the peer is executed.
The version byte moved to 3 with the 4-byte ``n_arrays`` field, so a
peer built for the 2-byte field refuses these frames instead of
misparsing them.

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
are only valid between the two endpoints sharing the ring.

**Trace context.**  The kind-specific ``meta`` block is free-form
JSON, so distributed-tracing context rides as one optional meta key
(:data:`TRACE_META_KEY`): the compact ``[trace_id, span_id, flags]``
triple from :func:`pack_trace_context`.  Replies from a
trace-enabled worker may carry the sibling key ``"spans"`` — span
dicts recorded in the child, re-joined to the parent's trace via
:meth:`repro.monitor.tracing.SpanTracer.absorb`.  Decoders ignore
both keys; control ops carry no trace context.
"""

from __future__ import annotations

import base64
import binascii
import dataclasses
import itertools
import json
import math
import re
import struct
from typing import Iterable, Sequence

import numpy as np

from ..battery.simulator import SimulationResult
from ..core.rollout import RolloutResult
from ..datasets.base import CycleRecord
from ..monitor.drift import DriftEvent
from .engine import CellState

__all__ = [
    "FrameError",
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
    "decode_body",
    "write_v2",
    "encode_v2",
    "encode_v2_shm",
    "check_encodable",
    "call_meta",
    "call_args",
    "error_meta",
    "check_reply",
    "encode_str_list",
    "decode_str_list",
    "encode_rollout_request",
    "decode_rollout_request",
    "encode_rollout_results",
    "decode_rollout_results",
]

V2_MAGIC = 0xB2
V2_VERSION = 3
_LENGTH = struct.Struct(">I")
_V2_HEAD = struct.Struct(">BBII")

# Optional meta key carrying trace context across the process boundary.
TRACE_META_KEY = "tc"

# Largest frame body either end accepts: 16x the largest frame the test
# suites and benchmarks send (a 1k-cell fleet rollout request is ~4 MB,
# the transport echo 2 MB), far below what a forged header could claim.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# Array dtypes a frame may declare: bool, signed/unsigned int and float,
# as numpy spells them in ``dtype.str``.  Matching the spelling first
# keeps numpy's dtype parser away from arbitrary peer strings.
_NUMERIC_KINDS = "biuf"
_DTYPE_SPELLING = re.compile(r"[<>|=]?[biuf][0-9]{1,2}")

# JSON key marking a tagged (non-JSON) value, and the exceptions an
# ``err`` reply re-raises by name (anything else arrives as RuntimeError).
_TAG = "__wire__"
_REPLY_ERRORS = {"KeyError": KeyError, "ValueError": ValueError}


class TransportError(ConnectionError):
    """Base class for transport-layer failures."""


class FrameTooLarge(TransportError):
    """A frame header announced a body above :data:`MAX_FRAME_BYTES`.

    Raised before the body is read: the stream is left unframed, so the
    connection must be dropped.
    """


class FrameError(TransportError, ValueError):
    """A frame body that does not decode.

    A :class:`TransportError` — the peer is not speaking this protocol,
    so the connection is dropped — and a ``ValueError``, like any other
    malformed input.
    """


def pack_trace_context(ctx) -> list[int]:
    """``[trace_id, span_id, flags]`` for the :data:`TRACE_META_KEY` meta slot.

    Duck-typed on :class:`~repro.monitor.tracing.TraceContext`; bit 0
    of ``flags`` is the head-sampled bit.
    """
    return [int(ctx.trace_id), int(ctx.span_id), 1 if ctx.sampled else 0]


@dataclasses.dataclass
class V2Frame:
    """One decoded message: a kind tag, JSON-safe meta, raw arrays."""

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


def read_frame(stream) -> V2Frame | None:
    """Read one frame from a binary stream; ``None`` on EOF."""
    header = read_exact(stream, _LENGTH.size)
    if header is None:
        return None
    body = read_exact(stream, frame_length(header))
    if body is None:
        return None
    return decode_body(body)


# -- encoding ----------------------------------------------------------
def _encode_value(obj):
    """``json`` ``default`` hook: the closed set of tagged types."""
    if isinstance(obj, CellState):
        return {_TAG: "CellState", **dataclasses.asdict(obj)}
    if isinstance(obj, DriftEvent):
        return {_TAG: "DriftEvent", **dataclasses.asdict(obj)}
    if isinstance(obj, (np.ndarray, np.generic)) and obj.dtype.kind in _NUMERIC_KINDS:
        if isinstance(obj, np.generic):
            return obj.item()
        array = np.ascontiguousarray(obj)
        return {
            _TAG: "ndarray",
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "data": base64.b64encode(array.tobytes()).decode("ascii"),
        }
    raise TypeError(f"{type(obj).__name__} values cannot cross the wire")


def _payloads(arrays: Sequence[np.ndarray]) -> tuple[list[dict], list[memoryview]]:
    """Array specs, plus byte views of the non-empty arrays' memory (no copy)."""
    specs, blocks = [], []
    for array in arrays:
        array = np.ascontiguousarray(array)
        if array.dtype.kind not in _NUMERIC_KINDS:
            raise TypeError(f"frames carry numeric arrays, not dtype {array.dtype}")
        specs.append({"dtype": array.dtype.str, "shape": list(array.shape)})
        if array.size:  # empty views cannot be byte-cast; they carry no payload
            blocks.append(memoryview(array).cast("B"))
    return specs, blocks


def _head(kind: str, meta: dict, specs: list[dict], payload_bytes: int) -> bytes:
    """Length prefix + struct header + JSON meta of one frame."""
    info = {"kind": kind, "meta": meta, "arrays": specs}
    meta_b = json.dumps(info, separators=(",", ":"), default=_encode_value).encode("utf-8")
    head = _V2_HEAD.pack(V2_MAGIC, V2_VERSION, len(meta_b), len(specs))
    return _LENGTH.pack(_V2_HEAD.size + len(meta_b) + payload_bytes) + head + meta_b


def encode_v2(kind: str, meta: dict, arrays: Sequence[np.ndarray]) -> list:
    """Serialize a message into write-ready buffers.

    Fully serializes (including the JSON meta block) **before**
    returning, so a ``TypeError`` from a value the codec cannot carry
    surfaces while the stream is still clean.  Returns ``[length
    prefix + header + meta bytes, array buffer, ...]``; array buffers
    are memoryviews of the (C-contiguous) array memory — no copy.
    """
    specs, blocks = _payloads(arrays)
    return [_head(kind, meta, specs, sum(b.nbytes for b in blocks)), *blocks]


def write_v2(stream, kind: str, meta: dict, arrays: Sequence[np.ndarray]) -> None:
    """Write one frame, streaming array payloads from their buffers."""
    for chunk in encode_v2(kind, meta, arrays):
        stream.write(chunk)
    stream.flush()


def encode_v2_shm(kind: str, meta: dict, arrays: Sequence[np.ndarray], ring) -> list | None:
    """Serialize a message with payloads placed in a shared-memory ring.

    Array bytes are copied into ``ring`` (via its ``place`` method) and
    each non-empty array's spec gains an ``"shm": [offset, nbytes]``
    ref; the returned buffers carry only the header + meta, so the bulk
    payload never touches the stream.  Returns ``None`` when the
    payloads do not fit the ring — the caller sends a plain in-band
    :func:`encode_v2` frame instead.  Like :func:`encode_v2`, nothing
    reaches the *stream* before the JSON meta is fully serialized (slab
    bytes already placed for a message that then fails to encode are
    simply overwritten later).
    """
    specs, blocks = _payloads(arrays)
    offsets = ring.place(blocks)
    if offsets is None:
        return None
    placed = iter(zip(offsets, blocks))
    for spec in specs:
        if math.prod(spec["shape"]):
            offset, block = next(placed)
            spec["shm"] = [offset, block.nbytes]
    return [_head(kind, meta, specs, 0)]


# -- decoding ----------------------------------------------------------
def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _dtype(spelling) -> np.dtype:
    if isinstance(spelling, str) and _DTYPE_SPELLING.fullmatch(spelling):
        try:
            return np.dtype(spelling)
        except TypeError:  # a width numpy lacks, e.g. "<f3"
            pass
    raise FrameError(f"array dtype {spelling!r:.40} is not a numeric dtype")


def _shape(shape) -> tuple[int, ...]:
    if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
        raise FrameError(f"array shape {shape!r} is not a list of non-negative ints")
    return tuple(shape)


def _reshape(flat: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    try:
        return flat.reshape(shape)
    except (ValueError, OverflowError) as exc:  # more dims, or a larger dim, than numpy allows
        raise FrameError(f"array shape {shape!r:.80} is not representable: {exc}") from exc


def _decode_value(obj: dict):
    """``json`` ``object_hook``: rebuild tagged values, pass plain dicts."""
    tag = obj.pop(_TAG, None)
    if tag is None:
        return obj
    try:
        if tag == "CellState":
            return CellState(**obj)
        if tag == "DriftEvent":
            return DriftEvent(**{**obj, "trace_ids": tuple(obj.get("trace_ids", ()))})
        if tag == "ndarray":
            dtype, shape = _dtype(obj["dtype"]), _shape(obj["shape"])
            raw = base64.b64decode(obj["data"], validate=True)
            if len(raw) != math.prod(shape) * dtype.itemsize:
                raise FrameError(f"ndarray of shape {shape} carries {len(raw)} bytes")
            return _reshape(np.frombuffer(bytearray(raw), dtype=dtype), shape)
    except (TypeError, KeyError, binascii.Error) as exc:
        raise FrameError(f"malformed {tag!r} value: {exc}") from exc
    raise FrameError(f"unknown value tag {tag!r}")


_TAGGED_META = json.JSONDecoder(object_hook=_decode_value)
_PLAIN_META = json.JSONDecoder()


def decode_body(body: bytes, shm=None) -> V2Frame:
    """Decode one frame body into a :class:`V2Frame`.

    ``shm`` is the receive-side shared-memory ring (any object exposing
    the mapped bytes as ``.buf``); array specs carrying ``"shm"`` refs
    are resolved against it.  Raises :class:`FrameError` on anything
    that is not a well-formed frame of this version — including shm
    refs with no ring attached, which are meaningless off their
    transport.
    """
    if len(body) < _V2_HEAD.size:
        raise FrameError(f"frame body of {len(body)} bytes is shorter than its header")
    magic, version, meta_len, n_arrays = _V2_HEAD.unpack_from(body, 0)
    if magic != V2_MAGIC:
        raise FrameError(f"frame magic 0x{magic:02x} is not 0x{V2_MAGIC:02x}")
    if version != V2_VERSION:
        raise FrameError(f"frame format v{version} is not this build's v{V2_VERSION}")
    offset = _V2_HEAD.size + meta_len
    if offset > len(body):
        raise FrameError(f"frame meta of {meta_len} bytes overruns the {len(body)}-byte body")
    try:
        text = body[_V2_HEAD.size : offset].decode("utf-8")
        # the object hook runs once per JSON object: skip it when nothing is tagged
        info = (_TAGGED_META if _TAG in text else _PLAIN_META).decode(text)
    except FrameError:
        raise
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"frame meta is not UTF-8 JSON: {exc}") from exc
    if type(info) is not dict or not isinstance(info.get("kind"), str) or type(info.get("meta")) is not dict:
        raise FrameError("frame meta needs a string 'kind' and an object 'meta'")
    specs = info.get("arrays")
    if not isinstance(specs, list) or len(specs) != n_arrays:
        raise FrameError(f"frame header promises {n_arrays} arrays, meta lists {specs!r:.80}")
    arrays = []
    for spec in specs:
        if type(spec) is not dict:
            raise FrameError(f"array spec {spec!r:.80} is not an object")
        dtype, shape = _dtype(spec.get("dtype")), _shape(spec.get("shape"))
        nbytes = math.prod(shape) * dtype.itemsize
        ref = spec.get("shm")
        if ref is None:
            source, start = body, offset
            offset += nbytes
        else:
            if shm is None:
                raise FrameError("frame carries shm refs but no ring is attached to this transport")
            if not (isinstance(ref, list) and len(ref) == 2 and all(_is_count(v) for v in ref)):
                raise FrameError(f"shm ref {ref!r:.80} is not [offset, nbytes]")
            if ref[1] != nbytes or ref[0] + nbytes > len(shm.buf):
                raise FrameError(f"shm ref {ref} is out of range for a {len(shm.buf)}-byte ring")
            source, start = shm.buf, ref[0]
        if offset > len(body):
            raise FrameError(f"array payloads overrun the {len(body)}-byte body")
        array = np.frombuffer(source, dtype=dtype, count=nbytes // dtype.itemsize, offset=start)
        array.flags.writeable = False  # shm views too: the same read-only-view contract
        arrays.append(_reshape(array, shape))
    if offset != len(body):
        raise FrameError(f"{len(body) - offset} trailing bytes after the last array payload")
    return V2Frame(kind=info["kind"], meta=info["meta"], arrays=arrays)


def check_encodable(value, what: str) -> None:
    """Raise ``ValueError`` unless the codec can carry ``value`` in a frame meta."""
    try:
        json.dumps(value, default=_encode_value)
    except (TypeError, ValueError) as exc:  # ValueError: a circular reference
        raise ValueError(f"{what} cannot cross the wire: {exc}") from exc


# -- control messages --------------------------------------------------
def call_meta(args: Sequence = (), kwargs: dict | None = None) -> dict:
    """The meta of a control request: its positional and keyword arguments."""
    return {"args": list(args), "kwargs": {} if kwargs is None else kwargs}


def call_args(frame: V2Frame) -> tuple[list, dict]:
    """``(args, kwargs)`` of a control request (``ValueError`` if malformed)."""
    args, kwargs = frame.meta.get("args", []), frame.meta.get("kwargs", {})
    if type(args) is not list or type(kwargs) is not dict:
        raise ValueError(f"{frame.kind!r} request needs a list 'args' and an object 'kwargs'")
    return args, kwargs


def error_meta(exc: BaseException) -> dict:
    """The meta of an ``err`` reply describing ``exc``."""
    # str() of a KeyError is the repr of its key; ship the key text so
    # the re-raised KeyError reads the same as the local one
    message = exc.args[0] if isinstance(exc, KeyError) and len(exc.args) == 1 else exc
    return {"type": type(exc).__name__, "message": str(message)}


def check_reply(frame: V2Frame) -> V2Frame:
    """Return an ``ok`` reply; raise the exception an ``err`` reply names.

    ``KeyError`` and ``ValueError`` are re-raised as themselves, every
    other remote error as ``RuntimeError``.  A reply of any other kind
    means the peer is not speaking this protocol: :class:`FrameError`.
    """
    if frame.kind == "ok":
        return frame
    if frame.kind == "err":
        raise _REPLY_ERRORS.get(frame.meta.get("type"), RuntimeError)(frame.meta.get("message", ""))
    raise FrameError(f"reply kind {frame.kind!r} is neither 'ok' nor 'err'")


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
        When an item contains the NUL separator.  No registered cell
        id does: :class:`~repro.serve.engine.FleetEngine` refuses them.
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

    Each trajectory channel is copied out of the frame body once, and
    every result holds disjoint row views of those copies: callers
    receive writable arrays — the same contract as an in-process engine
    — writing into one never changes another cell's result, and the
    frame buffer can be released.
    """
    cell_ids = decode_str_list(arrays[0], int(meta["n_cells"]))
    lengths, scalars = arrays[1].tolist(), arrays[2].tolist()
    ends = list(itertools.accumulate(lengths))
    time_all, pred_all, true_all = (np.array(channel) for channel in arrays[3:])
    results: dict[str, RolloutResult] = {}
    for cell_id, n, end, (initial_soc, step_s, tail_s) in zip(cell_ids, lengths, ends, scalars):
        results[cell_id] = RolloutResult(
            time_s=time_all[end - n : end],
            soc_pred=pred_all[end - n : end],
            soc_true=true_all[end - n : end],
            initial_soc=initial_soc,
            step_s=step_s,
            tail_s=tail_s,
        )
    return results
