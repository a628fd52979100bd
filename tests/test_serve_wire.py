"""Tests for the v2 zero-copy wire codec (:mod:`repro.serve.wire`)."""

import dataclasses
import io
import json
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TwoBranchSoCNet, model_rollout
from repro.battery.simulator import SimulationResult
from repro.monitor.drift import DriftEvent
from repro.serve import CellState, FleetEngine, ShardWorker, WorkerSpec, generate_fleet
from repro.serve import wire

FAST_FLEET = dict(
    ambient_temps_c=(25.0,),
    c_rates=(1.0, 2.0),
    protocols=("discharge",),
    max_time_s=1800.0,
)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_fleet():
    return generate_fleet(12, seed=7, **FAST_FLEET)


def roundtrip_v2(kind, meta, arrays):
    buf = io.BytesIO()
    wire.write_v2(buf, kind, meta, arrays)
    buf.seek(0)
    return wire.read_frame(buf)


# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_v2_roundtrip_is_bit_for_bit(self):
        rng = np.random.default_rng(0)
        arrays = [
            rng.standard_normal(257),
            np.array([np.nan, np.inf, -np.inf, 0.0, -0.0]),
            np.arange(7, dtype=np.int64),
            rng.standard_normal(33).astype(np.float32),
            np.empty(0),
        ]
        frame = roundtrip_v2("estimate", {"cell_ids": ["a", "b"], "now_s": None}, arrays)
        assert isinstance(frame, wire.V2Frame)
        assert frame.kind == "estimate"
        assert frame.meta == {"cell_ids": ["a", "b"], "now_s": None}
        assert len(frame.arrays) == len(arrays)
        for got, sent in zip(frame.arrays, arrays):
            assert got.dtype == sent.dtype
            assert got.shape == sent.shape
            # bit-for-bit: compare raw bytes, so NaN payloads count too
            assert got.tobytes() == sent.tobytes()

    def test_control_and_bulk_frames_share_one_stream(self):
        buf = io.BytesIO()
        wire.write_v2(buf, "op", wire.call_meta(("arg",)), [])
        wire.write_v2(buf, "estimate", {"k": 1}, [np.arange(3.0)])
        wire.write_v2(buf, "ok", {"value": 42}, [])
        buf.seek(0)
        assert wire.read_frame(buf) == wire.V2Frame("op", {"args": ["arg"], "kwargs": {}}, [])
        frame = wire.read_frame(buf)
        assert isinstance(frame, wire.V2Frame) and frame.meta == {"k": 1}
        assert wire.read_frame(buf) == wire.V2Frame("ok", {"value": 42}, [])
        assert wire.read_frame(buf) is None  # EOF

    def test_decoded_arrays_are_views_not_copies(self):
        frame = roundtrip_v2("x", {}, [np.arange(16.0)])
        array = frame.arrays[0]
        assert array.base is not None  # frombuffer view over the frame body
        assert not array.flags.writeable

    def test_non_json_meta_raises_before_writing(self):
        buf = io.BytesIO()
        with pytest.raises(TypeError):
            wire.write_v2(buf, "x", {"bad": object()}, [])
        assert buf.getvalue() == b""  # the stream is still clean

    def test_object_arrays_are_rejected(self):
        with pytest.raises(TypeError):
            wire.encode_v2("x", {}, [np.array([object()])])

    def test_more_than_65535_arrays_round_trip(self):
        """n_arrays is a 4-byte field: past the old 2-byte limit a message
        is still one frame, not an error."""
        arrays = [np.full(1, float(k)) for k in range(65536)]
        frame = roundtrip_v2("rollout_fleet", {}, arrays)
        assert len(frame.arrays) == 65536
        assert frame.arrays[-1].tolist() == [65535.0]

    def test_newer_version_is_refused(self):
        chunks = wire.encode_v2("x", {}, [])
        body = b"".join(chunks)[4:]
        bumped = bytes([body[0], 99]) + body[2:]
        buf = io.BytesIO(len(bumped).to_bytes(4, "big") + bumped)
        with pytest.raises(ValueError, match="v99"):
            wire.read_frame(buf)

    def test_two_byte_count_format_is_refused(self):
        """A frame in the v2 layout (2-byte n_arrays) is refused, not misread."""
        meta_b = b'{"kind":"x","meta":{},"arrays":[]}'
        body = struct.pack(">BBIH", 0xB2, 2, len(meta_b), 0) + meta_b
        with pytest.raises(wire.FrameError, match="v2"):
            wire.decode_body(body)


class TestTaggedValues:
    """Control-op values JSON cannot carry: one closed set of tagged types."""

    def test_closed_set_round_trips(self):
        state = CellState("c1", "nca", "default", soc=0.5, last_seen_s=None, n_requests=3)
        event = DriftEvent("cusum", "c1", 1.5, 1.0, window=4, detail="d", trace_ids=(7, 8))
        weights = {"w": np.arange(6.0).reshape(2, 3), "mask": np.array([True, False])}
        kwargs = {"state": weights, "n": np.int64(5), "f": np.float32(0.25)}
        frame = roundtrip_v2("x", wire.call_meta((state, [event]), kwargs), [])
        args, got = wire.call_args(frame)
        assert args == [state, [event]]
        assert args[1][0].trace_ids == (7, 8)
        for name, array in weights.items():
            assert got["state"][name].dtype == array.dtype
            assert got["state"][name].tobytes() == array.tobytes()
            assert got["state"][name].shape == array.shape
        assert got["n"] == 5 and type(got["n"]) is int
        assert got["f"] == 0.25

    @pytest.mark.parametrize(
        "bad",
        [object(), {1, 2}, b"raw", np.array(["a"]), np.array([1j]), np.array([object()])],
        ids=["object", "set", "bytes", "str-array", "complex-array", "object-array"],
    )
    def test_values_outside_the_closed_set_do_not_encode(self, bad):
        with pytest.raises(TypeError):
            wire.encode_v2("x", {"v": bad}, [])

    def test_unknown_tag_is_a_frame_error(self):
        body = b"".join(wire.encode_v2("x", {"v": {"__wire__": "Popen", "args": ["sh"]}}, []))
        with pytest.raises(wire.FrameError, match="unknown value tag"):
            wire.decode_body(body[4:])

    def test_err_replies_raise_the_named_exception(self):
        ok = wire.V2Frame("ok", {"value": 1}, [])
        assert wire.check_reply(ok) is ok
        cases = [(KeyError("c9"), KeyError), (ValueError("bad"), ValueError), (OSError("x"), RuntimeError)]
        for exc, raised in cases:
            with pytest.raises(raised):
                wire.check_reply(wire.V2Frame("err", wire.error_meta(exc), []))
        with pytest.raises(wire.FrameError):
            wire.check_reply(wire.V2Frame("pong", {}, []))


class _ByteRing:
    """A stand-in shm ring over a bytearray (``place`` packs blocks back to back)."""

    def __init__(self, nbytes: int):
        self.buf = bytearray(nbytes)

    def place(self, blocks):
        offsets, at = [], 0
        for block in blocks:
            self.buf[at : at + block.nbytes] = block
            offsets.append(at)
            at += block.nbytes
        return offsets


def _body(info, payload=b"", version=wire.V2_VERSION, n_arrays=None, magic=0xB2):
    meta_b = info if isinstance(info, bytes) else json.dumps(info).encode("utf-8")
    count = len(info["arrays"]) if n_arrays is None else n_arrays
    return struct.pack(">BBII", magic, version, len(meta_b), count) + meta_b + payload


def _one_array(spec, payload=b""):
    return _body({"kind": "x", "meta": {}, "arrays": [spec]}, payload)


def _tagged(value):
    return _body({"kind": "x", "meta": {"v": value}, "arrays": []})


_F8 = np.arange(2.0).tobytes()
_MALFORMED = {
    "empty": b"",
    "short-header": b"\xb2\x03\x00\x00",
    "bad-magic": _body({"kind": "x", "meta": {}, "arrays": []}, magic=0x80),
    "old-version": _body({"kind": "x", "meta": {}, "arrays": []}, version=2),
    "meta-overruns-body": _body({"kind": "x", "meta": {}, "arrays": []})[:-3],
    "bad-utf8": _body(b"\xff\xfe{}", n_arrays=0),
    "bad-json": _body(b"{not json", n_arrays=0),
    "deep-json": _body(b"[" * 200_000, n_arrays=0),
    "top-level-list": _body(b"[1, 2]", n_arrays=0),
    "non-dict-meta": _body({"kind": "x", "meta": [1], "arrays": []}),
    "non-str-kind": _body({"kind": 7, "meta": {}, "arrays": []}),
    "tagged-meta": _body({"kind": "x", "meta": {"__wire__": "CellState"}, "arrays": []}),
    "count-mismatch": _body({"kind": "x", "meta": {}, "arrays": []}, n_arrays=1),
    "non-dict-spec": _one_array([1]),
    "object-dtype": _one_array({"dtype": "|O", "shape": [1]}, b"\x00" * 8),
    "complex-dtype": _one_array({"dtype": "<c16", "shape": [1]}, b"\x00" * 16),
    "bytes-dtype": _one_array({"dtype": "|S8", "shape": [1]}, b"\x00" * 8),
    "record-dtype": _one_array({"dtype": "f8,i4", "shape": [1]}, b"\x00" * 12),
    "unknown-dtype": _one_array({"dtype": "<f3", "shape": [1]}, b"\x00" * 3),
    "non-str-dtype": _one_array({"dtype": 8, "shape": [1]}, _F8[:8]),
    "negative-dim": _one_array({"dtype": "<f8", "shape": [-1]}, _F8),
    "float-dim": _one_array({"dtype": "<f8", "shape": [1.5]}, _F8),
    "bool-dim": _one_array({"dtype": "<f8", "shape": [True]}, _F8[:8]),
    "non-list-shape": _one_array({"dtype": "<f8", "shape": 2}, _F8),
    "huge-dim": _one_array({"dtype": "<f8", "shape": [2**62]}, _F8),
    "unrepresentable-dims": _one_array({"dtype": "<f8", "shape": [0, 2**70]}),
    "too-many-dims": _one_array({"dtype": "<f8", "shape": [1] * 100}, _F8[:8]),
    "short-payload": _one_array({"dtype": "<f8", "shape": [2]}, _F8[:12]),
    "trailing-bytes": _one_array({"dtype": "<f8", "shape": [2]}, _F8 + b"\x00"),
    "unknown-tag": _tagged({"__wire__": "Popen"}),
    "bad-ndarray-tag": _tagged({"__wire__": "ndarray", "dtype": "|O", "shape": [1], "data": ""}),
    "short-ndarray-tag": _tagged({"__wire__": "ndarray", "dtype": "<f8", "shape": [2], "data": "AA=="}),
    "bad-cellstate-tag": _tagged({"__wire__": "CellState", "volts": 3}),
}
_SHM_MALFORMED = {
    "shm-ref-past-ring": _one_array({"dtype": "<f8", "shape": [2], "shm": [4090, 16]}),
    "shm-ref-wrong-size": _one_array({"dtype": "<f8", "shape": [2], "shm": [0, 8]}),
    "shm-ref-negative": _one_array({"dtype": "<f8", "shape": [2], "shm": [-8, 16]}),
    "shm-ref-not-a-pair": _one_array({"dtype": "<f8", "shape": [2], "shm": [0]}),
}


def _valid_bodies() -> list[bytes]:
    ids = wire.encode_str_list(["a", "cell-1"])
    cols = [np.arange(2.0), np.ones(2), np.zeros(2)]
    estimate = wire.encode_v2("estimate", {"n": 2, "now_s": None}, [ids, *cols])
    state = CellState("c1", None, "default", soc=0.5)
    control = wire.encode_v2("adopt_state", wire.call_meta((state,), {"w": np.arange(3.0)}), [])
    return [b"".join(chunks)[4:] for chunks in (estimate, control)]


_VALID = _valid_bodies()
_RING = _ByteRing(4096)
_VALID_SHM = b"".join(wire.encode_v2_shm("estimate", {"n": 3}, [np.arange(3.0), np.empty(0)], _RING))[4:]


def _decodes_or_frame_error(body: bytes, shm=None) -> None:
    try:
        frame = wire.decode_body(body, shm=shm)
    except wire.FrameError:
        return
    assert isinstance(frame, wire.V2Frame)


class TestDecoderHardening:
    """Every malformed body raises FrameError — never anything else."""

    @pytest.mark.parametrize("name", sorted(_MALFORMED))
    def test_malformed_body_is_a_frame_error(self, name):
        with pytest.raises(wire.FrameError) as info:
            wire.decode_body(_MALFORMED[name], shm=_RING)
        assert isinstance(info.value, wire.TransportError)

    @pytest.mark.parametrize("name", sorted(_SHM_MALFORMED))
    def test_malformed_shm_ref_is_a_frame_error(self, name):
        with pytest.raises(wire.FrameError):
            wire.decode_body(_SHM_MALFORMED[name], shm=_RING)

    def test_worker_endpoint_drops_a_malformed_body(self):
        import socket

        from repro.serve.transport import SocketTransport
        from repro.serve.workers import WorkerEndpoint

        ours, theirs = socket.socketpair()
        body = _MALFORMED["negative-dim"]
        theirs.sendall(wire.frame_header(len(body)) + body)
        endpoint = WorkerEndpoint(SocketTransport(ours))
        assert endpoint.serve() == "closed"
        endpoint.transport.close()
        assert theirs.recv(1) == b""  # no reply was sent before the hang-up
        theirs.close()

    def test_valid_bodies_decode(self):
        for body in _VALID:
            assert isinstance(wire.decode_body(body), wire.V2Frame)
        frame = wire.decode_body(_VALID_SHM, shm=_RING)
        assert frame.arrays[0].tolist() == [0.0, 1.0, 2.0]

    @settings(max_examples=400, deadline=None)
    @given(body=st.binary(max_size=512))
    def test_arbitrary_bytes(self, body):
        _decodes_or_frame_error(body)
        _decodes_or_frame_error(bytes([0xB2, wire.V2_VERSION]) + body, shm=_RING)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_mutated_valid_frames(self, data):
        body = data.draw(st.sampled_from([*_VALID, _VALID_SHM]))
        mutated = bytearray(body)
        positions = st.integers(0, len(body) - 1)
        for pos, byte in data.draw(st.lists(st.tuples(positions, st.integers(0, 255)), max_size=6)):
            mutated[pos] = byte
        cut = data.draw(st.integers(0, len(body)))
        mutated = bytes(mutated[:cut]) + data.draw(st.binary(max_size=16))
        _decodes_or_frame_error(mutated, shm=_RING)


class TestDtypeFidelity:
    """Frames keep any numeric dtype; inference operands ship as float64."""

    def test_wire_col_upcasts_everything_else_to_float64(self):
        from repro.serve.workers import _wire_col

        assert _wire_col([1, 2, 3]).dtype == np.float64
        assert _wire_col(np.arange(3, dtype=np.int32)).dtype == np.float64
        assert _wire_col(3.7).dtype == np.float64
        assert _wire_col(np.float32(3.7)).dtype == np.float64
        assert _wire_col(np.linspace(0.0, 1.0, 17, dtype=np.float32)).dtype == np.float64

    def test_float32_frame_roundtrip_is_bit_for_bit(self):
        col = np.random.default_rng(3).standard_normal(129).astype(np.float32)
        frame = roundtrip_v2("estimate", {"n": 129}, [col])
        assert frame.arrays[0].dtype == np.float32
        assert frame.arrays[0].tobytes() == col.tobytes()


class TestShmRefs:
    """The shm-ref variant of the v2 codec (payloads ride a slab ring)."""

    @pytest.fixture()
    def ring(self, tmp_path):
        from repro.serve.transport import ShmRing

        ring = ShmRing(str(tmp_path / "ring"), slots=4, slab_bytes=4096, create=True)
        yield ring
        ring.close(unlink=True)

    def test_roundtrip_preserves_dtype_and_bytes(self, ring):
        rng = np.random.default_rng(7)
        arrays = [
            rng.standard_normal(257),
            rng.standard_normal(33).astype(np.float32),
            np.arange(7, dtype=np.int64),
            np.empty(0),
        ]
        chunks = wire.encode_v2_shm("estimate", {"n": 257}, arrays, ring)
        assert chunks is not None
        frame = wire.decode_body(b"".join(chunks)[4:], shm=ring)
        assert isinstance(frame, wire.V2Frame) and frame.kind == "estimate"
        for got, sent in zip(frame.arrays, arrays):
            assert got.dtype == sent.dtype and got.shape == sent.shape
            assert got.tobytes() == sent.tobytes()
            assert not got.flags.writeable

    def test_decode_without_ring_raises(self, ring):
        chunks = wire.encode_v2_shm("x", {}, [np.arange(4.0)], ring)
        with pytest.raises(ValueError, match="no ring"):
            wire.decode_body(b"".join(chunks)[4:])

    def test_oversized_payload_reports_none_for_inline_fallback(self, ring):
        big = np.zeros(4 * 4096)  # larger than the whole ring
        assert wire.encode_v2_shm("x", {}, [big], ring) is None


class TestRolloutCodec:
    def test_request_roundtrip_preserves_cycle_sharing(self, small_fleet):
        cycle = small_fleet.members[0].cycle
        pairs = [("a", cycle), ("b", cycle), ("c", small_fleet.members[1].cycle)]
        meta, arrays = wire.encode_rollout_request(pairs, 60.0)
        assert len(meta["cycles"]) == 2  # deduplicated by identity
        frame = roundtrip_v2("rollout_fleet", meta, arrays)
        decoded, step_s = wire.decode_rollout_request(frame.meta, frame.arrays)
        assert step_s == 60.0
        assert [cid for cid, _ in decoded] == ["a", "b", "c"]
        assert decoded[0][1] is decoded[1][1]  # sharing rebuilt
        got = decoded[0][1]
        assert got.name == cycle.name and got.tags == cycle.tags
        np.testing.assert_array_equal(got.data.voltage, cycle.data.voltage)
        np.testing.assert_array_equal(got.data.soc, cycle.data.soc)

    def test_results_roundtrip_bit_for_bit(self, model, small_fleet):
        engine = FleetEngine(default_model=model)
        results = engine.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        meta, arrays = wire.encode_rollout_results(results)
        frame = roundtrip_v2("ok", meta, arrays)
        decoded = wire.decode_rollout_results(frame.meta, frame.arrays)
        assert list(decoded) == list(results)
        for cell_id, ref in results.items():
            got = decoded[cell_id]
            np.testing.assert_array_equal(got.soc_pred, ref.soc_pred)
            np.testing.assert_array_equal(got.time_s, ref.time_s)
            np.testing.assert_array_equal(got.soc_true, ref.soc_true)
            assert got.initial_soc == ref.initial_soc
            assert got.step_s == ref.step_s and got.tail_s == ref.tail_s

    def test_request_with_8192_unique_cycles_is_one_frame(self, small_fleet):
        """8 channels per cycle: 8,192 unique cycles need 65,538 arrays."""
        base = small_fleet.members[0].cycle
        tiny = [
            dataclasses.replace(
                base,
                name=f"c{k}",
                data=SimulationResult(**{ch: np.full(2, float(k)) for ch in wire._CHANNELS}),
            )
            for k in range(8192)
        ]
        meta, arrays = wire.encode_rollout_request([(f"cell{k}", c) for k, c in enumerate(tiny)], 60.0)
        frame = roundtrip_v2("rollout_fleet", meta, arrays)
        decoded, _ = wire.decode_rollout_request(frame.meta, frame.arrays)
        assert len(decoded) == 8192
        assert decoded[-1][0] == "cell8191" and decoded[-1][1].name == "c8191"
        assert decoded[-1][1].data.soc.tolist() == [8191.0, 8191.0]

    def test_empty_results_roundtrip(self):
        meta, arrays = wire.encode_rollout_results({})
        frame = roundtrip_v2("ok", meta, arrays)
        assert wire.decode_rollout_results(frame.meta, frame.arrays) == {}


class TestWorkerInterop:
    def test_v2_worker_estimate_is_bit_for_bit(self, model):
        local = FleetEngine(default_model=model)
        rng = np.random.default_rng(1)
        ids = [f"c{k}" for k in range(64)]
        v = rng.uniform(2.8, 4.2, 64)
        i = rng.uniform(-5, 5, 64)
        t = rng.uniform(0, 45, 64)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="v2")) as worker:
            for cid in ids:
                local.register_cell(cid)
                worker.register_cell(cid)
            np.testing.assert_array_equal(worker.estimate(ids, v, i, t), local.estimate(ids, v, i, t))
            np.testing.assert_array_equal(
                worker.predict(ids, i, t, 60.0, commit=True),
                local.predict(ids, i, t, 60.0, commit=True),
            )
            assert worker.cell("c0").soc == local.cell("c0").soc

    def test_v2_worker_rollout_is_bit_for_bit(self, model, small_fleet):
        local = FleetEngine(default_model=model)
        ref = local.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="v2roll")) as worker:
            got = worker.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        for cell_id in ref:
            np.testing.assert_array_equal(got[cell_id].soc_pred, ref[cell_id].soc_pred)
            np.testing.assert_array_equal(got[cell_id].time_s, ref[cell_id].time_s)

    def test_array_tags_cross_the_wire(self, model, small_fleet):
        """Numeric ndarray tags are in the codec's closed set: a cycle
        carrying one rolls out on a worker like in-process."""
        cycle = small_fleet.members[0].cycle
        tagged = dataclasses.replace(cycle, tags={**cycle.tags, "blob": np.arange(3)})
        ref = model_rollout(model, tagged, 120.0)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="tags")) as worker:
            got = worker.rollout_fleet([("a", tagged)], step_s=120.0)
        np.testing.assert_allclose(got["a"].soc_pred, ref.soc_pred, atol=1e-9, rtol=0)

    def test_nul_cell_ids_are_refused_by_every_topology(self, model):
        bad = "pack\x00cell"
        with pytest.raises(ValueError, match="NUL"):
            FleetEngine(default_model=model).register_cell(bad)
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="nul")) as worker:
            with pytest.raises(ValueError, match="NUL"):
                worker.register_cell(bad)
            assert len(worker) == 0  # a typed error: the link is still up

    def test_unknown_op_gets_a_typed_err_and_the_link_stays_up(self, model):
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="unknown")) as worker:
            reply = worker._transport.request("exec", wire.call_meta(("rm -rf /",)))
            assert reply.kind == "err" and reply.meta["type"] == "RuntimeError"
            assert "unknown op 'exec'" in reply.meta["message"]
            worker.register_cell("a")
            assert "a" in worker and worker.alive

    def test_init_with_unknown_spec_keys_gets_a_typed_err(self, model):
        """A spec carrying settings this worker does not have (here the
        float32 tier, the Tensor path and registry drift specs) is
        refused, not served without them."""
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="oldspec")) as worker:
            spec = {
                **worker.spec.init_payload(0),
                "dtype": "float32",
                "use_kernel": False,
                "drift_from_registry": True,
            }
            reply = worker._transport.request("init", wire.call_meta((spec,)))
            assert reply.kind == "err" and reply.meta["type"] == "ValueError"
            assert "unexpected keys: drift_from_registry, dtype, use_kernel" in reply.meta["message"]
            assert worker._transport.request("ping", wire.call_meta()).meta["value"] == "pong"

    def test_scalar_broadcast_ships_one_element_and_results_are_writable(self, model, small_fleet):
        """Fleet-wide scalars cross the pipe once, and every returned
        array is writable — the same contract as an in-process engine."""
        local = FleetEngine(default_model=model)
        ids = [f"c{k}" for k in range(32)]
        with ShardWorker(WorkerSpec(url="pipe://", model=model, name="scalar")) as worker:
            for cid in ids:
                local.register_cell(cid)
                worker.register_cell(cid)
            out = worker.estimate(ids, 3.7, 1.0, 25.0)
            np.testing.assert_array_equal(out, local.estimate(ids, 3.7, 1.0, 25.0))
            out *= 2.0  # writable
            rolled = worker.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        first = next(iter(rolled.values()))
        first.soc_pred[-1] = 0.0  # writable

    def test_v2_frames_beat_pickle_on_size(self):
        """The frame encoding of a bulk estimate is leaner than its pickle."""
        n = 512
        rng = np.random.default_rng(2)
        cols = [rng.uniform(2.8, 4.2, n), rng.uniform(-5, 5, n), rng.uniform(0, 45, n)]
        ids = [f"cell-{k}" for k in range(n)]
        chunks = wire.encode_v2("estimate", {"n": n, "now_s": None}, [wire.encode_str_list(ids), *cols])
        v2_bytes = sum(len(c) for c in chunks)
        v1_bytes = len(
            pickle.dumps(("estimate", (ids, *cols), {"now_s": None}), protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert v2_bytes < v1_bytes

    def test_str_list_roundtrip(self):
        ids = ["a", "cell-1", "日本語", ""]
        blob = wire.encode_str_list(ids)
        assert blob.dtype == np.uint8
        assert wire.decode_str_list(blob, len(ids)) == ids
        assert wire.decode_str_list(wire.encode_str_list([]), 0) == []
        with pytest.raises(TypeError, match="NUL"):
            wire.encode_str_list(["bad\x00id"])
