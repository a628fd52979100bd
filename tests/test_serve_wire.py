"""Tests for the v2 zero-copy wire codec (:mod:`repro.serve.wire`)."""

import io
import pickle

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet, model_rollout
from repro.serve import FleetEngine, ShardWorker, generate_fleet
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

    def test_pickle_and_v2_frames_share_one_stream(self):
        buf = io.BytesIO()
        wire.write_pickle(buf, ("op", ("arg",), {}))
        wire.write_v2(buf, "estimate", {"k": 1}, [np.arange(3.0)])
        wire.write_pickle(buf, ("ok", 42))
        buf.seek(0)
        assert wire.read_frame(buf) == ("op", ("arg",), {})
        frame = wire.read_frame(buf)
        assert isinstance(frame, wire.V2Frame) and frame.meta == {"k": 1}
        assert wire.read_frame(buf) == ("ok", 42)
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
        assert buf.getvalue() == b""  # stream still clean for a pickle fallback

    def test_object_arrays_are_rejected(self):
        with pytest.raises(TypeError):
            wire.encode_v2("x", {}, [np.array([object()])])

    def test_too_many_arrays_raise_typeerror_for_pickle_fallback(self):
        """Past the 2-byte n_arrays limit the encoder must raise TypeError
        (not struct.error) so worker calls degrade to pickle frames."""
        one = np.zeros(1)
        with pytest.raises(TypeError, match="65535"):
            wire.encode_v2("rollout_fleet", {}, [one] * 65536)

    def test_newer_version_is_refused(self):
        chunks = wire.encode_v2("x", {}, [])
        body = b"".join(chunks)[4:]
        bumped = bytes([body[0], 99]) + body[2:]
        buf = io.BytesIO(len(bumped).to_bytes(4, "big") + bumped)
        with pytest.raises(ValueError, match="v99"):
            wire.read_frame(buf)


class TestDtypeFidelity:
    """float32 payloads must cross the wire without a float64 upcast."""

    def test_wire_col_preserves_float32(self):
        from repro.serve.workers import _wire_col

        col = np.linspace(0.0, 1.0, 17, dtype=np.float32)
        out = _wire_col(col)
        assert out.dtype == np.float32
        assert out.tobytes() == col.tobytes()

    def test_wire_col_upcasts_everything_else_to_float64(self):
        from repro.serve.workers import _wire_col

        assert _wire_col([1, 2, 3]).dtype == np.float64
        assert _wire_col(np.arange(3, dtype=np.int32)).dtype == np.float64
        assert _wire_col(3.7).dtype == np.float64
        assert _wire_col(np.float32(3.7)).dtype == np.float32

    def test_float32_frame_roundtrip_is_bit_for_bit(self):
        col = np.random.default_rng(3).standard_normal(129).astype(np.float32)
        frame = roundtrip_v2("estimate", {"n": 129}, [col])
        assert frame.arrays[0].dtype == np.float32
        assert frame.arrays[0].tobytes() == col.tobytes()

    def test_float32_worker_replies_stay_float32(self, model):
        local = FleetEngine(default_model=model, dtype=np.float32)
        rng = np.random.default_rng(5)
        ids = [f"c{k}" for k in range(48)]
        v = rng.uniform(2.8, 4.2, 48).astype(np.float32)
        i = rng.uniform(-5, 5, 48).astype(np.float32)
        t = rng.uniform(0, 45, 48).astype(np.float32)
        with ShardWorker("pipe://", default_model=model, dtype="float32", name="f32") as worker:
            for cid in ids:
                local.register_cell(cid)
                worker.register_cell(cid)
            out = worker.estimate(ids, v, i, t)
            assert out.dtype == np.float32
            np.testing.assert_array_equal(out, local.estimate(ids, v, i, t))
            pred = worker.predict(ids, i, t, 60.0)
            assert pred.dtype == np.float32
            np.testing.assert_array_equal(pred, local.predict(ids, i, t, 60.0))


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
        with ShardWorker("pipe://", default_model=model, name="v2") as worker:
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
        with ShardWorker("pipe://", default_model=model, name="v2roll") as worker:
            got = worker.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        for cell_id in ref:
            np.testing.assert_array_equal(got[cell_id].soc_pred, ref[cell_id].soc_pred)
            np.testing.assert_array_equal(got[cell_id].time_s, ref[cell_id].time_s)

    def test_non_json_tags_fall_back_to_pickle(self, model, small_fleet):
        """A cycle whose tags v2 cannot express still rolls out (pickled)."""
        import dataclasses as dc

        cycle = small_fleet.members[0].cycle
        poisoned = dc.replace(cycle, tags={**cycle.tags, "blob": np.arange(3)})
        meta, arrays = wire.encode_rollout_request([("a", poisoned)], 120.0)
        with pytest.raises(TypeError):
            wire.encode_v2("rollout_fleet", meta, arrays)
        ref = model_rollout(model, poisoned, 120.0)
        with ShardWorker("pipe://", default_model=model, name="fallback") as worker:
            got = worker.rollout_fleet([("a", poisoned)], step_s=120.0)
        np.testing.assert_allclose(got["a"].soc_pred, ref.soc_pred, atol=1e-9, rtol=0)

    def test_scalar_broadcast_ships_one_element_and_results_are_writable(self, model, small_fleet):
        """Fleet-wide scalars cross the pipe once, and every returned
        array is writable — the same contract as an in-process engine."""
        local = FleetEngine(default_model=model)
        ids = [f"c{k}" for k in range(32)]
        with ShardWorker("pipe://", default_model=model, name="scalar") as worker:
            for cid in ids:
                local.register_cell(cid)
                worker.register_cell(cid)
            out = worker.estimate(ids, 3.7, 1.0, 25.0)
            np.testing.assert_array_equal(out, local.estimate(ids, 3.7, 1.0, 25.0))
            out *= 2.0  # writable
            rolled = worker.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        first = next(iter(rolled.values()))
        first.soc_pred[-1] = 0.0  # writable

    def test_tensor_path_worker(self, model, small_fleet):
        """use_kernel=False ships to the child and serves equivalently."""
        ref = FleetEngine(default_model=model, use_kernel=False).rollout_fleet(
            small_fleet.assignments(), step_s=120.0
        )
        with ShardWorker("pipe://", default_model=model, use_kernel=False, name="tensor") as worker:
            got = worker.rollout_fleet(small_fleet.assignments(), step_s=120.0)
        for cell_id in ref:
            np.testing.assert_array_equal(got[cell_id].soc_pred, ref[cell_id].soc_pred)

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
