"""Tests for durable serving state (:mod:`repro.serve.persistence`)."""

import dataclasses
import zlib

import numpy as np
import pytest

from repro.core import CompiledTwoBranchKernel, TwoBranchSoCNet
from repro.learn import harvest_training_set
from repro.serve import (
    FleetEngine,
    ModelRegistry,
    ShardedFleet,
    StateJournal,
    WorkerSpec,
    generate_fleet,
    wire,
)
from repro.serve import persistence
from repro.serve.persistence import Cells, Compact, read_journal


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def fleet():
    return generate_fleet(
        10, seed=3, ambient_temps_c=(10.0, 25.0), c_rates=(1.0,), max_time_s=1800.0
    )


@pytest.fixture(scope="module")
def bench_fleet():
    """The benchmark fleet's shape: 1800 s discharges of four cell specs,
    27 or 28 windows at a 60 s step, some cells sharing one trace."""
    return generate_fleet(
        16,
        seed=0,
        cell_names=("sandia-nca", "sandia-nmc", "sandia-lfp", "lg-hg2"),
        protocols=("discharge",),
        max_time_s=1800.0,
    )


class Crash(RuntimeError):
    """Injected mid-rollout failure."""


def _truncated(cycle, n_samples: int):
    """``cycle`` cut to its first ``n_samples`` recorded samples."""
    d = cycle.data
    channels = {
        f.name: getattr(d, f.name)[:n_samples]
        for f in dataclasses.fields(d)
        if isinstance(getattr(d, f.name), np.ndarray)
    }
    return dataclasses.replace(cycle, data=dataclasses.replace(d, **channels))


def _frame_ends(data: bytes) -> list[int]:
    """Byte offset where each journal frame ends (length prefix + body + CRC)."""
    ends, offset = [], 0
    while offset < len(data):
        offset += 4 + int.from_bytes(data[offset : offset + 4], "big") + 4
        ends.append(offset)
    assert offset == len(data)
    return ends


def _raw_frame(kind: str, meta: dict) -> bytes:
    """One well-formed journal frame, CRC included, of any kind."""
    body = b"".join(wire.encode_v2(kind, meta, []))
    return body + zlib.crc32(body).to_bytes(4, "big")


# ----------------------------------------------------------------------
def _count_kernel_predicts(monkeypatch) -> dict:
    """Count Branch 2 kernel forwards from now on; ``calls["n"]`` is the tally."""
    calls = {"n": 0}
    original = CompiledTwoBranchKernel.predict_soc

    def counting_predict(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CompiledTwoBranchKernel, "predict_soc", counting_predict)
    return calls


class TestStateJournal:
    def test_roundtrip_across_reopen(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        with StateJournal(path) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            engine.register_cell("a", chemistry="nmc")
            engine.register_cell("b")
            engine.estimate(["a", "b"], [3.7, 3.8], 1.0, 25.0, now_s=42.0)
        snap = StateJournal(path).snapshot()
        assert set(snap.cells) == {"a", "b"}
        assert snap.cells["a"].chemistry == "nmc"
        assert snap.cells["a"].n_requests == 1
        assert snap.cells["a"].last_seen_s == 42.0
        assert snap.cells["a"].soc is not None

    def test_restore_rebuilds_engine_state(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)
        engine.register_cell("a")
        engine.estimate(["a"], 3.7, 1.0, 25.0)
        want = engine.cell("a").soc
        journal.close()
        restored = FleetEngine.restore(StateJournal(path), default_model=model)
        assert len(restored) == 1
        assert restored.cell("a").soc == want  # exact: raw float64 round-trips
        assert restored.cell("a").n_requests == 1

    def test_drop_cell_survives_replay(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)
        engine.register_cell("a")
        engine.register_cell("b")
        engine.deregister_cell("a")
        journal.close()
        snap = StateJournal(path).snapshot()
        assert set(snap.cells) == {"b"}

    def test_torn_tail_truncated_before_new_appends(self, model, tmp_path):
        """Reopening a torn journal must drop the fragment, not glue new
        frames onto it (which would silently lose them on the next
        replay — or corrupt the whole file)."""
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)
        engine.register_cell("a")
        whole = path.stat().st_size
        engine.register_cell("b")
        journal.close()
        data = path.read_bytes()
        path.write_bytes(data[: whole + (len(data) - whole) // 2])  # crash mid-write
        reopened = StateJournal(path)
        assert path.stat().st_size == whole  # the fragment is gone
        restored = FleetEngine.restore(reopened, default_model=model)
        restored.register_cell("c")
        restored.register_cell("d")
        reopened.close()
        snap = StateJournal(path).snapshot()  # replays clean every time
        assert set(snap.cells) == {"a", "c", "d"}

    def test_unknown_op_raises(self, tmp_path):
        path = tmp_path / "fleet.journal"
        path.write_bytes(_raw_frame("journal", {"version": 3}) + _raw_frame("???", {}))
        with pytest.raises(ValueError, match="unknown op"):
            StateJournal(path)

    def test_compaction_shrinks_and_preserves_state(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)
        engine.register_cell("a")
        for _ in range(200):  # 200 appended cell records for one live cell
            engine.estimate(["a"], 3.7, 1.0, 25.0)
        want = engine.cell("a").soc
        before = journal.size_bytes()
        journal.compact()
        after = journal.size_bytes()
        assert after < before / 10
        journal.close()
        snap = StateJournal(path).snapshot()
        assert snap.cells["a"].soc == want
        assert snap.cells["a"].n_requests == 200

    def test_auto_compaction_bounds_file_size(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path, compact_every=50)
        engine = FleetEngine(default_model=model, journal=journal)
        engine.register_cell("a")
        before = journal.size_bytes()
        engine.estimate(["a"], 3.7, 1.0, 25.0)
        frame_bytes = journal.size_bytes() - before
        for _ in range(500):
            engine.estimate(["a"], 3.7, 1.0, 25.0)
        # one live cell: the file can never grow past ~compact_every frames
        assert journal.size_bytes() < 52 * frame_bytes
        assert len(journal) == 1
        journal.close()

    def test_batched_appends_write_once_per_batch(self, model, tmp_path, monkeypatch):
        """A fleet estimate journals every cell in one write syscall."""
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)
        ids = [f"c{k}" for k in range(16)]
        for cid in ids:
            engine.register_cell(cid)
        writes = []
        original = journal._fh.write
        monkeypatch.setattr(journal._fh, "write", lambda s: writes.append(s) or original(s))
        engine.estimate(ids, 3.7, 1.0, 25.0)
        assert len(writes) == 1  # one write for all 16 cell records
        journal.close()
        snap = StateJournal(path).snapshot()
        assert all(snap.cells[cid].n_requests == 1 for cid in ids)

    def test_append_cells_matches_per_cell_appends(self, model, tmp_path):
        a = StateJournal(tmp_path / "a.journal")
        b = StateJournal(tmp_path / "b.journal")
        engine = FleetEngine(default_model=model)
        states = [engine.register_cell(f"c{k}", chemistry="nmc") for k in range(5)]
        engine.estimate([s.cell_id for s in states[:2]], 3.7, 1.0, 25.0, now_s=7.0)
        for state in states:
            a.append_cells([state])
        b.append_cells(states)
        a.close()
        b.close()
        one_by_one, batched = (StateJournal(tmp_path / name).snapshot() for name in ("a.journal", "b.journal"))
        assert one_by_one == batched
        # the batch is one frame after the header, the single appends five
        assert len(_frame_ends((tmp_path / "b.journal").read_bytes())) == 2
        assert len(_frame_ends((tmp_path / "a.journal").read_bytes())) == 6

    def test_fsync_flag_syncs_each_flush(self, model, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr("repro.serve.persistence.os.fsync", lambda fd: synced.append(fd))
        journal = StateJournal(tmp_path / "fleet.journal", fsync=True)
        engine = FleetEngine(default_model=model, journal=journal)
        ids = [f"c{k}" for k in range(8)]
        for cid in ids:
            engine.register_cell(cid)
        before = len(synced)
        assert before == len(ids) + 1  # one per registration + header
        engine.estimate(ids, 3.7, 1.0, 25.0)
        assert len(synced) == before + 1  # the whole batch: one sync
        journal.close()
        # default stays unsynced
        quiet = StateJournal(tmp_path / "other.journal")
        quiet.append_cells([engine.cell("c0")])
        quiet.close()
        assert len(synced) == before + 1

    def test_rejects_bad_config(self, tmp_path):
        with pytest.raises(ValueError):
            StateJournal(tmp_path / "j", compact_every=-1)
        with pytest.raises(ValueError):
            StateJournal(tmp_path / "j", max_segment_bytes=-1)


# ----------------------------------------------------------------------
class TestSegmentRotation:
    """Size-based rotation: sealed numbered segments, in-order replay,
    compaction collapsing them — the >1M-cell fleet prerequisite."""

    def test_appends_roll_into_numbered_segments(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path, max_segment_bytes=512, compact_every=0)
        engine = FleetEngine(default_model=model, journal=journal)
        for k in range(40):
            engine.register_cell(f"c{k:03d}")
        names = [segment.name for segment in journal.segments()]
        assert len(names) >= 3
        assert names[0] == "fleet.journal.00001.seg"
        assert names == sorted(names)
        # the active file stays bounded; total size covers all segments
        journal._fh.flush()
        assert path.stat().st_size <= 512 + 200
        assert journal.size_bytes() > path.stat().st_size
        journal.close()

    def test_restore_replays_segments_in_order(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        with StateJournal(path, max_segment_bytes=400, compact_every=0) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            ids = [f"c{k:03d}" for k in range(30)]
            for cid in ids:
                engine.register_cell(cid)
            # several passes: each cell's latest record lives in a later
            # segment than its first, so ordering mistakes would surface
            for _ in range(3):
                engine.estimate(ids, 3.7, 1.0, 25.0)
            want = {cid: engine.cell(cid).soc for cid in ids}
            n_requests = {cid: engine.cell(cid).n_requests for cid in ids}
        reopened = StateJournal(path, max_segment_bytes=400)
        snap = reopened.snapshot()
        assert {cid: snap.cells[cid].soc for cid in ids} == want
        assert {cid: snap.cells[cid].n_requests for cid in ids} == n_requests
        restored = FleetEngine.restore(reopened, default_model=model)
        assert {s.cell_id: s.soc for s in restored.cells()} == want
        reopened.close()

    def test_drop_in_a_later_segment_wins(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        with StateJournal(path, max_segment_bytes=300, compact_every=0) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            for k in range(20):
                engine.register_cell(f"c{k:03d}")
            engine.deregister_cell("c000")
        snap = StateJournal(path, max_segment_bytes=300).snapshot()
        assert "c000" not in snap.cells
        assert len(snap.cells) == 19

    def test_compaction_collapses_sealed_segments(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path, max_segment_bytes=400, compact_every=0)
        engine = FleetEngine(default_model=model, journal=journal)
        ids = [f"c{k:03d}" for k in range(25)]
        for cid in ids:
            engine.register_cell(cid)
        for _ in range(4):
            engine.estimate(ids, 3.7, 1.0, 25.0)
        assert journal.segments()
        before = journal.size_bytes()
        journal.compact()
        assert journal.segments() == []
        assert journal.size_bytes() < before
        journal.close()
        snap = StateJournal(path).snapshot()
        assert len(snap.cells) == 25
        assert all(snap.cells[cid].n_requests == 4 for cid in ids)

    def test_stale_segments_after_compaction_are_harmless(self, model, tmp_path):
        """A crash between the compaction's replace and its segment
        unlink leaves old segments behind; the compact marker makes the
        replay discard them."""
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path, max_segment_bytes=300, compact_every=0)
        engine = FleetEngine(default_model=model, journal=journal)
        for k in range(20):
            engine.register_cell(f"c{k:03d}")
        engine.deregister_cell("c001")
        stale = journal.segments()[0].read_bytes()  # holds c001's registration
        journal.compact()
        journal.close()
        # resurrect a pre-compaction segment, as a crash mid-compact would
        (tmp_path / "fleet.journal.00001.seg").write_bytes(stale)
        snap = StateJournal(path).snapshot()
        assert "c001" not in snap.cells
        assert len(snap.cells) == 19

    def test_compaction_mid_rollout_keeps_every_window(self, model, fleet, tmp_path):
        """Auto-compaction inside a rollout rewrites the roster at the same
        positions, so the windows appended after it land on the right cells."""
        path = tmp_path / "fleet.journal"
        with StateJournal(path, compact_every=25) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            want = engine.rollout_fleet(fleet.assignments(), step_s=300.0)
        snap = StateJournal(path).snapshot()
        assert {cid: list(ws.values()) for cid, ws in snap.windows.items()} == {
            cid: list(result.soc_pred) for cid, result in want.items()
        }

    def test_dropped_cell_leaves_the_rollout_progress(self, model, fleet, tmp_path):
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)
        engine.rollout_fleet(fleet.assignments()[:3], step_s=300.0)
        gone = fleet.assignments()[0][0]
        engine.deregister_cell(gone)
        assert gone not in journal.snapshot().windows
        journal.close()
        assert set(StateJournal(path).snapshot().windows) == {cid for cid, _ in fleet.assignments()[1:3]}

    def test_rollout_windows_survive_rotation(self, model, fleet, tmp_path):
        path = tmp_path / "fleet.journal"
        with StateJournal(path, max_segment_bytes=1024, compact_every=0) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            want = engine.rollout_fleet(fleet.assignments(), step_s=300.0)
        reopened = StateJournal(path, max_segment_bytes=1024)
        assert reopened.segments()  # the rollout really rotated
        snap = reopened.snapshot()
        assert snap.step_s == 300.0
        for cell_id, _ in fleet.assignments():
            trajectory = want[cell_id].soc_pred
            journaled = snap.windows[cell_id]
            assert journaled[len(journaled) - 1] == trajectory[len(journaled) - 1]
        reopened.close()

    def test_torn_tail_only_tolerated_on_the_active_file(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        with StateJournal(path, max_segment_bytes=300, compact_every=0) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            for k in range(20):
                engine.register_cell(f"c{k:03d}")
        torn = _raw_frame("drop", {"id": "c000"})[:-3]
        # torn tail on the active file: tolerated
        with open(path, "ab") as fh:
            fh.write(torn)
        assert len(StateJournal(path).snapshot().cells) == 20
        # the same tear inside a sealed segment: corruption
        segment = StateJournal(path).segments()[0]
        with open(segment, "ab") as fh:
            fh.write(torn)
        with pytest.raises(ValueError, match="corrupt journal"):
            StateJournal(path)


# ----------------------------------------------------------------------
class TestFrameDamage:
    """The v3 frame format under damage: a torn tail is tolerated only
    on the active file, anything else raises; old formats are refused."""

    @pytest.fixture
    def rollout_journal(self, model, tmp_path):
        """Registrations plus a 2-window rollout; the journal's bytes."""
        pairs = generate_fleet(
            3, seed=1, ambient_temps_c=(25.0,), c_rates=(1.0,), protocols=("discharge",),
            max_time_s=1800.0,
        ).assignments()
        path = tmp_path / "fleet.journal"
        with StateJournal(path, compact_every=0) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            for cid, _ in pairs:
                engine.register_cell(cid)
            results = engine.rollout_fleet(pairs, step_s=900.0)
        assert {len(r.soc_pred) for r in results.values()} == {3}  # seed + 2 windows
        return path, path.read_bytes()

    def _truncated_state(self, path, data, cut):
        path.write_bytes(data[:cut])
        journal = StateJournal(path)
        snap = journal.snapshot()
        journal.append_cells([dataclasses.replace(next(iter(snap.cells.values())), soc=0.25)])
        journal.close()
        return snap

    def test_truncated_active_tail_restores_last_whole_frame(self, rollout_journal):
        """Cut at every byte offset inside the last two frames."""
        path, data = rollout_journal
        ends = _frame_ends(data)
        full = StateJournal(path).snapshot()
        boundaries = {}
        for end in ends[-3:]:
            boundaries[end] = self._truncated_state(path, data, end)
        assert boundaries[ends[-1]] == full
        assert boundaries[ends[-3]] != boundaries[ends[-2]] != boundaries[ends[-1]]
        for cut in range(ends[-3], ends[-1]):
            whole = max(end for end in ends if end <= cut)
            snap = self._truncated_state(path, data, cut)
            assert snap == boundaries[whole], cut
            # the torn bytes are gone and the next append replays cleanly
            assert _frame_ends(path.read_bytes())[: len([e for e in ends if e <= cut])] == [
                e for e in ends if e <= cut
            ]
            again = StateJournal(path).snapshot()
            assert again.cells == {
                **snap.cells, **{cid: dataclasses.replace(state, soc=0.25)
                                 for cid, state in list(snap.cells.items())[:1]},
            }
            assert again.windows == snap.windows

    def test_every_truncation_of_a_sealed_segment_raises(self, rollout_journal):
        path, data = rollout_journal
        ends = _frame_ends(data)
        full = StateJournal(path).snapshot()
        sealed = path.with_name(f"{path.name}.00001.seg")
        path.write_bytes(_raw_frame("journal", {"version": 3}))
        for cut in range(ends[-3] + 1, ends[-1]):
            if cut in ends:
                continue
            sealed.write_bytes(data[:cut])
            with pytest.raises(ValueError, match="corrupt journal"):
                StateJournal(path)
        sealed.write_bytes(data)  # whole again: the sealed history replays
        assert StateJournal(path).snapshot() == full

    def test_flipped_payload_byte_raises(self, rollout_journal):
        path, data = rollout_journal
        ends = _frame_ends(data)
        middle = (ends[1] + ends[2]) // 2  # inside the third frame's body
        damaged = bytearray(data)
        damaged[middle] ^= 0x40
        path.write_bytes(bytes(damaged))
        with pytest.raises(ValueError, match="corrupt journal"):
            StateJournal(path)
        with pytest.raises(ValueError, match="corrupt journal"):
            harvest_training_set(path)

    def test_jsonl_journals_are_refused_with_their_version(self, model, tmp_path):
        path = tmp_path / "fleet.journal"
        path.write_text(
            '{"op": "journal", "version": 2}\n'
            '{"op": "cell", "id": "a", "chem": null, "key": "k", "soc": 0.5, "seen": null, "n": 1}\n',
            encoding="utf-8",
        )
        with pytest.raises(ValueError, match=r"JSONL journal \(format v2\)"):
            StateJournal(path)
        with pytest.raises(ValueError, match=r"format v2"):
            harvest_training_set(path)
        # a leftover JSONL segment is read and refused, never skipped
        path.unlink()
        with StateJournal(path) as journal:
            FleetEngine(default_model=model, journal=journal).register_cell("b")
        path.with_name(f"{path.name}.00001.jsonl").write_text('{"op": "journal", "version": 1}\n')
        with pytest.raises(ValueError, match=r"format v1"):
            StateJournal(path)

    def test_large_batches_split_into_frames_under_the_budget(self, model, tmp_path, monkeypatch):
        monkeypatch.setattr(persistence, "_FRAME_BUDGET", 400)
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path, compact_every=0)
        engine = FleetEngine(default_model=model, journal=journal)
        ids = [f"cell-{k:03d}" for k in range(60)]
        for cid in ids:
            engine.register_cell(cid)
        engine.estimate(ids, 3.7, 1.0, 25.0)
        journal.compact()
        journal.close()
        data = path.read_bytes()
        ends = _frame_ends(data)
        assert len(ends) > 4  # header, compact marker, several cells frames
        assert max(b - a for a, b in zip([0, *ends], ends)) < 400 + 400
        snap = StateJournal(path).snapshot()
        assert set(snap.cells) == set(ids)
        assert all(state.n_requests == 1 for state in snap.cells.values())
        records = list(read_journal(path))
        assert isinstance(records[0], Compact)
        assert sum(isinstance(record, Cells) for record in records) > 1


# ----------------------------------------------------------------------
class TestCrashRestore:
    """The acceptance property: kill an engine mid-rollout, restore from
    the journal, and the resumed trajectory equals an uninterrupted run."""

    def test_single_engine_resume_is_exact(self, model, fleet, tmp_path):
        reference = FleetEngine(default_model=model).rollout_fleet(
            fleet.assignments(), step_s=120.0
        )
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)

        def bomb(window):
            if window >= 4:
                raise Crash

        with pytest.raises(Crash):
            engine.rollout_fleet(fleet.assignments(), step_s=120.0, step_hook=bomb)
        journal.close()

        # "new process": reopen the journal, restore, resume
        reopened = StateJournal(path)
        restored = FleetEngine.restore(reopened, default_model=model)
        resumed = restored.resume_rollout_fleet(fleet.assignments(), step_s=120.0)
        assert set(resumed) == set(reference)
        for cid, _ in fleet.assignments():
            np.testing.assert_array_equal(resumed[cid].soc_pred, reference[cid].soc_pred)
            np.testing.assert_array_equal(resumed[cid].time_s, reference[cid].time_s)
            assert restored.cell(cid).soc == float(reference[cid].soc_pred[-1])
        reopened.close()

    def test_resume_skips_journaled_windows(self, model, fleet, tmp_path, monkeypatch):
        """Resume replays the journaled prefix instead of recomputing it:
        windows before the crash point trigger no model forwards."""
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)

        def bomb(window):
            if window >= 4:
                raise Crash

        with pytest.raises(Crash):
            engine.rollout_fleet(fleet.assignments(), step_s=120.0, step_hook=bomb)
        journal.close()

        reopened = StateJournal(path)
        restored = FleetEngine.restore(reopened, default_model=model)
        windows_run = []
        calls = _count_kernel_predicts(monkeypatch)
        restored.resume_rollout_fleet(
            fleet.assignments(), step_s=120.0, step_hook=windows_run.append
        )
        max_windows = max(windows_run)
        # forwards happen only for the windows past the crash point
        assert calls["n"] == max_windows - 4
        reopened.close()

    def test_mixed_resume_finished_mid_rollout_and_fresh_cells(self, model, fleet, tmp_path, monkeypatch):
        """One model group resumes cells that had finished, cells that
        were mid-rollout and one assignment that never started: every
        trajectory matches an uninterrupted run, and forwards run only
        for the windows the journal does not hold."""
        crash_at = 20  # past the 15-window discharges, inside the 35-window cycles
        late = ("late", fleet.members[0].cycle)
        reference = FleetEngine(default_model=model).rollout_fleet(
            fleet.assignments() + [late], step_s=120.0
        )
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)

        def bomb(window):
            if window >= crash_at:
                raise Crash

        with pytest.raises(Crash):
            engine.rollout_fleet(fleet.assignments(), step_s=120.0, step_hook=bomb)
        journal.close()

        reopened = StateJournal(path)
        lengths = {cid: len(reference[cid]) - 1 for cid in reference}
        assert min(lengths.values()) < crash_at < max(lengths.values())
        restored = FleetEngine.restore(reopened, default_model=model)
        windows_run = []
        calls = _count_kernel_predicts(monkeypatch)
        resumed = restored.resume_rollout_fleet(
            fleet.assignments() + [late], step_s=120.0, step_hook=windows_run.append
        )
        assert list(resumed) == list(reference)
        for cid, got in resumed.items():
            np.testing.assert_allclose(got.soc_pred, reference[cid].soc_pred, atol=1e-9, rtol=0)
            np.testing.assert_array_equal(got.time_s, reference[cid].time_s)
            assert restored.cell(cid).soc == float(got.soc_pred[-1])
        # the fresh cell runs all its windows, the mid-rollout cells only
        # those past the crash, the finished cells none
        assert calls["n"] == lengths["late"] + max(windows_run) - crash_at
        reopened.close()

    @pytest.mark.parametrize("crash_at", [5, 27])
    def test_resume_is_exact_over_mixed_window_counts(self, model, bench_fleet, tmp_path, crash_at):
        """27- and 28-window traces in one group: a crash at window 27
        leaves the shorter traces finished and the longer ones one
        window short, and resume still stitches every cell bit for bit."""
        pairs = bench_fleet.assignments()
        reference = FleetEngine(default_model=model).rollout_fleet(pairs, step_s=60.0)
        assert {len(r) - 1 for r in reference.values()} == {27, 28}
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)

        def bomb(window):
            if window >= crash_at:
                raise Crash

        with pytest.raises(Crash):
            engine.rollout_fleet(pairs, step_s=60.0, step_hook=bomb)
        journal.close()

        reopened = StateJournal(path)
        restored = FleetEngine.restore(reopened, default_model=model)
        resumed = restored.resume_rollout_fleet(pairs, step_s=60.0)
        for cid, _ in pairs:
            np.testing.assert_array_equal(resumed[cid].soc_pred, reference[cid].soc_pred)
            np.testing.assert_array_equal(resumed[cid].time_s, reference[cid].time_s)
            np.testing.assert_array_equal(resumed[cid].soc_true, reference[cid].soc_true)
        reopened.close()

    def test_resume_is_exact_over_mixed_sampling_periods(self, model, mixed_period_pairs, tmp_path):
        """Traces sampled every 8, 16 and 24 s (float32) in one group:
        a crash mid-rollout resumes every cell bit for bit."""
        pairs = mixed_period_pairs
        reference = FleetEngine(default_model=model).rollout_fleet(pairs, step_s=60.0)
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)

        def bomb(window):
            if window >= 20:
                raise Crash

        with pytest.raises(Crash):
            engine.rollout_fleet(pairs, step_s=60.0, step_hook=bomb)
        journal.close()

        reopened = StateJournal(path)
        restored = FleetEngine.restore(reopened, default_model=model)
        resumed = restored.resume_rollout_fleet(pairs, step_s=60.0)
        for cid, _ in pairs:
            np.testing.assert_array_equal(resumed[cid].soc_pred, reference[cid].soc_pred)
            np.testing.assert_array_equal(resumed[cid].time_s, reference[cid].time_s)
            np.testing.assert_array_equal(resumed[cid].soc_true, reference[cid].soc_true)
            assert restored.cell(cid).soc == float(reference[cid].soc_pred[-1])
        reopened.close()

    def test_resume_rejects_mismatched_step(self, model, fleet, tmp_path):
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)
        engine.rollout_fleet(fleet.assignments()[:2], step_s=120.0)
        with pytest.raises(ValueError, match="cannot resume"):
            engine.resume_rollout_fleet(fleet.assignments()[:2], step_s=60.0)
        journal.close()

    def test_resume_requires_journal(self, model, fleet):
        engine = FleetEngine(default_model=model)
        with pytest.raises(ValueError, match="journal"):
            engine.resume_rollout_fleet(fleet.assignments()[:1], step_s=120.0)
        sharded = ShardedFleet(2, spec=WorkerSpec(model=model))
        with pytest.raises(ValueError, match="journal"):
            sharded.resume_rollout_fleet(fleet.assignments()[:1], step_s=120.0)


# ----------------------------------------------------------------------
class TestBadCycleLeavesNoTrace:
    """A cycle that cannot be planned fails the whole rollout up front:
    no model group commits state or journal windows before the error."""

    def test_state_and_journal_unchanged(self, fleet, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        for k, name in enumerate(("a", "b")):
            registry.publish(name, TwoBranchSoCNet(rng=np.random.default_rng(k)))
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(registry=registry, journal=journal)
        pairs = fleet.assignments()[:8]
        # alternate models, so group "a" runs before the bad cell's group "b"
        for k, (cid, cycle) in enumerate(pairs):
            engine.register_cell(cid, chemistry=cycle.tags.get("chemistry"), model_name="ab"[k % 2])
        engine.rollout_fleet(pairs, step_s=120.0)
        before = {cid: (engine.cell(cid).soc, engine.cell(cid).n_requests) for cid, _ in pairs}
        windows = journal.snapshot().windows
        size = journal.size_bytes()
        assert len(windows) == 8

        bad = pairs[:-1] + [(pairs[-1][0], _truncated(pairs[-1][1], 2))]
        bad.append(("newcomer", pairs[0][1]))
        with pytest.raises(ValueError, match="shorter than a single rollout step"):
            engine.rollout_fleet(bad, step_s=120.0)

        assert {cid: (engine.cell(cid).soc, engine.cell(cid).n_requests) for cid, _ in pairs} == before
        assert "newcomer" not in engine
        assert journal.snapshot().windows == windows
        assert journal.size_bytes() == size
        journal.close()

    @pytest.mark.parametrize("resume", [False, True])
    def test_duplicate_cell_id_refused(self, model, tmp_path, resume):
        """A cell id assigned twice in one rollout is refused, in either
        order and naming the id, before any cell is registered, any
        state changes or the journal is written."""
        cycles = {len(m.cycle.data): m.cycle for m in generate_fleet(
            16, seed=0, cell_names=("sandia-nca", "sandia-nmc", "sandia-lfp", "lg-hg2"),
            protocols=("discharge",), max_time_s=1800.0,
        ).members}
        long, short = cycles[max(cycles)], cycles[min(cycles)]
        assert len(long.data) != len(short.data)
        path = tmp_path / "fleet.journal"
        journal = StateJournal(path)
        engine = FleetEngine(default_model=model, journal=journal)
        engine.rollout_fleet([("x", long)], step_s=60.0)
        before = dataclasses.astuple(engine.cell("x"))
        size = journal.size_bytes()
        run = engine.resume_rollout_fleet if resume else engine.rollout_fleet
        for first, second in ((long, short), (short, long)):
            with pytest.raises(ValueError, match="cell 'x' appears more than once in one rollout"):
                run([("newcomer", long), ("x", first), ("x", second)], step_s=60.0)
        assert "newcomer" not in engine
        assert dataclasses.astuple(engine.cell("x")) == before
        assert journal.size_bytes() == size
        journal.close()
