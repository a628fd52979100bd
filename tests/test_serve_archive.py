"""Journal segment archival (:mod:`repro.serve.archive`).

Rotation ships sealed segments to the cold store and drops the local
copies; replay fetches them back; a gap in the archived numbering is a
hard error, never a silent partial restore.
"""

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.serve import (
    DirectoryArchiveStore,
    FleetEngine,
    MissingSegmentError,
    StateJournal,
)
from repro.serve.persistence import Cells, read_journal


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


@pytest.fixture
def store(tmp_path):
    return DirectoryArchiveStore(tmp_path / "cold")


def _rotated_engine(path, store, model, cells=40):
    """An engine whose journal has rotated several segments into the store."""
    journal = StateJournal(path, max_segment_bytes=512, compact_every=0, archive=store)
    engine = FleetEngine(default_model=model, journal=journal)
    for k in range(cells):
        engine.register_cell(f"c{k}", chemistry="nmc" if k % 2 else "lfp")
    ids = [f"c{k}" for k in range(cells)]
    engine.estimate(ids, 3.7, 1.0, 25.0)
    return engine, journal


# ----------------------------------------------------------------------
class TestDirectoryArchiveStore:
    def test_put_fetch_round_trip(self, store, tmp_path):
        source = tmp_path / "seg.seg"
        source.write_text('{"op": "x"}\n')
        store.put("fleet.journal.00001.seg", source)
        dest = tmp_path / "back.seg"
        store.fetch("fleet.journal.00001.seg", dest)
        assert dest.read_text() == source.read_text()

    def test_list_is_sorted_and_prefix_filtered(self, store, tmp_path):
        source = tmp_path / "seg.seg"
        source.write_text("{}\n")
        for name in ("b.journal.00002.seg", "a.journal.00001.seg", "b.journal.00001.seg"):
            store.put(name, source)
        expected = ["a.journal.00001.seg", "b.journal.00001.seg", "b.journal.00002.seg"]
        assert store.list() == expected
        assert store.list(prefix="b.journal.") == ["b.journal.00001.seg", "b.journal.00002.seg"]

    def test_fetch_missing_raises_missing_segment(self, store, tmp_path):
        with pytest.raises(MissingSegmentError, match="not in the archive"):
            store.fetch("ghost.00001.seg", tmp_path / "out.seg")
        assert not (tmp_path / "out.seg").exists()

    def test_delete_is_idempotent(self, store, tmp_path):
        source = tmp_path / "seg.seg"
        source.write_text("{}\n")
        store.put("x.00001.seg", source)
        store.delete("x.00001.seg")
        store.delete("x.00001.seg")  # already gone: not an error
        assert store.list() == []

    def test_missing_segment_error_is_a_value_error(self):
        assert issubclass(MissingSegmentError, ValueError)


# ----------------------------------------------------------------------
class TestJournalArchival:
    def test_rotation_ships_segments_and_unlinks_local(self, model, store, tmp_path):
        path = tmp_path / "fleet.journal"
        _, journal = _rotated_engine(path, store, model)
        shipped = journal.archived_segments()
        assert len(shipped) >= 3
        assert shipped[0] == "fleet.journal.00001.seg"
        assert journal.segments() == []  # local copies are cache, not record
        assert path.exists()  # the active file stays hot

    def test_restore_from_archive_replays_full_history(self, model, store, tmp_path):
        path = tmp_path / "fleet.journal"
        engine, journal = _rotated_engine(path, store, model)
        socs = {f"c{k}": engine.cell(f"c{k}").soc for k in range(40)}
        journal.close()
        # cold start on a "new host": only the active file + the store
        restored_journal = StateJournal(path, archive=store, compact_every=0)
        restored = FleetEngine.restore(restored_journal, default_model=model)
        assert len(restored) == 40
        for cell_id, soc in socs.items():
            state = restored.cell(cell_id)
            assert state.soc == soc
            assert state.chemistry == ("nmc" if int(cell_id[1:]) % 2 else "lfp")
        # replayed local copies were fetched for replay, then dropped
        assert restored_journal.segments() == []

    def test_restore_without_active_file_still_replays(self, model, store, tmp_path):
        """Losing the hot disk loses only the active tail; everything
        sealed comes back from the store."""
        path = tmp_path / "fleet.journal"
        engine, journal = _rotated_engine(path, store, model)
        journal.close()
        path.unlink()  # the "disk" died; archived segments survive
        restored = FleetEngine.restore(
            StateJournal(path, archive=store, compact_every=0), default_model=model
        )
        assert len(restored) > 0  # every fully-sealed registration is back

    def test_gap_in_archived_history_is_an_error(self, model, store, tmp_path):
        path = tmp_path / "fleet.journal"
        _, journal = _rotated_engine(path, store, model)
        journal.close()
        store.delete("fleet.journal.00002.seg")
        with pytest.raises(MissingSegmentError, match=r"missing segment\(s\) \[2\]"):
            StateJournal(path, archive=store)

    def test_segment_sealed_but_never_shipped_is_shipped_on_reopen(self, model, store, tmp_path):
        """A crash between sealing and shipping leaves a local segment the
        store lacks: reopening ships it before dropping the local copy."""
        path = tmp_path / "fleet.journal"
        with StateJournal(path, max_segment_bytes=512, compact_every=0) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            for k in range(20):
                engine.register_cell(f"c{k}")
        sealed = [segment.name for segment in journal.segments()]
        assert sealed and store.list() == []
        reopened = StateJournal(path, archive=store)
        assert reopened.segments() == [] and reopened.archived_segments() == sealed
        reopened.close()
        assert len(StateJournal(path, archive=store)) == 20

    def test_compact_clears_redundant_archived_segments(self, model, store, tmp_path):
        path = tmp_path / "fleet.journal"
        engine, journal = _rotated_engine(path, store, model)
        assert journal.archived_segments()
        journal.compact()
        assert journal.archived_segments() == []  # history folded into the active file
        restored = FleetEngine.restore(
            StateJournal(path, archive=store), default_model=model
        )
        assert len(restored) == len(engine)

    def test_rotation_resumes_numbering_after_restore(self, model, store, tmp_path):
        """Sealing after a cold restore must not overwrite shipped
        segments: numbering continues from the archived high-water mark."""
        path = tmp_path / "fleet.journal"
        _, journal = _rotated_engine(path, store, model)
        count = len(journal.archived_segments())
        journal.close()
        journal2 = StateJournal(path, archive=store, max_segment_bytes=512, compact_every=0)
        engine = FleetEngine.restore(journal2, default_model=model)
        for k in range(40, 80):
            engine.register_cell(f"c{k}")
        names = journal2.archived_segments()
        assert len(names) > count
        assert names == sorted(set(names))  # no index reused

    def test_active_file_records_stay_frames(self, model, store, tmp_path):
        """The archive changes where segments live, not the format."""
        path = tmp_path / "fleet.journal"
        _rotated_engine(path, store, model, cells=8)
        assert path.read_bytes()[:1] != b"{"  # a length prefix, not a JSON line
        # the shipped segments and the active file read back as frames
        cells = [r for r in read_journal(path, store) if isinstance(r, Cells)]
        assert {cell_id for record in cells for cell_id in record.ids} == {f"c{k}" for k in range(8)}
