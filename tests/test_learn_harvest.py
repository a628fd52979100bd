"""Tests for the journal harvester (:mod:`repro.learn.harvest`).

Covers the serving-stack edge cases the harvester exists to absorb:
compacted journals (workload history gone, pairing re-anchored),
archived-segment gaps (budgeted severing vs. hard failure), cells
rebalanced to another shard's journal, torn active-file tails, and
exact-duplicate dedup — plus the happy path straight off a real
:class:`FleetEngine` rollout journal.
"""

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.learn import harvest_training_set
from repro.monitor.drift import DriftEvent
from repro.serve import (
    DirectoryArchiveStore,
    FleetEngine,
    MissingSegmentError,
    StateJournal,
    generate_fleet,
)
from repro.serve.engine import CellState


def _cell(journal, cell_id, chemistry=None):
    journal.append_cells([CellState(cell_id=cell_id, chemistry=chemistry, model_key="m")])


def _workload(i_avg=1.0, temp_avg=25.0, horizon_s=120.0, capacity_ah=2.0):
    return ([i_avg], [temp_avg], [horizon_s], [capacity_ah])


def _windows(journal, cell_id, socs, **workload):
    """Window 0 as a bare seed, then windows with their workload — the engine's idiom."""
    (position,) = journal.intern([cell_id])
    journal.append_windows(0, [position], [socs[0]])
    for w, soc in enumerate(socs[1:], start=1):
        journal.append_windows(w, [position], [soc], _workload(**workload))


def _event(cell_id):
    return DriftEvent(kind="cusum", cell_id=cell_id, value=1.0, threshold=0.1)


# ----------------------------------------------------------------------
class TestHappyPath:
    def test_consecutive_windows_become_branch2_rows(self, tmp_path):
        path = tmp_path / "w.journal"
        with StateJournal(path) as journal:
            _cell(journal, "a", chemistry="nmc")
            journal.begin_rollout(120.0)
            _windows(journal, "a", [0.9, 0.8, 0.7])
        report = harvest_training_set(path)
        assert report.rows == 2
        assert report.cells == ("a",)
        samples = report.samples
        np.testing.assert_allclose(samples.soc_t, [0.9, 0.8])
        np.testing.assert_allclose(samples.soc_target, [0.8, 0.7])
        np.testing.assert_allclose(samples.horizon_s, 120.0)
        np.testing.assert_allclose(samples.capacity_ah, 2.0)

    def test_partitioned_per_chemistry(self, tmp_path):
        path = tmp_path / "w.journal"
        with StateJournal(path) as journal:
            _cell(journal, "a", chemistry="nmc")
            _cell(journal, "b", chemistry="lfp")
            _cell(journal, "c")  # no chemistry
            journal.begin_rollout(120.0)
            for cid in ("a", "b", "c"):
                _windows(journal, cid, [0.9, 0.8])
        report = harvest_training_set(path)
        assert set(report.by_chemistry) == {"nmc", "lfp", None}
        assert len(report.partition("nmc")) == 1
        assert report.partition("na-ion") is None
        assert len(report.samples) == 3

    def test_drift_events_restrict_the_harvest_to_alarmed_cells(self, tmp_path):
        path = tmp_path / "w.journal"
        with StateJournal(path) as journal:
            for cid in ("a", "b", "c"):
                _cell(journal, cid)
            journal.begin_rollout(120.0)
            for cid in ("a", "b", "c"):
                _windows(journal, cid, [0.9, 0.8])
        report = harvest_training_set(path, events=[_event("b")])
        assert report.cells == ("b",)
        # explicit cell_ids union with the events' cells
        report = harvest_training_set(path, events=[_event("b")], cell_ids=["c"])
        assert report.cells == ("b", "c")

    def test_harvests_a_real_engine_rollout_journal(self, tmp_path):
        model = TwoBranchSoCNet(rng=np.random.default_rng(0))
        path = tmp_path / "engine.journal"
        fleet = generate_fleet(
            6, seed=3, ambient_temps_c=(25.0,), c_rates=(1.0,), protocols=("discharge",),
            max_time_s=1800.0,
        )
        with StateJournal(path) as journal:
            engine = FleetEngine(default_model=model, journal=journal)
            engine.rollout_fleet(fleet.assignments(), 120.0)
        report = harvest_training_set(path)
        assert report.rows > 0
        samples = report.samples
        # the engine journaled real workload: per-member capacities and
        # the rollout's horizon, so the Eq. 1 relabel has what it needs
        assert np.all(samples.capacity_ah > 0)
        # full windows are step_s wide, the cycle's tail window shorter
        assert np.all((samples.horizon_s > 0) & (samples.horizon_s <= 120.0))
        assert np.all(np.isfinite(samples.i_avg)) and np.all(samples.i_avg != 0)


# ----------------------------------------------------------------------
class TestEdgeCases:
    def test_compaction_drops_workload_history_but_reanchors_pairing(self, tmp_path):
        path = tmp_path / "w.journal"
        with StateJournal(path) as journal:
            _cell(journal, "a")
            journal.begin_rollout(120.0)
            _windows(journal, "a", [0.9, 0.8, 0.7])
            journal.compact()  # workload keys are compacted away
            assert harvest_training_set(path).rows == 0
            # resumed windows after the compaction pair with the
            # re-emitted soc-only anchor records
            journal.append_windows(3, journal.intern(["a"]), [0.6], _workload())
        report = harvest_training_set(path)
        assert report.rows == 1
        assert report.samples.soc_t[0] == pytest.approx(0.7)
        assert report.samples.soc_target[0] == pytest.approx(0.6)

    def test_rebalanced_cell_history_merges_across_journals(self, tmp_path):
        old, new = tmp_path / "shard0.journal", tmp_path / "shard1.journal"
        with StateJournal(old) as journal:
            _cell(journal, "a")
            journal.begin_rollout(120.0)
            _windows(journal, "a", [0.9, 0.8])
            journal.drop_cell("a")  # rebalanced away
        with StateJournal(new) as journal:
            _cell(journal, "a")
            journal.begin_rollout(120.0)
            _windows(journal, "a", [0.7, 0.6])
        report = harvest_training_set([old, new], events=[_event("a")])
        assert report.rows == 2
        np.testing.assert_allclose(sorted(report.samples.soc_t), [0.7, 0.9])

    def test_exact_duplicates_are_dropped_and_counted(self, tmp_path):
        path = tmp_path / "w.journal"
        with StateJournal(path) as journal:
            _cell(journal, "a")
            journal.begin_rollout(120.0)
            _windows(journal, "a", [0.9, 0.8])
        # the same file seen twice (e.g. a segment both archived and
        # local after a crashed ship-then-unlink)
        report = harvest_training_set([path, path])
        assert report.rows == 1
        assert report.duplicates == 1
        assert len(harvest_training_set([path, path], dedup=False).samples) == 2

    def test_pairing_never_crosses_a_rollout_restart(self, tmp_path):
        path = tmp_path / "w.journal"
        with StateJournal(path) as journal:
            _cell(journal, "a")
            journal.begin_rollout(120.0)
            _windows(journal, "a", [0.9, 0.8])
            journal.begin_rollout(120.0)  # numbering restarts
            _windows(journal, "a", [0.5, 0.4])
        report = harvest_training_set(path)
        assert report.rows == 2
        assert 0.9 in report.samples.soc_t and 0.5 in report.samples.soc_t
        # no phantom row pairing the old rollout's last window with the
        # new rollout's first
        assert not np.any(report.samples.soc_t == 0.8)

    def test_torn_active_tail_is_skipped_but_sealed_corruption_raises(self, tmp_path):
        path = tmp_path / "w.journal"
        with StateJournal(path) as journal:
            _cell(journal, "a")
            journal.begin_rollout(120.0)
            _windows(journal, "a", [0.9, 0.8, 0.7])
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # crash mid-write of the last window
        assert harvest_training_set(path).rows == 1
        assert path.read_bytes() == data[:-7]  # harvesting never writes
        sealed = path.with_name(f"{path.name}.00001.seg")
        sealed.write_bytes(data[:-7])
        with pytest.raises(ValueError, match="corrupt journal"):
            harvest_training_set(path)


# ----------------------------------------------------------------------
class TestArchivedSegments:
    def _archived_journal(self, tmp_path):
        """A journal whose sealed segments shipped to a cold store."""
        store = DirectoryArchiveStore(tmp_path / "cold")
        path = tmp_path / "w.journal"
        with StateJournal(path, max_segment_bytes=1, archive=store) as journal:
            _cell(journal, "a")
            journal.begin_rollout(120.0)
            _windows(journal, "a", [0.9, 0.8, 0.7, 0.6])
        names = store.list(prefix=f"{path.name}.")
        assert len(names) >= 3  # every record sealed its own segment
        return store, path, sorted(names)

    def test_archived_segments_are_fetched_and_replayed(self, tmp_path):
        store, path, _ = self._archived_journal(tmp_path)
        report = harvest_training_set(path, store=store)
        assert report.rows == 3
        assert report.missing_segments == 0

    def test_gap_beyond_budget_raises_missing_segment(self, tmp_path):
        store, path, names = self._archived_journal(tmp_path)
        store.delete(names[1])
        with pytest.raises(MissingSegmentError, match="max_gaps=0"):
            harvest_training_set(path, store=store)

    def test_budgeted_gap_severs_pairing_and_is_reported(self, tmp_path):
        store, path, names = self._archived_journal(tmp_path)
        before = harvest_training_set(path, store=store).samples
        assert len(before) == 3
        # segments: header, cell, rollout, roster, window 0, window 1, ...
        store.delete(names[5])  # the segment holding window 1
        report = harvest_training_set(path, store=store, max_gaps=1)
        assert report.missing_segments == 1
        # windows pair only across contiguous history: (0,1) and (1,2)
        # are gone with window 1, (2,3) survives past the hole
        assert report.rows == 1
        assert report.samples.soc_t[0] == pytest.approx(0.7)

    def test_gap_that_lost_the_roster_yields_no_misattributed_rows(self, tmp_path):
        store, path, names = self._archived_journal(tmp_path)
        store.delete(names[3])  # the segment that interned the cell ids
        report = harvest_training_set(path, store=store, max_gaps=1)
        assert report.missing_segments == 1
        assert report.rows == 0  # no window can be attributed to a cell
