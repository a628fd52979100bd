"""Harvest training rows for the offline learner from serving journals.

The serving plane already writes down everything a retrain needs: every
committed rollout window lands in a
:class:`~repro.serve.persistence.StateJournal` as a window frame, and
those frames carry the workload that produced the window (average
current, average temperature, horizon, capacity columns).  This module
replays journals *as data*, not as state: consecutive ``(w, w+1)``
windows of one cell become one
:class:`~repro.datasets.windowing.PredictionSamples` row —

    ``(SoC(t)=w.soc, I_avg, T_avg, N) -> SoC(t+N)=w+1.soc``

— exactly Branch 2's training contract, which is what lets the
fine-tuner (:mod:`repro.learn.finetune`) feed the harvest straight into
the existing :class:`~repro.core.trainer.SplitTrainer`.

The journal's own reader (:func:`~repro.serve.persistence.read_journal`)
walks each journal — archived, sealed, then active — read-only, so
harvesting never races the serving process that owns the journal.  This
module adds the pairing, which absorbs the serving stack's edge cases:

- **compacted journals**: compaction keeps only SoC per window, so rows
  whose workload was compacted away are silently unavailable — the
  harvester pairs across a ``compact`` marker (the re-emitted SoC-only
  windows still anchor resumed windows) but emits nothing for history
  that no longer exists;
- **archived-segment gaps**: a hole in the cold store's numbering
  raises :class:`~repro.serve.archive.MissingSegmentError` unless the
  caller budgets for it (``max_gaps``); a tolerated gap severs window
  pairing (never pair across missing history), windows whose cell ids
  were interned in the lost segment are skipped, and gaps are counted
  in the report;
- **rebalanced cells**: a drifted cell whose shard changed left its
  windows in *another* worker's journal — harvesting accepts many
  journals and merges their rows, deduplicating exact duplicates a
  crashed ship-then-unlink may have left behind.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..datasets.windowing import PredictionSamples
from ..serve.persistence import Cells, Compact, Drop, Gap, Rollout, Roster, Window, read_journal

__all__ = ["HarvestReport", "harvest_training_set"]


@dataclasses.dataclass
class HarvestReport:
    """What one harvest pass extracted.

    Attributes
    ----------
    by_chemistry:
        Training rows partitioned by the cells' journaled chemistry
        (``None`` groups cells registered without one) — per-chemistry
        fine-tunes pick their partition, fleet-wide ones use
        :attr:`samples`.
    rows:
        Total emitted rows across partitions.
    cells:
        Sorted ids of the cells that contributed rows.
    missing_segments:
        Archived segments that were absent but inside the caller's
        ``max_gaps`` budget (pairing was severed around each).
    duplicates:
        Rows dropped by exact-duplicate dedup (same cell, window, and
        workload seen again — e.g. a segment both archived and local).
    """

    by_chemistry: dict[str | None, PredictionSamples]
    rows: int
    cells: tuple[str, ...]
    missing_segments: int
    duplicates: int

    @property
    def samples(self) -> PredictionSamples | None:
        """All partitions pooled into one sample set (``None`` when empty)."""
        parts = list(self.by_chemistry.values())
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else PredictionSamples.concatenate(parts)

    def partition(self, chemistry: str | None) -> PredictionSamples | None:
        """One chemistry's rows (``None`` when that partition is empty)."""
        return self.by_chemistry.get(chemistry)


def harvest_training_set(
    journals: str | Path | Sequence[str | Path],
    events: Iterable | None = None,
    cell_ids: Iterable[str] | None = None,
    store=None,
    max_gaps: int = 0,
    dedup: bool = True,
) -> HarvestReport:
    """Replay serving journals into Branch 2 training rows.

    Parameters
    ----------
    journals:
        One journal path or many (one per shard worker, typically) —
        the *active* file paths; sealed ``<name>.NNNNN.seg`` segments
        next to each are replayed first, oldest first.
    events:
        Drift events (:class:`~repro.monitor.drift.DriftEvent` or
        anything with a ``cell_id``) restricting the harvest to the
        cells that alarmed — the drift → retrain contract.  ``None``
        harvests every cell (unless ``cell_ids`` filters).
    cell_ids:
        Explicit cell filter, unioned with the events' cells.
    store:
        Optional :class:`~repro.serve.archive.ArchiveStore` holding
        each journal's shipped cold segments.
    max_gaps:
        Missing archived segments tolerated across the whole harvest
        before :class:`~repro.serve.archive.MissingSegmentError` — each
        tolerated gap severs window pairing at that point.
    dedup:
        Drop exact duplicate rows (default).  Dedup keys on the full
        row (cell, window, SoCs, workload), so distinct rollouts of the
        same cell/window survive.
    """
    if isinstance(journals, (str, Path)):
        journals = [journals]
    wanted: set[str] | None = None
    if events is not None or cell_ids is not None:
        wanted = set() if cell_ids is None else set(cell_ids)
        for event in events or ():
            wanted.add(event.cell_id)
    state = _HarvestState(wanted=wanted, dedup=dedup, gap_budget=int(max_gaps))
    for journal in journals:
        state.replay_journal(Path(journal), store)
    return state.report()


class _HarvestState:
    """Streaming replay state shared across one harvest's journals."""

    def __init__(self, wanted: set[str] | None, dedup: bool, gap_budget: int):
        self.wanted = wanted
        self.dedup = dedup
        self.gap_budget = gap_budget
        self.gaps = 0
        self.duplicates = 0
        self.seen: set[tuple] = set()
        self.rows: dict[str | None, list[tuple]] = {}  # (cell_id, window, *_COLUMNS) rows
        self.cells: set[str] = set()

    # -- per-journal replay --------------------------------------------
    def replay_journal(self, path: Path, store) -> None:
        self._chem: dict[str, str | None] = {}
        self._last: dict[str, tuple[int, float]] = {}  # cell id -> its last (window, soc)
        self._roster: dict[int, str] = {}  # roster position -> cell id
        for record in read_journal(path, store, max_gaps=self.gap_budget - self.gaps):
            if isinstance(record, Window):
                self._replay_window(record)
            elif isinstance(record, Cells):
                self._chem.update((cell_id, fields[0]) for cell_id, fields in zip(record.ids, record.fields))
            elif isinstance(record, Roster):
                self._roster.update(zip(range(record.at, record.at + len(record.ids)), record.ids))
            elif isinstance(record, Drop):
                self._chem.pop(record.cell_id, None)
                self._last.pop(record.cell_id, None)
            elif isinstance(record, Rollout):
                # a new rollout restarts every cell's window numbering
                self._last.clear()
                self._roster = {}
            elif isinstance(record, Compact):
                # state resets here; the re-emitted records that follow
                # rebuild it (their soc-only windows re-anchor pairing,
                # so post-restart resumed windows still yield rows)
                self._chem.clear()
                self._last.clear()
                self._roster = {}
            elif isinstance(record, Gap):
                self.gaps += 1
                self._last.clear()

    def _replay_window(self, record: Window) -> None:
        window = record.window
        for position, soc, *workload in zip(record.cells.tolist(), *record.values.tolist()):
            cell_id = self._roster.get(position)
            if cell_id is None:
                continue  # interned in a segment lost to a tolerated gap
            previous = self._last.get(cell_id)
            self._last[cell_id] = (window, soc)
            if previous is None or previous[0] != window - 1:
                continue
            if not workload:
                continue  # a seed or compacted window: no workload to learn from
            if self.wanted is not None and cell_id not in self.wanted:
                continue
            i_avg, temp_avg, horizon_s, capacity_ah = workload
            row = (cell_id, window, previous[1], i_avg, temp_avg, horizon_s, soc, capacity_ah)
            if self.dedup:
                if row in self.seen:
                    self.duplicates += 1
                    continue
                self.seen.add(row)
            self.cells.add(cell_id)
            self.rows.setdefault(self._chem.get(cell_id), []).append(row)

    # -- materialization -----------------------------------------------
    def report(self) -> HarvestReport:
        by_chemistry = {
            chem: _to_samples(rows) for chem, rows in sorted(
                self.rows.items(), key=lambda item: (item[0] is not None, item[0] or "")
            )
        }
        return HarvestReport(
            by_chemistry=by_chemistry,
            rows=sum(len(rows) for rows in self.rows.values()),
            cells=tuple(sorted(self.cells)),
            missing_segments=self.gaps,
            duplicates=self.duplicates,
        )


_COLUMNS = ("soc_t", "i_avg", "temp_avg", "horizon_s", "soc_target", "capacity_ah")


def _to_samples(rows: list[tuple]) -> PredictionSamples:
    """Rows → :class:`PredictionSamples`, the measured channels zero-filled:
    the journal holds the recursion's inputs, not sensor traces, and
    Branch 2 training reads only the :data:`_COLUMNS`."""
    columns = list(zip(*rows))[2:]
    n = len(rows)
    return PredictionSamples(
        v_t=np.zeros(n),
        i_t=np.zeros(n),
        temp_t=np.zeros(n),
        **{name: np.array(column, dtype=np.float64) for name, column in zip(_COLUMNS, columns)},
    )
