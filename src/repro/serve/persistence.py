"""Durable per-cell serving state: append-only journal with compaction.

The physics-state recursion at the heart of the paper's Branch 2 makes
serving *stateful*: each cell's next prediction consumes its last SoC,
so an engine restart that forgets per-cell state breaks the recursion
(every cell would need a fresh Branch 1 estimate, discarding the
accumulated trajectory).  :class:`StateJournal` makes that state
durable with the classic write-ahead pattern:

- every mutation of a :class:`~repro.serve.engine.CellState` appends a
  one-line JSON record to an append-only file (``cell`` ops);
- fleet rollouts additionally stream their per-window recursion state
  (``w`` ops, one per cell per window) behind a ``rollout`` marker, so
  a crash mid-rollout loses at most the window being computed;
- :meth:`compact` rewrites the file down to one record per live cell
  (plus any in-flight rollout progress) via an atomic replace, and
  runs automatically every ``compact_every`` appended records;
- with ``max_segment_bytes`` set, the journal **rotates**: when the
  active file crosses the limit it is sealed in place as
  ``<name>.00001.jsonl`` (monotonically numbered) and a fresh active
  file begins.  Replay walks the sealed segments in order, then the
  active file; compaction collapses everything back into one active
  file.  Rotation is what keeps a single append target small enough
  for >1M-cell fleets: sealing is one ``rename`` (no data copied), and
  compaction cost is bounded by *live* state, not append history;
- with ``archive`` set to an :class:`~repro.serve.archive.ArchiveStore`,
  sealed segments are **shipped to the cold store** and deleted
  locally — the hot directory holds only the active file.  Replay
  fetches archived segments back first (so a journal restores on a
  host that never wrote it; see
  :func:`repro.serve.archive.restore_from_archive`), and a gap in the
  archived numbering raises
  :class:`~repro.serve.archive.MissingSegmentError` — replaying around
  a missing segment would silently corrupt state.

JSON floats round-trip ``float`` values exactly (``repr`` precision),
which is what lets :meth:`FleetEngine.restore
<repro.serve.engine.FleetEngine.restore>` followed by
``resume_rollout_fleet`` reproduce an uninterrupted rollout bit for
bit.  A torn final line (crash mid-write) is tolerated on replay —
only in the *active* file, the one a crash can tear; sealed segments
must parse cleanly — and corruption anywhere else raises.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Iterable

from .engine import CellState

__all__ = ["JournalSnapshot", "StateJournal", "JOURNAL_FORMAT_VERSION"]

# v2 added the `compact` op (state-reset marker written by compaction)
# and segment rotation; older readers see the version header and reject
# the file cleanly instead of reporting the unknown op as corruption.
# v1 files remain readable.
JOURNAL_FORMAT_VERSION = 2


@dataclasses.dataclass
class JournalSnapshot:
    """Materialized journal contents.

    Attributes
    ----------
    cells:
        Latest journaled state per cell.
    windows:
        Per-cell rollout progress of the most recent fleet rollout:
        ``{cell_id: {window: soc}}`` with window 0 the initial
        (Branch 1) estimate.  Empty for cells that were not part of it.
    step_s:
        Step size of that rollout (``None`` when none was journaled).
    """

    cells: dict[str, CellState]
    windows: dict[str, dict[int, float]]
    step_s: float | None


class StateJournal:
    """Append-only, compacting journal of fleet serving state.

    Parameters
    ----------
    path:
        Journal file; created (with a format-version header) when
        missing, replayed into memory when present so an engine can
        pick up exactly where a previous process stopped.
    compact_every:
        Auto-compact after this many appended records (0 disables
        automatic compaction; :meth:`compact` stays available).
    fsync:
        ``os.fsync`` the file after every flushed batch (default off).
        The default survives process crashes — the engine's guarantee —
        at one flush per *batch* of records; turn this on to also
        survive OS/power failure, paying one disk sync per batch
        (which is exactly why appends are batched: the cost is per
        flush, not per record).
    max_segment_bytes:
        Roll the active file into a sealed, numbered segment once it
        grows past this size (0, the default, disables rotation).  The
        check runs per flushed batch, so a segment may overshoot by up
        to one batch.
    archive:
        Optional :class:`~repro.serve.archive.ArchiveStore`: sealed
        segments are shipped there on rotation and removed locally;
        replay fetches any archived segments back before reading.
        Shipping happens on the append path, so a down store surfaces
        as an :class:`~repro.serve.archive.ArchiveError` on the append
        that triggered rotation — state is never silently un-archived.
    """

    def __init__(
        self,
        path: str | Path,
        compact_every: int = 65536,
        fsync: bool = False,
        max_segment_bytes: int = 0,
        archive=None,
    ):
        if compact_every < 0:
            raise ValueError("compact_every cannot be negative")
        if max_segment_bytes < 0:
            raise ValueError("max_segment_bytes cannot be negative")
        self.path = Path(path)
        self.compact_every = compact_every
        self.fsync = fsync
        self.max_segment_bytes = int(max_segment_bytes)
        self.archive = archive
        self._cells: dict[str, dict] = {}
        self._windows: dict[str, dict[int, float]] = {}
        self._step_s: float | None = None
        self._appended = 0  # records since the last compaction
        self._fh = None
        if self.archive is not None:
            self._fetch_archived_segments()
        for segment in self.segments():
            self._load_file(segment, allow_torn=False)
            if self.archive is not None:
                # local copies of shipped segments are cache, not record:
                # drop them once replayed so the hot tier stays one file
                segment.unlink()
        if self.path.exists():
            self._load_file(self.path, allow_torn=True)
        self._open()
        if self._fresh:
            self._append({"op": "journal", "version": JOURNAL_FORMAT_VERSION})

    # -- appending -----------------------------------------------------
    def append_cell(self, state: CellState) -> None:
        """Journal the latest state of one cell (a ``cell`` op)."""
        self.append_cells([state])

    def append_cells(self, states: Iterable[CellState]) -> None:
        """Journal many cells' latest states with one write + flush.

        The batched counterpart of :meth:`append_cell`: a fleet-wide
        ``estimate``/``predict``/rollout commit journals every touched
        cell in a single syscall (and, with ``fsync`` enabled, a single
        disk sync) instead of one per cell.
        """
        records = []
        for state in states:
            record = {
                "op": "cell",
                "id": state.cell_id,
                "chem": state.chemistry,
                "key": state.model_key,
                "soc": state.soc,
                "seen": state.last_seen_s,
                "n": state.n_requests,
            }
            self._cells[state.cell_id] = record
            records.append(record)
        self._append_many(records)

    def drop_cell(self, cell_id: str) -> None:
        """Journal the removal of a cell (a ``drop`` op)."""
        self._cells.pop(cell_id, None)
        self._windows.pop(cell_id, None)
        self._append({"op": "drop", "id": cell_id})

    def begin_rollout(self, step_s: float) -> None:
        """Mark the start of a fleet rollout, clearing prior progress."""
        self._windows.clear()
        self._step_s = float(step_s)
        self._append({"op": "rollout", "step_s": float(step_s)})

    def append_window(self, cell_id: str, window: int, soc: float) -> None:
        """Journal one cell's rollout state after ``window`` (a ``w`` op)."""
        self.append_windows([(cell_id, window, soc)])

    def append_windows(self, updates: Iterable[tuple]) -> None:
        """Journal many cells' rollout states with one write + flush.

        Each update is ``(cell_id, window, soc)`` or the extended
        7-tuple ``(cell_id, window, soc, i_avg, temp_avg, horizon_s,
        capacity_ah)`` which additionally records the workload that
        produced the window under the optional keys ``i``/``t``/``h``/
        ``c`` — replay ignores them (only ``soc`` matters for crash
        recovery), but the offline learner harvests them into training
        rows (:mod:`repro.learn.harvest`).  Compaction keeps only the
        SoC, so workload history lives in the raw (or archived)
        segments.

        The durability guarantee is per *committed window batch* — a
        crash loses at most the in-flight window — so flushing once per
        batch keeps the same crash semantics at 1/N the syscalls of
        per-record appends (a journaled 100k-cell rollout would
        otherwise flush millions of times).
        """
        records = []
        for update in updates:
            cell_id, window, soc = update[0], update[1], update[2]
            self._windows.setdefault(cell_id, {})[int(window)] = float(soc)
            record = {"op": "w", "id": cell_id, "w": int(window), "soc": float(soc)}
            if len(update) > 3:
                i_avg, temp_avg, horizon_s, capacity_ah = update[3:7]
                record["i"] = float(i_avg)
                record["t"] = float(temp_avg)
                record["h"] = float(horizon_s)
                record["c"] = float(capacity_ah)
            records.append(record)
        self._append_many(records)

    # -- reading -------------------------------------------------------
    def snapshot(self) -> JournalSnapshot:
        """Current journal contents as detached copies."""
        cells = {
            cid: CellState(
                cell_id=r["id"],
                chemistry=r["chem"],
                model_key=r["key"],
                soc=r["soc"],
                last_seen_s=r["seen"],
                n_requests=r["n"],
            )
            for cid, r in self._cells.items()
        }
        windows = {cid: dict(ws) for cid, ws in self._windows.items() if ws}
        return JournalSnapshot(cells=cells, windows=windows, step_s=self._step_s)

    def __len__(self) -> int:
        """Number of live cells in the journal."""
        return len(self._cells)

    def size_bytes(self) -> int:
        """On-disk size of the journal (active file plus sealed segments)."""
        self._fh.flush()
        return self.path.stat().st_size + sum(seg.stat().st_size for seg in self.segments())

    # -- segment rotation ----------------------------------------------
    def segments(self) -> list[Path]:
        """Local sealed segment files, oldest first (empty without rotation).

        With an ``archive``, sealed segments live in the cold store —
        see :meth:`archived_segments` — and this is (transiently) empty.
        """
        found = []
        for candidate in self.path.parent.glob(f"{self.path.name}.*.jsonl"):
            index = self._segment_index(candidate.name)
            if index is not None:
                found.append((index, candidate))
        return [path for _, path in sorted(found)]

    def archived_segments(self) -> list[str]:
        """Names of this journal's segments in the cold store, oldest first."""
        if self.archive is None:
            return []
        names = []
        for name in self.archive.list(prefix=f"{self.path.name}."):
            index = self._segment_index(name)
            if index is not None:
                names.append((index, name))
        return [name for _, name in sorted(names)]

    def _segment_index(self, name: str) -> int | None:
        if not (name.startswith(f"{self.path.name}.") and name.endswith(".jsonl")):
            return None
        stem = name[len(self.path.name) + 1 : -len(".jsonl")]
        return int(stem) if stem.isdigit() else None

    def _segment_path(self, index: int) -> Path:
        return self.path.with_name(f"{self.path.name}.{index:05d}.jsonl")

    def _fetch_archived_segments(self) -> None:
        """Pull archived segments down for replay; reject gappy history.

        Runs before local replay: the union of archived and local
        segment numbers must be contiguous from 1 (a journal's state
        is the *ordered* record union — replaying around a hole would
        silently resurrect dropped cells), so a missing segment raises
        :class:`~repro.serve.archive.MissingSegmentError` instead of
        restoring wrong state.  Segments already local (a crash
        between ship and unlink) are not re-fetched.
        """
        from .archive import MissingSegmentError

        local = {self._segment_index(path.name) for path in self.segments()}
        archived = {self._segment_index(name) for name in self.archived_segments()}
        indices = sorted(local | archived)
        if indices:
            expected = list(range(1, indices[-1] + 1))
            if indices != expected:
                missing = sorted(set(expected) - set(indices))
                raise MissingSegmentError(
                    f"journal {self.path.name} history has gaps: missing segment(s) "
                    f"{missing} (have {indices})"
                )
        for index in indices:
            if index not in local:
                self.archive.fetch(self._segment_path(index).name, self._segment_path(index))
        self._next_segment_index = (indices[-1] + 1) if indices else 1

    def _rotate(self) -> None:
        """Seal the active file as the next numbered segment.

        One ``rename`` — no data moves — then a fresh active file
        opens with its own format header.  With an ``archive``, the
        sealed segment is shipped to the cold store and the local copy
        deleted (ship-then-unlink: a crash in between leaves a
        harmless duplicate, never a gap).  Called from the append path
        once the active file crosses ``max_segment_bytes``.
        """
        self._fh.close()
        next_index = getattr(self, "_next_segment_index", None)
        if next_index is None:
            existing = self.segments()
            next_index = (self._segment_index(existing[-1].name) + 1) if existing else 1
        sealed = self._segment_path(next_index)
        os.replace(self.path, sealed)
        self._next_segment_index = next_index + 1
        if self.archive is not None:
            self.archive.put(sealed.name, sealed)
            sealed.unlink()
        self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(json.dumps({"op": "journal", "version": JOURNAL_FORMAT_VERSION}) + "\n")
        self._fh.flush()

    # -- compaction ----------------------------------------------------
    def compact(self) -> None:
        """Rewrite the journal to its minimal equivalent state, atomically.

        Keeps one ``cell`` record per live cell plus the in-flight
        rollout marker and per-window progress (so a resume after a
        crash-during-compaction or post-compaction restart still has
        the full prefix).  The replacement is a write-to-temp +
        ``os.replace``, so a crash mid-compaction leaves either the old
        or the new file, never a torn one.

        A rotated journal collapses back to a single active file: the
        compacted file opens with a ``compact`` marker — "the state
        resets here" — so replay discards anything from sealed
        segments a crash may have left behind, then the stale segments
        are deleted.  (Unlink-after-replace is the crash-safe order:
        the marker makes leftover segments harmless, whereas deleting
        first would lose history if the replace never happened.)
        """
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"op": "journal", "version": JOURNAL_FORMAT_VERSION}) + "\n")
            fh.write(json.dumps({"op": "compact"}) + "\n")
            for cid in sorted(self._cells):
                fh.write(json.dumps(self._cells[cid]) + "\n")
            if self._step_s is not None and any(self._windows.values()):
                fh.write(json.dumps({"op": "rollout", "step_s": self._step_s}) + "\n")
                for cid in sorted(self._windows):
                    for w in sorted(self._windows[cid]):
                        record = {"op": "w", "id": cid, "w": w, "soc": self._windows[cid][w]}
                        fh.write(json.dumps(record) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if self._fh is not None:
            self._fh.close()
        os.replace(tmp, self.path)
        for segment in self.segments():
            segment.unlink()
        if self.archive is not None:
            # archived history is now redundant with the compacted file;
            # delete after the replace for the same crash-safe ordering
            for name in self.archived_segments():
                self.archive.delete(name)
        self._next_segment_index = 1
        self._appended = 0
        self._open()

    def close(self) -> None:
        """Flush and close the append handle (the journal stays reopenable)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> StateJournal:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _open(self) -> None:
        self._fresh = not self.path.exists() or self.path.stat().st_size == 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    def _append(self, record: dict) -> None:
        self._append_many([record])

    def _append_many(self, records: list[dict]) -> None:
        if not records:
            return
        if self._fh is None:
            raise ValueError(f"journal {self.path} is closed")
        self._fh.write("".join(json.dumps(record) + "\n" for record in records))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._appended += len(records)
        if self.max_segment_bytes and self._fh.tell() >= self.max_segment_bytes:
            self._rotate()
        if self.compact_every and self._appended >= self.compact_every:
            self.compact()

    def _load_file(self, path: Path, allow_torn: bool) -> None:
        """Replay one journal file (a sealed segment or the active file)."""
        data = path.read_bytes()
        lines = data.splitlines(keepends=True)
        offset = 0
        for k, raw_line in enumerate(lines):
            line = raw_line.decode("utf-8", errors="replace").strip()
            if not line:
                offset += len(raw_line)
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if allow_torn and k == len(lines) - 1:
                    # torn final line from a crash mid-write: truncate it
                    # away so the next append starts on a clean boundary
                    # instead of gluing onto the fragment
                    with open(path, "r+b") as fh:
                        fh.truncate(offset)
                    return
                raise ValueError(f"corrupt journal {path}: bad record on line {k + 1}")
            op = record.get("op")
            if op == "cell":
                self._cells[record["id"]] = record
            elif op == "drop":
                self._cells.pop(record["id"], None)
                self._windows.pop(record["id"], None)
            elif op == "rollout":
                self._windows.clear()
                self._step_s = float(record["step_s"])
            elif op == "w":
                self._windows.setdefault(record["id"], {})[int(record["w"])] = float(record["soc"])
            elif op == "compact":
                # everything before this marker was collapsed into the
                # records that follow; discard any state replayed from
                # segments a crash-during-compaction left behind
                self._cells.clear()
                self._windows.clear()
                self._step_s = None
            elif op == "journal":
                if record.get("version", 0) > JOURNAL_FORMAT_VERSION:
                    raise ValueError(
                        f"journal {path} uses format v{record['version']} "
                        f"(this build reads up to v{JOURNAL_FORMAT_VERSION})"
                    )
            else:
                raise ValueError(f"corrupt journal {path}: unknown op {op!r}")
            offset += len(raw_line)
