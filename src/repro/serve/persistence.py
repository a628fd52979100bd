"""Durable per-cell serving state: one journal format, one journal reader.

Branch 2's recursion makes serving *stateful* — each cell's next
prediction consumes its last SoC — so :class:`StateJournal` keeps that
state in an append-only write-ahead log, and :func:`read_journal` is the
only code that reads one back: journal replay and the offline learner's
harvest (:mod:`repro.learn.harvest`) both consume its typed records.

**Format (v3).**  Every append is one frame: a :mod:`~repro.serve.wire`
frame (length prefix, JSON meta, raw numeric arrays) followed by the
big-endian ``zlib.crc32`` of prefix and body.  A ``journal`` frame with
the format version opens each file; every other frame is one record
(:class:`Cells`, :class:`Drop`, :class:`Rollout`, :class:`Roster`,
:class:`Window`, :class:`Compact`; ``serve/README.md`` tabulates their
layout).  Numbers that must come back exactly — SoCs, times, workloads
— ride as raw float64, so :meth:`FleetEngine.restore
<repro.serve.engine.FleetEngine.restore>` plus ``resume_rollout_fleet``
reproduce an uninterrupted rollout bit for bit; ids and integers ride in
the meta or, for a rollout's roster, one string block.  A batch beyond
half of :data:`~repro.serve.wire.MAX_FRAME_BYTES` is split over several
frames.  The JSONL journals of formats v1 and v2 are refused with an
error naming their version.

**Reading.**  :func:`read_journal` walks archived segments (fetched),
local sealed segments (``<name>.00001.seg``, ...), then the active
file.  A gap in the numbering raises
:class:`~repro.serve.archive.MissingSegmentError` unless the caller
budgets for it.  Only the active file may end in a torn frame (a crash
mid-append): a short frame, a short checksum or a checksum mismatch on
its last frame ends the replay at the last whole frame.  The same
damage anywhere else raises ``ValueError("corrupt journal ...")``.
"""

from __future__ import annotations

import collections
import dataclasses
import os
import re
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import wire
from .archive import MissingSegmentError
from .engine import CellState

__all__ = [
    "JOURNAL_FORMAT_VERSION",
    "Cells",
    "Compact",
    "Drop",
    "Gap",
    "JournalSnapshot",
    "Rollout",
    "Roster",
    "StateJournal",
    "Window",
    "read_journal",
]

# v3: columnar wire frames with a CRC.  v1 and v2 were JSONL and are refused.
JOURNAL_FORMAT_VERSION = 3

_SEGMENT_SUFFIX = "seg"
_U32 = struct.Struct(">I")
# payload bytes one frame may carry before a batch is split; half the
# wire's cap leaves room for the meta block
_FRAME_BUDGET = wire.MAX_FRAME_BYTES // 2


# -- records -------------------------------------------------------------
class Cells(NamedTuple):
    """A batch of cell states: ``fields[k]`` is ``(chemistry, model_key,
    soc, last_seen_s, n_requests)`` of cell ``ids[k]``.

    On disk: float64 SoC and last-seen-time columns (none for
    registrations) and meta lists of ids, request counts and profile
    indices; a profile ``[chemistry, model_key, has_soc, has_seen]``
    keeps ``None`` distinct from NaN.
    """

    ids: list[str]
    fields: list[tuple]


class Drop(NamedTuple):
    cell_id: str


class Rollout(NamedTuple):
    """A fleet rollout starts: the previous one's progress and roster reset."""

    step_s: float


class Roster(NamedTuple):
    """Cell ids interned into the rollout's roster from position ``at`` on."""

    ids: list[str]
    at: int


class Window(NamedTuple):
    """One rollout window: int32 roster positions and a float64 ``values``
    array whose row 0 is each cell's SoC after the window and whose rows
    1–4, absent on seeds and compacted windows, are the ``i_avg``/
    ``temp_avg``/``horizon_s``/``capacity_ah`` workload: 44 bytes per
    cell-window."""

    window: int
    cells: np.ndarray
    values: np.ndarray


class Compact(NamedTuple):
    """Compaction rewrote everything before this marker."""


class Gap(NamedTuple):
    """A missing segment the caller's ``max_gaps`` budget tolerated."""

    index: int


def _frame(record) -> tuple[str, dict, list]:
    """The wire ``(kind, meta, arrays)`` of one record."""
    if isinstance(record, Window):
        return "w", {"w": record.window}, [record.cells, record.values]
    if isinstance(record, Cells):
        profiles: dict[tuple, int] = {}
        profile = [
            profiles.setdefault((chem, key, soc is not None, seen is not None), len(profiles))
            for chem, key, soc, seen, _ in record.fields
        ]
        n_requests = [f[4] for f in record.fields]
        meta = {"ids": record.ids, "profile": profile, "n": n_requests, "profiles": list(profiles)}
        if not any(has_soc or has_seen for _, _, has_soc, has_seen in profiles):
            return "cells", meta, []  # registrations: no row has a float to carry
        # numpy reads None as NaN; the profile tells the two apart
        soc, seen = ([f[k] for f in record.fields] for k in (2, 3))
        return "cells", meta, [np.array(soc, dtype=np.float64), np.array(seen, dtype=np.float64)]
    if isinstance(record, Roster):
        return "roster", {"n": len(record.ids), "at": record.at}, [wire.encode_str_list(record.ids)]
    if isinstance(record, Drop):
        return "drop", {"id": record.cell_id}, []
    if isinstance(record, Rollout):
        return "rollout", {"step_s": record.step_s}, []
    return "compact", {}, []


def _record(frame: wire.V2Frame):
    """The record of one decoded frame (``None`` for the version header)."""
    kind, meta, arrays = frame.kind, frame.meta, frame.arrays
    if kind == "w":
        cells, values = arrays
        rows = values.shape[0] if values.ndim == 2 and values.shape[1] == len(cells) else 0
        if cells.dtype != np.int32 or values.dtype != np.float64 or rows not in (1, 5):
            raise ValueError(f"malformed window frame: arrays {[(a.dtype.str, a.shape) for a in arrays]}")
        return Window(int(meta["w"]), cells, values)
    if kind == "cells":
        ids, profile, n_requests, profiles = meta["ids"], meta["profile"], meta["n"], meta["profiles"]
        soc, seen = (a.tolist() for a in arrays) if arrays else ([None] * len(ids),) * 2
        if not len(ids) == len(profile) == len(n_requests) == len(soc) == len(seen):
            raise ValueError(f"cells frame columns disagree: {len(ids)} ids for {len(soc)} rows")
        fields = [
            (p[0], p[1], s if p[2] else None, t if p[3] else None, n)
            for p, s, t, n in zip(map(profiles.__getitem__, profile), soc, seen, n_requests)
        ]
        return Cells(ids, fields)
    if kind == "roster":
        return Roster(wire.decode_str_list(arrays[0], int(meta["n"])), int(meta["at"]))
    if kind == "drop":
        return Drop(str(meta["id"]))
    if kind == "rollout":
        return Rollout(float(meta["step_s"]))
    if kind == "compact":
        return Compact()
    if kind != "journal":
        raise ValueError(f"unknown op {kind!r}")
    if meta.get("version") != JOURNAL_FORMAT_VERSION:
        raise ValueError(f"format v{meta.get('version')} is not this build's v{JOURNAL_FORMAT_VERSION}")
    return None


def _encode(kind: str, meta: dict, arrays: list) -> list:
    buffers = wire.encode_v2(kind, meta, arrays)
    crc = 0
    for buffer in buffers:
        crc = zlib.crc32(buffer, crc)
    return [*buffers, _U32.pack(crc)]


_HEADER = b"".join(_encode("journal", {"version": JOURNAL_FORMAT_VERSION}, []))


def _frames(records: Iterable) -> bytes:
    """The frames of ``records``, each batch split to stay under the frame budget."""
    out = []
    for record in records:
        if isinstance(record, Window):
            n, row_bytes = len(record.cells), 44
        elif isinstance(record, (Cells, Roster)):
            # an id costs at most 12 bytes per character as escaped JSON
            n, row_bytes = len(record.ids), 40 + 12 * max(map(len, record.ids), default=0)
        else:
            n = row_bytes = 1
        step = max(1, _FRAME_BUDGET // row_bytes)
        for a in range(0, n, step):
            if n <= step:
                part = record
            elif isinstance(record, Window):
                part = Window(record.window, record.cells[a : a + step], record.values[:, a : a + step])
            elif isinstance(record, Roster):
                part = Roster(record.ids[a : a + step], record.at + a)
            else:
                part = Cells(record.ids[a : a + step], record.fields[a : a + step])
            out += _encode(*_frame(part))
    return b"".join(out)


# -- the reader ----------------------------------------------------------
def _segments(path: Path, archive=None) -> list[tuple[int, str]]:
    """``(index, name)`` of journal ``path``'s sealed segments in ``archive``
    (next to ``path`` without one), oldest first.  Any ``<name>.<NNNNN>.*``
    counts, so a leftover segment of another format is refused, not skipped."""
    prefix = f"{path.name}."
    names = archive.list(prefix=prefix) if archive else [p.name for p in path.parent.glob(prefix + "*")]
    found = []
    for name in names:
        stem, _, suffix = name[len(prefix) :].partition(".")
        if name.startswith(prefix) and stem.isdigit() and suffix and "." not in suffix:
            found.append((int(stem), name))
    return sorted(found)


def _file_records(data: bytes, source: str, active: bool = False, repair: Path | None = None) -> Iterator:
    """The records of one file's frames.  Only the last frame of the ``active``
    file may be torn: the replay then ends at the last whole frame, and with
    ``repair`` the file is truncated there.  Other damage raises ``ValueError``."""
    if data[:1] == b"{":
        found = re.search(rb'"version":\s*(\d+)', data.split(b"\n", 1)[0])
        raise ValueError(
            f"journal {source} is a JSONL journal (format v{int(found.group(1)) if found else 1}); "
            f"this build reads only format v{JOURNAL_FORMAT_VERSION}; open it with the build that wrote it"
        )
    view = memoryview(data)
    offset, end = 0, len(data)
    while offset < end:
        if end - offset < _U32.size:
            problem = "a torn length prefix"
        else:
            (length,) = _U32.unpack_from(data, offset)
            stop = offset + _U32.size + length
            if length > wire.MAX_FRAME_BYTES:
                raise ValueError(f"corrupt journal {source}: a {length}-byte frame at byte {offset}")
            if stop + _U32.size > end:
                problem = "a torn frame"
            elif zlib.crc32(view[offset:stop]) != _U32.unpack_from(data, stop)[0]:
                problem = "a checksum mismatch"
                active = active and stop + _U32.size == end  # only the last frame can be torn
            else:
                try:
                    record = _record(wire.decode_body(data[offset + _U32.size : stop]))
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    raise ValueError(f"corrupt journal {source}: {exc}") from exc
                if record is not None:
                    yield record
                offset = stop + _U32.size
                continue
        if not active:
            raise ValueError(f"corrupt journal {source}: {problem} at byte {offset}")
        if repair is not None:
            with open(repair, "r+b") as fh:
                fh.truncate(offset)
        return


def read_journal(path: str | Path, archive=None, max_gaps: int = 0, repair: bool = False) -> Iterator:
    """Every record of one journal: archived segments (fetched from
    ``archive`` unless present locally), local sealed segments, then the
    active file ``path``.

    Yields one :class:`Gap` per missing segment within the ``max_gaps``
    budget (beyond it: :class:`~repro.serve.archive.MissingSegmentError`).
    ``repair`` truncates a torn tail off the active file, so the next
    append starts on a frame boundary; without it the reader never
    writes (a harvest must not race the journal's owner).
    """
    path = Path(path)
    local: dict[int, list[Path]] = {}
    for index, name in _segments(path):
        local.setdefault(index, []).append(path.with_name(name))
    archived = dict(_segments(path, archive)) if archive is not None else {}
    top = max([*local, *archived], default=0)
    missing = [index for index in range(1, top + 1) if index not in local and index not in archived]
    if len(missing) > max_gaps:
        raise MissingSegmentError(
            f"journal {path.name} history has gaps: missing segment(s) {missing} "
            f"(have {sorted({*local, *archived})}; max_gaps={max_gaps})"
        )
    for index in range(1, top + 1):
        if index in local:
            for segment in local[index]:
                yield from _file_records(segment.read_bytes(), str(segment))
        elif index in archived:
            with tempfile.TemporaryDirectory(prefix="soc-journal-") as tmp:
                archive.fetch(archived[index], Path(tmp) / "segment")
                data = (Path(tmp) / "segment").read_bytes()
            yield from _file_records(data, archived[index])
        else:
            yield Gap(index)
    if path.exists():
        yield from _file_records(path.read_bytes(), str(path), active=True, repair=path if repair else None)


# -- the journal ---------------------------------------------------------
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
        Active journal file; created (with a format header) when
        missing, replayed into memory when present so an engine can
        pick up exactly where a previous process stopped.
    compact_every:
        Auto-compact after this many appended rows — cells and
        cell-windows, one per other frame (0 disables it).
    fsync:
        ``os.fsync`` after every append (default off): the default
        survives process crashes, this also OS/power failure, at one
        disk sync per batch.
    max_segment_bytes:
        Seal the active file as the next numbered segment once an
        append takes it past this size (0, the default, disables it).
    archive:
        Optional :class:`~repro.serve.archive.ArchiveStore`: sealed
        segments are shipped there and unlinked locally (a down store
        surfaces as an :class:`~repro.serve.archive.ArchiveError` on the
        append that sealed), and replay fetches them back — so a
        journal restores on a host that never wrote it.
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
        self._cells: dict[str, tuple] = {}  # cell id -> Cells fields
        self._new_rollout(None)
        self._appended = 0  # rows since the last compaction
        self._fh = None
        for record in read_journal(self.path, archive, repair=True):
            self._apply(record)
        local = _segments(self.path)
        archived = _segments(self.path, archive) if archive is not None else []
        self._next_segment = max((index for index, _ in local + archived), default=0) + 1
        if archive is not None:
            # a local segment here is one a crash left between rotation
            # and unlink: ship it if it never arrived, then drop it
            for segment in local:
                if segment not in archived:
                    archive.put(segment[1], self.path.with_name(segment[1]))
                self.path.with_name(segment[1]).unlink()
        self._open()

    # -- appending -----------------------------------------------------
    def append_cells(self, states: Iterable[CellState]) -> None:
        """Journal many cells' latest states as one frame: one write, one
        flush (and with ``fsync`` one disk sync) per batch, not per cell."""
        states = list(states)
        if states:
            fields = [(s.chemistry, s.model_key, s.soc, s.last_seen_s, s.n_requests) for s in states]
            self._append(Cells([s.cell_id for s in states], fields), len(states))

    def drop_cell(self, cell_id: str) -> None:
        """Journal the removal of a cell."""
        self._append(Drop(cell_id), 1)

    def begin_rollout(self, step_s: float) -> None:
        """Mark the start of a fleet rollout, clearing prior progress and roster."""
        self._append(Rollout(float(step_s)), 1)

    def intern(self, cell_ids: Sequence[str]) -> np.ndarray:
        """Roster positions (int32) of ``cell_ids`` in the current rollout.

        Ids new to the roster are added with one ``roster`` frame;
        :meth:`append_windows` takes the positions.
        """
        new = [cid for cid in dict.fromkeys(cell_ids) if cid not in self._position]
        if new:
            self._append(Roster(new, len(self._roster)), 0)
        return np.fromiter(map(self._position.__getitem__, cell_ids), dtype=np.int32, count=len(cell_ids))

    def append_windows(self, window: int, cells, soc, workload=None) -> None:
        """Journal one committed rollout window for many cells, as one frame.

        ``cells`` are roster positions from :meth:`intern`, ``soc`` the
        cells' SoC after ``window``.  ``workload`` is the ``(i_avg,
        temp_avg, horizon_s, capacity_ah)`` columns that produced it:
        replay ignores them, the offline learner trains on them
        (:mod:`repro.learn.harvest`), and compaction drops them.
        """
        values = np.array([soc] if workload is None else [soc, *workload], dtype=np.float64)
        cells = np.asarray(cells, dtype=np.int32)
        self._append(Window(int(window), cells, values.reshape(len(values), len(cells))), len(cells))

    # -- reading -------------------------------------------------------
    def snapshot(self) -> JournalSnapshot:
        """Current journal contents as detached copies."""
        windows: dict[int, dict[int, float]] = collections.defaultdict(dict)
        for w, cells, soc in self._windows:
            for position, value in zip(cells.tolist(), soc.tolist()):
                windows[position][w] = value
        by_id = {self._roster[position]: socs for position, socs in windows.items()}
        return JournalSnapshot(cells=self.cells(), windows=by_id, step_s=self._step_s)

    def cells(self) -> dict[str, CellState]:
        """Latest journaled state per cell, as detached copies (the snapshot's ``cells``)."""
        return {cid: CellState(cid, *fields) for cid, fields in self._cells.items()}

    def __len__(self) -> int:
        """Number of live cells in the journal."""
        return len(self._cells)

    def size_bytes(self) -> int:
        """On-disk size of the journal (active file plus local sealed segments)."""
        self._fh.flush()
        return self.path.stat().st_size + sum(seg.stat().st_size for seg in self.segments())

    # -- segment rotation ----------------------------------------------
    def segments(self) -> list[Path]:
        """Local sealed segment files, oldest first (with an ``archive``,
        transiently empty: see :meth:`archived_segments`)."""
        return [self.path.with_name(name) for _, name in _segments(self.path)]

    def archived_segments(self) -> list[str]:
        """Names of this journal's segments in the cold store, oldest first."""
        return [] if self.archive is None else [name for _, name in _segments(self.path, self.archive)]

    def _rotate(self) -> None:
        """Seal the active file as the next numbered segment: one ``rename``,
        then ship-then-unlink with an archive (a crash in between leaves a
        harmless duplicate, never a gap) and a fresh active file."""
        self._fh.close()
        sealed = self.path.with_name(f"{self.path.name}.{self._next_segment:05d}.{_SEGMENT_SUFFIX}")
        os.replace(self.path, sealed)
        self._next_segment += 1
        if self.archive is not None:
            self.archive.put(sealed.name, sealed)
            sealed.unlink()
        self._fh = open(self.path, "ab")
        self._fh.write(_HEADER)
        self._fh.flush()

    # -- compaction ----------------------------------------------------
    def compact(self) -> None:
        """Rewrite the journal to its minimal equivalent state, atomically.

        Keeps one row per live cell plus the current rollout's roster
        (positions unchanged, so those :meth:`intern` handed out stay
        valid) and per-window SoC, written to a temp file and
        ``os.replace``-d in.  The file opens with a ``compact`` marker,
        so replay discards whatever a crash left in sealed segments;
        those (local and archived) are deleted only after the replace,
        the crash-safe order.
        """
        records = [Compact(), Cells(list(self._cells), list(self._cells.values()))]
        if self._step_s is not None:
            records.append(Rollout(self._step_s))
        records.append(Roster(self._roster, 0))
        records.extend(Window(w, cells, soc[None]) for w, cells, soc in self._windows)
        tmp = self.path.with_suffix(self.path.suffix + ".compact")
        with open(tmp, "wb") as fh:
            fh.write(_HEADER + _frames(records))
            fh.flush()
            os.fsync(fh.fileno())
        if self._fh is not None:
            self._fh.close()
        os.replace(tmp, self.path)
        for segment in self.segments():
            segment.unlink()
        for name in self.archived_segments():
            self.archive.delete(name)
        self._next_segment = 1
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
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "ab")
        if fresh:
            self._append(None, 1)  # the format header

    def _append(self, record, rows: int) -> None:
        if self._fh is None:
            raise ValueError(f"journal {self.path} is closed")
        self._fh.write(_HEADER if record is None else _frames([record]))
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())
        self._apply(record)
        self._appended += rows
        if self.max_segment_bytes and self._fh.tell() >= self.max_segment_bytes:
            self._rotate()
        if self.compact_every and self._appended >= self.compact_every:
            self.compact()

    def _new_rollout(self, step_s: float | None) -> None:
        self._step_s = step_s
        self._roster: list[str] = []  # roster position -> cell id
        self._position: dict[str, int] = {}  # live cell id -> its roster position
        self._windows: list[tuple[int, np.ndarray, np.ndarray]] = []  # (window, positions, soc)

    def _apply(self, record) -> None:
        """Fold one record (appended or replayed) into the in-memory state."""
        if isinstance(record, Window):
            self._windows.append((record.window, np.array(record.cells), np.array(record.values[0])))
        elif isinstance(record, Cells):
            self._cells.update(zip(record.ids, record.fields))
        elif isinstance(record, Drop):
            self._cells.pop(record.cell_id, None)
            position = self._position.pop(record.cell_id, None)
            if position is not None:  # its windows go too; a re-interned id gets a new position
                self._windows = [(w, c[c != position], s[c != position]) for w, c, s in self._windows]
        elif isinstance(record, Roster):
            self._position.update(zip(record.ids, range(record.at, record.at + len(record.ids))))
            self._roster.extend(record.ids)
        elif isinstance(record, Rollout):
            self._new_rollout(record.step_s)
        elif isinstance(record, Compact):
            self._cells.clear()
            self._new_rollout(None)
