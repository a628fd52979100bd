"""Cold-store archival for sealed :class:`StateJournal` segments.

Segment rotation keeps the *active* journal file small, but sealed
segments still pile up on the serving host's disk.  This module is the
cold tier: a journal built with ``StateJournal(path, archive=store)``
**ships** each segment it seals to the store and deletes the local
copy, so the hot directory holds one active file per worker while
history lives wherever the store points (a directory today; the
:class:`ArchiveStore` surface is four methods so an object store can
slot in).  Lifecycle::

    append -> active file            (hot: one frame per append)
    rotate -> sealed <name>.NNNNN.seg -> put(), local copy unlinked (cold)
    replay -> fetch() archived segments, oldest first        (restore)
    compact-> one collapsed active file; delete() archived segments

Replay is the journal's own reader
(:func:`~repro.serve.persistence.read_journal`).  A journal's state is
the ordered union of its segments plus the active file, so a **missing
archived segment is corruption** — replaying around it would resurrect
dropped cells or forget live ones — and the reader raises
:class:`MissingSegmentError` naming the gap.  Restoring on a *different*
host than the one that crashed is ``StateJournal(path, archive=store)``
on an empty (or absent) local path.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path

__all__ = [
    "ArchiveError",
    "ArchiveStore",
    "DirectoryArchiveStore",
    "MissingSegmentError",
]


class ArchiveError(RuntimeError):
    """A cold-store operation failed."""


class MissingSegmentError(ArchiveError, ValueError):
    """A sealed segment the journal needs is in neither tier.

    Also a ``ValueError`` because it *is* a corruption diagnosis —
    callers that already treat corrupt journals as ``ValueError``
    (see :class:`~repro.serve.persistence.StateJournal`) catch it for
    free.
    """


class ArchiveStore:
    """Duck-typed cold store: four methods over named blobs.

    Segment names are flat strings (``<journal-name>.00001.seg``);
    per-worker journal file names already embed the shard (e.g.
    ``fleet.journal.shard2``), so one store serves a whole fleet
    without collisions.  Implementations must make :meth:`put`
    atomic-or-absent — a reader must never fetch a half-written
    segment.
    """

    def put(self, name: str, source: Path) -> None:
        """Ship a local file into the store under ``name``."""
        raise NotImplementedError

    def fetch(self, name: str, dest: Path) -> None:
        """Materialize ``name`` at ``dest``; :class:`MissingSegmentError` if absent."""
        raise NotImplementedError

    def list(self, prefix: str = "") -> list[str]:
        """Stored names starting with ``prefix``, sorted."""
        raise NotImplementedError

    def delete(self, name: str) -> None:
        """Remove ``name`` from the store (missing is not an error)."""
        raise NotImplementedError


class DirectoryArchiveStore(ArchiveStore):
    """An :class:`ArchiveStore` backed by a plain directory.

    The directory may be local, NFS, or a fuse-mounted bucket — the
    journal does not care.  ``put`` copies to a temp name in the store
    directory and ``os.replace``-renames it in, so a crashed ship
    leaves no half-segment a restore could read.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def put(self, name: str, source: Path) -> None:
        target = self.root / name
        tmp = self.root / f".{name}.tmp"
        try:
            shutil.copyfile(source, tmp)
            os.replace(tmp, target)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise ArchiveError(f"could not archive {name!r} to {self.root}: {exc}") from exc

    def fetch(self, name: str, dest: Path) -> None:
        source = self.root / name
        if not source.exists():
            raise MissingSegmentError(f"segment {name!r} is not in the archive at {self.root}")
        dest.parent.mkdir(parents=True, exist_ok=True)
        tmp = dest.with_name(f".{dest.name}.fetch")
        try:
            shutil.copyfile(source, tmp)
            os.replace(tmp, dest)
        except OSError as exc:
            tmp.unlink(missing_ok=True)
            raise ArchiveError(f"could not fetch {name!r} from {self.root}: {exc}") from exc

    def list(self, prefix: str = "") -> list[str]:
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_file() and not entry.name.startswith(".") and entry.name.startswith(prefix)
        )

    def delete(self, name: str) -> None:
        (self.root / name).unlink(missing_ok=True)

