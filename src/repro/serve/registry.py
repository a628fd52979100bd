"""Versioned-checkpoint registry with channels and per-cell resolution.

A fleet mixes chemistries, datasets and horizon regimes; the serving
engine must pick the right 2,322-parameter checkpoint for every cell
without the caller hard-coding paths.  :class:`ModelRegistry` stores
checkpoints under one directory (one ``.npz`` per model *version*,
written via :mod:`repro.nn.serialization`), keeps a metadata index
built from :func:`repro.nn.peek_meta` (no weights are read until a
model is actually served), and resolves the most specific entry for a
``(chemistry, dataset)`` query.

**Versioning.**  Publishing a name never overwrites: each publish of
``name`` writes ``name@v{N}.npz`` with a monotonically increasing
version.  A sidecar ``channels.json`` maps each name's *channels*
(``stable``, ``canary``, ...) to versions; serving a bare ``name``
follows its ``stable`` pointer.  Model references accept three forms:

- ``"lg-a"`` — the name's stable channel;
- ``"lg-a@v3"`` — a pinned version (how canaries route cells);
- ``"lg-a@canary"`` — a live channel pointer.

:meth:`promote` repoints stable at the canary version (and clears the
canary); :meth:`rollback` abandons the canary.  Checkpoints written by
the unversioned v1 schema (``name.npz``) are still indexed, as version
1 of their name.

Resolution rules (:meth:`resolve`), most to least specific:

1. entries matching both the requested chemistry and dataset;
2. entries matching the chemistry (and not pinned to a different
   dataset);
3. entries matching the dataset and not specialized for a different
   chemistry;
4. *generalist* entries published without a chemistry.

An entry whose chemistry/dataset is set but differs from the query is
never considered a match on that axis.  Ties inside a tier break
deterministically on the lexicographically smallest name.  Resolution
considers each candidate name's entry *on the requested channel*.
"""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path

import numpy as np

from ..core.config import ModelConfig
from ..core.model import TwoBranchSoCNet
from ..nn.serialization import load_state, peek_meta, save_state

__all__ = ["ModelEntry", "ModelRegistry", "REGISTRY_SCHEMA_VERSION"]

REGISTRY_SCHEMA_VERSION = 2

_CHANNELS_FILE = "channels.json"


@dataclasses.dataclass(frozen=True)
class ModelEntry:
    """Index record for one published checkpoint version.

    Attributes
    ----------
    name:
        Registry name (shared by all versions).
    version:
        Monotonic publish counter for the name (1-based).
    path:
        Location of the ``.npz`` snapshot.
    chemistry:
        Chemistry the model was trained for (``None`` = generalist).
    dataset:
        Source campaign (``"sandia"``, ``"lg"``, ...; optional).
    hidden:
        Hidden-layer widths of both branches.
    horizon_scale_s:
        Branch 2 horizon normalization constant.
    extra:
        Remaining metadata stored with the checkpoint (seeds, losses).
    """

    name: str
    version: int
    path: Path
    chemistry: str | None
    dataset: str | None
    hidden: tuple[int, ...]
    horizon_scale_s: float
    extra: dict = dataclasses.field(default_factory=dict)

    @property
    def ref(self) -> str:
        """The pinned-version reference, e.g. ``"lg-a@v3"``."""
        return f"{self.name}@v{self.version}"


_RESERVED = {
    "registry_version",
    "name",
    "version",
    "chemistry",
    "dataset",
    "hidden",
    "horizon_scale",
}


class ModelRegistry:
    """Directory-backed store of versioned :class:`TwoBranchSoCNet` checkpoints.

    Parameters
    ----------
    root:
        Directory holding the checkpoints (created on first publish).
        Existing ``.npz`` files carrying registry metadata are indexed
        on construction, so a registry can be reopened across runs.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._entries: dict[str, ModelEntry] = {}  # keyed by "name@vN"
        self._versions: dict[str, set[int]] = {}  # name -> published versions
        self._channels: dict[str, dict[str, int]] = {}
        self._models: dict[str, TwoBranchSoCNet] = {}
        # (mtime_ns, size) of the channels file as last read; lets every
        # lookup cheaply notice out-of-process publishes/promotes (a
        # shard worker's registry follows the parent's channels.json)
        self._channels_sig: tuple[int, int] | None = None
        self._generation = 0
        self.refresh()

    # -- publishing ----------------------------------------------------
    def publish(
        self,
        name: str,
        model: TwoBranchSoCNet,
        chemistry: str | None = None,
        dataset: str | None = None,
        extra: dict | None = None,
        channel: str = "stable",
    ) -> ModelEntry:
        """Store a new version of ``name`` and point ``channel`` at it.

        Architecture metadata (hidden widths, horizon scale) is taken
        from the model itself so a later :meth:`load` can rebuild it
        without guessing; ``chemistry``/``dataset`` drive
        :meth:`resolve`.  Publishing to ``channel="canary"`` stages a
        candidate without touching what stable traffic serves.
        """
        if not name or "/" in name or "@" in name or name.startswith("."):
            raise ValueError(f"invalid model name {name!r}")
        if not channel or not channel.isidentifier():
            raise ValueError(f"invalid channel name {channel!r}")
        extra = dict(extra or {})
        if overlap := _RESERVED & set(extra):
            raise ValueError(f"extra metadata may not use reserved keys {sorted(overlap)}")
        self.root.mkdir(parents=True, exist_ok=True)
        version = max(self.versions(name), default=0) + 1
        path = self.root / f"{name}@v{version}.npz"
        meta = {
            "registry_version": REGISTRY_SCHEMA_VERSION,
            "name": name,
            "version": version,
            "chemistry": chemistry,
            "dataset": dataset,
            "hidden": list(model.config.hidden),
            "horizon_scale": model.config.horizon_scale_s,
            **extra,
        }
        save_state(model.state_dict(), path, meta=meta)
        entry = self._index(path, meta)
        self._channels.setdefault(name, {})[channel] = version
        self._save_channels()
        return entry

    # -- channel management --------------------------------------------
    def channels(self, name: str) -> dict[str, int]:
        """Channel -> version pointers for one name."""
        self._sync_channels()
        if name not in self._channels:
            raise KeyError(f"no model named {name!r}; have {self.names()}")
        return dict(self._channels[name])

    def set_channel(self, name: str, channel: str, version: int | None) -> None:
        """Point ``channel`` at ``version`` (or clear it with ``None``)."""
        if version is None:
            self._channels.get(name, {}).pop(channel, None)
        else:
            if version not in self.versions(name):
                raise KeyError(
                    f"model {name!r} has no version {version}; have {self.versions(name)}"
                )
            self._channels.setdefault(name, {})[channel] = version
        self._save_channels()

    def promote(self, name: str) -> int:
        """Make the canary version the new stable; returns that version.

        The canary pointer is cleared: a promoted candidate *is* the
        stable release, and cells pinned to its version can be rerouted
        back to bare-name (stable-channel) serving.
        """
        pointers = self.channels(name)
        if "canary" not in pointers:
            raise KeyError(f"model {name!r} has no canary to promote")
        version = pointers["canary"]
        self._channels[name]["stable"] = version
        del self._channels[name]["canary"]
        self._save_channels()
        return version

    def rollback(self, name: str) -> int:
        """Abandon the canary, keeping stable as it is; returns stable.

        Raises
        ------
        KeyError
            When the name has no active canary, or no stable to fall
            back to (a canary-only name must be promoted instead) —
            checked before anything is mutated, so a failed rollback
            never loses the canary pointer.
        """
        pointers = self.channels(name)
        if "canary" not in pointers:
            raise KeyError(f"model {name!r} has no canary to roll back")
        if "stable" not in pointers:
            raise KeyError(
                f"model {name!r} has no stable channel to fall back to; promote instead"
            )
        del self._channels[name]["canary"]
        self._save_channels()
        return self._channels[name]["stable"]

    # -- lookup --------------------------------------------------------
    @property
    def generation(self) -> int:
        """Counter that changes whenever a reference may load another model.

        Every publish, channel change and :meth:`refresh` bumps it, and
        so does a rewrite of ``channels.json`` by another process, which
        reading it notices with one ``stat``.  While it is unchanged,
        every reference resolves to the same version, so a server may
        keep what it built from :meth:`load`.
        """
        self._sync_channels()
        return self._generation

    def names(self) -> list[str]:
        """All published model names, sorted."""
        return sorted(self._versions)

    def versions(self, name: str) -> list[int]:
        """Published versions of one name, sorted (empty when unknown)."""
        return sorted(self._versions.get(name, ()))

    def entries(self) -> list[ModelEntry]:
        """All index records, sorted by name then version."""
        return sorted(self._entries.values(), key=lambda e: (e.name, e.version))

    def describe(self, ref: str) -> ModelEntry:
        """Index record for a model reference.

        Accepts a bare name (stable channel), ``name@vN``, or
        ``name@channel``.

        Raises
        ------
        KeyError
            When the reference does not resolve to a published version.
        """
        name, version = self._parse_ref(ref)
        return self._entries[f"{name}@v{version}"]

    def load(self, ref: str) -> TwoBranchSoCNet:
        """Materialize (and cache) the referenced model with its weights."""
        entry = self.describe(ref)
        if entry.ref not in self._models:
            model = TwoBranchSoCNet(
                ModelConfig(hidden=entry.hidden, horizon_scale_s=entry.horizon_scale_s),
                rng=np.random.default_rng(0),
            )
            state, _ = load_state(entry.path)
            model.load_state_dict(state)
            model.eval()
            self._models[entry.ref] = model
        return self._models[entry.ref]

    def resolve(
        self,
        chemistry: str | None = None,
        dataset: str | None = None,
        channel: str = "stable",
    ) -> str:
        """Reference of the most specific entry for a chemistry/dataset query.

        Only names carrying the requested ``channel`` participate, and
        each candidate is judged by the metadata of the version that
        channel points at.  The stable channel returns the bare name
        (so serving follows later promotes automatically); any other
        channel returns ``name@channel``.

        Raises
        ------
        KeyError
            When nothing matches (not even a generalist entry).
        """
        self._sync_channels()
        chemistry = chemistry.lower() if chemistry else None

        def conflicts(entry_value, query_value) -> bool:
            return entry_value is not None and query_value is not None and entry_value != query_value

        tiers: list[list[str]] = [[], [], [], []]
        for name in self.names():
            version = self._channels.get(name, {}).get(channel)
            if version is None:
                continue
            e = self._entries[f"{name}@v{version}"]
            chem_hit = chemistry is not None and e.chemistry == chemistry
            data_hit = dataset is not None and e.dataset == dataset
            if chem_hit and data_hit:
                tiers[0].append(name)
            elif chem_hit and not conflicts(e.dataset, dataset):
                tiers[1].append(name)
            elif data_hit and not conflicts(e.chemistry, chemistry):
                tiers[2].append(name)
            elif e.chemistry is None and not conflicts(e.dataset, dataset):
                tiers[3].append(name)
        for tier in tiers:
            if tier:
                return tier[0] if channel == "stable" else f"{tier[0]}@{channel}"
        raise KeyError(
            f"no model for chemistry={chemistry!r} dataset={dataset!r} "
            f"channel={channel!r}; published: {self.names()}"
        )

    def refresh(self) -> None:
        """Rebuild the index from the checkpoints on disk."""
        self._generation += 1
        self._entries.clear()
        self._versions.clear()
        self._channels.clear()
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*.npz")):
            meta = peek_meta(path)
            if meta is None or "registry_version" not in meta:
                continue  # plain checkpoint, not ours
            self._index(path, meta)
        channels_path = self.root / _CHANNELS_FILE
        if channels_path.exists():
            # record the signature of what we are about to read (stat
            # BEFORE read: a concurrent rewrite then re-triggers
            # _sync_channels rather than being masked) so a full
            # re-index also counts as having seen the current file —
            # without this, the next _sync_channels would re-read a file
            # refresh() just consumed
            try:
                stat = channels_path.stat()
                self._channels_sig = (stat.st_mtime_ns, stat.st_size)
            except OSError:
                pass
            raw = json.loads(channels_path.read_text(encoding="utf-8"))
            for name, pointers in raw.items():
                self._channels[name] = {
                    ch: int(v) for ch, v in pointers.items() if int(v) in self.versions(name)
                }
        # names the channel file does not cover at all (legacy dirs, or a
        # lost sidecar) serve their newest version; names it does cover
        # keep exactly their recorded pointers — a canary-only entry must
        # not become stable just because the process restarted
        for name in self.names():
            if name not in self._channels:
                self._channels[name] = {"stable": max(self.versions(name))}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, ref: str) -> bool:
        try:
            self._parse_ref(ref)
        except KeyError:
            return False
        return True

    # ------------------------------------------------------------------
    def _parse_ref(self, ref: str, _retry: bool = True) -> tuple[str, int]:
        self._sync_channels()
        try:
            return self._parse_ref_once(ref)
        except KeyError:
            if not _retry:
                raise
            # the reference may name a version/channel another process
            # just published (a canary staged by the parent, resolved by
            # a shard worker): re-index from disk once and retry
            self.refresh()
            return self._parse_ref(ref, _retry=False)

    def _parse_ref_once(self, ref: str) -> tuple[str, int]:
        name, sep, tag = ref.partition("@")
        if name not in self._versions:
            raise KeyError(f"no model named {name!r}; have {self.names()}")
        if not sep:
            tag = "stable"
        if tag.startswith("v") and tag[1:].isdigit():
            version = int(tag[1:])
            if version not in self._versions[name]:
                raise KeyError(
                    f"model {name!r} has no version {version}; have {self.versions(name)}"
                )
            return name, version
        version = self._channels.get(name, {}).get(tag)
        if version is None:
            raise KeyError(
                f"model {name!r} has no {tag!r} channel; have {self.channels(name)}"
            )
        return name, version

    def _sync_channels(self) -> None:
        """Re-read ``channels.json`` when another process changed it.

        One ``stat`` per lookup keeps a live engine's bare-name and
        channel references following out-of-process promotes/rollbacks
        (the control plane runs in the parent, serving in shard worker
        children; the channels file is their shared source of truth).
        Version files are immutable, so entries only need re-indexing
        when a *reference* misses (see :meth:`_parse_ref`).
        """
        path = self.root / _CHANNELS_FILE
        try:
            stat = path.stat()
        except OSError:
            return
        signature = (stat.st_mtime_ns, stat.st_size)
        if signature == self._channels_sig:
            return
        self._channels_sig = signature
        self._generation += 1
        raw = json.loads(path.read_text(encoding="utf-8"))
        if any(
            int(version) not in self.versions(name)
            for name, pointers in raw.items()
            for version in pointers.values()
        ):
            # a pointer names a version this process has not indexed yet
            # (another process just published it): re-index from disk so
            # the pointer lands on a real entry instead of being dropped
            # — dropping it would leave resolve()/channels() without a
            # stable pointer until some _parse_ref retry re-indexed
            self.refresh()
            return
        self._channels = {
            name: {ch: int(v) for ch, v in pointers.items()}
            for name, pointers in raw.items()
        }
        for name in self.names():
            if name not in self._channels:
                self._channels[name] = {"stable": max(self.versions(name))}

    def _index(self, path: Path, meta: dict) -> ModelEntry:
        chemistry = meta.get("chemistry")
        entry = ModelEntry(
            name=meta["name"],
            version=int(meta.get("version", 1)),
            path=path,
            chemistry=chemistry.lower() if chemistry else None,
            dataset=meta.get("dataset"),
            hidden=tuple(meta["hidden"]),
            horizon_scale_s=float(meta["horizon_scale"]),
            extra={k: v for k, v in meta.items() if k not in _RESERVED},
        )
        self._entries[entry.ref] = entry
        self._versions.setdefault(entry.name, set()).add(entry.version)
        return entry

    def _save_channels(self) -> None:
        self._generation += 1
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.root / (_CHANNELS_FILE + ".tmp")
        tmp.write_text(json.dumps(self._channels, indent=2, sort_keys=True), encoding="utf-8")
        # the rename keeps the inode, so this is the signature of the
        # file that lands: recording it keeps _sync_channels from taking
        # this process's own write for another process's rewrite
        stat = tmp.stat()
        os.replace(tmp, self.root / _CHANNELS_FILE)
        self._channels_sig = (stat.st_mtime_ns, stat.st_size)
