"""Model checkpointing: save/load ``state_dict`` snapshots as ``.npz``.

The paper's deployment story (a 9 kB model running on a BMS/PMIC) makes
compact, dependency-free serialization part of the system; ``.npz`` keeps
that property while remaining loadable anywhere numpy exists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["save_state", "load_state", "peek_meta"]

_META_KEY = "__meta_json__"


def save_state(state: dict[str, np.ndarray], path: str | Path, meta: dict | None = None) -> None:
    """Write a name->array mapping (plus optional JSON metadata) to ``path``.

    Parameters
    ----------
    state:
        Typically the output of :meth:`repro.nn.layers.Module.state_dict`.
    path:
        Target file; the ``.npz`` suffix is appended by numpy if absent.
    meta:
        Optional JSON-serializable metadata (configs, seeds, metrics).
    """
    payload = dict(state)
    if _META_KEY in payload:
        raise ValueError(f"state may not contain reserved key {_META_KEY!r}")
    if meta is not None:
        payload[_META_KEY] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(str(path), **payload)


def load_state(path: str | Path) -> tuple[dict[str, np.ndarray], dict | None]:
    """Read back a state mapping and metadata written by :func:`save_state`."""
    with np.load(str(path)) as archive:
        meta = None
        state = {}
        for key in archive.files:
            if key == _META_KEY:
                meta = json.loads(archive[key].tobytes().decode("utf-8"))
            else:
                state[key] = archive[key]
    return state, meta


def peek_meta(path: str | Path) -> dict | None:
    """Read only the metadata of a checkpoint, skipping the weights.

    ``np.load`` maps the archive lazily, so this stays cheap even for
    large checkpoints — it is what lets a model registry index a whole
    directory of snapshots without materializing any weight arrays.
    """
    with np.load(str(path)) as archive:
        if _META_KEY not in archive.files:
            return None
        return json.loads(archive[_META_KEY].tobytes().decode("utf-8"))

