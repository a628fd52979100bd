"""Output checks: every served number is compared with an independent oracle.

- live estimates against a direct ``CompiledTwoBranchKernel`` call on
  the same readings;
- a post-load estimate-then-predict pass against the Tensor-path
  ``TwoBranchSoCNet``;
- every rollout trajectory against ``model_rollout``.

All tolerances are absolute, 1e-9.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core.kernels import CompiledTwoBranchKernel
from repro.core.rollout import model_rollout
from repro.serve.registry import ModelRegistry

from common import CELL_NAMES, HORIZONS_S, STEP_S, Inputs

TOL = 1e-9
CHECK_CELLS = 64


def _mismatches(got, ref) -> int:
    """Entries differing by more than the tolerance (NaN counts as a miss)."""
    got = np.asarray(got, dtype=np.float64)
    return int(np.count_nonzero(~(np.abs(got - ref) <= TOL)))


class Oracle:
    """Reference answers, built from the registry's own checkpoints."""

    def __init__(self, inputs: Inputs):
        registry = ModelRegistry(inputs.registry_root)
        self.inputs = inputs
        self.models = {name: registry.load(name) for name in CELL_NAMES}
        self.kernels = {name: CompiledTwoBranchKernel(model) for name, model in self.models.items()}
        self.model_index = np.array([CELL_NAMES.index(name) for name in inputs.model_of])

    def estimate_mismatches(self, cells, voltage, current, temp_c, got) -> int:
        """Compare served estimates with the compiled kernel, row by row."""
        cells = np.asarray(cells)
        ref = np.full(len(cells), np.nan)
        members = self.model_index[cells]
        for u, name in enumerate(CELL_NAMES):
            rows = np.flatnonzero(members == u)
            if rows.size:
                ref[rows] = self.kernels[name].estimate_soc(voltage[rows], current[rows], temp_c[rows])
        return _mismatches(got, ref)

    def rollout_reference(self) -> np.ndarray:
        """Every cell's ``model_rollout`` trajectory, concatenated in fleet order."""
        cache: dict[tuple[str, int], np.ndarray] = {}
        parts = []
        for k, (_, cycle) in enumerate(self.inputs.pairs):
            key = (self.inputs.model_of[k], id(cycle))
            if key not in cache:
                cache[key] = model_rollout(self.models[key[0]], cycle, STEP_S).soc_pred
            parts.append(cache[key])
        return np.concatenate(parts)

    def rollout_mismatches(self, results, reference: np.ndarray) -> int:
        """Cells whose served trajectory differs from the reference (0 or all on a shape change)."""
        ids = self.inputs.ids
        lengths = [len(results[cid].soc_pred) for cid in ids]
        flat = np.concatenate([results[cid].soc_pred for cid in ids])
        if flat.shape != reference.shape:
            return len(ids)
        bad = ~(np.abs(flat - reference) <= TOL)
        if not bad.any():
            return 0
        return int(np.count_nonzero(np.add.reduceat(bad, np.cumsum([0, *lengths[:-1]]))))

    async def served_check(self, gateway, rng: np.random.Generator) -> tuple[int, int]:
        """Estimate then predict for a sample of cells through the gateway.

        Returns ``(attempted, mismatches)``; both answers are checked
        against the Tensor-path model, the predict chained from the
        Tensor estimate (the served predict starts from the stored SoC
        its estimate just wrote).
        """
        inputs = self.inputs
        cells = rng.choice(inputs.n, size=min(CHECK_CELLS, inputs.n), replace=False)
        current = rng.uniform(-8.0, 0.5, size=cells.size)
        temp_c = rng.uniform(10.0, 40.0, size=cells.size)
        horizon = rng.choice(HORIZONS_S, size=cells.size)
        voltage = inputs.first[cells, 0] - rng.uniform(0.0, 0.6, size=cells.size)
        ids = [inputs.ids[k] for k in cells]
        est = await asyncio.gather(
            *(gateway.estimate(cid, float(v), float(i), float(t)) for cid, v, i, t in zip(ids, voltage, current, temp_c))
        )
        pred = await asyncio.gather(
            *(gateway.predict(cid, float(i), float(t), float(h)) for cid, i, t, h in zip(ids, current, temp_c, horizon))
        )
        mismatches = 0
        for r, k in enumerate(cells):
            model = self.models[inputs.model_of[k]]
            soc = float(model.estimate_soc(voltage[r], current[r], temp_c[r])[0])
            nxt = float(model.predict_soc(soc, current[r], temp_c[r], horizon[r])[0])
            mismatches += not (est[r].ok and abs(est[r].value - soc) <= TOL)
            mismatches += not (pred[r].ok and abs(pred[r].value - nxt) <= TOL)
        return 2 * cells.size, mismatches
