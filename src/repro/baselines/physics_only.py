"""The "Physics-Only" baseline: Eq. 1 with no learning at all.

This is the configuration the paper plots as *Physics-Only* in Figs. 3
and 4: the predictive branch is replaced by plain Coulomb counting,
using the cell's rated capacity and the expected average current.  It
needs no training data, but it also cannot see voltage or temperature,
so its rollouts drift (Fig. 5) — the motivating contrast for the
hybrid PINN.
"""

from __future__ import annotations

import numpy as np

from ..battery import coulomb
from ..datasets.windowing import PredictionSamples

__all__ = ["PhysicsOnlyModel"]


class PhysicsOnlyModel:
    """Coulomb-counting SoC predictor (no parameters, no training).

    Parameters
    ----------
    capacity_ah:
        Rated capacity used when a sample set does not carry one.
    """

    def __init__(self, capacity_ah: float):
        if capacity_ah <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_ah = capacity_ah

    def predict_soc(self, soc_now, current_avg, temp_avg_c, horizon_s) -> np.ndarray:
        """Eq. 1: ``SoC(t+N) = SoC(t) - I_avg * N / (3600 * Crated)``.

        The temperature argument is accepted (same signature as the
        neural model) but ignored — exactly the deficiency the paper's
        NN compensates for.
        """
        del temp_avg_c  # physics-only ignores temperature
        out = coulomb.predict_soc(soc_now, current_avg, horizon_s, self.capacity_ah)
        return np.atleast_1d(np.asarray(out))

    def predict_samples(self, samples: PredictionSamples, soc_now: np.ndarray | None = None) -> np.ndarray:
        """Predict SoC(t+N) for windowed rows, honoring per-row capacity.

        Parameters
        ----------
        samples:
            Windowed rows.
        soc_now:
            Initial SoC per row.  In the paper's "Physics-Only"
            configuration this is the trained Branch 1's estimate (the
            second branch is replaced by Eq. 1, the first is kept);
            defaults to the dataset's ground truth.
        """
        soc0 = samples.soc_t if soc_now is None else np.asarray(soc_now, dtype=np.float64)
        if len(soc0) != len(samples):
            raise ValueError("soc_now must have one entry per sample row")
        return coulomb.predict_soc(soc0, samples.i_avg, samples.horizon_s, samples.capacity_ah)

    def rollout_step(self, soc: float, i_avg: float, temp_avg: float, horizon_s: float) -> float:
        """Autoregressive step for :func:`repro.core.rollout.rollout_cycle`."""
        del temp_avg
        return float(coulomb.predict_soc(soc, i_avg, horizon_s, self.capacity_ah))
