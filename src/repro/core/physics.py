"""Coulomb-counting collocation sampling for the physics loss (Sec. III-B).

During training, each minibatch is accompanied by a batch of *randomly
generated* conditions — initial SoC, current, temperature, horizon —
whose target future SoC comes from Eq. 1 instead of labels:

.. math::

    SoC_p(t+N_p) = SoC(t) - \\frac{I \\cdot N_p}{3600\\, C_{rated}}

Currents/temperatures are drawn from the *empirical pool* of training
conditions ("the same current conditions of the dataset"), paired with
the matching cell capacity so mixed-chemistry campaigns keep Eq. 1
exact.  Horizons are drawn from the configured set
:math:`\\mathcal{N}`, which is what lets one network learn many
prediction horizons without any extra labels.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..battery import coulomb
from ..datasets.windowing import PredictionSamples
from .config import PhysicsConfig

__all__ = ["CollocationBatch", "CollocationSampler"]


@dataclasses.dataclass
class CollocationBatch:
    """One batch of physics collocation points.

    ``features`` columns are raw ``(SoC, I_avg, T_avg, N)``; ``targets``
    is the Coulomb-counting future SoC (Eq. 1, unclipped — the network
    output is an unrestricted scalar).
    """

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[1] != 4:
            raise ValueError("collocation features must be (n, 4)")
        if len(self.features) != len(self.targets):
            raise ValueError("features and targets must align")

    def __len__(self) -> int:
        return len(self.targets)


class CollocationSampler:
    """Draws collocation batches from an empirical condition pool.

    Parameters
    ----------
    pool:
        Training-set windows; their ``(i_avg, temp_avg, capacity_ah)``
        triplets form the empirical operating-condition pool.
    config:
        Horizon set and batch size.
    rng:
        Generator (one per training run, so 5-seed averages differ in
        their collocation draws too, as in the paper).
    """

    def __init__(self, pool: PredictionSamples, config: PhysicsConfig, rng: np.random.Generator):
        if len(pool) == 0:
            raise ValueError("empirical pool is empty")
        self.config = config
        self._currents = np.asarray(pool.i_avg, dtype=np.float64)
        self._temps = np.asarray(pool.temp_avg, dtype=np.float64)
        self._capacities = np.asarray(pool.capacity_ah, dtype=np.float64)
        self._rng = rng

    def sample(self, n: int | None = None) -> CollocationBatch:
        """Draw ``n`` collocation points (default: the configured size).

        Initial SoC is uniform on [0, 1]; current/temperature/capacity
        are drawn jointly from one pool row; the horizon is a uniform
        choice from the configured set.
        """
        n = n if n is not None else self.config.n_collocation
        if n <= 0:
            raise ValueError("batch size must be positive")
        rows = self._rng.integers(0, len(self._currents), size=n)
        soc0 = self._rng.uniform(0.0, 1.0, size=n)
        current = self._currents[rows]
        temp = self._temps[rows]
        capacity = self._capacities[rows]
        horizons = np.asarray(self.config.horizons_s)
        horizon = horizons[self._rng.integers(0, len(horizons), size=n)]
        targets = coulomb.predict_soc(soc0, current, horizon, capacity)
        features = np.column_stack([soc0, current, temp, horizon])
        return CollocationBatch(features=features, targets=targets)
