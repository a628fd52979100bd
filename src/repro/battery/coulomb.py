"""Coulomb counting — the physics behind the paper's PINN loss (Eq. 1).

The paper regularizes its predictive branch with the first-order charge
balance

.. math::

    SoC_p(t + N_p) = SoC(t) - \\frac{1}{C_{rated}} \\int_t^{t+N_p} I\\,dt

(with our sign convention: positive current discharges the cell, so the
integral is subtracted).  These helpers implement that equation for
scalars, arrays, and sampled current traces, and are shared by the
physics loss (:mod:`repro.core.physics`), the Physics-Only baseline and
the battery simulator's ground-truth SoC integration.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "delta_soc",
    "predict_soc",
    "integrate_current",
    "soc_trajectory",
]

SECONDS_PER_HOUR = 3600.0


def delta_soc(current_a, horizon_s, capacity_ah):
    """SoC change caused by drawing ``current_a`` for ``horizon_s`` seconds.

    Parameters
    ----------
    current_a:
        Average current in amperes; positive discharges.
    horizon_s:
        Elapsed time in seconds (the paper's ``N`` / ``Np``).
    capacity_ah:
        Rated capacity :math:`C_{rated}` in ampere-hours: one value, or
        one per row (mixed-chemistry batches).

    Returns
    -------
    float or numpy.ndarray
        Negative for discharge, positive for charge.  Broadcasts over
        array inputs.
    """
    capacity_ah = np.asarray(capacity_ah, dtype=np.float64)
    if np.any(capacity_ah <= 0):
        raise ValueError("capacity must be positive")
    return -np.asarray(current_a, dtype=np.float64) * np.asarray(horizon_s, dtype=np.float64) / (
        capacity_ah * SECONDS_PER_HOUR
    )


def predict_soc(soc_now, current_a, horizon_s, capacity_ah, clip: bool = False):
    """Coulomb-counting SoC prediction (Eq. 1 of the paper).

    Parameters
    ----------
    soc_now:
        SoC at time ``t`` (fraction of rated capacity).
    current_a, horizon_s, capacity_ah:
        As in :func:`delta_soc`.
    clip:
        When true, clamp the result to [0, 1].  The paper's physics
        loss does *not* clip (the NN output is an unrestricted scalar),
        so the default is off.

    Returns
    -------
    float or numpy.ndarray
    """
    predicted = np.asarray(soc_now, dtype=np.float64) + delta_soc(current_a, horizon_s, capacity_ah)
    if clip:
        predicted = np.clip(predicted, 0.0, 1.0)
    return predicted if predicted.shape else float(predicted)


def integrate_current(current_a: np.ndarray, dt_s: float) -> float:
    """Total charge (coulombs) in a sampled current trace.

    Uses the rectangle rule, matching the simulator's forward-Euler
    charge bookkeeping exactly (important for conservation tests).
    """
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    return float(np.sum(np.asarray(current_a, dtype=np.float64)) * dt_s)


def soc_trajectory(soc0: float, current_a: np.ndarray, dt_s: float, capacity_ah: float) -> np.ndarray:
    """Cumulative Coulomb-counting SoC along a sampled current trace.

    Returns an array the same length as ``current_a`` where entry ``k``
    is the SoC *after* the first ``k+1`` samples have been applied.
    """
    if dt_s <= 0:
        raise ValueError("dt must be positive")
    if capacity_ah <= 0:
        raise ValueError("capacity must be positive")
    charge = np.cumsum(np.asarray(current_a, dtype=np.float64)) * dt_s
    return soc0 - charge / (capacity_ah * SECONDS_PER_HOUR)
