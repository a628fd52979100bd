"""The training loss of :mod:`repro.nn`.

The paper trains both branches with the Mean Absolute Error (Sec. III-B)
and adds a second MAE term computed on Coulomb-counting collocation
points (Eq. 2); the DE-PINN and LSTM baselines train on MAE too.
"""

from __future__ import annotations

from .tensor import Tensor

__all__ = ["mae_loss"]


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error ``mean(|prediction - target|)``."""
    if prediction.shape != target.shape:
        raise ValueError(f"prediction shape {prediction.shape} != target shape {target.shape}")
    return (prediction - target).abs().mean()
