"""The optimizer, learning-rate schedule and gradient clipping of training.

Every training loop in the reproduction (the two-branch network, the
DE-PINN and LSTM baselines, the serving fine-tuner) runs Adam with the
standard moment decays, optionally under a cosine-annealed learning
rate, with global-norm gradient clipping.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .layers import Parameter

__all__ = ["Adam", "CosineAnnealingLR", "clip_grad_norm"]

# Kingma & Ba's defaults, which every trainer here uses
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so the global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging/tests).
    """
    params = [p for p in parameters if p.grad is not None]
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total


class Adam:
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply one update to every parameter that has a gradient."""
        self._step_count += 1
        bias1 = 1.0 - _BETA1**self._step_count
        bias2 = 1.0 - _BETA2**self._step_count
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= _BETA1
            m += (1.0 - _BETA1) * grad
            v *= _BETA2
            v += (1.0 - _BETA2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)


class CosineAnnealingLR:
    """Cosine-annealed learning rate from the base value down to ``eta_min``."""

    def __init__(self, optimizer: Adam, t_max: int, eta_min: float = 0.0):
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        self.optimizer = optimizer
        self.t_max = t_max
        self.eta_min = eta_min
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        """Advance one epoch and update the learning rate."""
        self.epoch = min(self.epoch + 1, self.t_max)
        cos = (1 + math.cos(math.pi * self.epoch / self.t_max)) / 2
        self.optimizer.lr = self.eta_min + (self.base_lr - self.eta_min) * cos
