"""Weight initialization for :mod:`repro.nn` layers.

The initializer takes an explicit :class:`numpy.random.Generator` so that
every experiment in the reproduction is exactly seedable (the paper reports
averages over 5 random seeds; see ``repro.eval.harness``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["kaiming_uniform"]


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 2:
        raise ValueError(f"need at least 2 dimensions to compute fans, got {shape}")
    fan_in, fan_out = shape[0], shape[1]
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    return fan_in * receptive, fan_out * receptive


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator, a: float = math.sqrt(5.0)) -> np.ndarray:
    """He/Kaiming uniform initialization (the default for ReLU stacks)."""
    fan_in, _ = _fan_in_out(shape)
    gain = math.sqrt(2.0 / (1.0 + a**2))
    bound = gain * math.sqrt(3.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)
