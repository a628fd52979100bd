"""Minibatch utilities for training loops.

A :class:`TensorDataset` pairs feature and target arrays, and
:class:`DataLoader` yields them in minibatches reshuffled every epoch
by the caller's generator (numpy arrays, converted to tensors inside the
training loop, where gradient tracking starts).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["TensorDataset", "DataLoader"]


class TensorDataset:
    """Dataset wrapping equally-long arrays; indexing returns row tuples."""

    def __init__(self, *arrays: np.ndarray):
        if not arrays:
            raise ValueError("TensorDataset needs at least one array")
        lengths = {len(a) for a in arrays}
        if len(lengths) != 1:
            raise ValueError(f"arrays have mismatched lengths: {sorted(lengths)}")
        self.arrays = tuple(np.asarray(a) for a in arrays)

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, index):
        return tuple(a[index] for a in self.arrays)


class DataLoader:
    """Iterate shuffled minibatches over a :class:`TensorDataset`.

    Parameters
    ----------
    dataset:
        The dataset to draw from.
    batch_size:
        Number of rows per batch (the last batch may be shorter).
    rng:
        Generator that reshuffles the row order at the start of every
        epoch (deterministic experiments).
    """

    def __init__(self, dataset: TensorDataset, batch_size: int, rng: np.random.Generator):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self._rng = rng

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        n = len(self.dataset)
        indices = np.arange(n)
        self._rng.shuffle(indices)
        for start in range(0, n, self.batch_size):
            batch = indices[start : start + self.batch_size]
            yield self.dataset[batch]
