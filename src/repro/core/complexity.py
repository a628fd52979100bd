"""Parameter / memory / operation accounting (Table I's Mem and Ops columns).

The paper's deployment argument rests on the model's footprint: 2,322
parameters (~9 kB at float32) and on the order of a thousand operations
per inference, versus megabytes and hundreds of millions of operations
for the LSTM state of the art.  This module computes those numbers
analytically from the architecture so the comparison table can be
regenerated rather than quoted.
"""

from __future__ import annotations

import dataclasses

from ..nn.layers import MLP, Linear, Module
from ..nn.recurrent import LSTMRegressor

__all__ = ["ComplexityReport", "mlp_complexity", "lstm_complexity", "model_complexity"]

_BYTES_PER_PARAM = 4  # float32 deployment, as the paper assumes


@dataclasses.dataclass(frozen=True)
class ComplexityReport:
    """Static cost of one inference pass.

    Attributes
    ----------
    parameters:
        Trainable scalar count.
    memory_bytes:
        Parameter storage at float32.
    macs:
        Multiply-accumulate operations per inference.
    ops:
        Total arithmetic ops per inference (2 per MAC plus activation
        and elementwise work).
    """

    parameters: int
    memory_bytes: int
    macs: int
    ops: int

    def __add__(self, other: "ComplexityReport") -> "ComplexityReport":
        return ComplexityReport(
            parameters=self.parameters + other.parameters,
            memory_bytes=self.memory_bytes + other.memory_bytes,
            macs=self.macs + other.macs,
            ops=self.ops + other.ops,
        )

    def memory_kib(self) -> float:
        """Parameter storage in KiB."""
        return self.memory_bytes / 1024.0


def _linear_macs(layer: Linear) -> int:
    return layer.in_features * layer.out_features


def mlp_complexity(mlp: MLP) -> ComplexityReport:
    """Complexity of one forward pass through an MLP."""
    macs = sum(_linear_macs(layer) for layer in mlp.net.layers if isinstance(layer, Linear))
    act_ops = sum(mlp.hidden)  # one ReLU per hidden unit
    bias_adds = sum(layer.out_features for layer in mlp.net.layers if isinstance(layer, Linear))
    params = mlp.num_parameters()
    ops = 2 * macs + bias_adds + act_ops
    return ComplexityReport(
        parameters=params,
        memory_bytes=params * _BYTES_PER_PARAM,
        macs=macs,
        ops=ops,
    )


def lstm_complexity(model: LSTMRegressor, seq_len: int) -> ComplexityReport:
    """Complexity of one forward pass through the LSTM baseline.

    Parameters
    ----------
    model:
        The Wong-style LSTM regressor.
    seq_len:
        Input window length (each timestep re-runs every gate).
    """
    if seq_len <= 0:
        raise ValueError("sequence length must be positive")
    macs = 0
    elementwise = 0
    for cell in model.lstm.cells:
        gate_macs = cell.input_size * 4 * cell.hidden_size + cell.hidden_size * 4 * cell.hidden_size
        macs += gate_macs * seq_len
        # gate nonlinearities + state updates, ~10 elementwise ops per unit
        elementwise += 10 * cell.hidden_size * seq_len
    macs += _linear_macs(model.dense) + _linear_macs(model.head)
    elementwise += model.dense.out_features  # ReLU
    params = model.num_parameters()
    return ComplexityReport(
        parameters=params,
        memory_bytes=params * _BYTES_PER_PARAM,
        macs=macs,
        ops=2 * macs + elementwise,
    )


def model_complexity(model: Module, seq_len: int | None = None) -> ComplexityReport:
    """Dispatch on supported model families.

    For the two-branch network, pass the model itself; for LSTM
    baselines also give the input window length.
    """
    from .model import TwoBranchSoCNet  # local import avoids a cycle

    if isinstance(model, TwoBranchSoCNet):
        return mlp_complexity(model.branch1.mlp) + mlp_complexity(model.branch2.mlp)
    if isinstance(model, LSTMRegressor):
        if seq_len is None:
            raise ValueError("LSTM complexity needs the input sequence length")
        return lstm_complexity(model, seq_len)
    if isinstance(model, MLP):
        return mlp_complexity(model)
    raise TypeError(f"unsupported model type {type(model).__name__}")
