"""``repro.nn`` — a compact, dependency-free deep-learning substrate.

The paper trains small fully-connected networks (and compares against an
LSTM baseline) with a conventional deep-learning stack.  This package
provides equivalent building blocks implemented on numpy:

- :mod:`repro.nn.tensor` — reverse-mode autograd tensors;
- :mod:`repro.nn.layers` — modules (Linear, ReLU, MLP) and the weight
  export the compiled inference kernels consume;
- :mod:`repro.nn.recurrent` — LSTM layers for the SoA baseline;
- :mod:`repro.nn.losses` — the MAE loss;
- :mod:`repro.nn.optim` — Adam, cosine annealing, gradient clipping;
- :mod:`repro.nn.data` — array datasets and shuffled minibatch loaders;
- :mod:`repro.nn.serialization` — ``.npz`` checkpoints.

It holds only what a model, baseline or trainer in the reproduction
uses: every trainer runs Adam on MAE losses over ReLU MLPs (or the LSTM
baseline).

Gradients of every operation are validated against finite differences in
``tests/test_nn_tensor.py`` and ``tests/test_nn_gradcheck.py``.
"""

from . import init
from .data import DataLoader, TensorDataset
from .layers import MLP, Linear, Module, Parameter, ReLU, Sequential, export_affine_chain
from .losses import mae_loss
from .optim import Adam, CosineAnnealingLR, clip_grad_norm
from .recurrent import LSTM, LSTMCell, LSTMRegressor
from .serialization import load_state, peek_meta, save_state
from .tensor import (
    Tensor,
    arange,
    cat,
    full,
    is_grad_enabled,
    maximum,
    minimum,
    no_grad,
    ones,
    rand,
    randn,
    stack,
    tensor,
    where,
    zeros,
)

__all__ = [
    "Tensor",
    "tensor",
    "zeros",
    "ones",
    "full",
    "arange",
    "randn",
    "rand",
    "cat",
    "stack",
    "where",
    "maximum",
    "minimum",
    "no_grad",
    "is_grad_enabled",
    "init",
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Sequential",
    "MLP",
    "export_affine_chain",
    "LSTM",
    "LSTMCell",
    "LSTMRegressor",
    "mae_loss",
    "Adam",
    "CosineAnnealingLR",
    "clip_grad_norm",
    "TensorDataset",
    "DataLoader",
    "save_state",
    "load_state",
    "peek_meta",
]
