"""Neural-network modules (layers) for :mod:`repro.nn`.

The :class:`Module` base class provides parameter discovery and
``state_dict`` round-tripping; the concrete layers are exactly what the
paper's models need: fully-connected layers with ReLU activations (the
two-branch network of Sec. III-A, also the DE-PINN baseline's network).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .init import kaiming_uniform
from .tensor import Tensor

__all__ = ["Parameter", "Module", "Linear", "ReLU", "Sequential", "MLP", "export_affine_chain"]


class Parameter(Tensor):
    """A tensor that is registered as trainable by :class:`Module`."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically by :meth:`parameters`
    and :meth:`named_parameters`.
    """

    # -- forward ------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the layer output; must be overridden."""
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # -- parameter discovery -------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{i}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters as a flat list."""
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -- state dict -------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name->array snapshot of all parameters (copies)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values in place from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, param in own.items():
            value = np.asarray(state[name])
            if value.shape != param.data.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} vs {param.data.shape}")
            param.data = value.astype(param.data.dtype, copy=True)


class Linear(Module):
    """Fully-connected affine layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    rng:
        Generator used for initialization (Kaiming-uniform weights, then
        a uniform bias); a fresh default generator is used when omitted.
    """

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator | None = None):
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("layer widths must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(kaiming_uniform((in_features, out_features), rng))
        bound = 1.0 / np.sqrt(in_features)
        self.bias = Parameter(rng.uniform(-bound, bound, size=(out_features,)))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class MLP(Module):
    """Multi-layer ReLU perceptron with a configurable hidden stack.

    This is the building block used for both branches of the paper's
    network (Sec. III-A: hidden widths 16/32/16 with ReLU, single
    linear output unit).

    Parameters
    ----------
    in_features:
        Input width (3 for Branch 1, 4 for Branch 2).
    hidden:
        Sequence of hidden-layer widths.
    out_features:
        Output width (1 for a scalar SoC head).
    rng:
        Generator for deterministic initialization.
    """

    def __init__(
        self,
        in_features: int,
        hidden: tuple[int, ...] = (16, 32, 16),
        out_features: int = 1,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        widths = [in_features, *hidden]
        layers: list[Module] = []
        for w_in, w_out in zip(widths[:-1], widths[1:]):
            layers.append(Linear(w_in, w_out, rng=rng))
            layers.append(ReLU())
        layers.append(Linear(widths[-1], out_features, rng=rng))
        self.net = Sequential(*layers)
        self.in_features = in_features
        self.out_features = out_features
        self.hidden = tuple(hidden)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


def export_affine_chain(mlp: MLP) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """Flatten an :class:`MLP` into ``(weight, bias, activation)`` triples.

    This is the weight-export half of the compiled inference path (see
    :class:`repro.core.kernels.CompiledTwoBranchKernel`): the MLP is
    reduced to plain contiguous numpy blocks — one ``(in, out)`` weight
    matrix, one ``(out,)`` bias and an activation tag per affine stage —
    with no :class:`Module`/:class:`Tensor` machinery left.  Weights are
    *copies* detached from autograd, so a compiled consumer is a
    snapshot of the module at export time.

    Hidden stages export with ``"relu"`` and the linear head with
    ``"identity"``.

    Raises
    ------
    TypeError
        When ``mlp`` is not an :class:`MLP`, or its stack holds anything
        other than :class:`Linear` layers each followed by at most one
        :class:`ReLU`.
    """
    if not isinstance(mlp, MLP):
        raise TypeError(f"cannot export {type(mlp).__name__}: only an MLP compiles to a ReLU chain")
    staged: list[list] = []  # [Linear, tag] per affine stage
    for layer in mlp.net.layers:
        if isinstance(layer, Linear):
            staged.append([layer, "identity"])
        elif isinstance(layer, ReLU) and staged and staged[-1][1] == "identity":
            staged[-1][1] = "relu"
        else:
            raise TypeError(f"cannot export layer {layer!r} into a ReLU chain")
    return [
        (
            np.ascontiguousarray(lin.weight.data, dtype=np.float64),
            np.ascontiguousarray(lin.bias.data, dtype=np.float64),
            tag,
        )
        for lin, tag in staged
    ]
