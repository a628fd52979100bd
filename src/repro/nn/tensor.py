"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of :mod:`repro.nn`, the small deep-learning
substrate used throughout the reproduction (the paper trains its networks
with a conventional deep-learning stack; this module provides equivalent
semantics without external dependencies).

The design is a vectorized tape: every :class:`Tensor` produced by an
operation remembers its parent tensors and a closure that accumulates
gradients into them.  Calling :meth:`Tensor.backward` topologically sorts
the tape and runs the closures in reverse order.

Broadcasting follows numpy semantics; gradients flowing into a broadcast
operand are summed over the broadcast axes (see :func:`unbroadcast`).

Example
-------
>>> x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([2., 4., 6.])
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence, Union

import numpy as np

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
]

ArrayLike = Union["Tensor", np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking.

    Operations executed inside the block produce tensors with
    ``requires_grad=False`` and record nothing on the tape.  Mirrors the
    usual deep-learning-framework idiom for inference-only code paths.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over axes that were added or expanded by broadcasting.

    Parameters
    ----------
    grad:
        Gradient with the broadcast (output) shape.
    shape:
        The original shape of the operand the gradient must match.

    Returns
    -------
    numpy.ndarray
        Gradient reshaped to ``shape``.
    """
    if grad.shape == shape:
        return grad
    # Remove leading axes introduced by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes where the operand had size 1 but the output did not.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value: ArrayLike, dtype=None) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    arr = np.asarray(value, dtype=dtype)
    if arr.dtype.kind in "iub":  # promote integers/booleans to float
        arr = arr.astype(np.float64)
    return arr


def _as_tensor(value: ArrayLike) -> "Tensor":
    return value if isinstance(value, Tensor) else Tensor(value)


class Tensor:
    """A numpy array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Anything convertible to a floating-point numpy array.
    requires_grad:
        When true, gradients are accumulated into :attr:`grad` by
        :meth:`backward`.

    Notes
    -----
    Only floating-point tensors can require gradients.  In-place
    mutation of :attr:`data` is allowed for optimizer updates but must
    never be performed on tensors that participate in a live tape.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    # Make numpy defer to Tensor's reflected operators (e.g. np.float64 * Tensor).
    __array_priority__ = 100.0

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data = _as_array(data)
        if requires_grad and self.data.dtype.kind != "f":
            raise TypeError("only floating-point tensors can require gradients")
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def dtype(self):
        """Dtype of the underlying array."""
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array_repr(self.data)}{grad_note})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the tape."""
        return Tensor(self.data)

    def copy(self) -> "Tensor":
        """Return a tape-free deep copy of this tensor."""
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    # ------------------------------------------------------------------
    # tape plumbing
    # ------------------------------------------------------------------
    def _make_result(
        self,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        parents = tuple(p for p in parents if isinstance(p, Tensor))
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = unbroadcast(np.asarray(grad), self.data.shape)
        if self.grad is None:
            self.grad = grad.astype(self.data.dtype, copy=True)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: ArrayLike | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Gradient of the final objective with respect to this tensor.
            Defaults to 1.0, which is only valid for scalar tensors.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor without grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.broadcast_to(_as_array(grad), self.data.shape)

        # Topological order over the tape reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return self._make_result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return self._make_result(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return self._make_result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return self._make_result(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return self._make_result(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = _as_tensor(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if self.data.ndim == 2 else grad * other.data)
                else:
                    self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad) if other.data.ndim == 2 else grad * self.data)
                else:
                    other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return self._make_result(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return self._make_result(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return self._make_result(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self**0.5

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return self._make_result(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid, computed stably for large inputs."""
        x = np.atleast_1d(self.data)
        out_data = np.empty_like(x)
        pos = x >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out_data[~pos] = ex / (1.0 + ex)
        out_data = out_data.reshape(self.data.shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make_result(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward)

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at zero)."""
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return self._make_result(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside."""
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over the given axis (or all elements)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make_result(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis (or all elements)."""
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axis; ties split gradient evenly."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            out = out_data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
                out = np.expand_dims(out_data, axis=axis)
            mask = (self.data == out).astype(self.data.dtype)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(g * mask / counts)

        return self._make_result(out_data, (self,), backward)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Minimum over the given axis; ties split gradient evenly."""
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        """Return a tensor with the same data viewed in a new shape."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(self.data.shape))

        return self._make_result(out_data, (self,), backward)

    def flatten(self) -> "Tensor":
        """Return a 1-D view of the tensor."""
        return self.reshape(-1)

    def transpose(self, *axes) -> "Tensor":
        """Permute dimensions (reverse order when no axes are given)."""
        axes_t = axes if axes else None
        if axes_t is not None and len(axes_t) == 1 and isinstance(axes_t[0], (tuple, list)):
            axes_t = tuple(axes_t[0])
        out_data = self.data.transpose(axes_t)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axes_t is None:
                self._accumulate(np.asarray(grad).transpose())
            else:
                inverse = np.argsort(axes_t)
                self._accumulate(np.asarray(grad).transpose(inverse))

        return self._make_result(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        """Transposed view (reversed axes)."""
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full_grad = np.zeros_like(self.data)
                np.add.at(full_grad, index, grad)
                self._accumulate(full_grad)

        return self._make_result(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # comparisons (no gradient; returned as plain numpy arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        return self.data > _as_array(other)

    def __ge__(self, other: ArrayLike) -> np.ndarray:
        return self.data >= _as_array(other)

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        return self.data < _as_array(other)

    def __le__(self, other: ArrayLike) -> np.ndarray:
        return self.data <= _as_array(other)


# ----------------------------------------------------------------------
# free functions
# ----------------------------------------------------------------------
def tensor(data: ArrayLike, requires_grad: bool = False) -> Tensor:
    """Create a :class:`Tensor` (convenience constructor)."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    """Tensor of zeros with the given shape."""
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    """Tensor of ones with the given shape."""
    return Tensor(np.ones(shape), requires_grad=requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    """Tensor filled with ``value``."""
    return Tensor(np.full(shape, float(value)), requires_grad=requires_grad)


def arange(*args, requires_grad: bool = False) -> Tensor:
    """Float-valued ``numpy.arange`` wrapped in a tensor."""
    return Tensor(np.arange(*args, dtype=np.float64), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    """Standard-normal tensor; uses ``rng`` when provided for determinism."""
    gen = rng if rng is not None else np.random.default_rng()
    return Tensor(gen.standard_normal(shape), requires_grad=requires_grad)


def rand(*shape, rng: np.random.Generator | None = None, requires_grad: bool = False) -> Tensor:
    """Uniform ``[0, 1)`` tensor; uses ``rng`` when provided."""
    gen = rng if rng is not None else np.random.default_rng()
    return Tensor(gen.random(shape), requires_grad=requires_grad)


def cat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    anchor = tensors[0]
    return anchor._make_result(out_data, tensors, backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [_as_tensor(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(grad, i, axis=axis))

    anchor = tensors[0]
    return anchor._make_result(out_data, tensors, backward)


def where(condition: ArrayLike, a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise select ``a`` where ``condition`` else ``b``."""
    cond = _as_array(condition).astype(bool)
    a_t, b_t = _as_tensor(a), _as_tensor(b)
    out_data = np.where(cond, a_t.data, b_t.data)

    def backward(grad: np.ndarray) -> None:
        grad = np.asarray(grad)
        if a_t.requires_grad:
            a_t._accumulate(grad * cond)
        if b_t.requires_grad:
            b_t._accumulate(grad * ~cond)

    return a_t._make_result(out_data, (a_t, b_t), backward)


def maximum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise maximum; gradient follows the winning operand."""
    a_t, b_t = _as_tensor(a), _as_tensor(b)
    return where(a_t.data >= b_t.data, a_t, b_t)


def minimum(a: ArrayLike, b: ArrayLike) -> Tensor:
    """Elementwise minimum; gradient follows the winning operand."""
    a_t, b_t = _as_tensor(a), _as_tensor(b)
    return where(a_t.data <= b_t.data, a_t, b_t)
