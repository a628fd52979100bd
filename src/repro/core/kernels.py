"""Compiled inference kernels: the two-branch network without the graph.

The paper's model is 2,322 parameters (~9 kB) — a forward pass is four
tiny GEMMs per branch.  Running it through :mod:`repro.nn` builds one
autograd :class:`~repro.nn.tensor.Tensor` (a Python object plus a fresh
array) per layer per call, so the serving hot path is almost entirely
interpreter and allocator overhead, not arithmetic.

:class:`CompiledTwoBranchKernel` strips all of that out:

- the trained weights are exported once
  (:func:`repro.nn.layers.export_affine_chain`) into flat, contiguous
  weight blocks — no ``Module``/``Tensor`` objects survive;
- the fixed feature scalers are **fused into the first layer's affine
  transform** (``((x - o)/s) @ W + b == x @ (W/s) + (b - (o/s) @ W)``),
  so raw physical-unit inputs go straight into the first GEMM;
- biases ride inside the GEMMs as an extra **bias row** driven by a
  constant ones channel in the input buffer; the exported chain holds
  only ReLU hidden stages and an identity head, and ReLU maps 1 to 1
  exactly, so the channel propagates through the whole hidden stack
  and no stage needs a separate ``out += bias`` ufunc call;
- each forward is a fixed chain of ``np.dot(..., out=...)`` calls with
  in-place activations over **preallocated buffers** that grow
  geometrically with the largest batch seen, with the sliced views for
  the active batch size cached between calls — steady-state inference
  allocates nothing but the returned result row.

Numerics: the kernel runs in float64 and matches the Tensor path to
~1e-13 over full autoregressive rollouts (the only differences are
scaler-fusion and bias-row summation-order rounding at the
machine-epsilon level), far inside the fleet's 1e-9 equivalence
budget — the golden-equivalence suite in ``tests/test_core_kernels.py``
pins this.

The kernel is a *snapshot*: it copies the weights at construction.
After mutating the model (training, ``load_state_dict``), call
:meth:`CompiledTwoBranchKernel.refresh` or build a new kernel.
:class:`repro.serve.FleetEngine` compiles one kernel per distinct model
object and serves every ``estimate``/``predict``/``rollout_fleet``
through it.

**Fused-stack layout.**  A mixed-model batch (different registry
versions, canary cohorts) would otherwise pay one GEMM-chain dispatch
per model group.  :class:`FusedTwoBranchKernel` stacks *M* same-
architecture members' exported stage-``k`` blocks into one
``(M, q, p)`` tensor and runs the whole chain as **batched GEMMs**:
rows are scattered by their ``member`` index into a zero-padded
``(M, n_max, n_inputs+1)`` input tensor (``n_max`` = largest group),
each stage is a single ``np.matmul`` over all members at once, and the
final gather ``h[member[r], slot[r], 0]`` picks each row's own head.
Per-stage arithmetic is exactly the per-member GEMV sequence — padding
lanes compute bounded garbage on zeros that is never read — so results
match per-model dispatch to BLAS rounding (~1e-16, pinned at 1e-9 in
the test suite) while the per-model Python dispatch, slicing and
buffer wrangling collapse into one C-level call per stage.  The
stacked blocks are fresh copies, so members' kernels stay
independently usable.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..datasets.preprocessing import FeatureScaler
from ..monitor.tracing import TRACE_STATE as _TRACE_STATE
from ..nn.layers import export_affine_chain
from .model import TwoBranchSoCNet

__all__ = [
    "CompiledBranchKernel",
    "CompiledTwoBranchKernel",
    "FusedBranchKernel",
    "FusedTwoBranchKernel",
]

def _relu(out: np.ndarray) -> None:
    np.maximum(out, 0.0, out=out)


# in-place activation per exported tag (``None``: the identity head)
_ACTIVATIONS: dict[str, Callable[[np.ndarray], None] | None] = {"relu": _relu, "identity": None}


class CompiledBranchKernel:
    """One branch compiled to a fixed GEMM + in-place activation chain.

    Parameters
    ----------
    module:
        The branch's :class:`~repro.nn.layers.MLP`.
    scaler:
        The branch's fixed :class:`FeatureScaler`, fused into the first
        affine stage so the kernel consumes raw physical units.
    """

    def __init__(self, module, scaler: FeatureScaler):
        chain = export_affine_chain(module)
        if chain[0][0].shape[0] != scaler.n_features:
            raise ValueError(
                f"scaler has {scaler.n_features} features, first layer takes {chain[0][0].shape[0]}"
            )
        scales = np.asarray(scaler.scales, dtype=np.float64)
        offsets = np.asarray(scaler.offsets, dtype=np.float64)
        # (weight block with its bias row, in-place activation or None)
        self._stages: list[tuple[np.ndarray, Callable | None]] = []
        self._tags: list[str] = []  # activation tag per stage, for fused stacking
        for k, (weight, bias, tag) in enumerate(chain):
            if k == 0:
                # scaler fusion: raw x in, first hidden pre-activation out
                weight, bias = weight / scales[:, None], bias - (offsets / scales) @ weight
            # bias row: the input's ones channel turns the bias add into
            # one more GEMM row
            block = np.vstack([weight, bias])
            if k < len(chain) - 1:
                # extra column keeps the ones channel flowing: only the
                # bias row feeds it, so it computes exactly 1.0
                column = np.zeros((block.shape[0], 1))
                column[-1, 0] = 1.0
                block = np.hstack([block, column])
            self._stages.append((np.ascontiguousarray(block, dtype=np.float64), _ACTIVATIONS[tag]))
            self._tags.append(tag)
        self.n_inputs = int(chain[0][0].shape[0])
        self.n_outputs = int(chain[-1][0].shape[1])
        self._capacity = 0
        self._x: np.ndarray | None = None
        self._bufs: list[np.ndarray] = []
        # sliced views for the active batch size, rebuilt only when it changes
        self._n_active = -1
        self._xv: np.ndarray | None = None
        self._sv: list[tuple[np.ndarray, Callable | None, np.ndarray]] = []

    def num_bytes(self) -> int:
        """On-heap size of the flat weight blocks."""
        return int(sum(block.nbytes for block, _ in self._stages))

    @property
    def chain_signature(self) -> tuple:
        """Stage-layout fingerprint: fused stacking requires equal signatures.

        Two kernels with the same signature have identical block shapes
        and activation tags in every stage — exactly the conditions for
        their blocks to be stacked into one batched chain (weights may
        differ freely).
        """
        return tuple((tag, block.shape) for (block, _), tag in zip(self._stages, self._tags))

    def _activate(self, n: int) -> None:
        """Point the cached views at ``n``-row slices, growing buffers as needed."""
        if n > self._capacity:
            cap = max(n, 2 * self._capacity)
            self._x = np.empty((cap, self.n_inputs + 1))
            self._x[:, -1] = 1.0  # the ones channel driving bias rows
            self._bufs = [np.empty((cap, block.shape[1])) for block, _ in self._stages]
            self._capacity = cap
        self._xv = self._x[:n]
        self._sv = [(block, act, buf[:n]) for (block, act), buf in zip(self._stages, self._bufs)]
        self._n_active = n

    def forward_columns(self, cols: Sequence) -> np.ndarray:
        """Run the chain over per-feature columns in raw physical units.

        ``cols`` holds one scalar or 1-D array per input feature;
        arrays must share one length (length-1 arrays and scalars
        broadcast).  Returns a fresh ``(n,)`` array of the first output
        unit — the branches are scalar SoC heads.
        """
        cols = list(cols)
        if len(cols) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} feature columns, got {len(cols)}")
        n = 1
        for j, col in enumerate(cols):
            shape = getattr(col, "shape", None)
            if shape is None:
                if not isinstance(col, (int, float)):
                    cols[j] = col = np.asarray(col, dtype=np.float64)
                    shape = col.shape
                else:
                    continue
            if shape:
                if len(shape) != 1:
                    raise ValueError(f"feature columns must be scalars or 1-D, got shape {shape}")
                size = shape[0]
                if size != 1 and size != n:
                    if n != 1:
                        raise ValueError(f"feature columns disagree on batch size ({size} vs {n})")
                    n = size
        if n != self._n_active:
            self._activate(n)
        x = self._xv
        for j, col in enumerate(cols):
            x[:, j] = col
        h = x
        for block, act, out in self._sv:
            np.dot(h, block, out=out)
            if act is not None:
                act(out)
            h = out
        return h[:, 0].copy()


class FusedBranchKernel:
    """Several same-architecture branch kernels stacked into one batched chain.

    See the module docstring ("Fused-stack layout") for the stacked
    ``(M, q, p)`` construction and why padding lanes cannot contaminate
    real rows.  Members must share one
    :attr:`CompiledBranchKernel.chain_signature`; weights may differ.

    :meth:`forward_columns` takes the usual per-feature columns plus a
    ``member`` vector assigning each batch row to a member index, and
    returns each row's own member's scalar head — bit-for-bit the shape
    of running the per-member kernels over their row slices, without the
    per-member dispatch loop.
    """

    def __init__(self, members: Sequence[CompiledBranchKernel]):
        if not members:
            raise ValueError("fused kernel needs at least one member")
        self.members = list(members)
        head = self.members[0]
        signature = head.chain_signature
        for member in self.members[1:]:
            if member.chain_signature != signature:
                raise ValueError("fused members must share one exported chain architecture")
        self.n_members = len(self.members)
        self.n_inputs = head.n_inputs
        self.n_outputs = head.n_outputs
        self._in_stride = self.n_inputs + 1  # feature columns + the ones channel
        self._stages: list[tuple[np.ndarray, Callable | None]] = [
            (np.stack([member._stages[k][0] for member in self.members]), _ACTIVATIONS[tag])
            for k, tag in enumerate(head._tags)
        ]
        self._capacity = 0
        self._x: np.ndarray | None = None
        self._bufs: list[np.ndarray] = []
        self._n_active = -1
        self._xv: np.ndarray | None = None
        self._sv: list[tuple[np.ndarray, Callable | None, np.ndarray]] = []

    def num_bytes(self) -> int:
        """On-heap size of the stacked weight blocks."""
        return int(sum(block.nbytes for block, _ in self._stages))

    def _activate(self, n_max: int) -> None:
        """Point the cached views at ``n_max``-row group slices, growing as needed."""
        if n_max > self._capacity:
            cap = max(n_max, 2 * self._capacity)
            self._x = np.empty((self.n_members, cap, self._in_stride))
            self._bufs = [np.empty((self.n_members, cap, block.shape[2])) for block, _ in self._stages]
            self._capacity = cap
        self._xv = self._x[:, :n_max]
        self._sv = [(block, act, buf[:, :n_max]) for (block, act), buf in zip(self._stages, self._bufs)]
        self._n_active = n_max

    def forward_columns(self, cols: Sequence, member: np.ndarray) -> np.ndarray:
        """Run the fused chain over raw feature columns with member routing.

        ``cols`` holds one scalar or length-``n`` array per input
        feature; ``member`` is the ``(n,)`` integer vector assigning each
        row to a member kernel (``0 <= member[r] < n_members``) and fixes
        the batch size.  Returns a fresh ``(n,)`` array where row ``r``
        is member ``member[r]``'s scalar head over row ``r``'s features.
        """
        cols = list(cols)
        if len(cols) != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} feature columns, got {len(cols)}")
        member = np.asarray(member, dtype=np.intp)
        if member.ndim != 1:
            raise ValueError(f"member vector must be 1-D, got shape {member.shape}")
        n = member.shape[0]
        if n == 0:
            return np.empty(0)
        counts = np.bincount(member, minlength=self.n_members)
        if counts.size > self.n_members:
            raise ValueError(f"member index out of range (n_members={self.n_members})")
        # slot[r] = row r's position inside its member's group: scatter
        # target (member[r], slot[r]) packs each group to the front of
        # its lane, padding lanes beyond a group's count stay zero
        order = np.argsort(member, kind="stable")
        starts = np.zeros(self.n_members, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        slot = np.empty(n, dtype=np.intp)
        slot[order] = np.arange(n) - starts[member[order]]
        n_max = int(counts.max())
        if n_max != self._n_active:
            self._activate(n_max)
        x = self._xv
        # padding lanes stay exactly 0.0 so their garbage is bounded
        x[...] = 0.0
        for j, col in enumerate(cols):
            x[member, slot, j] = col
        x[member, slot, self.n_inputs] = 1.0  # the ones channel driving bias rows
        h = x
        for block, act, out in self._sv:
            np.matmul(h, block, out=out)
            if act is not None:
                act(out)
            h = out
        return h[member, slot, 0]


class CompiledTwoBranchKernel:
    """Both branches and the cascade as allocation-free compiled chains.

    Mirrors the raw-physical-units inference API of
    :class:`~repro.core.model.TwoBranchSoCNet` (``estimate_soc`` /
    ``predict_soc`` / ``predict_from_sensors``), so the Tensor model can
    stand in as its golden reference call for call.

    Parameters
    ----------
    model:
        The trained network to export; kept as :attr:`model` so cache
        owners can detect staleness by identity.
    """

    def __init__(self, model: TwoBranchSoCNet):
        self.model = model
        self.branch1: CompiledBranchKernel
        self.branch2: CompiledBranchKernel
        self.refresh()

    def refresh(self) -> None:
        """Re-export the model's current weights into fresh blocks."""
        self.branch1 = CompiledBranchKernel(self.model.branch1.mlp, self.model.scaler1)
        self.branch2 = CompiledBranchKernel(self.model.branch2.mlp, self.model.scaler2)

    def num_bytes(self) -> int:
        """Total size of both branches' weight blocks."""
        return self.branch1.num_bytes() + self.branch2.num_bytes()

    # -- inference API (mirrors TwoBranchSoCNet) ------------------------
    # Tracing here is the inlined guard, not monitor.tracing.stage():
    # one thread-local getattr + is-None on the untraced path keeps the
    # compiled kernel inside the kernel_speedup benchmark gate.
    def estimate_soc(self, voltage, current, temp_c) -> np.ndarray:
        """Branch 1: estimate SoC(t) from raw sensor readings."""
        ctx = getattr(_TRACE_STATE, "ctx", None)
        if ctx is None:
            return self.branch1.forward_columns((voltage, current, temp_c))
        with ctx.tracer.span(ctx, "kernel.estimate"):
            return self.branch1.forward_columns((voltage, current, temp_c))

    def predict_soc(self, soc_now, current_avg, temp_avg_c, horizon_s) -> np.ndarray:
        """Branch 2: predict SoC(t+N) from a known SoC and workload."""
        ctx = getattr(_TRACE_STATE, "ctx", None)
        if ctx is None:
            return self.branch2.forward_columns((soc_now, current_avg, temp_avg_c, horizon_s))
        with ctx.tracer.span(ctx, "kernel.predict"):
            return self.branch2.forward_columns((soc_now, current_avg, temp_avg_c, horizon_s))

    def predict_from_sensors(
        self, voltage, current, temp_c, current_avg, temp_avg_c, horizon_s
    ) -> np.ndarray:
        """Full cascade: Branch 1 seeds Branch 2."""
        soc_now = self.estimate_soc(voltage, current, temp_c)
        return self.predict_soc(soc_now, current_avg, temp_avg_c, horizon_s)

    def __repr__(self) -> str:
        return f"CompiledTwoBranchKernel(bytes={self.num_bytes()}, model={self.model!r})"


class FusedTwoBranchKernel:
    """Several models' compiled kernels fused into one batched GEMM chain.

    Built from *already compiled* :class:`CompiledTwoBranchKernel`
    members (same architecture; weights differ), this serves a
    mixed-model batch with one GEMM chain per branch instead of one per
    model — :class:`repro.serve.FleetEngine` routes multi-model
    ``estimate``/``predict`` batches here and keeps :attr:`members` so it
    can detect staleness by member-kernel identity.

    Raises ``ValueError`` when the members' exported chains cannot be
    stacked (different layer shapes or activations).
    """

    def __init__(self, kernels: Sequence[CompiledTwoBranchKernel]):
        if not kernels:
            raise ValueError("fused kernel needs at least one member")
        self.members = tuple(kernels)
        self.branch1 = FusedBranchKernel([kernel.branch1 for kernel in self.members])
        self.branch2 = FusedBranchKernel([kernel.branch2 for kernel in self.members])

    @property
    def n_members(self) -> int:
        return len(self.members)

    def num_bytes(self) -> int:
        """Total size of both fused branches' weight blocks."""
        return self.branch1.num_bytes() + self.branch2.num_bytes()

    # -- inference API (member-routed; trace guard mirrors the member class)
    def estimate_soc(self, voltage, current, temp_c, member) -> np.ndarray:
        """Branch 1 for a mixed batch: row ``r`` uses model ``member[r]``."""
        ctx = getattr(_TRACE_STATE, "ctx", None)
        if ctx is None:
            return self.branch1.forward_columns((voltage, current, temp_c), member)
        with ctx.tracer.span(ctx, "kernel.estimate_fused"):
            return self.branch1.forward_columns((voltage, current, temp_c), member)

    def predict_soc(self, soc_now, current_avg, temp_avg_c, horizon_s, member) -> np.ndarray:
        """Branch 2 for a mixed batch: row ``r`` uses model ``member[r]``."""
        ctx = getattr(_TRACE_STATE, "ctx", None)
        if ctx is None:
            return self.branch2.forward_columns((soc_now, current_avg, temp_avg_c, horizon_s), member)
        with ctx.tracer.span(ctx, "kernel.predict_fused"):
            return self.branch2.forward_columns((soc_now, current_avg, temp_avg_c, horizon_s), member)

    def __repr__(self) -> str:
        return f"FusedTwoBranchKernel(members={self.n_members}, bytes={self.num_bytes()})"
