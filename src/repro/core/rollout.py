"""Autoregressive multi-step SoC prediction (paper Fig. 2 / Fig. 5).

Branch 1 runs **once**, on the first sensor sample, to get the initial
SoC; Branch 2 then chains forward, each step feeding its own output
back as the next step's initial SoC, with the (planned or recorded)
workload supplying average current/temperature per step.  Voltage is
used only at the very first timestamp — the capability the paper
highlights in Sec. V-D.

The rollout driver is predictor-agnostic so the Physics-Only baseline
(pure Coulomb counting) and the neural models share one code path.
The window-averaging itself lives in :func:`plan_windows` (one cycle:
:func:`cycle_windows`) so the per-cell loop here and the batched fleet
path (:meth:`repro.serve.FleetEngine.rollout_fleet`) consume
*identical* workload numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Protocol, Sequence

import numpy as np

from ..datasets.base import CycleRecord
from .model import TwoBranchSoCNet

__all__ = [
    "RolloutResult",
    "StepHook",
    "StepPredictor",
    "WindowPlan",
    "WindowStack",
    "cycle_windows",
    "plan_windows",
    "rollout_cycle",
    "model_rollout",
]


class StepPredictor(Protocol):
    """One autoregressive step: ``soc(t) -> soc(t + horizon)``.

    Called with the current SoC estimate and the workload over the next
    window; must return the predicted SoC after the window.
    """

    def __call__(self, soc: float, i_avg: float, temp_avg: float, horizon_s: float) -> float: ...


StepHook = Callable[[int, float], None]
"""State snapshot hook: called as ``hook(window, soc)`` after each
committed rollout window (``window`` 0 is the initial estimate).  Lets
a caller stream the recursion state out — e.g. to a
:class:`repro.serve.StateJournal` — without owning the rollout loop."""


@dataclasses.dataclass
class RolloutResult:
    """Trajectory produced by an autoregressive rollout.

    ``time_s``/``soc_pred``/``soc_true`` share one entry per step
    boundary (including the initial point at index 0).  When the cycle
    length is not a multiple of the step, the last entry scores the
    trailing partial window and ``tail_s`` records its (shorter)
    duration; ``tail_s`` is 0 when the cycle divides evenly.
    """

    time_s: np.ndarray
    soc_pred: np.ndarray
    soc_true: np.ndarray
    initial_soc: float
    step_s: float
    tail_s: float = 0.0

    def __len__(self) -> int:
        return len(self.time_s)

    def mae(self) -> float:
        """Mean absolute error along the whole trajectory."""
        return float(np.mean(np.abs(self.soc_pred - self.soc_true)))

    def rmse(self) -> float:
        """Root-mean-square error along the whole trajectory."""
        return float(np.sqrt(np.mean((self.soc_pred - self.soc_true) ** 2)))

    def max_error(self) -> float:
        """Largest absolute error anywhere on the trajectory."""
        return float(np.max(np.abs(self.soc_pred - self.soc_true)))

    def final_error(self) -> float:
        """Absolute error at the last step (the paper's end-of-discharge check)."""
        return float(abs(self.soc_pred[-1] - self.soc_true[-1]))


@dataclasses.dataclass(frozen=True)
class WindowPlan:
    """Pre-computed per-window workload of one cycle at one step size.

    One row per autoregressive window, **including** the trailing
    partial window when the recorded cycle does not divide evenly into
    full steps (its shortened duration shows up in ``horizon_s``).

    Attributes
    ----------
    steps:
        Full-window length in samples.
    i_avg, t_avg:
        Measured-channel averages over each window (the workload fed to
        the predictor).
    horizon_s:
        Duration of each window in seconds; all entries equal
        ``steps * sampling_period`` except a possible shorter last one.
    time_s:
        Window-boundary timestamps, ``n_windows + 1`` entries (index 0
        is the cycle start).
    soc_true:
        Ground-truth SoC at the same boundaries.
    tail_s:
        Duration of the trailing partial window (0.0 when none).
    """

    steps: int
    i_avg: np.ndarray
    t_avg: np.ndarray
    horizon_s: np.ndarray
    time_s: np.ndarray
    soc_true: np.ndarray
    tail_s: float

    @property
    def n_windows(self) -> int:
        """Number of autoregressive windows (incl. any partial tail)."""
        return len(self.i_avg)


@dataclasses.dataclass(frozen=True)
class WindowStack:
    """Window plans of many cycles at one step, stacked into padded matrices.

    Cycle ``u`` of the planned sequence owns column ``u`` of the
    window-major workload matrices and row ``u`` of the boundary
    matrices; every entry past its last window is NaN.  :meth:`plan`
    cuts one cycle's :class:`WindowPlan` back out.

    Attributes
    ----------
    steps, n_windows:
        Full-window length in samples and window count (incl. any
        partial tail) per cycle, ``(cycles,)``.
    i_avg, t_avg, horizon_s:
        Per-window workloads, window-major ``(max windows, cycles)``.
    time_s, soc_true:
        Window-boundary series, ``(cycles, max windows + 1)``.
    step_s, tail_s:
        Full-window and trailing partial-window duration in seconds per
        cycle (``tail_s`` is 0.0 when a cycle has no tail).
    """

    steps: np.ndarray
    n_windows: np.ndarray
    i_avg: np.ndarray
    t_avg: np.ndarray
    horizon_s: np.ndarray
    time_s: np.ndarray
    soc_true: np.ndarray
    step_s: np.ndarray
    tail_s: np.ndarray

    def plan(self, u: int) -> WindowPlan:
        """Cycle ``u``'s plan, as arrays of its own."""
        n = int(self.n_windows[u])
        return WindowPlan(
            steps=int(self.steps[u]),
            i_avg=self.i_avg[:n, u].copy(),
            t_avg=self.t_avg[:n, u].copy(),
            horizon_s=self.horizon_s[:n, u].copy(),
            time_s=self.time_s[u, : n + 1].copy(),
            soc_true=self.soc_true[u, : n + 1].copy(),
            tail_s=float(self.tail_s[u]),
        )


def plan_windows(cycles: Sequence[CycleRecord], step_s: float, include_tail: bool = True) -> WindowStack:
    """Split many recorded cycles into rollout windows with averaged workloads.

    This is the single source of the per-window ``(i_avg, t_avg,
    horizon)`` numbers: the scalar loop (:func:`rollout_cycle`, through
    :func:`cycle_windows`) and the batched fleet path both consume its
    output, which is what makes their trajectories bit-for-bit
    comparable.

    Cycles are averaged together when they share a sampling period (so a
    window length) and a channel dtype: a float32 channel is averaged in
    float32, as ``np.mean`` over its slice would be.  All full windows
    of such a group are gathered into one padded ``(cycles, windows,
    steps)`` matrix and reduced by one row-wise mean; the trailing
    partial windows get one row-wise mean per distinct remainder length.
    Each row is reduced by the same pairwise sum and divide as
    ``np.mean`` over that window's slice, so every average is
    bit-identical to a per-window ``np.mean``.

    Parameters
    ----------
    cycles:
        The recorded cycles supplying measured I/T and ground-truth SoC.
    step_s:
        Full autoregressive step in seconds (rounded to samples).
    include_tail:
        Score the trailing partial window (shortened final step) when a
        cycle's length is not a multiple of the step.

    Raises
    ------
    ValueError
        Naming the first cycle whose sampling period exceeds the step
        or which is shorter than a single full step.
    """
    n = len(cycles)
    period = np.array([c.sampling_period_s for c in cycles], dtype=np.float64)
    length = np.array([len(c.data) for c in cycles], dtype=np.intp)
    steps = np.rint(step_s / period).astype(np.intp)
    n_full = (length - 1) // np.maximum(steps, 1)
    bad = (steps < 1) | (n_full < 1)
    if bad.any():
        u = int(bad.argmax())
        cycle = cycles[u]
        if steps[u] < 1:
            raise ValueError(
                f"cycle {cycle.name!r}: step must be at least one sampling period "
                f"({step_s:g} s < {cycle.sampling_period_s:g} s)"
            )
        raise ValueError(
            f"cycle {cycle.name!r} is shorter than a single rollout step "
            f"({length[u]} samples, {steps[u]} per step)"
        )
    rem = length - 1 - n_full * steps
    tail = (rem > 0) & include_tail
    n_windows = n_full + tail
    max_w = int(n_windows.max(initial=0))
    tail_s = np.where(tail, rem * period, 0.0)
    horizon_s = np.where(np.arange(max_w)[:, None] < n_full, steps * period, np.nan)
    cols = tail.nonzero()[0]
    horizon_s[n_full[cols], cols] = tail_s[cols]
    avg = np.full((2, max_w, n), np.nan)  # I then T
    groups: dict[tuple, list[int]] = {}
    for u, cycle in enumerate(cycles):
        d = cycle.data
        groups.setdefault((cycle.sampling_period_s, d.current.dtype, d.temp_c.dtype), []).append(u)
    for (_, i_dtype, t_dtype), members in groups.items():
        # channels of one dtype are averaged together, as one stack
        for channels in [slice(0, 2)] if i_dtype == t_dtype else [slice(0, 1), slice(1, 2)]:
            names = ("current", "temp_c")[channels]
            samples = np.array(
                [np.concatenate([getattr(cycles[u].data, name) for u in members]) for name in names]
            )
            _average_windows(samples, np.asarray(members), steps, length, n_full, tail, rem, avg[channels])
    # boundary sample of every window: multiples of the step, the last
    # one clipped to the cycle's final sample (a partial tail's end)
    boundary = np.minimum(np.arange(max_w + 1) * steps[:, None], (length - 1)[:, None])
    boundary += (np.cumsum(length) - length)[:, None]
    series = np.array(
        [np.concatenate([c.data.time_s for c in cycles] or [[]], dtype=np.float64),
         np.concatenate([c.data.soc for c in cycles] or [[]], dtype=np.float64)]
    ).take(boundary, axis=1)
    series[:, np.arange(max_w + 1) > n_windows[:, None]] = np.nan
    return WindowStack(
        steps=steps,
        n_windows=n_windows,
        i_avg=avg[0],
        t_avg=avg[1],
        horizon_s=horizon_s,
        time_s=series[0],
        soc_true=series[1],
        step_s=steps * period,
        tail_s=tail_s,
    )


def _average_windows(
    samples: np.ndarray,
    cols: np.ndarray,
    steps: np.ndarray,
    length: np.ndarray,
    n_full: np.ndarray,
    tail: np.ndarray,
    rem: np.ndarray,
    out: np.ndarray,
) -> None:
    """Write the window means of cycles ``cols`` into ``out[:, :, cols]``.

    ``samples`` is ``(channels, samples)``: row ``c`` holds channel
    ``c`` of every cycle in ``cols`` end to end, and ``out[c]`` is that
    channel's window-major matrix.  The cycles share one window length.
    Every reduced row is a C-contiguous row of a ``take`` gather, which
    is what makes its mean the pairwise sum of a 1-D ``np.mean``.
    """
    s = int(steps[cols[0]])
    length, n_full, tail, rem = length[cols], n_full[cols], tail[cols], rem[cols]
    end = np.cumsum(length)
    w_max = int(n_full.max())
    first = (end - length + 1)[:, None] + np.arange(w_max) * s
    # (channels, cycles, windows, steps); windows past a cycle's last
    # full one read clipped indices and are blanked
    means = samples.take(first[:, :, None] + np.arange(s), axis=1, mode="clip").mean(axis=-1)
    means[:, np.arange(w_max) >= n_full[:, None]] = np.nan
    out[:, :w_max, cols] = means.transpose(0, 2, 1)
    # partial tails, shortest remainder first: one mean per remainder
    rows = tail.nonzero()[0]
    if not rows.size:
        return
    rows = rows[rem[rows].argsort()]
    r_of = rem[rows].tolist()
    index = (end[rows] - rem[rows])[:, None] + np.arange(r_of[-1])
    cuts = [0, *(k for k in range(1, len(r_of)) if r_of[k] != r_of[k - 1]), len(r_of)]
    means = [samples.take(index[a:b, : r_of[a]], axis=1).mean(axis=-1) for a, b in zip(cuts, cuts[1:])]
    out[:, n_full[rows], cols[rows]] = np.concatenate(means, axis=1)


def cycle_windows(cycle: CycleRecord, step_s: float, include_tail: bool = True) -> WindowPlan:
    """Split one recorded cycle into rollout windows with averaged workloads.

    The one-cycle case of :func:`plan_windows`, which documents the
    parameters, the bit-exactness of every average and the errors.
    """
    return plan_windows([cycle], step_s, include_tail=include_tail).plan(0)


def rollout_cycle(
    predictor: StepPredictor,
    cycle: CycleRecord,
    step_s: float,
    initial_soc: float,
    include_tail: bool = True,
    step_hook: StepHook | None = None,
) -> RolloutResult:
    """Run an autoregressive rollout along one recorded cycle.

    Parameters
    ----------
    predictor:
        The per-step model (neural Branch 2, Coulomb counting, ...).
    cycle:
        Recorded cycle supplying the workload (measured I/T averages
        per window) and the ground-truth SoC for scoring.
    step_s:
        Autoregressive step, i.e. the single-step horizon ``N``.
    initial_soc:
        Starting SoC estimate (from Branch 1, or ground truth).
    include_tail:
        Also score the trailing partial window with a shortened final
        step (default; pass False for legacy full-windows-only traces).
    step_hook:
        Optional state snapshot hook, called as ``hook(window, soc)``
        after the initial estimate (window 0) and after each committed
        step; an exception it raises aborts the rollout with the state
        up to that window already streamed out.

    Returns
    -------
    RolloutResult
    """
    plan = cycle_windows(cycle, step_s, include_tail=include_tail)
    preds = np.empty(plan.n_windows + 1)
    preds[0] = float(initial_soc)
    soc = float(initial_soc)
    if step_hook is not None:
        step_hook(0, soc)
    for w in range(plan.n_windows):
        soc = float(predictor(soc, float(plan.i_avg[w]), float(plan.t_avg[w]), float(plan.horizon_s[w])))
        preds[w + 1] = soc
        if step_hook is not None:
            step_hook(w + 1, soc)
    return RolloutResult(
        time_s=plan.time_s.copy(),
        soc_pred=preds,
        soc_true=plan.soc_true.copy(),
        initial_soc=float(initial_soc),
        step_s=plan.steps * cycle.sampling_period_s,
        tail_s=plan.tail_s,
    )


def model_rollout(
    model: TwoBranchSoCNet,
    cycle: CycleRecord,
    step_s: float,
    step_hook: StepHook | None = None,
) -> RolloutResult:
    """Roll the full two-branch network along a cycle.

    Branch 1 estimates the initial SoC from the first sensor sample
    (the only voltage the whole rollout consumes); Branch 2 chains the
    rest.  ``step_hook`` streams the recursion state per window (see
    :func:`rollout_cycle`).
    """
    d = cycle.data
    if len(d) == 0:
        raise ValueError("empty cycle")
    initial = float(model.estimate_soc(d.voltage[0], d.current[0], d.temp_c[0])[0])

    def step(soc: float, i_avg: float, temp_avg: float, horizon_s: float) -> float:
        return float(model.predict_soc(soc, i_avg, temp_avg, horizon_s)[0])

    return rollout_cycle(step, cycle, step_s, initial, step_hook=step_hook)
