"""Autoregressive multi-step SoC prediction (paper Fig. 2 / Fig. 5).

Branch 1 runs **once**, on the first sensor sample, to get the initial
SoC; Branch 2 then chains forward, each step feeding its own output
back as the next step's initial SoC, with the (planned or recorded)
workload supplying average current/temperature per step.  Voltage is
used only at the very first timestamp — the capability the paper
highlights in Sec. V-D.

The rollout driver is predictor-agnostic so the Physics-Only baseline
(pure Coulomb counting) and the neural models share one code path.
The window-averaging itself lives in :func:`cycle_windows` so the
per-cell loop here and the batched fleet path
(:meth:`repro.serve.FleetEngine.rollout_fleet`) consume *identical*
workload numbers.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Protocol

import numpy as np

from ..datasets.base import CycleRecord
from .model import TwoBranchSoCNet

__all__ = [
    "RolloutResult",
    "StepHook",
    "StepPredictor",
    "WindowPlan",
    "cycle_windows",
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


def cycle_windows(cycle: CycleRecord, step_s: float, include_tail: bool = True) -> WindowPlan:
    """Split a recorded cycle into rollout windows with averaged workloads.

    This is the single source of the per-window ``(i_avg, t_avg,
    horizon)`` numbers: the scalar loop (:func:`rollout_cycle`) and the
    batched fleet path both consume its output, which is what makes
    their trajectories bit-for-bit comparable.

    The full windows are averaged in one row-wise mean over the samples
    reshaped to ``(n_full, steps)``; the trailing partial window is
    averaged on its own.  Each row is reduced by the same pairwise sum
    and divide as ``np.mean`` over that window's slice, so every average
    is bit-identical to a per-window ``np.mean``.

    Parameters
    ----------
    cycle:
        The recorded cycle supplying measured I/T and ground-truth SoC.
    step_s:
        Full autoregressive step in seconds (rounded to samples).
    include_tail:
        Score the trailing partial window (shortened final step) when
        the cycle length is not a multiple of the step.

    Raises
    ------
    ValueError
        When the step is below one sampling period or the cycle is
        shorter than a single full step.
    """
    d = cycle.data
    steps = int(round(step_s / cycle.sampling_period_s))
    if steps < 1:
        raise ValueError("step must be at least one sampling period")
    n_full = (len(d) - 1) // steps
    if n_full < 1:
        raise ValueError("cycle shorter than a single rollout step")
    rem = (len(d) - 1) % steps
    end = n_full * steps  # sample index closing the last full window
    tail = bool(include_tail and rem)
    n_windows = n_full + tail
    i_avg = np.empty(n_windows)
    t_avg = np.empty(n_windows)
    i_avg[:n_full] = d.current[1 : end + 1].reshape(n_full, steps).mean(axis=1)
    t_avg[:n_full] = d.temp_c[1 : end + 1].reshape(n_full, steps).mean(axis=1)
    horizon_s = np.full(n_windows, steps * cycle.sampling_period_s)
    boundary = np.arange(n_windows + 1) * steps
    tail_s = 0.0
    if tail:
        i_avg[-1] = np.mean(d.current[end + 1 :])
        t_avg[-1] = np.mean(d.temp_c[end + 1 :])
        tail_s = rem * cycle.sampling_period_s
        horizon_s[-1] = tail_s
        boundary[-1] = len(d) - 1
    return WindowPlan(
        steps=steps,
        i_avg=i_avg,
        t_avg=t_avg,
        horizon_s=horizon_s,
        time_s=d.time_s[boundary].astype(np.float64, copy=True),
        soc_true=d.soc[boundary].astype(np.float64, copy=True),
        tail_s=tail_s,
    )


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
