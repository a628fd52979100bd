"""Extended Kalman filter SoC estimator on a 1-RC Thevenin model.

The classic physics-based estimator family the paper cites as category
(2) of SoC methods (e.g. Xiong et al., adaptive EKF).  Not part of the
paper's experimental comparison, but included as an extra baseline: it
shows what a model-based observer achieves on the same synthetic
campaigns with the *true* cell parameters available — an upper bound
for physics-based estimation, and a useful sanity anchor for Branch 1.

State: ``x = [SoC, V1]`` (polarization voltage of one RC branch).
Measurement: terminal voltage ``V = OCV(SoC) - I R0 - V1``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..battery import coulomb
from ..battery.cell import CellSpec

__all__ = ["EKFConfig", "EKFSoCEstimator"]


@dataclasses.dataclass(frozen=True)
class EKFConfig:
    """Filter tuning.

    Attributes
    ----------
    q_soc, q_v1:
        Process-noise variances for the two states.
    r_voltage:
        Measurement-noise variance of the voltage sensor.
    p0:
        Initial state covariance (diagonal).
    initial_soc:
        Prior SoC when the filter starts blind.
    """

    q_soc: float = 1e-10
    q_v1: float = 1e-6
    r_voltage: float = 1e-4
    p0: float = 0.1
    initial_soc: float = 0.5

    def __post_init__(self):
        if min(self.q_soc, self.q_v1, self.r_voltage, self.p0) <= 0:
            raise ValueError("noise variances must be positive")
        if not 0.0 <= self.initial_soc <= 1.0:
            raise ValueError("initial SoC must be in [0, 1]")


class EKFSoCEstimator:
    """EKF observer over a 1-RC equivalent circuit.

    Parameters
    ----------
    spec:
        The cell's parameters (the filter uses the first RC pair).
    config:
        Filter tuning.
    """

    def __init__(self, spec: CellSpec, config: EKFConfig | None = None):
        if not spec.rc_pairs:
            raise ValueError("EKF needs at least one RC pair in the cell spec")
        self.spec = spec
        self.config = config if config is not None else EKFConfig()
        self.r1, self.c1 = spec.rc_pairs[0]
        self.reset()

    def reset(self, soc: float | None = None) -> None:
        """Reinitialize state and covariance."""
        soc0 = self.config.initial_soc if soc is None else soc
        self.x = np.array([float(soc0), 0.0])
        self.p = np.eye(2) * self.config.p0

    @property
    def soc(self) -> float:
        """Current SoC estimate."""
        return float(self.x[0])

    def _predict(self, current_a: float, dt_s: float) -> None:
        tau = self.r1 * self.c1
        decay = np.exp(-dt_s / tau) if tau > 0 else 0.0
        self.x[0] += coulomb.delta_soc(current_a, dt_s, self.spec.capacity_ah)
        self.x[1] = self.x[1] * decay + self.r1 * current_a * (1.0 - decay)
        f = np.array([[1.0, 0.0], [0.0, decay]])
        q = np.diag([self.config.q_soc, self.config.q_v1])
        self.p = f @ self.p @ f.T + q

    def _update(self, voltage: float, current_a: float) -> None:
        ocv = self.spec.chemistry.ocv
        soc_clamped = float(np.clip(self.x[0], 0.0, 1.0))
        predicted_v = float(ocv(soc_clamped)) - current_a * self.spec.r0_ohm - self.x[1]
        h = np.array([float(ocv.derivative(soc_clamped)), -1.0])
        s = float(h @ self.p @ h) + self.config.r_voltage
        k = (self.p @ h) / s
        self.x = self.x + k * (voltage - predicted_v)
        self.p = (np.eye(2) - np.outer(k, h)) @ self.p

    def step(self, voltage: float, current_a: float, dt_s: float) -> float:
        """One predict/update cycle; returns the new SoC estimate."""
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        self._predict(current_a, dt_s)
        self._update(voltage, current_a)
        self.x[0] = float(np.clip(self.x[0], 0.0, 1.0))
        return self.soc

    def run(self, voltage: np.ndarray, current: np.ndarray, dt_s: float) -> np.ndarray:
        """Filter a whole trace; returns the SoC estimate per sample."""
        voltage = np.asarray(voltage, dtype=np.float64)
        current = np.asarray(current, dtype=np.float64)
        if voltage.shape != current.shape:
            raise ValueError("voltage and current traces must align")
        out = np.empty(len(voltage))
        for k in range(len(voltage)):
            out[k] = self.step(float(voltage[k]), float(current[k]), dt_s)
        return out
