"""Dang-style differential-equation-informed models (DE-MLP / DE-LSTM).

Dang et al. (IEEE TIM 2024) — the paper's closest related work — train
conventional estimators ``(V, I, T) -> SoC(t)`` whose loss adds the
residual of the first-order battery dynamics

.. math::

    \\frac{dSoC}{dt} = -\\frac{I}{3600\\,C_{rated}}

evaluated with finite differences on consecutive samples.  Table I of
the reproduced paper compares against their DE-MLP and DE-LSTM rows
(MAE 0.177 / 0.129 at 0 C), noting that the two-branch network beats
them chiefly thanks to its moving-average input preprocessing.  To keep
that comparison faithful, these baselines consume the *raw* (unsmoothed)
channels.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn
from ..datasets.base import CycleRecord, CycleSet
from ..datasets.preprocessing import branch1_scaler
from ..utils.logging import RunLogger
from ..utils.rng import spawn_seed

__all__ = ["DEConfig", "DEPairs", "make_de_pairs", "DEEstimator", "train_de_estimator"]


@dataclasses.dataclass(frozen=True)
class DEConfig:
    """Architecture + training settings for the DE-informed estimator.

    Attributes
    ----------
    backbone:
        ``"mlp"`` (DE-MLP) or ``"lstm"`` (DE-LSTM).
    hidden:
        Hidden widths (MLP) or hidden size per layer (LSTM uses
        ``hidden[0]`` with ``len(hidden)`` layers).
    seq_len:
        LSTM window length (ignored by the MLP backbone).
    residual_weight:
        Multiplier of the ODE-residual loss term.
    epochs, batch_size, lr, max_train_rows, seed:
        Training loop settings.
    """

    backbone: str = "mlp"
    hidden: tuple[int, ...] = (32, 32)
    seq_len: int = 10
    residual_weight: float = 1.0
    epochs: int = 25
    batch_size: int = 64
    lr: float = 3e-3
    max_train_rows: int = 4000
    seed: int = 0

    def __post_init__(self):
        if self.backbone not in ("mlp", "lstm"):
            raise ValueError("backbone must be 'mlp' or 'lstm'")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError("hidden widths must be positive")
        if self.residual_weight < 0:
            raise ValueError("residual weight cannot be negative")


@dataclasses.dataclass
class DEPairs:
    """Consecutive-sample training pairs for the residual loss.

    ``x_now``/``x_next`` are raw ``(V, I, T)`` rows ``dt`` seconds
    apart; the residual constrains the *predicted* SoC difference to
    match Coulomb counting over ``dt``.
    """

    x_now: np.ndarray
    x_next: np.ndarray
    soc_now: np.ndarray
    dt_s: np.ndarray
    capacity_ah: np.ndarray

    def __post_init__(self):
        n = len(self.soc_now)
        if not (len(self.x_now) == len(self.x_next) == len(self.dt_s) == len(self.capacity_ah) == n):
            raise ValueError("all pair columns must align")

    def __len__(self) -> int:
        return len(self.soc_now)


def make_de_pairs(cycles: CycleSet | list[CycleRecord], stride: int = 1) -> DEPairs:
    """Extract consecutive-sample pairs from every cycle."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    xs_now, xs_next, socs, dts, caps = [], [], [], [], []
    for cycle in cycles:
        d = cycle.data
        if len(d) < 2:
            continue
        starts = np.arange(0, len(d) - 1, stride)
        features = np.column_stack([d.voltage, d.current, d.temp_c])
        xs_now.append(features[starts])
        xs_next.append(features[starts + 1])
        socs.append(d.soc[starts])
        dts.append(np.full(len(starts), cycle.sampling_period_s))
        caps.append(np.full(len(starts), cycle.capacity_ah))
    if not xs_now:
        raise ValueError("no pairs could be extracted")
    return DEPairs(
        x_now=np.concatenate(xs_now),
        x_next=np.concatenate(xs_next),
        soc_now=np.concatenate(socs),
        dt_s=np.concatenate(dts),
        capacity_ah=np.concatenate(caps),
    )


class DEEstimator:
    """DE-informed SoC estimator with an MLP or LSTM backbone."""

    def __init__(self, config: DEConfig | None = None, rng: np.random.Generator | None = None):
        self.config = config if config is not None else DEConfig()
        rng = rng if rng is not None else np.random.default_rng()
        self.scaler = branch1_scaler()
        if self.config.backbone == "mlp":
            self.net: nn.Module = nn.MLP(3, hidden=self.config.hidden, out_features=1, rng=rng)
        else:
            self.net = nn.LSTMRegressor(
                input_size=3,
                hidden_size=self.config.hidden[0],
                num_layers=len(self.config.hidden),
                dense_size=max(8, self.config.hidden[0] // 2),
                rng=rng,
            )

    def _forward(self, x_scaled: nn.Tensor) -> nn.Tensor:
        if self.config.backbone == "mlp":
            return self.net(x_scaled)
        # LSTM consumes the single sample as a length-1 sequence
        return self.net(x_scaled.reshape(x_scaled.shape[0], 1, 3))

    def estimate(self, features: np.ndarray) -> np.ndarray:
        """Estimate SoC for raw ``(n, 3)`` sensor rows."""
        scaled = self.scaler.transform(np.atleast_2d(features))
        with nn.no_grad():
            out = self._forward(nn.Tensor(scaled))
        return out.data[:, 0].copy()

    def num_parameters(self) -> int:
        """Trainable parameter count."""
        return self.net.num_parameters()


def train_de_estimator(pairs: DEPairs, config: DEConfig | None = None) -> tuple[DEEstimator, RunLogger]:
    """Train with data MAE + ODE-residual loss (Dang et al.'s recipe).

    Per minibatch of consecutive pairs:

    - data term: ``MAE(f(x_now), soc_now)``;
    - residual term:
      ``MAE(f(x_next) - f(x_now), -I_now * dt / (3600 * C))``.
    """
    config = config if config is not None else DEConfig()
    model = DEEstimator(config, rng=np.random.default_rng(spawn_seed(config.seed, "de-init")))
    rng = np.random.default_rng(spawn_seed(config.seed, "de-data"))

    x_now = model.scaler.transform(pairs.x_now)
    x_next = model.scaler.transform(pairs.x_next)
    soc = pairs.soc_now.reshape(-1, 1)
    delta_phys = (-pairs.x_now[:, 1] * pairs.dt_s / (3600.0 * pairs.capacity_ah)).reshape(-1, 1)

    n = len(soc)
    if config.max_train_rows and n > config.max_train_rows:
        idx = rng.choice(n, size=config.max_train_rows, replace=False)
        x_now, x_next, soc, delta_phys = x_now[idx], x_next[idx], soc[idx], delta_phys[idx]

    dataset = nn.TensorDataset(x_now, x_next, soc, delta_phys)
    loader = nn.DataLoader(dataset, batch_size=config.batch_size, rng=rng)
    optimizer = nn.Adam(model.net.parameters(), lr=config.lr)
    log = RunLogger()
    for epoch in range(config.epochs):
        data_sum, res_sum = 0.0, 0.0
        for bx_now, bx_next, by, bdelta in loader:
            optimizer.zero_grad()
            pred_now = model._forward(nn.Tensor(bx_now))
            data_loss = nn.mae_loss(pred_now, nn.Tensor(by))
            if config.residual_weight > 0:
                pred_next = model._forward(nn.Tensor(bx_next))
                residual = nn.mae_loss(pred_next - pred_now, nn.Tensor(bdelta))
                loss = data_loss + config.residual_weight * residual
                res_sum += residual.item()
            else:
                loss = data_loss
            loss.backward()
            nn.clip_grad_norm(model.net.parameters(), 5.0)
            optimizer.step()
            data_sum += data_loss.item()
        n_batches = max(1, len(loader))
        log.log(epoch=epoch, loss=data_sum / n_batches, residual=res_sum / n_batches)
    return model, log
