"""Wong-style LSTM SoC estimator — the state-of-the-art row of Table I.

Wong et al. (GoodIT 2021) estimate SoC(t) from a window of past
``(V, I, T)`` samples with stacked LSTM layers and a dense head
(~1M parameters, megabytes of weights, hundreds of millions of
operations per inference).  The paper's comparison (Table I) trains its
2.3k-parameter network on the same data and shows near-identical MAE.

Two configurations are provided:

- :func:`paper_scale_config` — the ~1M-parameter architecture used for
  the Mem/Ops columns (its complexity is computed analytically);
- :func:`compact_config` — a smaller, laptop-trainable variant used to
  obtain the accuracy numbers on the synthetic campaign.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import nn
from ..datasets.base import CycleRecord, CycleSet
from ..datasets.preprocessing import FeatureScaler, branch1_scaler
from ..utils.logging import RunLogger
from ..utils.rng import spawn_seed

__all__ = [
    "LSTMConfig",
    "paper_scale_config",
    "compact_config",
    "SequenceSamples",
    "make_sequence_samples",
    "LSTMSoCEstimator",
    "train_lstm_estimator",
]


@dataclasses.dataclass(frozen=True)
class LSTMConfig:
    """Architecture + training settings for the LSTM baseline.

    Attributes
    ----------
    hidden_size, num_layers, dense_size:
        Network shape (input is always the 3 sensor channels).
    seq_len:
        Window length in *samples* fed to the LSTM.
    sample_stride:
        Spacing (in recorded samples) between consecutive window
        elements — dense 0.1 s data is thinned inside the window.
    epochs, batch_size, lr:
        Training loop settings.
    max_train_rows:
        Cap on training windows (0 disables).
    seed:
        Weight init / shuffling seed.
    """

    hidden_size: int = 64
    num_layers: int = 1
    dense_size: int = 32
    seq_len: int = 30
    sample_stride: int = 10
    epochs: int = 20
    batch_size: int = 64
    lr: float = 3e-3
    max_train_rows: int = 3000
    seed: int = 0

    def __post_init__(self):
        if min(self.hidden_size, self.num_layers, self.dense_size, self.seq_len, self.sample_stride) < 1:
            raise ValueError("architecture/window settings must be positive")
        if self.epochs < 0 or self.batch_size < 1 or self.lr <= 0:
            raise ValueError("invalid training settings")


def paper_scale_config() -> LSTMConfig:
    """The ~1M-parameter architecture of the published SoA baseline.

    Only its *complexity* is evaluated at this scale (Table I's Mem/Ops
    columns); training it on the numpy substrate would be needlessly
    slow.
    """
    return LSTMConfig(hidden_size=256, num_layers=2, dense_size=128, seq_len=300)


def compact_config() -> LSTMConfig:
    """Laptop-trainable variant used for the accuracy rows."""
    return LSTMConfig()


@dataclasses.dataclass
class SequenceSamples:
    """Windowed sequences for the LSTM: ``(n, seq_len, 3)`` + labels."""

    sequences: np.ndarray
    soc: np.ndarray

    def __post_init__(self):
        if self.sequences.ndim != 3 or self.sequences.shape[2] != 3:
            raise ValueError("sequences must be (n, seq_len, 3)")
        if len(self.sequences) != len(self.soc):
            raise ValueError("sequences and labels must align")

    def __len__(self) -> int:
        return len(self.soc)


def make_sequence_samples(
    cycles: CycleSet | list[CycleRecord],
    seq_len: int,
    sample_stride: int = 1,
    window_stride: int = 1,
) -> SequenceSamples:
    """Extract LSTM windows ending at each labelled instant.

    Parameters
    ----------
    cycles:
        Source cycles (measured channels become features).
    seq_len:
        Number of window elements.
    sample_stride:
        Recorded samples between window elements (e.g. 10 turns 0.1 s
        data into 1 s-spaced window elements).
    window_stride:
        Recorded samples between consecutive window *ends*.
    """
    if seq_len < 1 or sample_stride < 1 or window_stride < 1:
        raise ValueError("window parameters must be positive")
    span = (seq_len - 1) * sample_stride
    seq_parts, label_parts = [], []
    for cycle in cycles:
        d = cycle.data
        if len(d) <= span:
            continue
        ends = np.arange(span, len(d), window_stride)
        offsets = np.arange(-span, 1, sample_stride)
        index = ends[:, None] + offsets[None, :]
        features = np.stack([d.voltage[index], d.current[index], d.temp_c[index]], axis=2)
        seq_parts.append(features)
        label_parts.append(d.soc[ends])
    if not seq_parts:
        raise ValueError("no window fits in any cycle")
    return SequenceSamples(np.concatenate(seq_parts), np.concatenate(label_parts))


class LSTMSoCEstimator:
    """LSTM regressor + fixed scaler, with a raw-units inference API."""

    def __init__(self, config: LSTMConfig | None = None, rng: np.random.Generator | None = None):
        self.config = config if config is not None else LSTMConfig()
        rng = rng if rng is not None else np.random.default_rng()
        self.net = nn.LSTMRegressor(
            input_size=3,
            hidden_size=self.config.hidden_size,
            num_layers=self.config.num_layers,
            dense_size=self.config.dense_size,
            rng=rng,
        )
        self.scaler: FeatureScaler = branch1_scaler()

    def estimate(self, sequences: np.ndarray) -> np.ndarray:
        """Estimate SoC for raw ``(n, seq_len, 3)`` windows."""
        scaled = self.scaler.transform(sequences)
        with nn.no_grad():
            out = self.net(nn.Tensor(scaled))
        return out.data[:, 0].copy()

    def num_parameters(self) -> int:
        """Trainable parameter count."""
        return self.net.num_parameters()


def train_lstm_estimator(
    samples: SequenceSamples,
    config: LSTMConfig | None = None,
) -> tuple[LSTMSoCEstimator, RunLogger]:
    """Train the baseline with Adam + MAE (as the original work does)."""
    config = config if config is not None else LSTMConfig()
    model = LSTMSoCEstimator(config, rng=np.random.default_rng(spawn_seed(config.seed, "lstm-init")))
    rng = np.random.default_rng(spawn_seed(config.seed, "lstm-data"))
    features = model.scaler.transform(samples.sequences)
    targets = samples.soc.reshape(-1, 1)
    if config.max_train_rows and len(features) > config.max_train_rows:
        idx = rng.choice(len(features), size=config.max_train_rows, replace=False)
        features, targets = features[idx], targets[idx]
    dataset = nn.TensorDataset(features, targets)
    loader = nn.DataLoader(dataset, batch_size=config.batch_size, rng=rng)
    optimizer = nn.Adam(model.net.parameters(), lr=config.lr)
    log = RunLogger()
    for epoch in range(config.epochs):
        epoch_loss = 0.0
        for x, y in loader:
            optimizer.zero_grad()
            loss = nn.mae_loss(model.net(nn.Tensor(x)), nn.Tensor(y))
            loss.backward()
            nn.clip_grad_norm(model.net.parameters(), 5.0)
            optimizer.step()
            epoch_loss += loss.item()
        log.log(epoch=epoch, loss=epoch_loss / max(1, len(loader)))
    return model, log
