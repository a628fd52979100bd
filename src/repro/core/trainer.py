"""Split training of the two-branch network (paper Sec. III-B).

Key properties reproduced exactly:

1. **Split training** — Branch 1 is trained alone on
   ``(V, I, T) -> SoC(t)``; Branch 2 is trained alone on
   ``(SoC(t), I_avg, T_avg, N) -> SoC(t+N)`` with *ground-truth*
   ``SoC(t)`` as input.  No gradient ever flows between branches.
2. **MAE losses** for both branches.
3. **Physics loss** (optional): per minibatch, a freshly sampled batch
   of Coulomb-counting collocation points contributes a second MAE
   term (Eq. 2); with it, Branch 2 becomes a PINN.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..datasets.windowing import EstimationSamples, PredictionSamples
from ..utils.logging import RunLogger
from ..utils.rng import spawn_seed
from .config import PhysicsConfig, TrainConfig
from .model import TwoBranchSoCNet
from .physics import CollocationSampler

__all__ = ["SplitTrainer", "train_two_branch"]


class SplitTrainer:
    """Trains a :class:`TwoBranchSoCNet` with the paper's scheme.

    Parameters
    ----------
    model:
        The network to train (modified in place).
    config:
        Optimization settings.
    physics:
        Physics-loss settings; ``None`` trains the purely data-driven
        "No-PINN" variant.
    """

    def __init__(
        self,
        model: TwoBranchSoCNet,
        config: TrainConfig | None = None,
        physics: PhysicsConfig | None = None,
    ):
        self.model = model
        self.config = config if config is not None else TrainConfig()
        self.physics = physics

    # ------------------------------------------------------------------
    def train_branch1(self, samples: EstimationSamples) -> RunLogger:
        """Fit Branch 1 on estimation samples; returns the loss log."""
        cfg = self.config
        rng = np.random.default_rng(spawn_seed(cfg.seed, "branch1-data"))
        features = self.model.scaler1.transform(samples.features)
        targets = samples.soc.reshape(-1, 1)
        features, targets = _cap_rows(features, targets, cfg.max_train_rows, rng)
        dataset = nn.TensorDataset(features, targets)
        loader = nn.DataLoader(dataset, batch_size=cfg.batch_size, rng=rng)
        optimizer = nn.Adam(self.model.branch1.parameters(), lr=cfg.lr)
        scheduler = (
            nn.CosineAnnealingLR(optimizer, t_max=cfg.epochs_branch1, eta_min=cfg.lr * 0.01)
            if cfg.epochs_branch1 > 0
            else None
        )
        log = RunLogger()
        for epoch in range(cfg.epochs_branch1):
            epoch_loss = 0.0
            for x, y in loader:
                optimizer.zero_grad()
                loss = nn.mae_loss(self.model.forward_branch1(nn.Tensor(x)), nn.Tensor(y))
                loss.backward()
                if cfg.grad_clip:
                    nn.clip_grad_norm(self.model.branch1.parameters(), cfg.grad_clip)
                optimizer.step()
                epoch_loss += loss.item()
            scheduler.step()
            log.log(branch=1, epoch=epoch, loss=epoch_loss / max(1, len(loader)), lr=optimizer.lr)
        return log

    # ------------------------------------------------------------------
    def train_branch2(self, samples: PredictionSamples) -> RunLogger:
        """Fit Branch 2 on prediction samples (+ physics collocation).

        Branch 2 receives ground-truth ``SoC(t)`` in its features, per
        the split-training scheme; at deployment it will receive
        Branch 1's estimate instead.
        """
        cfg = self.config
        rng = np.random.default_rng(spawn_seed(cfg.seed, "branch2-data"))
        features = self.model.scaler2.transform(samples.branch2_features())
        targets = samples.soc_target.reshape(-1, 1)
        features, targets = _cap_rows(features, targets, cfg.max_train_rows, rng)
        dataset = nn.TensorDataset(features, targets)
        loader = nn.DataLoader(dataset, batch_size=cfg.batch_size, rng=rng)
        optimizer = nn.Adam(self.model.branch2.parameters(), lr=cfg.lr)
        scheduler = (
            nn.CosineAnnealingLR(optimizer, t_max=cfg.epochs_branch2, eta_min=cfg.lr * 0.01)
            if cfg.epochs_branch2 > 0
            else None
        )

        sampler = None
        if self.physics is not None and self.physics.weight > 0:
            sampler = CollocationSampler(
                samples, self.physics, np.random.default_rng(spawn_seed(cfg.seed, "collocation"))
            )

        log = RunLogger()
        for epoch in range(cfg.epochs_branch2):
            data_loss_sum = 0.0
            physics_loss_sum = 0.0
            for x, y in loader:
                optimizer.zero_grad()
                data_loss = nn.mae_loss(self.model.forward_branch2(nn.Tensor(x)), nn.Tensor(y))
                if sampler is not None:
                    batch = sampler.sample()
                    colloc_x = self.model.scaler2.transform(batch.features)
                    colloc_y = batch.targets.reshape(-1, 1)
                    physics_loss = nn.mae_loss(
                        self.model.forward_branch2(nn.Tensor(colloc_x)), nn.Tensor(colloc_y)
                    )
                    loss = data_loss + self.physics.weight * physics_loss
                    physics_loss_sum += physics_loss.item()
                else:
                    loss = data_loss
                loss.backward()
                if cfg.grad_clip:
                    nn.clip_grad_norm(self.model.branch2.parameters(), cfg.grad_clip)
                optimizer.step()
                data_loss_sum += data_loss.item()
            scheduler.step()
            n_batches = max(1, len(loader))
            log.log(
                branch=2,
                epoch=epoch,
                loss=data_loss_sum / n_batches,
                physics_loss=physics_loss_sum / n_batches,
                lr=optimizer.lr,
            )
        return log

    # ------------------------------------------------------------------
    def fit(self, estimation: EstimationSamples, prediction: PredictionSamples) -> dict[str, RunLogger]:
        """Train both branches (Branch 1 first) and return their logs."""
        return {
            "branch1": self.train_branch1(estimation),
            "branch2": self.train_branch2(prediction),
        }


def _cap_rows(
    features: np.ndarray, targets: np.ndarray, max_rows: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Subsample rows when the campaign is denser than the epoch budget needs."""
    n = len(features)
    if max_rows and n > max_rows:
        idx = rng.choice(n, size=max_rows, replace=False)
        return features[idx], targets[idx]
    return features, targets


def train_two_branch(
    estimation: EstimationSamples,
    prediction: PredictionSamples,
    model_config=None,
    train_config: TrainConfig | None = None,
    physics: PhysicsConfig | None = None,
    seed: int | None = None,
) -> tuple[TwoBranchSoCNet, dict[str, RunLogger]]:
    """One-call convenience: build, train, and return a model.

    Parameters
    ----------
    estimation, prediction:
        Training samples for the two branches.
    model_config:
        :class:`~repro.core.config.ModelConfig` (paper defaults if omitted).
    train_config:
        :class:`~repro.core.config.TrainConfig`; when ``seed`` is given
        it overrides the config's seed (convenient for 5-seed sweeps).
    physics:
        Physics-loss settings, or ``None`` for the No-PINN variant.
    """
    train_config = train_config if train_config is not None else TrainConfig()
    if seed is not None:
        import dataclasses

        train_config = dataclasses.replace(train_config, seed=seed)
    rng = np.random.default_rng(spawn_seed(train_config.seed, "init"))
    model = TwoBranchSoCNet(model_config, rng=rng)
    trainer = SplitTrainer(model, train_config, physics)
    logs = trainer.fit(estimation, prediction)
    return model, logs
