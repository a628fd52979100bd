"""Fine-tune a serving checkpoint on harvested drift windows.

The retrain step of the closed loop: warm-start a candidate from the
currently-stable checkpoint and run a short, physics-regularized
Branch 2 fine-tune on the rows the harvester extracted
(:mod:`repro.learn.harvest`).  Branch 1 is untouched — drift detectors
watch the *prediction* recursion (Eq. 1 residuals), so that is the
branch the fresh evidence speaks to — which the existing
:class:`~repro.core.trainer.SplitTrainer` expresses directly as
``epochs_branch1=0``.

Targets deserve care: the journaled ``SoC(t+N)`` values were produced
by the very model that drifted, so training on them verbatim would
*distill the degradation*.  The default (``targets="physics"``)
therefore relabels every row with the Coulomb-counting target (paper
Eq. 1)::

    SoC(t+N) = SoC(t) - I_avg * N / (3600 * C)

pulling the candidate back onto the physics manifold the detectors
measure against — the same anchor the PINN's collocation loss uses,
here applied to the *observed* workload distribution.  ``targets=
"journal"`` keeps the journaled labels for pipelines that trust them
(e.g. journals written by a known-good model).
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from ..battery import coulomb
from ..core.config import PhysicsConfig, TrainConfig
from ..core.model import TwoBranchSoCNet
from ..core.trainer import SplitTrainer
from ..datasets.windowing import PredictionSamples

__all__ = ["FineTuneConfig", "fine_tune"]


@dataclasses.dataclass(frozen=True)
class FineTuneConfig:
    """Settings for one offline fine-tune.

    Short and conservative by default: the candidate starts from a
    checkpoint that served well until the fleet drifted, so a few
    low-rate epochs on the drift windows beat a full retrain (and keep
    the retrain loop's tick latency bounded).

    Attributes
    ----------
    epochs, lr, batch_size, grad_clip:
        Branch 2 optimization settings (see
        :class:`~repro.core.config.TrainConfig`).
    physics_weight, n_collocation:
        Collocation loss over the harvested workload distribution
        (Eq. 2); ``physics_weight=0`` disables it.
    seed:
        Seeds init/shuffling/collocation, so a fine-tune on the same
        harvest is reproducible.
    max_rows:
        Row cap before training (subsampled when the harvest is
        denser).
    targets:
        ``"physics"`` (default) relabels rows with the Eq. 1 target —
        never distill a drifted model's own outputs; ``"journal"``
        trains on the journaled SoC labels verbatim.
    """

    epochs: int = 20
    lr: float = 1e-3
    batch_size: int = 64
    grad_clip: float = 5.0
    physics_weight: float = 1.0
    n_collocation: int = 128
    seed: int = 0
    max_rows: int = 20000
    targets: str = "physics"

    def __post_init__(self):
        if self.epochs <= 0:
            raise ValueError("epochs must be positive")
        if self.targets not in ("physics", "journal"):
            raise ValueError(f"targets must be 'physics' or 'journal', not {self.targets!r}")


def fine_tune(
    base: TwoBranchSoCNet,
    samples: PredictionSamples,
    config: FineTuneConfig | None = None,
) -> TwoBranchSoCNet:
    """Warm-started Branch 2 fine-tune; returns the candidate model.

    ``base`` is left untouched (weights are deep-copied into a fresh
    network of the same :class:`~repro.core.config.ModelConfig`), so
    the caller can publish the candidate next to the stable checkpoint
    it came from and let the canary decide between them.
    """
    config = config if config is not None else FineTuneConfig()
    if len(samples) == 0:
        raise ValueError("nothing to fine-tune on: empty sample set")
    candidate = TwoBranchSoCNet(base.config, rng=np.random.default_rng(config.seed))
    candidate.load_state_dict(copy.deepcopy(base.state_dict()))
    if config.targets == "physics":
        samples = relabel_with_physics(samples)
    trainer = SplitTrainer(
        candidate,
        TrainConfig(
            epochs_branch1=0,
            epochs_branch2=config.epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            grad_clip=config.grad_clip,
            seed=config.seed,
            max_train_rows=config.max_rows,
        ),
        physics=(
            PhysicsConfig(n_collocation=config.n_collocation, weight=config.physics_weight)
            if config.physics_weight > 0
            else None
        ),
    )
    trainer.train_branch2(samples)
    return candidate


def relabel_with_physics(samples: PredictionSamples) -> PredictionSamples:
    """Replace the targets with the Coulomb-counting SoC (paper Eq. 1)."""
    target = coulomb.predict_soc(samples.soc_t, samples.i_avg, samples.horizon_s, samples.capacity_ah)
    return dataclasses.replace(samples, soc_target=target)
