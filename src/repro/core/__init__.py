"""``repro.core`` — the paper's contribution.

- :mod:`repro.core.config` — model / physics / training settings;
- :mod:`repro.core.branches` — the two FC branches (Fig. 1);
- :mod:`repro.core.model` — :class:`TwoBranchSoCNet` cascade;
- :mod:`repro.core.physics` — Coulomb-counting collocation (Eq. 1);
- :mod:`repro.core.trainer` — split training with the Eq. 2 loss;
- :mod:`repro.core.rollout` — autoregressive prediction (Fig. 2/5);
- :mod:`repro.core.kernels` — compiled allocation-free inference;
- :mod:`repro.core.complexity` — Table I's Mem/Ops accounting.
"""

from .branches import Branch1, Branch2
from .complexity import ComplexityReport, lstm_complexity, mlp_complexity, model_complexity
from .ensemble import SoHEnsemble
from .config import ModelConfig, PhysicsConfig, TrainConfig
from .kernels import (
    CompiledBranchKernel,
    CompiledTwoBranchKernel,
    FusedBranchKernel,
    FusedTwoBranchKernel,
)
from .model import TwoBranchSoCNet
from .physics import CollocationBatch, CollocationSampler
from .rollout import (
    RolloutResult,
    WindowPlan,
    WindowStack,
    cycle_windows,
    model_rollout,
    plan_windows,
    rollout_cycle,
)
from .trainer import SplitTrainer, train_two_branch

__all__ = [
    "Branch1",
    "Branch2",
    "ModelConfig",
    "PhysicsConfig",
    "TrainConfig",
    "TwoBranchSoCNet",
    "CompiledBranchKernel",
    "CompiledTwoBranchKernel",
    "FusedBranchKernel",
    "FusedTwoBranchKernel",
    "SoHEnsemble",
    "CollocationBatch",
    "CollocationSampler",
    "SplitTrainer",
    "train_two_branch",
    "RolloutResult",
    "WindowPlan",
    "WindowStack",
    "cycle_windows",
    "plan_windows",
    "rollout_cycle",
    "model_rollout",
    "ComplexityReport",
    "mlp_complexity",
    "lstm_complexity",
    "model_complexity",
]
