"""Multi-seed, multi-horizon experiment harness.

One call of :func:`evaluate_variants` reproduces the structure shared
by Figs. 3 and 4: train each model variant (No-PINN, Physics-Only,
PINN-<Np>, PINN-All) on the campaign's training cycles at the native
horizon, then score SoC-prediction MAE on the test cycles at several
horizons, averaging over seeds.  It is the one trainer of variant
sweeps (Table I and the ablations use it too): Branch 1 trains once
per seed and group, each trained variant's Branch 2 on a copy of it.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np

from ..baselines.physics_only import PhysicsOnlyModel
from ..core.config import ModelConfig, PhysicsConfig, TrainConfig
from ..core.model import TwoBranchSoCNet
from ..core.trainer import SplitTrainer, train_two_branch
from ..datasets.base import CycleSet
from ..datasets.preprocessing import smooth_cycle
from ..datasets.windowing import make_estimation_samples, make_prediction_samples
from .metrics import mae

__all__ = ["VariantResult", "ExperimentResult", "evaluate_variants", "PHYSICS_ONLY"]

#: Sentinel marking the untrained Coulomb-counting variant.
PHYSICS_ONLY = "__physics_only__"


@dataclasses.dataclass
class VariantResult:
    """Per-variant scores: ``mae_by_horizon[h]`` is one MAE per seed."""

    name: str
    mae_by_horizon: dict[float, list[float]]

    def mean(self, horizon_s: float) -> float:
        """Seed-averaged MAE at one horizon."""
        return float(np.mean(self.mae_by_horizon[horizon_s]))

    def std(self, horizon_s: float) -> float:
        """Seed standard deviation at one horizon."""
        return float(np.std(self.mae_by_horizon[horizon_s]))


@dataclasses.dataclass
class ExperimentResult:
    """All variants of one figure-style experiment."""

    dataset: str
    train_horizon_s: float
    test_horizons_s: tuple[float, ...]
    variants: dict[str, VariantResult]
    models: dict[str, list[TwoBranchSoCNet]] = dataclasses.field(default_factory=dict)

    def mean_grid(self) -> dict[str, dict[float, float]]:
        """``{variant: {horizon: mean MAE}}`` for reporting."""
        return {
            name: {h: v.mean(h) for h in self.test_horizons_s} for name, v in self.variants.items()
        }

    def best_variant(self, horizon_s: float, exclude: tuple[str, ...] = ()) -> str:
        """Name of the lowest-MAE variant at a horizon."""
        candidates = {n: v.mean(horizon_s) for n, v in self.variants.items() if n not in exclude}
        return min(candidates, key=candidates.get)

    def best_horizon(self, variant: str) -> float:
        """The test horizon where a variant scores best (Fig. 5 uses it)."""
        v = self.variants[variant]
        return min(self.test_horizons_s, key=v.mean)


def _evaluate_group(
    train_cycles: CycleSet,
    test_cycles: CycleSet,
    train_horizon_s: float,
    test_horizons_s: tuple[float, ...],
    variants: dict,
    seeds: tuple[int, ...],
    train_config: TrainConfig | None,
    model_config: ModelConfig | None,
    train_stride: int,
    test_stride: int,
    keep_models: bool,
    models_out: dict[str, list[TwoBranchSoCNet]],
) -> dict[str, dict[float, list[float]]]:
    """Score every variant on one (train, test) cycle group.

    Split training (Sec. III-B) keeps Branch 1 apart from Branch 2 and
    the physics loss, and each purpose draws its own ``spawn_seed``
    stream, so one shared Branch 1 per seed plus a copy per variant for
    Branch 2 equals one :func:`train_two_branch` per variant, bit for bit.
    """
    estimation = make_estimation_samples(train_cycles, stride=train_stride)
    prediction = make_prediction_samples(train_cycles, horizon_s=train_horizon_s, stride=train_stride)
    test_samples = {
        h: make_prediction_samples(test_cycles, horizon_s=h, stride=test_stride)
        for h in test_horizons_s
    }
    physics_only = PhysicsOnlyModel(float(np.median(prediction.capacity_ah)))
    scores = {name: {h: [] for h in test_horizons_s} for name in variants}
    for seed in seeds:
        config = dataclasses.replace(train_config if train_config is not None else TrainConfig(), seed=seed)
        shared, _ = train_two_branch(
            estimation,
            prediction,
            model_config=model_config,
            train_config=dataclasses.replace(config, epochs_branch2=0),
        )
        for name, physics in variants.items():
            if physics == PHYSICS_ONLY:
                # the paper's Physics-Only keeps the trained Branch 1 and
                # replaces only the predictive branch with Eq. 1
                for h, samples in test_samples.items():
                    soc_hat = shared.estimate_soc(samples.v_t, samples.i_t, samples.temp_t)
                    predicted = physics_only.predict_samples(samples, soc_now=soc_hat)
                    scores[name][h].append(mae(predicted, samples.soc_target))
                continue
            model = copy.deepcopy(shared)
            SplitTrainer(model, config, physics).train_branch2(prediction)
            for h, samples in test_samples.items():
                scores[name][h].append(mae(model.predict_samples(samples), samples.soc_target))
            if keep_models:
                models_out.setdefault(name, []).append(model)
    return scores


def evaluate_variants(
    train_cycles: CycleSet,
    test_cycles: CycleSet,
    train_horizon_s: float,
    test_horizons_s: tuple[float, ...],
    variants: dict[str, PhysicsConfig | None | str],
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    train_config: TrainConfig | None = None,
    model_config: ModelConfig | None = None,
    smooth_window_s: float | None = None,
    train_stride: int = 1,
    test_stride: int = 1,
    dataset_name: str = "dataset",
    keep_models: bool = False,
    group_by_tag: str | None = None,
) -> ExperimentResult:
    """Run the Fig. 3/4 experiment grid.

    Parameters
    ----------
    train_cycles, test_cycles:
        Campaign splits (pre-filtered by temperature if needed).
    train_horizon_s:
        Native data horizon ``N`` for Branch 2's data loss.
    test_horizons_s:
        Horizons of the sliding-window test sets.
    variants:
        ``{name: PhysicsConfig}`` for PINNs, ``{name: None}`` for
        No-PINN, ``{name: PHYSICS_ONLY}`` for Coulomb counting.
    seeds:
        Training seeds to average (paper: 5).
    smooth_window_s:
        Optional moving-average preprocessing (30 s for LG).
    train_stride, test_stride:
        Sample thinning for dense campaigns.
    keep_models:
        Retain every trained model per variant, one per seed and group
        (Fig. 5 rolls them out, Table I scores them per temperature).
    group_by_tag:
        Train one model per distinct cycle tag value (e.g.
        ``"chemistry"`` on Sandia: Eq. 1 carries a single ``Crated``,
        so each battery gets its own network) and pool the scores.

    Returns
    -------
    ExperimentResult
    """
    if not variants:
        raise ValueError("no variants given")
    if smooth_window_s is not None:
        train_cycles = CycleSet([smooth_cycle(c, smooth_window_s) for c in train_cycles])
        test_cycles = CycleSet([smooth_cycle(c, smooth_window_s) for c in test_cycles])

    if group_by_tag is None:
        groups = [(train_cycles, test_cycles)]
    else:
        values = sorted({c.tags.get(group_by_tag) for c in train_cycles})
        if None in values:
            raise ValueError(f"some training cycles lack the {group_by_tag!r} tag")
        groups = [
            (train_cycles.by_tag(group_by_tag, v), test_cycles.by_tag(group_by_tag, v)) for v in values
        ]
        if any(len(tr) == 0 or len(te) == 0 for tr, te in groups):
            raise ValueError(f"tag {group_by_tag!r} does not partition both splits")

    models: dict[str, list[TwoBranchSoCNet]] = {}
    merged: dict[str, dict[float, list[float]]] = {
        name: {h: [] for h in test_horizons_s} for name in variants
    }
    for group_train, group_test in groups:
        scores = _evaluate_group(
            group_train,
            group_test,
            train_horizon_s,
            test_horizons_s,
            variants,
            seeds,
            train_config,
            model_config,
            train_stride,
            test_stride,
            keep_models,
            models,
        )
        for name, per_h in scores.items():
            for h, values_list in per_h.items():
                merged[name][h].extend(values_list)

    results = {name: VariantResult(name=name, mae_by_horizon=per_h) for name, per_h in merged.items()}
    return ExperimentResult(
        dataset=dataset_name,
        train_horizon_s=train_horizon_s,
        test_horizons_s=tuple(test_horizons_s),
        variants=results,
        models=models,
    )
