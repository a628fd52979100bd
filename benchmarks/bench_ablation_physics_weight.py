"""Ablation EXP-A2: weight of the physics term in the Eq. 2 loss.

The paper uses an unweighted sum of the data MAE and the physics MAE.
This ablation sweeps the physics weight to show the regularization
trade-off: 0 recovers No-PINN (poor off-horizon), very large weights
drown the data term (Eq. 1's capacity bias leaks in), and weights
around 1 balance the two — supporting the paper's unweighted choice.
"""

import dataclasses

from repro.core import PhysicsConfig, TrainConfig
from repro.datasets.sandia import cached_sandia
from repro.eval import evaluate_variants

WEIGHTS = (0.0, 0.25, 1.0, 4.0)


def test_ablation_physics_weight(benchmark, budget):
    data = cached_sandia(dataclasses.replace(budget.sandia, cells=("sandia-nmc",)))
    variants = {f"{w:g}": PhysicsConfig(horizons_s=(120.0, 240.0, 360.0), weight=w) for w in WEIGHTS}

    def run():
        result = evaluate_variants(
            data.train(),
            data.test(),
            train_horizon_s=120.0,
            test_horizons_s=(120.0, 360.0),
            variants=variants,
            seeds=budget.seeds,
            train_config=TrainConfig(epochs_branch1=120, epochs_branch2=120),
        )
        return dict(zip(WEIGHTS, result.mean_grid().values()))

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n== EXP-A2: physics-loss weight sweep ==")
    for weight, per_h in grid.items():
        print(f"  weight={weight:<5g} " + "  ".join(f"@{h:g}s {v:.4f}" for h, v in per_h.items()))
    benchmark.extra_info["grid"] = {f"{w:g}": {f"{h:g}": v for h, v in r.items()} for w, r in grid.items()}

    # any nonzero physics weight must improve the unseen 360 s horizon
    assert min(grid[w][360.0] for w in WEIGHTS if w > 0) < grid[0.0][360.0]
