"""Regenerate Fig. 3: SoC-prediction MAE on the Sandia campaign.

Paper artifact: six configurations (No-PINN, Physics-Only, PINN-120s,
PINN-240s, PINN-360s, PINN-All) evaluated at 120/240/360 s horizons.

Expected shape: every useful PINN beats No-PINN
off-horizon with the gap growing with horizon; PINN-All is best or
near-best everywhere.
"""

from repro.eval.experiments import run_fig3
from repro.eval.metrics import improvement_percent


def test_fig3_sandia(benchmark, budget):
    result = benchmark.pedantic(run_fig3, args=(budget,), kwargs={"quiet": False}, rounds=1, iterations=1)

    grid = result.mean_grid()
    benchmark.extra_info["mae_grid"] = {k: {f"{h:g}s": v for h, v in row.items()} for k, row in grid.items()}

    # --- the paper's headline claims, asserted on the regenerated data
    no_pinn = grid["No-PINN"]
    best_trained = {
        h: min(v for name, row in grid.items() if name not in ("No-PINN", "Physics-Only") for v in [row[h]])
        for h in result.test_horizons_s
    }
    # 1. No-PINN error grows with the horizon (trained only at 120 s)
    assert no_pinn[120.0] < no_pinn[240.0] < no_pinn[360.0]
    # 2. the best PINN beats No-PINN at every test horizon
    for h in result.test_horizons_s:
        assert best_trained[h] < no_pinn[h], f"no PINN beat No-PINN at {h}s"
    # 3. the improvement grows off-horizon (paper: 21-22%; band kept wide)
    gain_360 = improvement_percent(no_pinn[360.0], best_trained[360.0])
    assert gain_360 > 10.0
    # 4. PINN-All is within 20% of the best trained variant everywhere
    for h in result.test_horizons_s:
        assert grid["PINN-All"][h] <= best_trained[h] * 1.2
