"""Canonical experiment drivers: one per table/figure of the paper.

Each ``run_*`` function regenerates the rows/series behind one artifact
of the evaluation section:

- :func:`run_fig3` — Sandia MAE bars (Fig. 3);
- :func:`run_fig4` — LG MAE bars (Fig. 4);
- :func:`run_table1` — state-of-the-art comparison (Table I);
- :func:`run_fig5` — autoregressive full-discharge rollouts (Fig. 5).

Figs. 3 and 4 and Table I's two-branch rows each train through one
:func:`~repro.eval.harness.evaluate_variants` sweep (Branch 1 once per
seed); Fig. 5 rolls out Fig. 4's models, and Table I trains each
LSTM / DE-* baseline once.

Two budgets exist: ``fast_budget()`` (scaled-down campaigns, fewer
seeds/epochs — minutes on a laptop; used by the pytest benchmarks) and
``full_budget()`` (paper-parity protocol: full campaigns, 5 seeds).
Run from the command line::

    python -m repro.eval.experiments fig3 [--full] [--out results/]
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from ..baselines.de_pinn import DEConfig, make_de_pairs, train_de_estimator
from ..baselines.lstm import LSTMConfig, make_sequence_samples, paper_scale_config, train_lstm_estimator
from ..baselines.physics_only import PhysicsOnlyModel
from ..core.complexity import lstm_complexity, model_complexity
from ..core.config import ModelConfig, PhysicsConfig, TrainConfig
from ..core.rollout import model_rollout, rollout_cycle
from ..datasets.base import CycleSet
from ..datasets.lg import LGConfig, cached_lg
from ..datasets.preprocessing import smooth_cycle
from ..datasets.sandia import SandiaConfig, cached_sandia
from ..datasets.windowing import make_estimation_samples, make_prediction_samples
from ..nn.recurrent import LSTMRegressor
from .harness import PHYSICS_ONLY, ExperimentResult, evaluate_variants
from .metrics import mae
from .reporting import format_mae_grid, format_table, save_csv

__all__ = [
    "Budget",
    "fast_budget",
    "full_budget",
    "sandia_variants",
    "lg_variants",
    "run_fig3",
    "run_fig4",
    "run_table1",
    "run_fig5",
    "main",
]


@dataclasses.dataclass(frozen=True)
class Budget:
    """Compute budget for the experiment drivers.

    ``fast`` trades campaign size, seeds and epochs for wall-clock;
    ``full`` follows the paper's protocol.
    """

    name: str
    seeds: tuple[int, ...]
    sandia_train: TrainConfig
    lg_train: TrainConfig
    sandia: SandiaConfig
    lg: LGConfig
    lg_smooth_s: float
    lg_train_stride: int
    lg_test_stride: int
    sandia_stride: int
    lstm: LSTMConfig
    de_mlp: DEConfig
    de_lstm: DEConfig


def fast_budget() -> Budget:
    """Minutes-scale budget used by the pytest benchmarks."""
    return Budget(
        name="fast",
        seeds=(0, 1),
        sandia_train=TrainConfig(epochs_branch1=120, epochs_branch2=120),
        lg_train=TrainConfig(epochs_branch1=80, epochs_branch2=80, max_train_rows=10000),
        sandia=SandiaConfig(sim_dt_s=2.0, seed=0),
        lg=LGConfig(
            sampling_period_s=0.5,
            n_train_mixed=3,
            train_temps_c=(0.0, 10.0, 25.0),
            mixed_segment_s=(180.0, 420.0),
            seed=0,
        ),
        lg_smooth_s=30.0,
        lg_train_stride=10,
        lg_test_stride=20,
        sandia_stride=1,
        lstm=LSTMConfig(seq_len=30, sample_stride=2, epochs=6, max_train_rows=1500),
        de_mlp=DEConfig(backbone="mlp", epochs=10, max_train_rows=3000),
        de_lstm=DEConfig(backbone="lstm", hidden=(24,), epochs=6, max_train_rows=1500),
    )


def full_budget() -> Budget:
    """Paper-parity budget (full campaigns, 5 seeds)."""
    return Budget(
        name="full",
        seeds=(0, 1, 2, 3, 4),
        sandia_train=TrainConfig(epochs_branch1=250, epochs_branch2=250),
        lg_train=TrainConfig(epochs_branch1=40, epochs_branch2=40, max_train_rows=12000),
        sandia=SandiaConfig(seed=0),
        lg=LGConfig(seed=0),
        lg_smooth_s=30.0,
        lg_train_stride=100,
        lg_test_stride=100,
        sandia_stride=1,
        lstm=LSTMConfig(seq_len=30, sample_stride=10, epochs=15, max_train_rows=3000),
        de_mlp=DEConfig(backbone="mlp", epochs=25, max_train_rows=4000),
        de_lstm=DEConfig(backbone="lstm", hidden=(32,), epochs=12, max_train_rows=2000),
    )


def sandia_variants() -> dict:
    """The six Fig. 3 configurations."""
    return {
        "No-PINN": None,
        "Physics-Only": PHYSICS_ONLY,
        "PINN-120s": PhysicsConfig(horizons_s=(120.0,)),
        "PINN-240s": PhysicsConfig(horizons_s=(240.0,)),
        "PINN-360s": PhysicsConfig(horizons_s=(360.0,)),
        "PINN-All": PhysicsConfig(horizons_s=(120.0, 240.0, 360.0)),
    }


def lg_variants() -> dict:
    """The six Fig. 4 configurations."""
    return {
        "No-PINN": None,
        "Physics-Only": PHYSICS_ONLY,
        "PINN-30s": PhysicsConfig(horizons_s=(30.0,)),
        "PINN-50s": PhysicsConfig(horizons_s=(50.0,)),
        "PINN-70s": PhysicsConfig(horizons_s=(70.0,)),
        "PINN-All": PhysicsConfig(horizons_s=(30.0, 50.0, 70.0)),
    }


# ----------------------------------------------------------------------
# Fig. 3 — Sandia
# ----------------------------------------------------------------------
def run_fig3(budget: Budget | None = None, out_dir: str | Path | None = None, quiet: bool = False) -> ExperimentResult:
    """Regenerate Fig. 3: SoC-prediction MAE on Sandia, 6 configs x 3 horizons."""
    budget = budget if budget is not None else fast_budget()
    data = cached_sandia(budget.sandia)
    result = evaluate_variants(
        data.train(),
        data.test(),
        train_horizon_s=120.0,
        test_horizons_s=(120.0, 240.0, 360.0),
        variants=sandia_variants(),
        seeds=budget.seeds,
        train_config=budget.sandia_train,
        model_config=ModelConfig(horizon_scale_s=360.0),
        train_stride=budget.sandia_stride,
        test_stride=budget.sandia_stride,
        dataset_name="sandia",
        group_by_tag="chemistry",
    )
    text = format_mae_grid(result.mean_grid(), baseline="No-PINN")
    if not quiet:
        print(f"\n== Fig. 3 (Sandia, {budget.name} budget, {len(budget.seeds)} seeds) ==")
        print(text)
    if out_dir is not None:
        rows = [
            [name, f"{h:g}", v.mean(h), v.std(h)]
            for name, v in result.variants.items()
            for h in result.test_horizons_s
        ]
        save_csv(Path(out_dir) / "fig3_sandia.csv", ["config", "horizon_s", "mae_mean", "mae_std"], rows)
    return result


# ----------------------------------------------------------------------
# Fig. 4 — LG
# ----------------------------------------------------------------------
def run_fig4(
    budget: Budget | None = None,
    out_dir: str | Path | None = None,
    quiet: bool = False,
    keep_models: bool = False,
) -> ExperimentResult:
    """Regenerate Fig. 4: SoC-prediction MAE on LG, 6 configs x 3 horizons.

    Tests use the four driving-pattern cycles plus the held-out mixed
    cycle at 25 C, with the 30 s moving-average preprocessing.
    """
    budget = budget if budget is not None else fast_budget()
    data = cached_lg(budget.lg)
    test_25 = data.test().filter(lambda c: c.ambient_c == 25.0)
    result = evaluate_variants(
        data.train(),
        test_25,
        train_horizon_s=30.0,
        test_horizons_s=(30.0, 50.0, 70.0),
        variants=lg_variants(),
        seeds=budget.seeds,
        train_config=budget.lg_train,
        model_config=ModelConfig(horizon_scale_s=70.0),
        smooth_window_s=budget.lg_smooth_s,
        train_stride=budget.lg_train_stride,
        test_stride=budget.lg_test_stride,
        dataset_name="lg",
        keep_models=keep_models,
    )
    text = format_mae_grid(result.mean_grid(), baseline="No-PINN")
    if not quiet:
        print(f"\n== Fig. 4 (LG, {budget.name} budget, {len(budget.seeds)} seeds) ==")
        print(text)
    if out_dir is not None:
        rows = [
            [name, f"{h:g}", v.mean(h), v.std(h)]
            for name, v in result.variants.items()
            for h in result.test_horizons_s
        ]
        save_csv(Path(out_dir) / "fig4_lg.csv", ["config", "horizon_s", "mae_mean", "mae_std"], rows)
    return result


# ----------------------------------------------------------------------
# Table I — state-of-the-art comparison on LG
# ----------------------------------------------------------------------
def run_table1(budget: Budget | None = None, out_dir: str | Path | None = None, quiet: bool = False) -> list[list]:
    """Regenerate Table I: SoC(t) / SoC(t+N) MAE at 0 C and 25 C plus
    memory and operation counts, for our variants (the models one
    :func:`evaluate_variants` sweep keeps) and the baselines."""
    budget = budget if budget is not None else fast_budget()
    data = cached_lg(budget.lg)
    horizon = 30.0
    rows: list[list] = []

    # --- our model: No-PINN and PINN-All -----------------------------
    ours = evaluate_variants(
        data.train(),
        data.test(),
        train_horizon_s=horizon,
        test_horizons_s=(),  # the kept models are scored per temperature below
        variants={"No-PINN": None, "PINN-All": PhysicsConfig(horizons_s=(30.0, 50.0, 70.0))},
        seeds=budget.seeds,
        train_config=budget.lg_train,
        model_config=ModelConfig(horizon_scale_s=70.0),
        smooth_window_s=budget.lg_smooth_s,
        train_stride=budget.lg_train_stride,
        test_stride=budget.lg_test_stride,
        keep_models=True,
    )
    temps = sorted({c.ambient_c for c in data.test()})
    test_sets = {}
    for temp in temps:
        cycles = CycleSet([smooth_cycle(c, budget.lg_smooth_s) for c in data.test() if c.ambient_c == temp])
        test_sets[temp] = (
            make_estimation_samples(cycles, stride=budget.lg_test_stride),
            make_prediction_samples(cycles, horizon_s=horizon, stride=budget.lg_test_stride),
        )
    for name, models in ours.models.items():
        complexity = model_complexity(models[-1])
        for temp, (est, pred) in test_sets.items():
            est_mae = [mae(m.estimate_soc(*est.features.T), est.soc) for m in models]
            pred_mae = [mae(m.predict_samples(pred), pred.soc_target) for m in models]
            rows.append([
                name,
                f"{temp:g}",
                float(np.mean(est_mae)),
                float(np.mean(pred_mae)),
                f"{complexity.memory_kib():.1f} KiB",
                f"{complexity.ops:,}",
            ])

    # --- LSTM SoA baseline (accuracy: compact; complexity: paper scale)
    lstm_samples = make_sequence_samples(
        CycleSet([smooth_cycle(c, budget.lg_smooth_s) for c in data.train()]),
        seq_len=budget.lstm.seq_len,
        sample_stride=budget.lstm.sample_stride,
        window_stride=budget.lg_train_stride,
    )
    lstm_model, _ = train_lstm_estimator(lstm_samples, budget.lstm)
    paper_cfg = paper_scale_config()
    paper_net = LSTMRegressor(
        hidden_size=paper_cfg.hidden_size,
        num_layers=paper_cfg.num_layers,
        dense_size=paper_cfg.dense_size,
        rng=np.random.default_rng(0),
    )
    paper_report = lstm_complexity(paper_net, seq_len=paper_cfg.seq_len)
    for temp in temps:
        cycles = CycleSet([smooth_cycle(c, budget.lg_smooth_s) for c in data.test() if c.ambient_c == temp])
        seqs = make_sequence_samples(
            cycles,
            seq_len=budget.lstm.seq_len,
            sample_stride=budget.lstm.sample_stride,
            window_stride=budget.lg_test_stride,
        )
        rows.append([
            "LSTM [17]",
            f"{temp:g}",
            mae(lstm_model.estimate(seqs.sequences), seqs.soc),
            float("nan"),
            f"{paper_report.memory_bytes / 2**20:.1f} MiB",
            f"{paper_report.ops:,}",
        ])

    # --- DE-MLP / DE-LSTM (raw, unsmoothed inputs, as published) -----
    de_pairs = make_de_pairs(data.train(), stride=budget.lg_train_stride)
    for label, cfg in (("DE-LSTM [7]", budget.de_lstm), ("DE-MLP [7]", budget.de_mlp)):
        de_model, _ = train_de_estimator(de_pairs, cfg)
        for temp in temps:
            raw_cycles = CycleSet([c for c in data.test() if c.ambient_c == temp])
            est = make_estimation_samples(raw_cycles, stride=budget.lg_test_stride)
            rows.append([
                label,
                f"{temp:g}",
                mae(de_model.estimate(est.features), est.soc),
                float("nan"),
                f"{de_model.num_parameters() * 4 / 1024:.1f} KiB",
                "n.a.",
            ])

    headers = ["model", "T [C]", "SoC(t) MAE", "SoC(t+N) MAE", "Mem", "Ops"]
    if not quiet:
        print(f"\n== Table I (LG, {budget.name} budget) ==")
        print(format_table(headers, rows))
    if out_dir is not None:
        save_csv(Path(out_dir) / "table1_soa.csv", headers, rows)
    return rows


# ----------------------------------------------------------------------
# Fig. 5 — autoregressive full-discharge rollouts
# ----------------------------------------------------------------------
def run_fig5(
    budget: Budget | None = None,
    out_dir: str | Path | None = None,
    quiet: bool = False,
    fig4_result: ExperimentResult | None = None,
) -> dict[str, dict[str, dict[str, float]]]:
    """Regenerate Fig. 5: full-discharge rollouts at 25 C.

    Every variant rolls each test cycle autoregressively with its best
    single-step horizon (No-PINN and Physics-Only use the native 30 s,
    as in the paper).  Returns
    ``{cycle: {config: {"mae", "final_error", "signed_final_error",
    "drain_ratio", "steps"}}}``, each averaged over seeds, and reports
    the average end-of-discharge error, signed error and drain ratio
    (``fig5_summary.csv`` holds them per cycle and config).
    """
    budget = budget if budget is not None else fast_budget()
    if fig4_result is None:
        fig4_result = run_fig4(budget, quiet=True, keep_models=True)
    if not fig4_result.models:
        raise ValueError("Fig. 4 result carries no trained models; run with keep_models=True")

    data = cached_lg(budget.lg)
    test_25 = [smooth_cycle(c, budget.lg_smooth_s) for c in data.test() if c.ambient_c == 25.0]
    capacity = test_25[0].capacity_ah if test_25 else 3.0
    physics_only = PhysicsOnlyModel(capacity)

    step_choice: dict[str, float] = {}
    for name in fig4_result.variants:
        if name in ("No-PINN", "Physics-Only"):
            step_choice[name] = fig4_result.train_horizon_s
        else:
            step_choice[name] = fig4_result.best_horizon(name)

    results: dict[str, dict[str, dict[str, float]]] = {}
    series_rows: list[list] = []
    for cycle in test_25:
        per_config: dict[str, dict[str, float]] = {}
        for name in fig4_result.variants:
            step = step_choice[name]
            if name == "Physics-Only":
                rollouts = [
                    rollout_cycle(
                        physics_only.rollout_step, cycle, step, initial_soc=float(cycle.data.soc[0])
                    )
                ]
            else:
                rollouts = [model_rollout(m, cycle, step) for m in fig4_result.models[name]]
            per_config[name] = {
                "mae": float(np.mean([r.mae() for r in rollouts])),
                "final_error": float(np.mean([r.final_error() for r in rollouts])),
                "signed_final_error": float(np.mean([r.signed_final_error() for r in rollouts])),
                "drain_ratio": float(np.mean([r.drain_ratio() for r in rollouts])),
                "steps": float(len(rollouts[0]) - 1),
            }
            rollout = rollouts[0]  # representative series for the CSV
            for t, pred, truth in zip(rollout.time_s, rollout.soc_pred, rollout.soc_true):
                series_rows.append([cycle.name, name, t, pred, truth])
        results[cycle.name] = per_config

    configs = list(fig4_result.variants)
    headers = ["cycle"] + configs
    table_rows = [
        [cycle_name] + [results[cycle_name][c]["final_error"] for c in configs] for cycle_name in results
    ]
    for label, key in (
        ("AVG final |err|", "final_error"),
        ("AVG signed err", "signed_final_error"),
        ("AVG drain ratio", "drain_ratio"),
    ):
        averages = [float(np.mean([results[cy][c][key] for cy in results])) for c in configs]
        table_rows.append([label] + averages)
    if not quiet:
        print(f"\n== Fig. 5 (LG rollouts at 25 C, {budget.name} budget) ==")
        print("single-step horizons: " + ", ".join(f"{k}={v:g}s" for k, v in step_choice.items()))
        print(format_table(headers, table_rows))
    if out_dir is not None:
        save_csv(
            Path(out_dir) / "fig5_rollouts.csv",
            ["cycle", "config", "time_s", "soc_pred", "soc_true"],
            series_rows,
        )
        summary_keys = ("final_error", "signed_final_error", "drain_ratio")
        save_csv(
            Path(out_dir) / "fig5_summary.csv",
            ["cycle", "config", "step_s", *summary_keys],
            [
                [cy, c, step_choice[c], *(results[cy][c][key] for key in summary_keys)]
                for cy in results
                for c in configs
            ],
        )
    return results


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    """Command-line entry point (``python -m repro.eval.experiments``)."""
    parser = argparse.ArgumentParser(description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment", choices=["fig3", "fig4", "table1", "fig5", "all"])
    parser.add_argument("--full", action="store_true", help="use the paper-parity budget")
    parser.add_argument("--out", type=str, default=None, help="directory for CSV outputs")
    args = parser.parse_args(argv)
    budget = full_budget() if args.full else fast_budget()
    if args.experiment in ("fig3", "all"):
        run_fig3(budget, out_dir=args.out)
    if args.experiment in ("fig4", "all"):
        result = run_fig4(budget, out_dir=args.out, keep_models=args.experiment == "all")
        if args.experiment == "all":
            run_fig5(budget, out_dir=args.out, fig4_result=result)
    if args.experiment == "fig5":
        run_fig5(budget, out_dir=args.out)
    if args.experiment in ("table1", "all"):
        run_table1(budget, out_dir=args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
