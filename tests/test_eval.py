"""Tests for metrics, reporting, the experiment harness, and drivers."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import PhysicsOnlyModel
from repro.core import PhysicsConfig, SplitTrainer, TrainConfig, train_two_branch
from repro.datasets import make_estimation_samples, make_prediction_samples
from repro.eval import (
    PHYSICS_ONLY,
    ExperimentResult,
    VariantResult,
    evaluate_variants,
    format_mae_grid,
    format_rollout_summary,
    format_table,
    improvement_percent,
    mae,
    max_abs_error,
    rmse,
    save_csv,
)


class TestMetrics:
    def test_mae(self):
        assert mae([1.0, 2.0], [2.0, 0.0]) == pytest.approx(1.5)

    def test_rmse(self):
        assert rmse([1.0, 2.0], [2.0, 0.0]) == pytest.approx(np.sqrt(2.5))

    def test_rmse_ge_mae(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=100), rng.normal(size=100)
        assert rmse(a, b) >= mae(a, b)

    def test_max_abs_error(self):
        assert max_abs_error([1.0, 5.0], [1.5, 1.0]) == pytest.approx(4.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            mae([1.0], [1.0, 2.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mae([], [])

    def test_improvement_percent(self):
        assert improvement_percent(0.1, 0.08) == pytest.approx(20.0)
        assert improvement_percent(0.1, 0.12) == pytest.approx(-20.0)

    def test_improvement_invalid_baseline(self):
        with pytest.raises(ValueError):
            improvement_percent(0.0, 0.1)


class TestReporting:
    def test_format_table_alignment(self):
        text = format_table(["a", "long_header"], [[1.0, "x"], [2.5, "yy"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_format_table_floats(self):
        text = format_table(["v"], [[0.123456]], float_digits=3)
        assert "0.123" in text

    def test_format_table_validation(self):
        with pytest.raises(ValueError):
            format_table([], [])
        with pytest.raises(ValueError):
            format_table(["a"], [[1, 2]])

    def test_format_mae_grid_improvements(self):
        grid = {"No-PINN": {30.0: 0.1}, "PINN": {30.0: 0.05}}
        text = format_mae_grid(grid, baseline="No-PINN")
        assert "+50%" in text

    def test_format_mae_grid_empty_raises(self):
        with pytest.raises(ValueError):
            format_mae_grid({})

    def test_format_rollout_summary(self):
        from repro.core import RolloutResult

        result = RolloutResult(
            time_s=np.array([0.0, 30.0, 60.0]),
            soc_pred=np.array([0.9, 0.7, 0.5]),
            soc_true=np.array([0.9, 0.8, 0.45]),
            initial_soc=0.9,
            step_s=30.0,
        )
        text = format_rollout_summary({"us06": result})
        assert "us06" in text and "rmse" in text and "max|err|" in text
        assert f"{result.rmse():.4f}" in text
        assert f"{result.max_error():.4f}" in text

    def test_format_rollout_summary_truncates(self):
        from repro.core import RolloutResult

        r = RolloutResult(
            time_s=np.zeros(2), soc_pred=np.zeros(2), soc_true=np.zeros(2),
            initial_soc=0.0, step_s=1.0,
        )
        text = format_rollout_summary({"a": r, "b": r, "c": r}, max_rows=1)
        assert "2 more trajectories" in text
        with pytest.raises(ValueError):
            format_rollout_summary({})

    def test_save_csv_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "out.csv"
        save_csv(path, ["a", "b"], [[1, 2], [3, 4]])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[2] == "3,4"


class TestVariantResult:
    def test_mean_std(self):
        v = VariantResult("x", {30.0: [0.1, 0.2]})
        assert v.mean(30.0) == pytest.approx(0.15)
        assert v.std(30.0) == pytest.approx(0.05)


class TestExperimentResult:
    def _result(self):
        return ExperimentResult(
            dataset="d",
            train_horizon_s=30.0,
            test_horizons_s=(30.0, 70.0),
            variants={
                "A": VariantResult("A", {30.0: [0.1], 70.0: [0.3]}),
                "B": VariantResult("B", {30.0: [0.2], 70.0: [0.1]}),
            },
        )

    def test_mean_grid(self):
        grid = self._result().mean_grid()
        assert grid["A"][30.0] == pytest.approx(0.1)

    def test_best_variant(self):
        result = self._result()
        assert result.best_variant(30.0) == "A"
        assert result.best_variant(70.0) == "B"
        assert result.best_variant(30.0, exclude=("A",)) == "B"

    def test_best_horizon(self):
        result = self._result()
        assert result.best_horizon("A") == 30.0
        assert result.best_horizon("B") == 70.0


class TestEvaluateVariants:
    """Miniature end-to-end run of the Fig. 3-style harness."""

    @pytest.fixture(scope="class")
    def tiny_result(self, request):
        small_sandia = request.getfixturevalue("small_sandia")
        return evaluate_variants(
            small_sandia.train(),
            small_sandia.test(),
            train_horizon_s=120.0,
            test_horizons_s=(120.0, 240.0),
            variants={
                "No-PINN": None,
                "Physics-Only": PHYSICS_ONLY,
                "PINN": PhysicsConfig(horizons_s=(120.0, 240.0), n_collocation=64),
            },
            seeds=(0, 1),
            train_config=TrainConfig(epochs_branch1=20, epochs_branch2=20),
            keep_models=True,
        )

    def test_all_variants_scored(self, tiny_result):
        assert set(tiny_result.variants) == {"No-PINN", "Physics-Only", "PINN"}

    def test_one_score_per_seed(self, tiny_result):
        for v in tiny_result.variants.values():
            assert all(len(scores) == 2 for scores in v.mae_by_horizon.values())

    def test_scores_positive_and_finite(self, tiny_result):
        for v in tiny_result.variants.values():
            for scores in v.mae_by_horizon.values():
                assert all(0 < s < 1 for s in scores)

    def test_models_kept_per_seed(self, tiny_result):
        assert len(tiny_result.models["No-PINN"]) == 2
        assert len(tiny_result.models["PINN"]) == 2
        assert "Physics-Only" not in tiny_result.models

    def test_empty_variants_raise(self, small_sandia):
        with pytest.raises(ValueError):
            evaluate_variants(
                small_sandia.train(), small_sandia.test(), 120.0, (120.0,), {}, seeds=(0,)
            )

    def test_group_by_missing_tag_raises(self, small_sandia):
        with pytest.raises(ValueError):
            evaluate_variants(
                small_sandia.train(),
                small_sandia.test(),
                120.0,
                (120.0,),
                {"No-PINN": None},
                seeds=(0,),
                train_config=TrainConfig(epochs_branch1=1, epochs_branch2=1),
                group_by_tag="no-such-tag",
            )

    def test_group_by_chemistry_pools_scores(self, small_sandia):
        result = evaluate_variants(
            small_sandia.train(),
            small_sandia.test(),
            120.0,
            (120.0,),
            {"No-PINN": None},
            seeds=(0,),
            train_config=TrainConfig(epochs_branch1=2, epochs_branch2=2),
            group_by_tag="chemistry",
        )
        # one chemistry in the small fixture -> one score per seed
        assert len(result.variants["No-PINN"].mae_by_horizon[120.0]) == 1


class TestSharedBranch1:
    """A sweep trains Branch 1 once per (group, seed), and what it keeps
    and scores equals training every variant alone, array for array."""

    SEEDS = (0, 1)
    CONFIG = TrainConfig(epochs_branch1=2, epochs_branch2=2)

    @pytest.mark.parametrize(
        "campaign, horizons, group_by_tag",
        [("small_lg", (30.0, 50.0), None), ("small_sandia", (120.0, 240.0), "chemistry")],
    )
    def test_sweep_equals_solo_training(self, request, monkeypatch, campaign, horizons, group_by_tag):
        data = request.getfixturevalue(campaign)
        trained = {"No-PINN": None, "PINN": PhysicsConfig(horizons_s=horizons, n_collocation=64)}
        variants = {"No-PINN": None, "Physics-Only": PHYSICS_ONLY, "PINN": trained["PINN"]}
        branch1_seeds = []
        train_branch1 = SplitTrainer.train_branch1

        def counted(trainer, samples):
            branch1_seeds.append(trainer.config.seed)
            return train_branch1(trainer, samples)

        monkeypatch.setattr(SplitTrainer, "train_branch1", counted)
        result = evaluate_variants(
            data.train(),
            data.test(),
            horizons[0],
            horizons,
            variants,
            seeds=self.SEEDS,
            train_config=self.CONFIG,
            keep_models=True,
            group_by_tag=group_by_tag,
        )
        monkeypatch.undo()

        if group_by_tag is None:
            groups = [(data.train(), data.test())]
        else:
            tags = sorted({c.tags[group_by_tag] for c in data.train()})
            groups = [(data.train().by_tag(group_by_tag, v), data.test().by_tag(group_by_tag, v))
                      for v in tags]
        assert branch1_seeds == [seed for _ in groups for seed in self.SEEDS]

        solo = {name: [] for name in trained}
        physics_only = {h: [] for h in horizons}
        for train, test in groups:
            est = make_estimation_samples(train)
            pred = make_prediction_samples(train, horizon_s=horizons[0])
            baseline = PhysicsOnlyModel(float(np.median(pred.capacity_ah)))
            b1_only = dataclasses.replace(self.CONFIG, epochs_branch2=0)
            for seed in self.SEEDS:
                model, _ = train_two_branch(est, pred, train_config=b1_only, seed=seed)
                for h in horizons:
                    samples = make_prediction_samples(test, horizon_s=h)
                    soc_hat = model.estimate_soc(samples.v_t, samples.i_t, samples.temp_t)
                    predicted = baseline.predict_samples(samples, soc_now=soc_hat)
                    physics_only[h].append(mae(predicted, samples.soc_target))
                for name, physics in trained.items():
                    solo[name].append(
                        train_two_branch(est, pred, train_config=self.CONFIG, physics=physics, seed=seed)[0]
                    )

        assert result.variants["Physics-Only"].mae_by_horizon == physics_only
        assert set(result.models) == set(trained)
        for name, models in solo.items():
            assert len(result.models[name]) == len(models)
            for kept, alone in zip(result.models[name], models):
                want = alone.state_dict()
                got = kept.state_dict()
                assert got.keys() == want.keys()
                for key in want:
                    np.testing.assert_array_equal(got[key], want[key], err_msg=f"{name}: {key}")
