"""End-to-end tests for the command-line interface.

These exercise the full user journey: train -> checkpoint -> inspect ->
evaluate -> predict -> rollout, on a tiny synthetic campaign.
"""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.nn.serialization import load_state, save_state


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A model trained via the CLI itself (few epochs, fast campaign)."""
    path = tmp_path_factory.mktemp("cli") / "model.npz"
    code = main([
        "train", "--dataset", "sandia", "--pinn", "--epochs", "15",
        "--fast", "--out", str(path),
    ])
    assert code == 0
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "nasa", "--out", "x.npz"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--out", "m.npz"])
        assert args.dataset == "sandia"
        assert not args.pinn


class TestTrain:
    def test_checkpoint_written_with_meta(self, checkpoint):
        state, meta = load_state(checkpoint)
        assert meta["dataset"] == "sandia"
        assert meta["pinn"] is True
        assert meta["hidden"] == [16, 32, 16]
        # both branches' weights are present
        assert any(k.startswith("branch1") for k in state)
        assert any(k.startswith("branch2") for k in state)


class TestInspect:
    def test_reports_cost(self, checkpoint, capsys):
        assert main(["inspect", checkpoint]) == 0
        out = capsys.readouterr().out
        assert "2322" in out
        assert "KiB" in out


class TestEvaluate:
    def test_scores_printed(self, checkpoint, capsys):
        assert main(["evaluate", checkpoint, "--fast", "--horizons", "120"]) == 0
        out = capsys.readouterr().out
        assert "SoC(t+120s) MAE" in out
        assert "SoC(t)" in out


class TestPredict:
    def test_one_shot(self, checkpoint, capsys):
        code = main([
            "predict", checkpoint, "--voltage", "3.7", "--current", "3.0",
            "--temp", "25", "--workload-current", "6.0", "--horizon", "120",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "SoC(t)" in out and "SoC(t+120s)" in out


class TestRollout:
    def test_unknown_cycle_lists_names(self, checkpoint):
        with pytest.raises(SystemExit, match="test cycles"):
            main(["rollout", checkpoint, "--fast", "--cycle", "nope", "--step", "120"])

    def test_rollout_with_csv(self, checkpoint, capsys, tmp_path):
        csv = tmp_path / "traj.csv"
        code = main([
            "rollout", checkpoint, "--fast", "--cycle", "nmc-2C-25C-cycle0",
            "--step", "240", "--csv", str(csv),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mae" in out and "rmse" in out and "max|err|" in out
        assert csv.exists()
        header = csv.read_text().splitlines()[0]
        assert header == "time_s,soc_pred,soc_true"


class TestServeSim:
    def test_fleet_simulation_reports_throughput(self, checkpoint, capsys):
        code = main([
            "serve-sim", checkpoint, "--cells", "6", "--fast", "--step", "120",
            "--show", "2", "--compare-loop",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cells/s" in out
        assert "trajectory RMSE" in out
        assert "speedup" in out
        assert "cell-00000" in out

    def test_served_through_registry(self, checkpoint, capsys, tmp_path):
        code = main([
            "serve-sim", checkpoint, "--cells", "4", "--fast", "--step", "120",
            "--registry", str(tmp_path / "reg"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serving via registry" in out
        assert (tmp_path / "reg" / "sandia-serve@v1.npz").exists()

    def test_metrics_json_snapshot_and_drift_gate(self, checkpoint, capsys, tmp_path):
        """serve-sim --metrics-json writes a merged snapshot and a
        trained checkpoint keeps the drift gate green on clean traffic."""
        import json

        metrics_path = tmp_path / "metrics.json"
        code = main([
            "serve-sim", checkpoint, "--cells", "6", "--fast", "--step", "120",
            "--metrics-json", str(metrics_path), "--fail-on-drift",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "monitoring: 0 drift/physics events" in out
        record = json.loads(metrics_path.read_text())
        counters = record["metrics"]["counters"]
        rollout = next(v for k, v in counters.items() if 'op="rollout"' in k)
        assert rollout == 6.0
        assert record["drift_event_total"] == 0
        assert record["drift_events"] == []
        assert any(k.startswith("engine_physics_residual") for k in record["metrics"]["histograms"])

    def test_monitor_snapshot_watch_and_export(self, checkpoint, capsys, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main([
            "serve-sim", checkpoint, "--cells", "4", "--fast", "--step", "120",
            "--metrics-json", str(metrics_path),
        ]) == 0
        capsys.readouterr()
        assert main(["monitor", "snapshot", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "engine_requests_total" in out
        assert "drift events: 0" in out
        assert main(["monitor", "snapshot", str(metrics_path), "--prometheus"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE engine_requests_total counter" in out
        prom_path = tmp_path / "metrics.prom"
        assert main(["monitor", "export", str(metrics_path), "--out", str(prom_path)]) == 0
        assert "# TYPE" in prom_path.read_text()
        capsys.readouterr()
        assert main([
            "monitor", "watch", str(metrics_path), "--interval", "0.01", "--count", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("[watch") == 2

    def test_journaled(self, checkpoint, capsys, tmp_path):
        journal = tmp_path / "fleet.journal"
        code = main([
            "serve-sim", checkpoint, "--cells", "8", "--fast", "--step", "120",
            "--journal", str(journal),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "journal:" in out
        assert journal.exists()
        from repro.serve import StateJournal

        assert len(StateJournal(journal).snapshot().cells) == 8

    def test_async_sends_exactly_the_requested_count(self, capsys, tmp_path):
        """--requests not divisible by --clients still sends exactly N."""
        import json

        soak = tmp_path / "soak.json"
        code = main([
            "serve-sim", "--untrained", "--cells", "4", "--fast", "--step", "120",
            "--async", "--requests", "10", "--clients", "4", "--soak-json", str(soak),
            "--fail-on-error",  # also checks the books after stop()
        ])
        assert code == 0
        capsys.readouterr()
        record = json.loads(soak.read_text())
        assert record["requests"] == 10
        assert record["errors"] == 0

    def test_async_soak_fails_on_unbalanced_books(self, capsys, monkeypatch):
        from repro.serve import SocGateway

        stats_dict = SocGateway.stats_dict

        def lost_request(gateway):
            report = stats_dict(gateway)
            report["estimate"]["requests"] += 1  # a request that was never answered
            return report

        monkeypatch.setattr(SocGateway, "stats_dict", lost_request)
        code = main([
            "serve-sim", "--untrained", "--cells", "4", "--fast", "--step", "120",
            "--async", "--requests", "10", "--clients", "4", "--fail-on-error",
        ])
        assert code == 1
        assert "estimate: " in capsys.readouterr().out


class TestRegistryCommand:
    @pytest.fixture()
    def registry_dir(self, checkpoint, tmp_path):
        from repro.core import ModelConfig, TwoBranchSoCNet
        from repro.serve import ModelRegistry

        registry = ModelRegistry(tmp_path / "reg")
        model = TwoBranchSoCNet(ModelConfig(), rng=np.random.default_rng(0))
        registry.publish("prod", model, chemistry="nmc")
        registry.publish("prod", model, channel="canary")
        return str(tmp_path / "reg")

    def test_list_shows_versions_and_channels(self, registry_dir, capsys):
        assert main(["registry", "list", registry_dir]) == 0
        out = capsys.readouterr().out
        assert "prod@v1" in out and "prod@v2" in out
        assert "stable" in out and "canary" in out

    def test_promote_then_rollback_errors(self, registry_dir, capsys):
        assert main(["registry", "promote", registry_dir, "prod"]) == 0
        assert "promoted prod@v2" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="no canary"):
            main(["registry", "rollback", registry_dir, "prod"])

    def test_empty_registry_listing(self, tmp_path, capsys):
        assert main(["registry", "list", str(tmp_path / "empty")]) == 0
        assert "empty" in capsys.readouterr().out


class TestRetrainCommand:
    """``repro-soc retrain``: the one-shot offline arm of the retrain loop."""

    @pytest.fixture()
    def plant(self, tmp_path):
        from repro.core import ModelConfig, TwoBranchSoCNet
        from repro.serve import ModelRegistry, StateJournal
        from repro.serve.engine import CellState

        registry = ModelRegistry(tmp_path / "reg")
        model = TwoBranchSoCNet(ModelConfig(), rng=np.random.default_rng(0))
        registry.publish("prod", model, chemistry="nmc")
        journal = tmp_path / "fleet.journal"
        with StateJournal(journal) as jrn:
            for cid in ("a", "b"):
                jrn.append_cell(CellState(cell_id=cid, chemistry="nmc", model_key="prod"))
            jrn.begin_rollout(120.0)
            for cid in ("a", "b"):
                jrn.append_windows([(cid, 0, 0.9)])
                jrn.append_windows(
                    [(cid, w, 0.9 - 0.05 * w, 1.0, 25.0, 120.0, 2.0) for w in range(1, 8)]
                )
        return registry, str(tmp_path / "reg"), str(journal)

    def test_offline_retrain_publishes_a_canary(self, plant, capsys):
        registry, registry_dir, journal = plant
        code = main(["retrain", registry_dir, "prod", "--journal", journal, "--epochs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "harvested 14 row(s) from 2 cell(s)" in out
        assert "published prod@v2 to the canary channel" in out
        registry.refresh()
        assert registry.channels("prod") == {"stable": 1, "canary": 2}
        entry = registry.describe("prod@canary")
        assert entry.extra["retrained_from"] == 1
        assert entry.extra["harvest_rows"] == 14

    def test_dry_run_trains_but_publishes_nothing(self, plant, capsys):
        registry, registry_dir, journal = plant
        code = main([
            "retrain", registry_dir, "prod", "--journal", journal, "--epochs", "2", "--dry-run",
        ])
        assert code == 0
        assert "dry run: candidate not published" in capsys.readouterr().out
        registry.refresh()
        assert registry.channels("prod") == {"stable": 1}

    def test_sparse_journal_publishes_nothing_and_exits_nonzero(self, plant, capsys):
        registry, registry_dir, journal = plant
        code = main([
            "retrain", registry_dir, "prod", "--journal", journal, "--min-rows", "500",
        ])
        assert code == 1
        assert "not enough rows" in capsys.readouterr().out
        registry.refresh()
        assert registry.channels("prod") == {"stable": 1}

    def test_unknown_model_is_an_error(self, plant):
        _, registry_dir, journal = plant
        with pytest.raises(SystemExit, match="error:"):
            main(["retrain", registry_dir, "ghost", "--journal", journal])


class TestLoadValidation:
    def test_non_checkpoint_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.npz"
        save_state({"w": np.ones(3)}, bogus, meta={"something": 1})
        with pytest.raises(SystemExit, match="not a repro-soc checkpoint"):
            main(["inspect", str(bogus)])
