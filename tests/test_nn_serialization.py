"""Tests for ``.npz`` checkpointing (:mod:`repro.nn.serialization`)."""

import numpy as np
import pytest

from repro.core import ModelConfig, TwoBranchSoCNet
from repro.nn.serialization import load_state, peek_meta, save_state


class TestStateRoundTrip:
    def test_arrays_and_meta_survive(self, tmp_path):
        path = tmp_path / "state.npz"
        state = {"a": np.arange(6.0).reshape(2, 3), "b": np.float64(2.5) * np.ones(4)}
        for meta in ({"seed": 3, "dataset": "sandia", "nested": {"lr": 0.003}}, {"label": "Pollo e più"}):
            save_state(state, path, meta=meta)
            loaded, loaded_meta = load_state(path)
            assert set(loaded) == {"a", "b"}
            np.testing.assert_array_equal(loaded["a"], state["a"])
            np.testing.assert_array_equal(loaded["b"], state["b"])
            assert loaded_meta == meta

    def test_meta_optional(self, tmp_path):
        path = tmp_path / "bare.npz"
        save_state({"w": np.ones(2)}, path)
        _, meta = load_state(path)
        assert meta is None
        assert peek_meta(path) is None

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_state({"__meta_json__": np.ones(1)}, tmp_path / "x.npz")

    def test_peek_meta_skips_weights(self, tmp_path):
        path = tmp_path / "big.npz"
        save_state({"w": np.zeros((64, 64))}, path, meta={"tag": "fleet"})
        assert peek_meta(path) == {"tag": "fleet"}


class TestModelRoundTrip:
    def test_two_branch_weights_and_meta_survive(self, tmp_path):
        path = tmp_path / "model.npz"
        model = TwoBranchSoCNet(
            ModelConfig(horizon_scale_s=70.0), rng=np.random.default_rng(7)
        )
        meta = {"dataset": "lg", "horizon_scale": 70.0, "hidden": [16, 32, 16]}
        save_state(model.state_dict(), path, meta=meta)

        clone = TwoBranchSoCNet(
            ModelConfig(horizon_scale_s=70.0), rng=np.random.default_rng(99)
        )
        state, returned_meta = load_state(path)
        clone.load_state_dict(state)
        assert returned_meta == meta
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(dict(clone.named_parameters())[name].data, param.data)
        # behaviourally identical, not just parameter-identical
        np.testing.assert_array_equal(
            clone.predict_soc(0.8, 2.0, 25.0, 30.0), model.predict_soc(0.8, 2.0, 25.0, 30.0)
        )

    def test_mismatched_architecture_rejected(self, tmp_path):
        path = tmp_path / "model.npz"
        save_state(TwoBranchSoCNet(rng=np.random.default_rng(0)).state_dict(), path)
        small = TwoBranchSoCNet(ModelConfig(hidden=(8,)), rng=np.random.default_rng(0))
        with pytest.raises((KeyError, ValueError)):
            small.load_state_dict(load_state(path)[0])
