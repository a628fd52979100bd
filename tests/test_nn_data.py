"""Tests for array datasets, shuffled minibatch loaders, and state files."""

import numpy as np
import pytest

from repro import nn


class TestTensorDataset:
    def test_len_and_getitem(self):
        ds = nn.TensorDataset(np.arange(10), np.arange(10) * 2)
        assert len(ds) == 10
        x, y = ds[3]
        assert x == 3 and y == 6

    def test_fancy_index(self):
        ds = nn.TensorDataset(np.arange(10))
        (rows,) = ds[np.array([1, 3])]
        np.testing.assert_array_equal(rows, [1, 3])

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            nn.TensorDataset(np.arange(3), np.arange(4))

    def test_empty_args_raise(self):
        with pytest.raises(ValueError):
            nn.TensorDataset()


class TestDataLoader:
    def test_batches_cover_dataset(self):
        ds = nn.TensorDataset(np.arange(10))
        loader = nn.DataLoader(ds, batch_size=3, rng=np.random.default_rng(0))
        seen = np.concatenate([batch[0] for batch in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(10))

    def test_len(self):
        ds = nn.TensorDataset(np.arange(10))
        assert len(nn.DataLoader(ds, batch_size=3, rng=np.random.default_rng(0))) == 4

    def test_shuffle_changes_order_but_not_content(self):
        ds = nn.TensorDataset(np.arange(100))
        loader = nn.DataLoader(ds, batch_size=100, rng=np.random.default_rng(0))
        (batch,) = list(loader)
        assert not np.array_equal(batch[0], np.arange(100))
        np.testing.assert_array_equal(np.sort(batch[0]), np.arange(100))

    def test_shuffle_deterministic_given_rng(self):
        ds = nn.TensorDataset(np.arange(20))
        a = list(nn.DataLoader(ds, batch_size=20, rng=np.random.default_rng(1)))
        b = list(nn.DataLoader(ds, batch_size=20, rng=np.random.default_rng(1)))
        np.testing.assert_array_equal(a[0][0], b[0][0])

    def test_multiple_arrays_stay_aligned(self):
        x = np.arange(50)
        ds = nn.TensorDataset(x, x * 10)
        loader = nn.DataLoader(ds, batch_size=7, rng=np.random.default_rng(0))
        for bx, by in loader:
            np.testing.assert_array_equal(by, bx * 10)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            nn.DataLoader(nn.TensorDataset(np.arange(3)), batch_size=0, rng=np.random.default_rng(0))


class TestSerialization:
    def test_state_roundtrip(self, tmp_path):
        state = {"w": np.arange(6.0).reshape(2, 3), "b": np.zeros(3)}
        path = tmp_path / "ckpt.npz"
        nn.save_state(state, path, meta={"epoch": 3})
        loaded, meta = nn.load_state(path)
        np.testing.assert_array_equal(loaded["w"], state["w"])
        np.testing.assert_array_equal(loaded["b"], state["b"])
        assert meta == {"epoch": 3}

    def test_no_meta(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        nn.save_state({"w": np.ones(2)}, path)
        _, meta = nn.load_state(path)
        assert meta is None

    def test_reserved_key_raises(self, tmp_path):
        with pytest.raises(ValueError):
            nn.save_state({"__meta_json__": np.ones(1)}, tmp_path / "x.npz")

    def test_model_roundtrip(self, tmp_path):
        a = nn.MLP(3, hidden=(4,), rng=np.random.default_rng(0))
        b = nn.MLP(3, hidden=(4,), rng=np.random.default_rng(1))
        path = tmp_path / "model.npz"
        nn.save_state(a.state_dict(), path, meta={"note": "test"})
        state, meta = nn.load_state(path)
        b.load_state_dict(state)
        assert meta == {"note": "test"}
        x = nn.Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_unicode_meta(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        nn.save_state({"w": np.ones(1)}, path, meta={"label": "Pollo e più"})
        _, meta = nn.load_state(path)
        assert meta["label"] == "Pollo e più"
