"""Tests for module mechanics: parameter discovery, state dicts, and
the concrete layers."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor


def _rng():
    return np.random.default_rng(7)


class TestModuleMechanics:
    def test_parameters_found_in_nested_modules(self):
        model = nn.Sequential(nn.Linear(2, 3, rng=_rng()), nn.ReLU(), nn.Linear(3, 1, rng=_rng()))
        names = [n for n, _ in model.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.0.bias" in names
        assert "layers.2.weight" in names
        assert len(model.parameters()) == 4

    def test_num_parameters_linear(self):
        layer = nn.Linear(4, 3, rng=_rng())
        assert layer.num_parameters() == 4 * 3 + 3

    def test_num_parameters_branch_sizes_match_paper(self):
        # Paper Sec. III-A: branches with hidden 16/32/16, inputs 3 and 4,
        # together 2,322 trainable parameters.
        branch1 = nn.MLP(3, hidden=(16, 32, 16), rng=_rng())
        branch2 = nn.MLP(4, hidden=(16, 32, 16), rng=_rng())
        assert branch1.num_parameters() + branch2.num_parameters() == 2322

    def test_zero_grad_clears_all(self):
        model = nn.MLP(2, hidden=(4,), rng=_rng())
        out = model(Tensor(np.ones((3, 2)))).sum()
        out.backward()
        assert any(p.grad is not None for p in model.parameters())
        model.zero_grad()
        assert all(p.grad is None for p in model.parameters())

    def test_state_dict_roundtrip(self):
        a = nn.MLP(3, hidden=(5, 5), rng=np.random.default_rng(0))
        b = nn.MLP(3, hidden=(5, 5), rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.ones((2, 3)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_is_a_copy(self):
        model = nn.Linear(2, 2, rng=_rng())
        snap = model.state_dict()
        model.weight.data += 1.0
        assert not np.allclose(snap["weight"], model.weight.data)

    def test_load_state_dict_missing_key_raises(self):
        model = nn.Linear(2, 2, rng=_rng())
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_load_state_dict_bad_shape_raises(self):
        model = nn.Linear(2, 2, rng=_rng())
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)


class TestLinear:
    def test_forward_matches_manual(self):
        layer = nn.Linear(3, 2, rng=_rng())
        x = np.ones((4, 3))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_invalid_width_raises(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 2)

    def test_deterministic_init(self):
        a = nn.Linear(3, 2, rng=np.random.default_rng(5))
        b = nn.Linear(3, 2, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_repr(self):
        assert "Linear(3, 2" in repr(nn.Linear(3, 2, rng=_rng()))


class TestActivations:
    def test_relu_module(self):
        out = nn.ReLU()(Tensor([-1.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 2.0])


class TestSequentialAndMLP:
    def test_sequential_order(self):
        linear = nn.Linear(2, 2, rng=_rng())
        model = nn.Sequential(linear, nn.ReLU())
        x = Tensor(np.array([[1.0, -2.0]]))
        np.testing.assert_array_equal(model(x).data, np.maximum(linear(x).data, 0.0))

    def test_mlp_output_shape(self):
        mlp = nn.MLP(3, hidden=(16, 32, 16), out_features=1, rng=_rng())
        out = mlp(Tensor(np.zeros((7, 3))))
        assert out.shape == (7, 1)

    def test_mlp_structure_is_inverted_bottleneck(self):
        mlp = nn.MLP(3, hidden=(16, 32, 16), rng=_rng())
        widths = [layer.out_features for layer in mlp.net.layers if isinstance(layer, nn.Linear)]
        assert widths == [16, 32, 16, 1]

    def test_mlp_output_unbounded(self):
        # Output layer has no activation: must be able to go negative.
        mlp = nn.MLP(1, hidden=(4,), rng=np.random.default_rng(3))
        for p in mlp.parameters():
            p.data = np.abs(p.data) * -1.0
        out = mlp(Tensor(np.ones((1, 1))))
        assert out.item() < 0.0


class TestInitializers:
    def test_fan_requires_2d(self):
        with pytest.raises(ValueError):
            nn.init.kaiming_uniform((5,), np.random.default_rng(0))
