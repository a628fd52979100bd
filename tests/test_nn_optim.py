"""Tests for the optimizer, the learning-rate schedule, and gradient clipping."""

import numpy as np
import pytest

from repro import nn
from repro.nn.layers import Parameter
from repro.nn.tensor import Tensor


def _quadratic_param(start=5.0):
    return Parameter(np.array([start]))


def _minimize(optimizer, param, steps=200):
    for _ in range(steps):
        optimizer.zero_grad()
        loss = (param * param).sum()
        loss.backward()
        optimizer.step()
    return float(param.data[0])


class TestAdam:
    def test_converges_on_quadratic(self):
        p = _quadratic_param()
        value = _minimize(nn.Adam([p], lr=0.1), p, steps=500)
        assert abs(value) < 1e-4

    def test_bias_correction_first_step(self):
        # After one step with unit gradient, Adam moves by ~lr regardless of betas.
        p = Parameter(np.array([1.0]))
        opt = nn.Adam([p], lr=0.01)
        opt.zero_grad()
        p.sum().backward()
        opt.step()
        assert p.data[0] == pytest.approx(1.0 - 0.01, abs=1e-6)

    def test_skips_parameters_without_grad(self):
        p, q = _quadratic_param(), _quadratic_param()
        opt = nn.Adam([p, q], lr=0.1)
        (p * p).sum().backward()
        before = q.data.copy()
        opt.step()
        np.testing.assert_array_equal(q.data, before)

    def test_trains_mlp_below_initial_loss(self):
        rng = np.random.default_rng(0)
        model = nn.MLP(2, hidden=(8,), rng=rng)
        x = rng.normal(size=(64, 2))
        y = (x[:, :1] + 2 * x[:, 1:]) * 0.5
        opt = nn.Adam(model.parameters(), lr=0.01)
        first = None
        for _ in range(150):
            opt.zero_grad()
            loss = nn.mae_loss(model(Tensor(x)), Tensor(y))
            if first is None:
                first = loss.item()
            loss.backward()
            opt.step()
        final = nn.mae_loss(model(Tensor(x)), Tensor(y)).item()
        assert final < first * 0.1


class TestOptimizerValidation:
    def test_empty_parameters_raise(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_nonpositive_lr_raises(self):
        with pytest.raises(ValueError):
            nn.Adam([_quadratic_param()], lr=0.0)


class TestSchedulers:
    def test_cosine_reaches_eta_min(self):
        opt = nn.Adam([_quadratic_param()], lr=1.0)
        sched = nn.CosineAnnealingLR(opt, t_max=10, eta_min=0.01)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.01)

    def test_cosine_monotone_decreasing(self):
        opt = nn.Adam([_quadratic_param()], lr=1.0)
        sched = nn.CosineAnnealingLR(opt, t_max=8)
        lrs = []
        for _ in range(8):
            sched.step()
            lrs.append(opt.lr)
        assert all(a > b for a, b in zip(lrs[:-1], lrs[1:]))


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 10.0)
        norm = nn.clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_leaves_small_gradients(self):
        p = Parameter(np.zeros(4))
        p.grad = np.full(4, 0.01)
        nn.clip_grad_norm([p], max_norm=1.0)
        np.testing.assert_allclose(p.grad, 0.01)

    def test_invalid_max_norm(self):
        with pytest.raises(ValueError):
            nn.clip_grad_norm([], max_norm=0.0)
