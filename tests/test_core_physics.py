"""Tests for the physics collocation sampler (Eq. 1 collocation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.battery import coulomb
from repro.core import CollocationBatch, CollocationSampler, PhysicsConfig
from repro.datasets import PredictionSamples


def _pool(n=50, capacity=3.0, current_lo=-1.0, current_hi=5.0, seed=0):
    rng = np.random.default_rng(seed)
    return PredictionSamples(
        v_t=rng.uniform(3.0, 4.2, n),
        i_t=rng.uniform(current_lo, current_hi, n),
        temp_t=rng.uniform(0.0, 40.0, n),
        soc_t=rng.uniform(0, 1, n),
        i_avg=rng.uniform(current_lo, current_hi, n),
        temp_avg=rng.uniform(0.0, 40.0, n),
        horizon_s=np.full(n, 120.0),
        soc_target=rng.uniform(0, 1, n),
        capacity_ah=np.full(n, capacity),
    )


class TestCollocationBatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            CollocationBatch(features=np.zeros((5, 3)), targets=np.zeros(5))
        with pytest.raises(ValueError):
            CollocationBatch(features=np.zeros((5, 4)), targets=np.zeros(4))

    def test_len(self):
        batch = CollocationBatch(features=np.zeros((7, 4)), targets=np.zeros(7))
        assert len(batch) == 7


class TestCollocationSampler:
    def test_default_size_from_config(self):
        sampler = CollocationSampler(_pool(), PhysicsConfig(n_collocation=33), np.random.default_rng(0))
        assert len(sampler.sample()) == 33

    def test_explicit_size(self):
        sampler = CollocationSampler(_pool(), PhysicsConfig(), np.random.default_rng(0))
        assert len(sampler.sample(5)) == 5

    def test_invalid_size(self):
        sampler = CollocationSampler(_pool(), PhysicsConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            sampler.sample(0)

    def test_empty_pool_raises(self):
        pool = _pool(1)
        empty = PredictionSamples(**{
            f: getattr(pool, f)[:0] for f in (
                "v_t", "i_t", "temp_t", "soc_t", "i_avg", "temp_avg",
                "horizon_s", "soc_target", "capacity_ah",
            )
        })
        with pytest.raises(ValueError):
            CollocationSampler(empty, PhysicsConfig(), np.random.default_rng(0))

    def test_targets_satisfy_eq1(self):
        pool = _pool(capacity=3.0)
        sampler = CollocationSampler(pool, PhysicsConfig(horizons_s=(60.0, 120.0)), np.random.default_rng(0))
        batch = sampler.sample(500)
        soc0, current, _, horizon = batch.features.T
        expected = coulomb.predict_soc(soc0, current, horizon, 3.0)
        np.testing.assert_allclose(batch.targets, expected, atol=1e-12)

    def test_mixed_capacity_pool_uses_per_sample_capacity(self):
        a, b = _pool(30, capacity=1.1, seed=1), _pool(30, capacity=3.2, seed=2)
        pool = PredictionSamples.concatenate([a, b])
        sampler = CollocationSampler(pool, PhysicsConfig(horizons_s=(120.0,)), np.random.default_rng(0))
        batch = sampler.sample(1000)
        soc0, current, _, horizon = batch.features.T
        # each target must match Eq. 1 under one of the two capacities
        e1 = coulomb.predict_soc(soc0, current, horizon, 1.1)
        e2 = coulomb.predict_soc(soc0, current, horizon, 3.2)
        match = np.isclose(batch.targets, e1) | np.isclose(batch.targets, e2)
        assert np.all(match)

    def test_three_capacity_pool_matches_a_per_capacity_loop(self):
        caps = (1.1, 2.5, 3.2)
        pool = PredictionSamples.concatenate([_pool(20, capacity=c, seed=k) for k, c in enumerate(caps)])
        config = PhysicsConfig(horizons_s=(30.0, 50.0, 70.0))
        batch = CollocationSampler(pool, config, np.random.default_rng(7)).sample(500)
        # the sampler's first draw picks the pool rows, hence the capacities
        capacity = pool.capacity_ah[np.random.default_rng(7).integers(0, len(pool), size=500)]
        soc0, current, _, horizon = batch.features.T
        expected = np.empty(500)
        for cap in caps:
            mask = capacity == cap
            expected[mask] = coulomb.predict_soc(soc0[mask], current[mask], horizon[mask], cap)
        np.testing.assert_array_equal(batch.targets, expected)

    def test_zero_capacity_raises(self):
        pool = PredictionSamples.concatenate([_pool(20, capacity=3.0), _pool(20, capacity=0.0)])
        sampler = CollocationSampler(pool, PhysicsConfig(), np.random.default_rng(0))
        with pytest.raises(ValueError, match="capacity must be positive"):
            sampler.sample(200)
        with pytest.raises(ValueError, match="capacity must be positive"):
            coulomb.delta_soc(1.0, 60.0, np.array([3.0, 0.0]))

    def test_horizons_only_from_configured_set(self):
        sampler = CollocationSampler(
            _pool(), PhysicsConfig(horizons_s=(30.0, 50.0, 70.0)), np.random.default_rng(0)
        )
        batch = sampler.sample(300)
        assert set(np.unique(batch.features[:, 3])) <= {30.0, 50.0, 70.0}

    def test_all_horizons_sampled(self):
        sampler = CollocationSampler(
            _pool(), PhysicsConfig(horizons_s=(30.0, 50.0, 70.0)), np.random.default_rng(0)
        )
        batch = sampler.sample(300)
        assert set(np.unique(batch.features[:, 3])) == {30.0, 50.0, 70.0}

    def test_currents_from_pool(self):
        pool = _pool()
        sampler = CollocationSampler(pool, PhysicsConfig(), np.random.default_rng(0))
        batch = sampler.sample(200)
        assert np.all(np.isin(batch.features[:, 1], pool.i_avg))

    def test_initial_soc_in_unit_interval(self):
        sampler = CollocationSampler(_pool(), PhysicsConfig(), np.random.default_rng(0))
        batch = sampler.sample(500)
        soc0 = batch.features[:, 0]
        assert np.all((soc0 >= 0.0) & (soc0 <= 1.0))
        assert soc0.std() > 0.2  # actually spread out, not constant

    def test_deterministic_per_rng(self):
        a = CollocationSampler(_pool(), PhysicsConfig(), np.random.default_rng(5)).sample(50)
        b = CollocationSampler(_pool(), PhysicsConfig(), np.random.default_rng(5)).sample(50)
        np.testing.assert_array_equal(a.features, b.features)

    def test_labels_not_needed(self):
        """The physics batch never touches soc_target — its labels come
        from Eq. 1 (the paper stresses this label-free property)."""
        pool = _pool()
        pool.soc_target[:] = np.nan  # poison the labels
        sampler = CollocationSampler(pool, PhysicsConfig(), np.random.default_rng(0))
        batch = sampler.sample(100)
        assert np.all(np.isfinite(batch.targets))

    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_targets_follow_sign_convention(self, seed):
        sampler = CollocationSampler(_pool(seed=seed), PhysicsConfig(), np.random.default_rng(seed))
        batch = sampler.sample(100)
        soc0, current, _, _ = batch.features.T
        discharging = current > 0
        assert np.all(batch.targets[discharging] <= soc0[discharging] + 1e-12)
        charging = current < 0
        assert np.all(batch.targets[charging] >= soc0[charging] - 1e-12)
