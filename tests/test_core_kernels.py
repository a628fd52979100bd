"""Golden-equivalence tests for compiled inference kernels.

The compiled path (:mod:`repro.core.kernels`) must match the autograd
Tensor path to 1e-9 across batch sizes, both branches and the cascade
— that is the contract that lets :class:`repro.serve.FleetEngine`
serve through kernels by default.
"""

import numpy as np
import pytest

from repro.core import (
    CompiledTwoBranchKernel,
    FusedTwoBranchKernel,
    ModelConfig,
    TwoBranchSoCNet,
    model_rollout,
)
from repro.nn import MLP, Module, export_affine_chain
from repro.serve import FleetEngine, ModelRegistry, generate_fleet

BATCH_SIZES = (1, 7, 1024)
FAST_FLEET = dict(ambient_temps_c=(25.0,), c_rates=(1.0, 2.0), protocols=("discharge",), max_time_s=1800.0)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def kernel(model):
    return CompiledTwoBranchKernel(model)


def _inputs(n, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "voltage": rng.uniform(2.8, 4.2, n),
        "current": rng.uniform(-5.0, 5.0, n),
        "temp_c": rng.uniform(-5.0, 45.0, n),
        "soc": rng.uniform(0.0, 1.0, n),
        "horizon_s": rng.uniform(1.0, 400.0, n),
    }


# ----------------------------------------------------------------------
class TestGoldenEquivalence:
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_branch1_matches_tensor_path(self, model, kernel, n):
        x = _inputs(n, seed=n)
        ref = model.estimate_soc(x["voltage"], x["current"], x["temp_c"])
        got = kernel.estimate_soc(x["voltage"], x["current"], x["temp_c"])
        np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_branch2_matches_tensor_path(self, model, kernel, n):
        x = _inputs(n, seed=n + 1)
        ref = model.predict_soc(x["soc"], x["current"], x["temp_c"], x["horizon_s"])
        got = kernel.predict_soc(x["soc"], x["current"], x["temp_c"], x["horizon_s"])
        np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_cascade_matches_tensor_path(self, model, kernel, n):
        x = _inputs(n, seed=n + 2)
        args = (x["voltage"], x["current"], x["temp_c"], x["current"], x["temp_c"], x["horizon_s"])
        np.testing.assert_allclose(
            kernel.predict_from_sensors(*args), model.predict_from_sensors(*args), atol=1e-9, rtol=0
        )

    def test_scalar_inputs_match(self, model, kernel):
        ref = model.estimate_soc(3.7, 1.0, 25.0)
        got = kernel.estimate_soc(3.7, 1.0, 25.0)
        assert got.shape == (1,)
        np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    def test_holds_for_trained_like_weights(self):
        # a different seed and a non-default architecture
        model = TwoBranchSoCNet(ModelConfig(hidden=(8, 8)), rng=np.random.default_rng(99))
        kernel = CompiledTwoBranchKernel(model)
        x = _inputs(64, seed=5)
        np.testing.assert_allclose(
            kernel.estimate_soc(x["voltage"], x["current"], x["temp_c"]),
            model.estimate_soc(x["voltage"], x["current"], x["temp_c"]),
            atol=1e-9,
            rtol=0,
        )


class TestBuffers:
    def test_batch_size_churn_stays_correct(self, model, kernel):
        """Growing, shrinking and regrowing the batch reuses buffers safely."""
        x = _inputs(1024, seed=9)
        expected = {}
        for n in (3, 1024, 1, 7, 512, 1024):
            got = kernel.estimate_soc(x["voltage"][:n], x["current"][:n], x["temp_c"][:n])
            ref = expected.setdefault(
                n, model.estimate_soc(x["voltage"][:n], x["current"][:n], x["temp_c"][:n])
            )
            np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    def test_results_do_not_alias_buffers(self, kernel):
        x = _inputs(8, seed=10)
        first = kernel.estimate_soc(x["voltage"], x["current"], x["temp_c"])
        snapshot = first.copy()
        kernel.estimate_soc(x["voltage"][::-1].copy(), x["current"], x["temp_c"])
        np.testing.assert_array_equal(first, snapshot)

    def test_length_mismatch_raises(self, kernel):
        with pytest.raises(ValueError, match="batch size"):
            kernel.estimate_soc(np.zeros(3), np.zeros(4), 25.0)


class TestDtypeAndExport:
    def test_refresh_picks_up_new_weights(self, model):
        kernel = CompiledTwoBranchKernel(model)
        before = kernel.estimate_soc(3.7, 1.0, 25.0)
        state = model.state_dict()
        try:
            model.load_state_dict({k: v * 1.5 for k, v in state.items()})
            stale = kernel.estimate_soc(3.7, 1.0, 25.0)
            np.testing.assert_array_equal(stale, before)  # snapshot semantics
            kernel.refresh()
            refreshed = kernel.estimate_soc(3.7, 1.0, 25.0)
            np.testing.assert_allclose(refreshed, model.estimate_soc(3.7, 1.0, 25.0), atol=1e-9, rtol=0)
            assert not np.array_equal(refreshed, before)
        finally:
            model.load_state_dict(state)

    def test_export_affine_chain_shapes(self, model):
        chain = export_affine_chain(model.branch1.mlp)
        widths = [(w.shape, tag) for w, _, tag in chain]
        assert widths == [((3, 16), "relu"), ((16, 32), "relu"), ((32, 16), "relu"), ((16, 1), "identity")]
        for _, bias, _ in chain:
            assert bias is not None

    def test_export_refuses_anything_but_a_relu_mlp(self):
        class Square(Module):
            def forward(self, x):
                return x * x

        mlp = MLP(3, hidden=(8,), rng=np.random.default_rng(2))
        mlp.net.layers[1] = Square()
        for module in (mlp, Square()):
            with pytest.raises(TypeError):
                export_affine_chain(module)


class TestFusedKernels:
    """Block-diagonal cross-model stacking == per-model dispatch."""

    @pytest.fixture(scope="class")
    def members(self):
        return [TwoBranchSoCNet(rng=np.random.default_rng(100 + k)) for k in range(3)]

    @pytest.fixture(scope="class")
    def kernels(self, members):
        return [CompiledTwoBranchKernel(m) for m in members]

    @pytest.fixture(scope="class")
    def fused(self, kernels):
        return FusedTwoBranchKernel(kernels)

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_estimate_matches_dispatch(self, kernels, fused, n):
        x = _inputs(n, seed=20 + n)
        member = np.random.default_rng(n).integers(0, len(kernels), n)
        ref = np.empty(n)
        for u, kernel in enumerate(kernels):
            idx = np.flatnonzero(member == u)
            if idx.size:
                ref[idx] = kernel.estimate_soc(x["voltage"][idx], x["current"][idx], x["temp_c"][idx])
        got = fused.estimate_soc(x["voltage"], x["current"], x["temp_c"], member)
        np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_predict_matches_dispatch(self, kernels, fused, n):
        x = _inputs(n, seed=30 + n)
        member = np.random.default_rng(n + 1).integers(0, len(kernels), n)
        ref = np.empty(n)
        for u, kernel in enumerate(kernels):
            idx = np.flatnonzero(member == u)
            if idx.size:
                ref[idx] = kernel.predict_soc(
                    x["soc"][idx], x["current"][idx], x["temp_c"][idx], x["horizon_s"][idx]
                )
        got = fused.predict_soc(x["soc"], x["current"], x["temp_c"], x["horizon_s"], member)
        np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    def test_uniform_batches_hit_every_member(self, kernels, fused):
        x = _inputs(16, seed=40)
        for u, kernel in enumerate(kernels):
            ref = kernel.estimate_soc(x["voltage"], x["current"], x["temp_c"])
            got = fused.estimate_soc(x["voltage"], x["current"], x["temp_c"], np.full(16, u))
            np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    def test_single_member_fusion(self, kernels):
        fused = FusedTwoBranchKernel(kernels[:1])
        x = _inputs(8, seed=41)
        ref = kernels[0].estimate_soc(x["voltage"], x["current"], x["temp_c"])
        got = fused.estimate_soc(x["voltage"], x["current"], x["temp_c"], np.zeros(8, dtype=int))
        np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_lanes_match_dispatch(self, kernels, fused, k):
        """Lane j runs member[j]: both branches over the first k of 5
        lanes of 7 rows match each member's own kernel, and NaN in one
        row never reaches another."""
        member, width = np.array([2, 0, 1, 0, 2]), 7
        lanes = fused.lanes(member, width)
        assert fused.lanes(member.copy(), width) is lanes  # same layout, same scratch
        x = _inputs(5 * width, seed=50 + k)
        lanes.seed[:3] = [x[name].reshape(5, width) for name in ("voltage", "current", "temp_c")]
        lanes.state[:4] = [x[name].reshape(5, width) for name in ("soc", "current", "temp_c", "horizon_s")]
        lanes.state[0, 0, -1] = np.nan  # a padding slot
        seed = lanes.estimate().copy()
        lanes.predict(k)
        for j, u in enumerate(member):
            rows = slice(j * width, (j + 1) * width)
            want = kernels[u].estimate_soc(x["voltage"][rows], x["current"][rows], x["temp_c"][rows])
            np.testing.assert_allclose(seed[j], want, atol=1e-9, rtol=0)
            if j < k:
                want = kernels[u].predict_soc(
                    x["soc"][rows], x["current"][rows], x["temp_c"][rows], x["horizon_s"][rows]
                )
                if j == 0:
                    assert np.isnan(lanes.state[0, 0, -1])
                    want, got = want[:-1], lanes.state[0, 0, :-1]
                else:
                    got = lanes.state[0, j]
                np.testing.assert_allclose(got, want, atol=1e-9, rtol=0)
            else:
                np.testing.assert_array_equal(lanes.state[0, j], x["soc"][rows])  # untouched

    def test_mixed_architectures_rejected(self, kernels):
        other = TwoBranchSoCNet(ModelConfig(hidden=(8, 8)), rng=np.random.default_rng(7))
        with pytest.raises(ValueError, match="chain architecture"):
            FusedTwoBranchKernel([kernels[0], CompiledTwoBranchKernel(other)])

    def test_empty_member_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FusedTwoBranchKernel([])


class TestEngineFusion:
    """FleetEngine's mixed-model batches and stacked rollouts == the Tensor model."""

    MODELS = ("nmc-model", "lfp-model", "lto-model", "nca-model")

    @pytest.fixture()
    def routed_engine(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        for seed, name in enumerate(self.MODELS, start=1):
            registry.publish(name, TwoBranchSoCNet(rng=np.random.default_rng(seed)))
        engine = FleetEngine(registry=registry)
        ids = [f"c{k}" for k in range(64)]
        for k, cid in enumerate(ids):
            engine.register_cell(cid, model_name=self.MODELS[k % len(self.MODELS)])
        return engine, ids

    @pytest.mark.parametrize("n_models", [4, 2], ids=["fused", "loop"])
    def test_served_path_matches_tensor_model(self, tmp_path, n_models):
        """Estimate, predict and rollout of a mixed-model fleet match each
        cell's own Tensor model and ``model_rollout`` to 1e-9, with four
        models or two.  Estimate and predict run the per-model chains;
        the rollout stacks every model in one fused chain."""
        registry = ModelRegistry(tmp_path / "registry")
        models = {}
        for seed, name in enumerate(self.MODELS[:n_models], start=1):
            models[name] = TwoBranchSoCNet(rng=np.random.default_rng(seed))
            registry.publish(name, models[name])
        engine = FleetEngine(registry=registry)
        assignments = generate_fleet(16, seed=3, **FAST_FLEET).assignments()
        ids = [cid for cid, _ in assignments]
        route = [self.MODELS[k % n_models] for k in range(len(ids))]
        for cid, name in zip(ids, route):
            engine.register_cell(cid, model_name=name)
        x = _inputs(len(ids), seed=50)
        est = engine.estimate(ids, x["voltage"], x["current"], x["temp_c"])
        pred = engine.predict(ids, x["current"], x["temp_c"], x["horizon_s"], soc_now=x["soc"])
        assert not engine._fused
        for name, model in models.items():
            idx = np.array([k for k, routed in enumerate(route) if routed == name])
            ref_est = model.estimate_soc(x["voltage"][idx], x["current"][idx], x["temp_c"][idx])
            np.testing.assert_allclose(est[idx], ref_est, atol=1e-9, rtol=0)
            ref_pred = model.predict_soc(
                x["soc"][idx], x["current"][idx], x["temp_c"][idx], x["horizon_s"][idx]
            )
            np.testing.assert_allclose(pred[idx], ref_pred, atol=1e-9, rtol=0)
        rolled = engine.rollout_fleet(assignments, step_s=120.0)
        [(_, fused)] = engine._fused.values()
        assert fused.n_members == n_models
        for (cid, cycle), name in zip(assignments, route):
            ref = model_rollout(models[name], cycle, 120.0)
            np.testing.assert_allclose(rolled[cid].soc_pred, ref.soc_pred, atol=1e-9, rtol=0)
            np.testing.assert_array_equal(rolled[cid].time_s, ref.time_s)

    def test_fused_kernel_is_cached_and_reused(self, routed_engine):
        engine, ids = routed_engine
        cycles = [cycle for _, cycle in generate_fleet(len(ids), seed=4, **FAST_FLEET).assignments()]
        assignments = list(zip(ids, cycles))
        engine.rollout_fleet(assignments, step_s=120.0)
        [(_, fused_a)] = engine._fused.values()
        engine.rollout_fleet(assignments, step_s=120.0)
        [(_, fused_b)] = engine._fused.values()
        assert fused_a is fused_b

    def test_small_mixed_batches_run_the_per_model_chains(self, routed_engine):
        """An 8-row batch over four models builds no fused kernel and
        matches each cell's Tensor model to 1e-9."""
        engine, ids = routed_engine
        ids = ids[:8]
        x = _inputs(len(ids), seed=52)
        est = engine.estimate(ids, x["voltage"], x["current"], x["temp_c"])
        pred = engine.predict(ids, x["current"], x["temp_c"], x["horizon_s"], soc_now=x["soc"])
        assert not engine._fused
        for k, cid in enumerate(ids):
            model = engine.registry.load(engine.cell(cid).model_key)
            row = {name: col[k : k + 1] for name, col in x.items()}
            ref_est = model.estimate_soc(row["voltage"], row["current"], row["temp_c"])
            ref_pred = model.predict_soc(row["soc"], row["current"], row["temp_c"], row["horizon_s"])
            np.testing.assert_allclose(est[k : k + 1], ref_est, atol=1e-9, rtol=0)
            np.testing.assert_allclose(pred[k : k + 1], ref_pred, atol=1e-9, rtol=0)


class TestEngineIntegration:
    def test_engine_rollout_matches_model_rollout(self):
        """FleetEngine on kernels == the per-cell Tensor ``model_rollout``."""
        model = TwoBranchSoCNet(rng=np.random.default_rng(1))
        assignments = generate_fleet(12, seed=3, **FAST_FLEET).assignments()
        rolled = FleetEngine(default_model=model).rollout_fleet(assignments, step_s=120.0)
        for cell_id, cycle in assignments:
            ref = model_rollout(model, cycle, 120.0)
            np.testing.assert_allclose(rolled[cell_id].soc_pred, ref.soc_pred, atol=1e-9, rtol=0)
            np.testing.assert_array_equal(rolled[cell_id].time_s, ref.time_s)

    def test_engine_estimate_predict_match_tensor_model(self):
        model = TwoBranchSoCNet(rng=np.random.default_rng(2))
        x = _inputs(32, seed=6)
        engine = FleetEngine(default_model=model)
        ids = [f"c{k}" for k in range(32)]
        for cid in ids:
            engine.register_cell(cid)
        est = engine.estimate(ids, x["voltage"], x["current"], x["temp_c"])
        pred = engine.predict(ids, x["current"], x["temp_c"], 60.0)
        ref_est = model.estimate_soc(x["voltage"], x["current"], x["temp_c"])
        np.testing.assert_allclose(est, ref_est, atol=1e-9, rtol=0)
        ref_pred = model.predict_soc(ref_est, x["current"], x["temp_c"], np.full(32, 60.0))
        np.testing.assert_allclose(pred, ref_pred, atol=1e-9, rtol=0)
