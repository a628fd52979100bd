"""Tests for the autoregressive rollout machinery (Fig. 2 / Fig. 5)."""

import numpy as np
import pytest

from repro.battery import SimulationResult, coulomb
from repro.core import (
    RolloutResult,
    TwoBranchSoCNet,
    cycle_windows,
    model_rollout,
    plan_windows,
    rollout_cycle,
)
from repro.datasets import CycleRecord


class TestRolloutCycle:
    def test_coulomb_predictor_tracks_truth(self):
        """Rolling Coulomb counting with the cell's *actual* capacity
        must track the simulator's bookkeeping closely, while a wrong
        (datasheet) capacity drifts — the designed Eq. 1 approximation
        gap the PINN exploits."""
        from repro.battery import CellSimulator, SensorNoise, get_cell_spec

        spec = get_cell_spec("sandia-nmc")
        sim = CellSimulator(spec, noise=SensorNoise.none(), capacity_factor=0.9)
        sim.reset(soc=0.95, temp_c=spec.ref_temp_c)
        trace = sim.run_profile(np.full(5000, 1.5), 1.0, spec.ref_temp_c, stop_at_cutoff=False)
        cycle = CycleRecord("cc", "test", 25.0, 1.0, spec.capacity_ah, trace)

        def step_with(capacity):
            def step(soc, i_avg, temp_avg, horizon_s):
                return coulomb.predict_soc(soc, i_avg, horizon_s, capacity)

            return step

        actual = spec.capacity_ah * 0.9
        tight = rollout_cycle(step_with(actual), cycle, 100.0, float(trace.soc[0]))
        rated = rollout_cycle(step_with(spec.capacity_ah), cycle, 100.0, float(trace.soc[0]))
        assert tight.mae() < 0.005
        assert rated.mae() > 5 * tight.mae()

    def test_result_lengths(self, small_sandia):
        cycle = small_sandia.test()[0]
        result = rollout_cycle(lambda s, i, t, h: s, cycle, step_s=240.0, initial_soc=0.5)
        full_windows = (len(cycle) - 1) // 2  # 240 s = 2 samples
        tail_windows = 1 if (len(cycle) - 1) % 2 else 0
        assert len(result) == full_windows + tail_windows + 1
        assert result.time_s[0] == cycle.data.time_s[0]
        # the trajectory now reaches the cycle's last recorded sample
        assert result.time_s[-1] == cycle.data.time_s[-1]

    def test_identity_predictor_stays_constant(self, small_sandia):
        cycle = small_sandia.test()[0]
        result = rollout_cycle(lambda s, i, t, h: s, cycle, step_s=120.0, initial_soc=0.7)
        np.testing.assert_allclose(result.soc_pred, 0.7)

    def test_truth_sampled_at_step_boundaries(self, small_sandia):
        cycle = small_sandia.test()[0]
        result = rollout_cycle(lambda s, i, t, h: s, cycle, step_s=120.0, initial_soc=0.7)
        np.testing.assert_allclose(result.soc_true, cycle.data.soc[: len(result)])

    def test_step_hook_streams_every_window(self, small_sandia):
        cycle = small_sandia.test()[0]
        seen = []
        result = rollout_cycle(
            lambda s, i, t, h: s - 0.01,
            cycle,
            step_s=120.0,
            initial_soc=0.7,
            step_hook=lambda w, soc: seen.append((w, soc)),
        )
        assert [w for w, _ in seen] == list(range(len(result)))
        np.testing.assert_allclose([soc for _, soc in seen], result.soc_pred)

    def test_step_hook_abort_leaves_partial_state_streamed(self, small_sandia):
        cycle = small_sandia.test()[0]
        seen = []

        def hook(w, soc):
            seen.append(w)
            if w >= 2:
                raise RuntimeError("crash")

        with pytest.raises(RuntimeError, match="crash"):
            rollout_cycle(lambda s, i, t, h: s, cycle, step_s=120.0, initial_soc=0.5, step_hook=hook)
        assert seen == [0, 1, 2]

    def test_step_below_sampling_raises(self, small_sandia):
        cycle = small_sandia.test()[0]
        with pytest.raises(ValueError):
            rollout_cycle(lambda s, i, t, h: s, cycle, step_s=1.0, initial_soc=0.5)

    def test_cycle_too_short_raises(self, small_sandia):
        cycle = small_sandia.test()[0]
        with pytest.raises(ValueError):
            rollout_cycle(lambda s, i, t, h: s, cycle, step_s=1e9, initial_soc=0.5)

    def test_metrics(self):
        result = RolloutResult(
            time_s=np.array([0.0, 1.0]),
            soc_pred=np.array([1.0, 0.4]),
            soc_true=np.array([1.0, 0.5]),
            initial_soc=1.0,
            step_s=1.0,
        )
        assert result.final_error() == pytest.approx(0.1)
        assert result.mae() == pytest.approx(0.05)
        assert result.rmse() == pytest.approx(np.sqrt(0.01 / 2))
        assert result.max_error() == pytest.approx(0.1)
        assert result.rmse() >= result.mae()
        assert result.tail_s == 0.0

    @staticmethod
    def _result(soc_pred, soc_true):
        n = len(soc_pred)
        return RolloutResult(
            time_s=np.arange(n, dtype=float),
            soc_pred=np.asarray(soc_pred, dtype=float),
            soc_true=np.asarray(soc_true, dtype=float),
            initial_soc=float(soc_pred[0]),
            step_s=1.0,
        )

    def test_signed_final_error_keeps_the_sign(self):
        slow = self._result([1.0, 0.8, 0.6], [1.0, 0.7, 0.4])
        fast = self._result([1.0, 0.6, 0.3], [1.0, 0.7, 0.4])
        assert slow.signed_final_error() == pytest.approx(0.2)
        assert fast.signed_final_error() == pytest.approx(-0.1)
        assert fast.final_error() == abs(fast.signed_final_error())

    def test_drain_ratio_is_predicted_drop_over_true_drop(self):
        # predicted 0.9 -> 0.6 (0.3) against true 1.0 -> 0.4 (0.6)
        result = self._result([0.9, 0.75, 0.6], [1.0, 0.7, 0.4])
        assert result.drain_ratio() == pytest.approx(0.5)
        assert self._result([1.0, 0.4], [1.0, 0.4]).drain_ratio() == 1.0

    def test_drain_ratio_is_nan_without_a_true_drop(self):
        assert np.isnan(self._result([0.5, 0.4], [0.5, 0.5]).drain_ratio())


class TestPartialTail:
    """The trailing remainder of a cycle is scored with a shorter step."""

    def _tail_cycle(self):
        """A 10-sample (9-interval) constant-current trace: step 4
        leaves a 1-sample tail."""
        from repro.battery import CellSimulator, SensorNoise, get_cell_spec

        spec = get_cell_spec("sandia-nmc")
        sim = CellSimulator(spec, noise=SensorNoise.none())
        sim.reset(soc=0.9, temp_c=25.0)
        trace = sim.run_profile(np.full(10, 3.0), 60.0, 25.0, stop_at_cutoff=False)
        return CycleRecord("tail", "test", 25.0, 60.0, spec.capacity_ah, trace)

    def test_cycle_windows_exposes_tail(self):
        cycle = self._tail_cycle()
        plan = cycle_windows(cycle, step_s=240.0)  # 4 samples/window, 9 = 2*4 + 1
        assert plan.n_windows == 3
        np.testing.assert_allclose(plan.horizon_s, [240.0, 240.0, 60.0])
        assert plan.tail_s == 60.0
        no_tail = cycle_windows(cycle, step_s=240.0, include_tail=False)
        assert no_tail.n_windows == 2
        assert no_tail.tail_s == 0.0

    def test_tail_window_averages_remaining_samples(self):
        cycle = self._tail_cycle()
        plan = cycle_windows(cycle, step_s=240.0)
        d = cycle.data
        assert plan.i_avg[-1] == float(np.mean(d.current[9:10]))
        assert plan.t_avg[-1] == float(np.mean(d.temp_c[9:10]))
        assert plan.soc_true[-1] == d.soc[9]
        assert plan.time_s[-1] == d.time_s[9]

    def test_rollout_scores_tail_with_short_horizon(self):
        cycle = self._tail_cycle()
        horizons = []

        def spy(soc, i_avg, t_avg, horizon_s):
            horizons.append(horizon_s)
            return soc

        result = rollout_cycle(spy, cycle, step_s=240.0, initial_soc=0.9)
        assert horizons == [240.0, 240.0, 60.0]
        assert result.tail_s == 60.0
        assert len(result) == 4
        assert result.step_s == 240.0  # full-window step is unchanged

    def test_even_division_has_no_tail(self):
        cycle = self._tail_cycle()
        result = rollout_cycle(lambda s, i, t, h: s, cycle, step_s=180.0, initial_soc=0.9)
        assert result.tail_s == 0.0  # 9 intervals = 3 windows of 3
        assert len(result) == 4


def _random_cycle(n_samples: int, dtype=np.float64, period_s: float = 1.0, temp_dtype=None) -> CycleRecord:
    """A ``period_s`` trace of noisy I/T channels stored as ``dtype``
    (temperature as ``temp_dtype`` when given)."""
    rng = np.random.default_rng(n_samples)
    current = rng.normal(2.0, 0.7, n_samples).astype(dtype)
    temp_c = rng.normal(25.0, 3.0, n_samples).astype(temp_dtype or dtype)
    voltage = rng.normal(3.7, 0.2, n_samples)
    data = SimulationResult(
        time_s=np.arange(n_samples, dtype=np.float64) * period_s,
        voltage=voltage,
        current=current,
        temp_c=temp_c,
        soc=np.linspace(1.0, 0.1, n_samples),
        voltage_true=voltage,
        current_true=current,
        temp_true=temp_c,
    )
    return CycleRecord(f"random-{n_samples}", "test", 25.0, period_s, 3.0, data)


def _reference_windows(cycle, step_s: float, include_tail: bool):
    """Per-window ``np.mean`` loop: the definition the plan must match exactly."""
    d = cycle.data
    steps = int(round(step_s / cycle.sampling_period_s))
    n_full, rem = divmod(len(d) - 1, steps)
    bounds = [(w * steps, (w + 1) * steps) for w in range(n_full)]
    if include_tail and rem:
        bounds.append((n_full * steps, len(d) - 1))
    i_avg = np.empty(len(bounds))
    t_avg = np.empty(len(bounds))
    horizon_s = np.empty(len(bounds))
    for w, (lo, hi) in enumerate(bounds):
        i_avg[w] = np.mean(d.current[lo + 1 : hi + 1])
        t_avg[w] = np.mean(d.temp_c[lo + 1 : hi + 1])
        horizon_s[w] = (hi - lo) * cycle.sampling_period_s
    boundary = [0] + [hi for _, hi in bounds]
    return i_avg, t_avg, horizon_s, d.time_s[boundary], d.soc[boundary]


# planned in one call with the parametrized cycle: other lengths,
# remainders, sampling periods and dtypes, one with mixed channel dtypes
_COMPANIONS = [
    (2501, np.float32, 0.5),
    (1700, np.float64, 1.0),
    (1500, np.float32, 1.0),
    (4500, np.float64, 0.25),
    (1234, np.float32, 1.0, np.float64),
]


class TestCycleWindowsExact:
    """The row-wise plan equals a per-window ``np.mean`` bit for bit.

    Steps above 128 samples exercise numpy's pairwise-summation blocks,
    which a row-wise reduction must reproduce for the fleet path to stay
    bit-for-bit with the scalar loop and the journal replay.  Planning
    many cycles in one call must not change any of their rows.
    """

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("include_tail", [True, False])
    @pytest.mark.parametrize(
        "n_samples, step_s",
        [
            (1001, 1.0),  # steps == 1
            (1001, 10.0),  # 1000 intervals divide evenly
            (1001, 250.0),  # even, pairwise blocks inside each row
            (1001, 7.0),  # 6-sample tail
            (1001, 300.0),  # 100-sample tail
            (2000, 1000.0),  # one full window and a 999-sample tail
        ],
    )
    def test_matches_per_window_mean(self, dtype, include_tail, n_samples, step_s):
        cycle = _random_cycle(n_samples, dtype)
        plan = cycle_windows(cycle, step_s, include_tail=include_tail)
        expected = _reference_windows(cycle, step_s, include_tail)
        got = (plan.i_avg, plan.t_avg, plan.horizon_s, plan.time_s, plan.soc_true)
        for name, a, b in zip(("i_avg", "t_avg", "horizon_s", "time_s", "soc_true"), got, expected):
            assert a.dtype == np.float64, name
            assert np.array_equal(a, b), name
        steps = int(step_s)
        rem = (n_samples - 1) % steps
        assert plan.tail_s == (float(rem) if include_tail else 0.0)

        cycles = [_random_cycle(*spec) for spec in _COMPANIONS]
        cycles.insert(2, cycle)
        stack = plan_windows(cycles, step_s, include_tail=include_tail)
        for u, c in enumerate(cycles):
            expected = _reference_windows(c, step_s, include_tail)
            assert stack.n_windows[u] == len(expected[0])
            rows = (
                stack.i_avg[:, u], stack.t_avg[:, u], stack.horizon_s[:, u], stack.time_s[u], stack.soc_true[u]
            )
            names = ("i_avg", "t_avg", "horizon_s", "time_s", "soc_true")
            for name, row, want in zip(names, rows, expected):
                assert np.array_equal(row[: len(want)], want), (c.name, name)
                assert np.isnan(row[len(want) :]).all(), (c.name, name)
            one = stack.plan(u)
            rem = (len(c.data) - 1) % one.steps
            assert one.tail_s == stack.tail_s[u] == rem * c.sampling_period_s * include_tail

    def test_step_below_one_sample_raises(self):
        with pytest.raises(ValueError, match="at least one sampling period"):
            cycle_windows(_random_cycle(100), step_s=0.4)

    def test_cycle_shorter_than_one_step_raises(self):
        with pytest.raises(ValueError, match="shorter than a single rollout step"):
            cycle_windows(_random_cycle(100), step_s=100.0)

    def test_errors_name_the_first_offending_cycle(self):
        cycles = [_random_cycle(300), _random_cycle(100), _random_cycle(90, period_s=2.0)]
        with pytest.raises(ValueError, match="cycle 'random-100' is shorter than a single rollout step"):
            plan_windows(cycles, step_s=150.0)
        with pytest.raises(ValueError, match="cycle 'random-90': step must be at least one sampling period"):
            plan_windows(cycles, step_s=0.9)


class TestModelRollout:
    def test_untrained_model_runs(self, small_sandia):
        model = TwoBranchSoCNet(rng=np.random.default_rng(0))
        cycle = small_sandia.test()[0]
        result = model_rollout(model, cycle, step_s=120.0)
        assert len(result) > 1
        assert np.all(np.isfinite(result.soc_pred))

    def test_initial_soc_comes_from_branch1(self, small_sandia):
        model = TwoBranchSoCNet(rng=np.random.default_rng(0))
        cycle = small_sandia.test()[0]
        result = model_rollout(model, cycle, step_s=120.0)
        d = cycle.data
        expected = model.estimate_soc(d.voltage[0], d.current[0], d.temp_c[0])[0]
        assert result.initial_soc == pytest.approx(float(expected))
        assert result.soc_pred[0] == pytest.approx(float(expected))

    def test_empty_cycle_raises(self, small_sandia):
        import dataclasses

        from repro.battery import CellSimulator, get_cell_spec

        sim = CellSimulator(get_cell_spec("sandia-nmc"))
        empty_trace = sim.run_profile(np.zeros(0), 1.0, 25.0)
        cycle = dataclasses.replace(small_sandia.test()[0], data=empty_trace)
        model = TwoBranchSoCNet(rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            model_rollout(model, cycle, step_s=120.0)
