"""Tests for the drift detectors (:mod:`repro.monitor.drift`)."""

from collections import Counter

import numpy as np
import pytest

from repro.monitor.drift import (
    Cusum,
    CusumConfig,
    DriftMonitor,
    PageHinkley,
    PageHinkleyConfig,
    PhysicsBounds,
    residual_stream,
)
from repro.monitor.metrics import MetricsRegistry


def step_stream(n_before: int, n_after: int, level: float, base: float = 0.0) -> np.ndarray:
    """A flat stream that steps from ``base`` to ``level``."""
    return np.concatenate([np.full(n_before, base), np.full(n_after, level)])


# ----------------------------------------------------------------------
class TestCusumDeterministic:
    def test_fixed_reference_trigger_point_is_exact(self):
        """With a fixed reference the alarm index is closed-form: each
        post-step sample adds (level - ref - slack) to the positive sum,
        so the alarm lands on the first index where the sum *exceeds*
        the threshold."""
        cfg = CusumConfig(slack=0.01, threshold=0.1, min_samples=1, reference=0.0)
        level = 0.06  # adds 0.05 per sample: sums 0.05, 0.10, 0.15 -> alarm on 3rd
        detector = Cusum(cfg)
        stream = step_stream(50, 10, level)
        fired = [k for k, x in enumerate(stream) if detector.update(x)]
        # first alarm exactly on the third post-step sample; the detector
        # then resets and re-alarms every 3 samples while the shift lasts
        assert fired == [52, 55, 58]

    def test_negative_shift_triggers_the_other_side(self):
        cfg = CusumConfig(slack=0.01, threshold=0.12, min_samples=1, reference=0.5)
        detector = Cusum(cfg)
        fired = [k for k, x in enumerate(step_stream(20, 10, 0.44, base=0.5)) if detector.update(x)]
        assert fired[0] == 22  # 0.05/sample on the negative sum; sum passes 0.12 on the 3rd

    def test_running_mean_reference_ignores_steady_offset(self):
        detector = Cusum(CusumConfig(slack=0.005, threshold=0.1, min_samples=10))
        assert not any(detector.update(0.73) for _ in range(500))

    def test_running_mean_reference_catches_a_shift(self):
        detector = Cusum(CusumConfig(slack=0.005, threshold=0.1, min_samples=10))
        fired = [k for k, x in enumerate(step_stream(100, 100, 0.30, base=0.02)) if detector.update(x)]
        assert fired and 100 <= fired[0] <= 110

    def test_resets_after_alarm_and_rearms(self):
        cfg = CusumConfig(slack=0.01, threshold=0.1, min_samples=1, reference=0.0)
        detector = Cusum(cfg)
        stream = np.tile(step_stream(10, 3, 0.06), 2)
        fired = [k for k, x in enumerate(stream) if detector.update(x)]
        assert fired == [12, 25]


class TestPageHinkleyDeterministic:
    def test_flat_stream_never_alarms(self):
        detector = PageHinkley(PageHinkleyConfig(delta=0.005, threshold=0.1, min_samples=10))
        assert not any(detector.update(0.03) for _ in range(1000))

    def test_ramp_alarms_and_trigger_index_matches_reference_recurrence(self):
        """The scalar detector is the reference; its alarm index on a
        residual ramp must match an independent evaluation of the
        Page–Hinkley recurrence."""
        cfg = PageHinkleyConfig(delta=0.005, threshold=0.1, min_samples=10)
        stream = np.concatenate([np.full(50, 0.01), 0.01 + 0.01 * np.arange(1, 101)])
        detector = PageHinkley(cfg)
        fired = [k for k, x in enumerate(stream) if detector.update(x)]

        n = 0
        mean = m = m_min = 0.0
        expected = None
        for k, x in enumerate(stream):
            n += 1
            mean += (x - mean) / n
            m += x - mean - cfg.delta
            m_min = min(m_min, m)
            if n >= cfg.min_samples and m - m_min > cfg.threshold:
                expected = k
                break
        assert expected is not None and fired[0] == expected

    def test_bank_matches_scalar_sample_for_sample(self):
        """The vectorized bank inside DriftMonitor must fire on exactly
        the same windows as the scalar detector."""
        cfg = PageHinkleyConfig(delta=0.002, threshold=0.05, min_samples=5)
        rng = np.random.default_rng(3)
        stream = np.concatenate([rng.normal(0.01, 0.001, 60), rng.normal(0.08, 0.001, 60)])
        scalar = PageHinkley(cfg)
        scalar_fired = {k for k, x in enumerate(stream) if scalar.update(x)}
        monitor = DriftMonitor(page_hinkley=cfg, cusum=None, bounds=None)
        idx = monitor.track(["cell-0"])
        bank_fired = set()
        for k, x in enumerate(stream):
            if monitor.observe_residuals(idx, np.array([x]), window=k):
                bank_fired.add(k)
        assert bank_fired == scalar_fired


# ----------------------------------------------------------------------
class TestPhysicsBounds:
    def test_chemistry_derived_rate_ceiling(self):
        bounds = PhysicsBounds.for_c_rate(6.7, margin=1.5)
        assert bounds.max_rate_per_s == pytest.approx(1.5 * 6.7 / 3600.0)

    def test_soc_bounds_and_rate_events(self):
        monitor = DriftMonitor(page_hinkley=None, cusum=None, bounds=PhysicsBounds(max_rate_per_s=0.001))
        soc = np.array([0.5, 1.2, -0.2, 0.4])
        emitted = monitor.observe_soc(["a", "b", "c", "d"], soc, window=3)
        assert emitted == 2
        kinds = Counter(e.kind for e in monitor.events())
        assert kinds == {"soc_bounds": 2}
        assert {e.cell_id for e in monitor.events()} == {"b", "c"}
        assert all(e.window == 3 for e in monitor.events())
        # rate check: 0.2 SoC over 60 s >> 0.001/s ceiling
        emitted = monitor.observe_soc(["a"], np.array([0.5]), delta=np.array([-0.2]), horizon_s=60.0)
        assert emitted == 1
        assert monitor.events()[-1].kind == "soc_rate"
        # a NaN row must not hide a real violation in the same batch
        emitted = monitor.observe_soc(["n", "e"], np.array([np.nan, 2.0]))
        assert emitted == 1
        assert monitor.events()[-1].cell_id == "e"

    def test_positions_map_rows_back_to_cell_ids(self):
        monitor = DriftMonitor(page_hinkley=None, cusum=None, bounds=PhysicsBounds())
        ids = ["w", "x", "y", "z"]
        monitor.observe_soc(ids, np.array([2.0]), positions=np.array([2]))
        assert monitor.events()[0].cell_id == "y"

    def test_clean_batch_emits_nothing(self):
        monitor = DriftMonitor()
        idx = monitor.track([f"c{k}" for k in range(8)])
        for w in range(20):
            assert monitor.observe_residuals(idx, np.full(8, 0.002), window=w) == 0
            assert monitor.observe_soc([f"c{k}" for k in range(8)], np.full(8, 0.5)) == 0
        assert monitor.observe_soc([], np.empty(0), delta=np.empty(0), horizon_s=60.0) == 0
        assert len(monitor) == 0 and monitor.events_total == 0


class TestDriftMonitor:
    def test_ring_buffer_is_bounded_but_totals_are_not(self):
        monitor = DriftMonitor(page_hinkley=None, cusum=None, bounds=PhysicsBounds(), max_events=4)
        for k in range(10):
            monitor.observe_soc([f"c{k}"], np.array([2.0]))
        assert len(monitor.events()) == 4
        assert monitor.events_total == 10
        assert monitor.event_counts() == {"soc_bounds": 10}
        monitor.clear()
        assert len(monitor) == 0 and monitor.events_total == 10

    def test_metrics_counters_follow_events(self):
        metrics = MetricsRegistry()
        monitor = DriftMonitor(page_hinkley=None, cusum=None, metrics=metrics)
        monitor.track(["a", "b"])
        monitor.observe_soc(["a"], np.array([-3.0]))
        assert metrics.counter_value("drift_events_total", kind="soc_bounds") == 1.0
        assert metrics.snapshot()["gauges"]["drift_tracked_cells"] == 2.0

    def test_track_is_stable_and_grows(self):
        monitor = DriftMonitor()
        first = monitor.track(["a", "b"])
        second = monitor.track(["b", "c", "a"])
        assert list(first) == [0, 1]
        assert list(second) == [1, 2, 0]
        assert monitor.n_tracked == 3

    def test_per_cell_isolation(self):
        """One drifting cell must alarm alone; its batchmates stay quiet."""
        cfg = CusumConfig(slack=0.005, threshold=0.05, min_samples=5)
        monitor = DriftMonitor(page_hinkley=None, cusum=cfg, bounds=None)
        idx = monitor.track(["quiet", "noisy"])
        for w in range(60):
            residuals = np.array([0.01, 0.01 if w < 30 else 0.3])
            monitor.observe_residuals(idx, residuals, window=w)
        cells = {e.cell_id for e in monitor.events()}
        assert cells == {"noisy"}


# ----------------------------------------------------------------------
class TestResidualStream:
    def test_matches_hand_computation(self):
        out = residual_stream(
            soc_before=np.array([0.8, 0.5]),
            soc_after=np.array([0.76, 0.49]),
            i_avg=np.array([3.0, 1.0]),
            horizon_s=np.array([120.0, 120.0]),
            capacity_ah=np.array([3.0, 3.0]),
        )
        coulomb = -np.array([3.0, 1.0]) * 120.0 / (3600.0 * 3.0)
        expected = np.abs(np.array([-0.04, -0.01]) - coulomb)
        np.testing.assert_allclose(out, expected, atol=1e-15)


# ----------------------------------------------------------------------
class TestEngineIntegration:
    """The engine-side wiring: counters, residual summaries, bounds."""

    @pytest.fixture()
    def model(self):
        from repro.core import TwoBranchSoCNet

        return TwoBranchSoCNet(rng=np.random.default_rng(0))

    def test_estimate_bounds_guard_emits_on_violation(self, model):
        from repro.serve import FleetEngine

        monitor = DriftMonitor(
            page_hinkley=None, cusum=None,
            bounds=PhysicsBounds(soc_min=0.49, soc_max=0.51),
        )
        engine = FleetEngine(default_model=model, drift=monitor)
        engine.register_cell("a")
        engine.estimate(["a"], 3.7, 1.0, 25.0)  # untrained output is far from 0.5
        assert monitor.event_counts() == {"soc_bounds": 1}
        assert monitor.events()[0].cell_id == "a"

    def test_rollout_residuals_feed_metrics_and_detectors(self, model):
        from repro.monitor.metrics import MetricsRegistry
        from repro.serve import FleetEngine, generate_fleet

        metrics = MetricsRegistry()
        monitor = DriftMonitor(metrics=metrics)
        engine = FleetEngine(default_model=model, metrics=metrics, drift=monitor)
        fleet = generate_fleet(
            6, seed=2, ambient_temps_c=(25.0,), c_rates=(1.0,),
            protocols=("discharge",), max_time_s=1800.0,
        )
        results = engine.rollout_fleet(fleet.assignments(), step_s=120.0)
        snap = metrics.snapshot()
        hist = snap["histograms"]['engine_physics_residual{model="__default__"}']
        windows_total = sum(len(r) - 1 for r in results.values())
        assert hist["count"] == windows_total
        assert snap["counters"]['engine_rollout_windows_total{model="__default__"}'] == windows_total
        assert monitor.n_tracked == 6
        # the in-place buffer math matches an offline recomputation of
        # |predicted ΔSoC − coulomb ΔSoC| over every cell's window plan
        from repro.core.rollout import cycle_windows

        total = 0.0
        for cell_id, cycle in fleet.assignments():
            plan = cycle_windows(cycle, 120.0)
            trajectory = results[cell_id].soc_pred
            total += float(
                residual_stream(
                    soc_before=trajectory[:-1],
                    soc_after=trajectory[1:],
                    i_avg=plan.i_avg,
                    horizon_s=plan.horizon_s,
                    capacity_ah=np.full(plan.n_windows, cycle.capacity_ah),
                ).sum()
            )
        assert hist["sum"] == pytest.approx(total, rel=1e-12)

    def test_monitored_rollout_is_numerically_identical(self, model):
        from repro.monitor.metrics import MetricsRegistry
        from repro.serve import FleetEngine, generate_fleet

        fleet = generate_fleet(
            5, seed=4, ambient_temps_c=(25.0,), c_rates=(1.0, 2.0),
            protocols=("discharge",), max_time_s=1800.0,
        )
        metrics = MetricsRegistry()
        monitored = FleetEngine(default_model=model, metrics=metrics, drift=DriftMonitor(metrics=metrics))
        plain = FleetEngine(default_model=model)
        got = monitored.rollout_fleet(fleet.assignments(), step_s=120.0)
        want = plain.rollout_fleet(fleet.assignments(), step_s=120.0)
        for cell_id, _ in fleet.assignments():
            np.testing.assert_array_equal(got[cell_id].soc_pred, want[cell_id].soc_pred)


    def test_rollout_attribution_ignores_assignment_order(self, model, tmp_path):
        """The same fleet rolled out in assignment order and reversed:
        per-model window counters, every cell's detector state and every
        cell's events agree, so rows map back to the right cells."""
        from repro.core import TwoBranchSoCNet
        from repro.core.rollout import cycle_windows
        from repro.serve import FleetEngine, ModelRegistry, generate_fleet

        fleet = generate_fleet(
            24, seed=5, ambient_temps_c=(10.0, 25.0), c_rates=(1.0, 2.0), max_time_s=1800.0
        )
        pairs = fleet.assignments()
        registry = ModelRegistry(tmp_path)
        for k in range(2):
            registry.publish(f"m{k}", TwoBranchSoCNet(rng=np.random.default_rng(20 + k)))

        def serve(order):
            metrics = MetricsRegistry()
            monitor = DriftMonitor(
                page_hinkley=PageHinkleyConfig(delta=0.0, threshold=0.002, min_samples=3),
                cusum=CusumConfig(slack=0.0, threshold=0.002, min_samples=3),
                bounds=PhysicsBounds(soc_min=0.3, soc_max=0.9, max_rate_per_s=2e-4),
                max_events=100_000,
                metrics=metrics,
            )
            engine = FleetEngine(registry=registry, metrics=metrics, drift=monitor)
            for k, (cid, cycle) in enumerate(pairs):
                engine.register_cell(cid, chemistry=cycle.tags["chemistry"], model_name=f"m{k % 2}")
            engine.rollout_fleet(order, step_s=120.0)
            return monitor, metrics.snapshot()

        def events_by_cell(monitor):
            out = {}
            for e in monitor.events():
                out.setdefault(e.cell_id, []).append((e.kind, e.cell_id, e.window))
            return out

        def detector_state(monitor, cell_id):
            slot = monitor._index[cell_id]
            return [getattr(bank, f)[slot] for bank in (monitor._ph, monitor._cusum) for f in bank._FIELDS]

        cell_steps = {"m0": 0, "m1": 0}
        for k, (_, cycle) in enumerate(pairs):
            cell_steps[f"m{k % 2}"] += cycle_windows(cycle, 120.0).n_windows
        forward, forward_snap = serve(pairs)
        backward, backward_snap = serve(pairs[::-1])
        for snap in (forward_snap, backward_snap):
            for key, steps in cell_steps.items():
                assert snap["counters"][f'engine_rollout_windows_total{{model="{key}"}}'] == steps
        assert set(forward.event_counts()) == {"soc_bounds", "soc_rate", "page_hinkley", "cusum"}
        assert events_by_cell(forward) == events_by_cell(backward)
        for cid, _ in pairs:
            # row positions differ between the two orders, which moves
            # BLAS rounding by ~1e-16 and nothing more
            np.testing.assert_allclose(
                detector_state(forward, cid), detector_state(backward, cid), rtol=0, atol=1e-12
            )


# ----------------------------------------------------------------------
class TestEngineChemistryRouting:
    """One monitor watches every chemistry: the engine holds it as given."""

    @pytest.fixture()
    def model(self):
        from repro.core import TwoBranchSoCNet

        return TwoBranchSoCNet(rng=np.random.default_rng(0))

    def test_uniform_monitor_path_is_unchanged(self, model):
        from repro.serve import FleetEngine

        monitor = DriftMonitor(
            page_hinkley=None, cusum=None, bounds=PhysicsBounds(soc_min=0.49, soc_max=0.51)
        )
        engine = FleetEngine(default_model=model, drift=monitor)
        assert engine.drift is monitor
        engine.register_cell("a")
        engine.estimate(["a"], 3.7, 1.0, 25.0)
        assert [e.cell_id for e in engine.drift_events()] == ["a"]

    def test_engine_without_monitor_reports_no_events(self, model):
        from repro.serve import FleetEngine

        assert FleetEngine(default_model=model).drift_events() == []

    def test_empty_batches_are_served_with_a_monitor(self, model):
        from repro.serve import FleetEngine

        for drift in (None, DriftMonitor()):
            engine = FleetEngine(default_model=model, drift=drift)
            assert engine.estimate([], [], [], []).shape == (0,)
            assert engine.predict([], [], [], [], soc_now=[]).shape == (0,)
