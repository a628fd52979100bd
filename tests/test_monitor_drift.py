"""Tests for the drift detectors (:mod:`repro.monitor.drift`)."""

import numpy as np
import pytest

from repro.monitor.drift import (
    Cusum,
    CusumConfig,
    DriftMonitor,
    PageHinkley,
    PageHinkleyConfig,
    PhysicsBounds,
    iter_kinds,
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
        kinds = iter_kinds(monitor.events())
        assert kinds == {"soc_bounds": 2}
        assert {e.cell_id for e in monitor.events()} == {"b", "c"}
        assert all(e.window == 3 for e in monitor.events())
        # rate check: 0.2 SoC over 60 s >> 0.001/s ceiling
        emitted = monitor.observe_soc(["a"], np.array([0.5]), delta=np.array([-0.2]), horizon_s=60.0)
        assert emitted == 1
        assert monitor.events()[-1].kind == "soc_rate"

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
class TestDriftMonitorFromSpec:
    def test_empty_spec_takes_the_defaults(self):
        monitor = DriftMonitor.from_spec(None)
        assert monitor.bounds == PhysicsBounds()
        assert monitor._ph is not None and monitor._cusum is not None

    def test_explicit_null_disables_a_detector(self):
        monitor = DriftMonitor.from_spec({"page_hinkley": None, "cusum": None, "bounds": None})
        assert monitor.bounds is None
        assert monitor._ph is None and monitor._cusum is None
        assert monitor.observe_soc(["a"], np.array([5.0])) == 0

    def test_tuned_thresholds_apply(self):
        monitor = DriftMonitor.from_spec(
            {"cusum": {"slack": 0.01, "threshold": 0.2}, "max_events": 7}
        )
        assert monitor._cusum.config.threshold == 0.2
        assert monitor._events.maxlen == 7

    def test_max_discharge_c_routes_through_for_c_rate(self):
        monitor = DriftMonitor.from_spec({"bounds": {"max_discharge_c": 3.0, "margin": 2.0}})
        assert monitor.bounds == PhysicsBounds.for_c_rate(3.0, margin=2.0)

    def test_raw_bounds_fields_pass_through(self):
        monitor = DriftMonitor.from_spec({"bounds": {"soc_min": 0.0, "soc_max": 1.0}})
        assert monitor.bounds.soc_min == 0.0 and monitor.bounds.soc_max == 1.0


# ----------------------------------------------------------------------
class TestChemistryDriftRouter:
    """Per-chemistry detector banks behind the single-monitor surface."""

    @staticmethod
    def resolver(chemistry):
        from repro.monitor.drift import ChemistryDriftRouter  # noqa: F401 (import check)

        return {
            "strict": {"bounds": {"soc_min": 0.49, "soc_max": 0.51}},
            "loose": {"bounds": None},
        }.get(chemistry)

    def _router(self, metrics=None):
        from repro.monitor.drift import ChemistryDriftRouter

        return ChemistryDriftRouter(self.resolver, metrics=metrics)

    def test_cells_route_to_their_chemistry_monitor(self):
        router = self._router()
        router.resolve_cell("a", "strict")
        router.resolve_cell("b", "loose")
        soc = np.array([0.9, 0.9])  # violates strict's bounds only
        assert router.observe_soc(["a", "b"], soc) == 1
        events = router.events()
        assert [e.cell_id for e in events] == ["a"]
        assert events[0].kind == "soc_bounds"

    def test_unknown_chemistry_falls_back_to_defaults(self):
        router = self._router()
        router.resolve_cell("x", "na-ion")  # resolver returns None
        assert router.observe_soc(["x"], np.array([0.9])) == 0  # default bounds: fine
        assert router.observe_soc(["x"], np.array([2.0])) == 1  # default bounds: violated

    def test_unbound_cells_use_the_none_monitor(self):
        router = self._router()
        assert router.observe_soc(["ghost"], np.array([2.0])) == 1
        assert router.monitors().keys() == {None}

    def test_resolver_may_hand_over_a_ready_monitor(self):
        from repro.monitor.drift import ChemistryDriftRouter

        mine = DriftMonitor(page_hinkley=None, cusum=None, bounds=PhysicsBounds())
        router = ChemistryDriftRouter(lambda chem: mine)
        assert router.resolve_cell("a", "nmc") is mine
        router.observe_soc(["a"], np.array([2.0]))
        assert mine.event_counts() == {"soc_bounds": 1}

    def test_residual_batches_split_per_monitor(self):
        from repro.monitor.drift import ChemistryDriftRouter

        def resolver(chemistry):
            if chemistry == "twitchy":
                return {
                    "page_hinkley": None, "bounds": None,
                    "cusum": {"slack": 0.005, "threshold": 0.05, "min_samples": 5},
                }
            return {"page_hinkley": None, "cusum": None, "bounds": None}

        router = ChemistryDriftRouter(resolver)
        router.resolve_cell("t", "twitchy")
        router.resolve_cell("calm", "stone")
        idx = router.track(["t", "calm"])
        for w in range(60):  # a drift *step*, not a constant offset
            level = 0.01 if w < 30 else 0.3
            router.observe_residuals(idx, np.array([level, level]), window=w)
        assert {e.cell_id for e in router.events()} == {"t"}
        assert router.n_tracked == 2

    def test_readout_merges_across_monitors(self):
        metrics = MetricsRegistry()
        router = self._router(metrics=metrics)
        router.resolve_cell("a", "strict")
        router.resolve_cell("b", "na-ion")
        router.observe_soc(["a", "b"], np.array([0.9, 2.0]))  # one event each
        assert router.events_total == 2
        assert router.event_counts() == {"soc_bounds": 2}
        assert len(router) == 2
        assert metrics.counter_value("drift_events_total", kind="soc_bounds") == 2.0
        router.clear()
        assert len(router) == 0 and router.events_total == 2

    def test_bounds_envelope_is_the_tightest_over_built_monitors(self):
        """The engine skips the monitor for batches inside the envelope,
        so it must be at least as strict as every chemistry's bounds —
        a violation of any per-chemistry limit always escapes it."""
        router = self._router()
        router.resolve_cell("x", "na-ion")  # default bounds
        assert router.bounds == PhysicsBounds()
        router.resolve_cell("a", "strict")  # [0.49, 0.51] narrows it
        assert router.bounds == PhysicsBounds(
            soc_min=0.49, soc_max=0.51, max_rate_per_s=PhysicsBounds().max_rate_per_s
        )
        # a bounds-less monitor never loosens the envelope (its cells
        # are simply exempt from the per-monitor check)
        router.resolve_cell("b", "loose")
        assert router.bounds.soc_min == 0.49 and router.bounds.soc_max == 0.51
        # ... but a router whose every monitor disabled bounds has none
        only_loose = self._router()
        only_loose.resolve_cell("b", "loose")
        assert only_loose.bounds is None


# ----------------------------------------------------------------------
class TestEngineChemistryRouting:
    """FleetEngine(drift=<resolver>) wraps the callable in a router."""

    @pytest.fixture()
    def model(self):
        from repro.core import TwoBranchSoCNet

        return TwoBranchSoCNet(rng=np.random.default_rng(0))

    def test_engine_routes_detectors_per_chemistry(self, model):
        from repro.serve import FleetEngine

        def resolver(chemistry):
            if chemistry == "strict":
                return {"bounds": {"soc_min": 0.49, "soc_max": 0.51}}
            return {"page_hinkley": None, "cusum": None, "bounds": None}

        engine = FleetEngine(default_model=model, drift=resolver)
        engine.register_cell("a", chemistry="strict")
        engine.register_cell("b", chemistry="lfp")
        engine.estimate(["a", "b"], 3.7, 1.0, 25.0)
        events = engine.drift_events()
        assert [e.cell_id for e in events] == ["a"]
        assert events[0].kind == "soc_bounds"

    def test_uniform_monitor_path_is_unchanged(self, model):
        from repro.serve import FleetEngine

        monitor = DriftMonitor(
            page_hinkley=None, cusum=None, bounds=PhysicsBounds(soc_min=0.49, soc_max=0.51)
        )
        engine = FleetEngine(default_model=model, drift=monitor)
        assert engine.drift is monitor  # no router wrapping
        engine.register_cell("a")
        engine.estimate(["a"], 3.7, 1.0, 25.0)
        assert [e.cell_id for e in engine.drift_events()] == ["a"]

    def test_engine_without_monitor_reports_no_events(self, model):
        from repro.serve import FleetEngine

        assert FleetEngine(default_model=model).drift_events() == []
