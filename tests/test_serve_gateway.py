"""Tests for the async gateway (:mod:`repro.serve.gateway`) and the
thread-safety of the batcher underneath it."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.core import TwoBranchSoCNet
from repro.serve import (
    FleetEngine,
    GatewayOverloaded,
    MicroBatcher,
    ShardedFleet,
    SocGateway,
    WorkerSpec,
    generate_fleet,
)

FAST_FLEET = dict(
    ambient_temps_c=(25.0,),
    c_rates=(1.0, 2.0),
    protocols=("discharge",),
    max_time_s=1800.0,
)


@pytest.fixture(scope="module")
def model():
    return TwoBranchSoCNet(rng=np.random.default_rng(0))


def make_engine(model, n_cells=32):
    engine = FleetEngine(default_model=model)
    for k in range(n_cells):
        engine.register_cell(f"c{k}")
    return engine


class SlowRollout:
    """Engine wrapper whose rollout takes a fixed wall-clock time."""

    def __init__(self, inner, delay_s: float):
        self._inner = inner
        self._delay_s = delay_s

    def rollout_fleet(self, assignments, step_s, step_hook=None):
        time.sleep(self._delay_s)
        return self._inner.rollout_fleet(assignments, step_s, step_hook=step_hook)

    def __contains__(self, cell_id):
        return cell_id in self._inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
class TestMicroBatcherConcurrency:
    def test_deadline_trigger_under_concurrent_submitters(self, model):
        """Eight threads hammer the batcher while the main thread polls:
        every request completes exactly once, none is lost or torn."""
        engine = make_engine(model)
        batcher = MicroBatcher(engine, max_batch=10_000, max_delay_s=0.005)
        n_threads, per_thread = 8, 25
        barrier = threading.Barrier(n_threads)
        submitted: list[int] = []
        submitted_lock = threading.Lock()

        def submitter(t: int) -> None:
            barrier.wait()
            ids = []
            for j in range(per_thread):
                ids.append(batcher.submit_estimate(f"c{(t + j) % 32}", 3.7, 1.0, 25.0))
            with submitted_lock:
                submitted.extend(ids)

        threads = [threading.Thread(target=submitter, args=(t,)) for t in range(n_threads)]
        for thread in threads:
            thread.start()
        completions = []
        deadline = time.monotonic() + 10.0
        while len(completions) < n_threads * per_thread and time.monotonic() < deadline:
            completions.extend(batcher.poll())
            time.sleep(0.001)
        for thread in threads:
            thread.join()
        completions.extend(batcher.flush())
        assert len(completions) == n_threads * per_thread
        assert {c.req_id for c in completions} == set(submitted)
        assert all(c.ok for c in completions)
        assert batcher.stats.deadline_flushes >= 1
        assert batcher.pending == 0


class OneRowOnly:
    """Engine wrapper whose multi-row estimates raise, as a broken batch path would."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def estimate(self, cell_ids, voltage, current, temp_c, now_s=None):
        self.calls += 1
        if len(cell_ids) > 1:
            raise TypeError("batched estimate is broken")
        return self._inner.estimate(cell_ids, voltage, current, temp_c, now_s=now_s)

    def __contains__(self, cell_id):
        return cell_id in self._inner

    def __getattr__(self, name):
        return getattr(self._inner, name)


# ----------------------------------------------------------------------
class TestSocGateway:
    def test_rejects_bad_config(self, model):
        with pytest.raises(ValueError):
            SocGateway(make_engine(model), max_in_flight=0)

    def test_concurrent_estimates_coalesce_into_one_batch(self, model):
        engine = make_engine(model)
        gateway = SocGateway(engine, max_batch=8, max_delay_s=10.0, max_in_flight=64)

        async def drive():
            async with gateway:
                return await asyncio.gather(
                    *(gateway.estimate(f"c{k}", 3.5 + 0.05 * k, 1.0, 25.0) for k in range(8))
                )

        completions = asyncio.run(drive())
        assert all(c.ok for c in completions)
        assert all(c.batch_size == 8 for c in completions)  # one coalesced engine call
        for k, completion in enumerate(completions):
            expected = float(model.estimate_soc(3.5 + 0.05 * k, 1.0, 25.0)[0])
            assert completion.value == pytest.approx(expected, abs=1e-12)
        stats = gateway.stats_dict()["estimate"]
        assert stats["completed"] == 8 and stats["errors"] == 0 and stats["shed"] == 0
        assert gateway.stats_dict()["batch_fallbacks"] == 0

    def test_failed_batch_is_served_per_request_and_counted(self, model):
        engine = OneRowOnly(make_engine(model))
        gateway = SocGateway(engine, max_batch=8, max_delay_s=10.0, max_in_flight=64)

        async def drive():
            async with gateway:
                return await asyncio.gather(
                    *(gateway.estimate(f"c{k}", 3.5 + 0.05 * k, 1.0, 25.0) for k in range(8))
                )

        completions = asyncio.run(drive())
        for k, completion in enumerate(completions):
            assert completion.ok
            expected = float(model.estimate_soc(3.5 + 0.05 * k, 1.0, 25.0)[0])
            assert completion.value == pytest.approx(expected, abs=1e-12)
        bstats = gateway.batcher.stats
        assert bstats.flushes == 1 and bstats.fallbacks == 1
        assert bstats.last_fallback == "TypeError: batched estimate is broken"
        assert engine.calls == 1 + 8  # the failed batch, then one call per request
        assert gateway.stats_dict()["batch_fallbacks"] == 1
        assert gateway.stats_dict()["estimate"]["errors"] == 0

    def test_lone_request_completes_via_deadline_flusher(self, model):
        gateway = SocGateway(make_engine(model), max_batch=1000, max_delay_s=0.01)

        async def drive():
            async with gateway:
                return await asyncio.wait_for(gateway.estimate("c0", 3.7, 1.0, 25.0), timeout=5.0)

        completion = asyncio.run(drive())
        assert completion.ok
        assert completion.batch_size == 1
        assert completion.wait_s >= 0.01  # released by the deadline, not a size trigger

    def test_load_shed_returns_ok_false_instead_of_hanging(self, model):
        """Beyond max_in_flight the gateway must answer immediately with
        ok=False completions — never queue without bound."""
        gateway = SocGateway(make_engine(model), max_batch=1000, max_delay_s=0.05, max_in_flight=4)

        async def drive():
            async with gateway:
                return await asyncio.wait_for(
                    asyncio.gather(*(gateway.estimate(f"c{k}", 3.7, 1.0, 25.0) for k in range(20))),
                    timeout=5.0,
                )

        completions = asyncio.run(drive())
        served = [c for c in completions if c.ok]
        shed = [c for c in completions if not c.ok]
        assert len(served) == 4 and len(shed) == 16
        assert all(c.error.startswith("shed:") for c in shed)
        assert all(np.isnan(c.value) for c in shed)
        stats = gateway.stats_dict()["estimate"]
        assert stats["shed"] == 16 and stats["completed"] == 4 and stats["errors"] == 0
        assert gateway.in_flight == 0

    def test_engine_error_surfaces_as_error_completion(self, model):
        gateway = SocGateway(make_engine(model), max_batch=1, max_delay_s=10.0)

        async def drive():
            async with gateway:
                return await gateway.predict("c0", 2.0, 25.0, 120.0)  # no stored SoC yet

        completion = asyncio.run(drive())
        assert not completion.ok
        assert "no stored SoC" in completion.error
        assert gateway.stats_dict()["predict"]["errors"] == 1

    def test_rollout_endpoint_matches_direct_engine_call(self, model):
        fleet = generate_fleet(10, seed=3, **FAST_FLEET)
        ref = FleetEngine(default_model=model).rollout_fleet(fleet.assignments(), 120.0)
        gateway = SocGateway(FleetEngine(default_model=model))

        async def drive():
            async with gateway:
                return await gateway.rollout(fleet.assignments(), 120.0)

        results = asyncio.run(drive())
        for cell_id, _ in fleet.assignments():
            np.testing.assert_allclose(results[cell_id].soc_pred, ref[cell_id].soc_pred, atol=1e-9, rtol=0)
        stats = gateway.stats_dict()["rollout"]
        assert stats["completed"] == 1 and stats["errors"] == 0

    def test_rollout_sheds_with_exception_at_capacity(self, model):
        fleet = generate_fleet(4, seed=3, **FAST_FLEET)
        gateway = SocGateway(make_engine(model), max_batch=1000, max_delay_s=0.02, max_in_flight=1)

        async def drive():
            async with gateway:
                pending = asyncio.ensure_future(gateway.estimate("c0", 3.7, 1.0, 25.0))
                await asyncio.sleep(0)  # let the estimate occupy the only slot
                with pytest.raises(GatewayOverloaded, match="shed"):
                    await gateway.rollout(fleet.assignments(), 120.0)
                return await pending

        completion = asyncio.run(drive())
        assert completion.ok
        assert gateway.stats_dict()["rollout"]["shed"] == 1

    def test_event_loop_stays_live_during_rollout(self, model):
        """A slow rollout holds the batcher lock on the executor; the
        event loop must keep ticking (accepting/shedding) meanwhile —
        not block on that lock in the flusher or a submission."""
        fleet = generate_fleet(4, seed=3, **FAST_FLEET)
        engine = SlowRollout(make_engine(model), delay_s=0.5)
        gateway = SocGateway(engine, max_batch=1000, max_delay_s=0.01, max_in_flight=64)

        async def drive():
            async with gateway:
                rollout_task = asyncio.ensure_future(gateway.rollout(fleet.assignments(), 120.0))
                await asyncio.sleep(0)  # let the rollout claim the lock
                submitted = asyncio.ensure_future(gateway.estimate("c0", 3.7, 1.0, 25.0))
                ticks = 0
                while not rollout_task.done():  # heartbeat: frozen loop => ~0 ticks
                    await asyncio.sleep(0.01)
                    ticks += 1
                results = await rollout_task
                completion = await asyncio.wait_for(submitted, timeout=5.0)
                return ticks, results, completion

        ticks, results, completion = asyncio.run(drive())
        assert ticks >= 10  # ~50 expected over a 0.5 s rollout
        assert len(results) == 4
        assert completion.ok  # queued behind the rollout, then served

    def test_cancelled_rollout_is_booked_and_its_trace_closed(self, model):
        from repro.monitor import SpanTracer

        fleet = generate_fleet(4, seed=3, **FAST_FLEET)
        tracer = SpanTracer(sample_rate=1.0)
        gateway = SocGateway(SlowRollout(make_engine(model), delay_s=0.3), tracer=tracer)

        async def drive():
            async with gateway:
                rollout_task = asyncio.ensure_future(gateway.rollout(fleet.assignments(), 120.0))
                await asyncio.sleep(0.05)  # rollout is computing on the executor
                rollout_task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await rollout_task
                return gateway.in_flight

        assert asyncio.run(drive()) == 0
        stats = gateway.stats_dict()["rollout"]
        assert stats["requests"] == stats["completed"] + stats["shed"] == 1
        assert stats["errors"] == 1
        (tree,) = tracer.trace_trees()
        assert tree["root"]["attrs"]["error"] == "cancelled"

    def test_cancelled_submitter_does_not_leak_orphans(self, model):
        """A client timeout while its submission is parked behind a
        rollout leaves nothing behind: its row is still served and
        accounted, and the gateway keeps serving."""
        fleet = generate_fleet(4, seed=3, **FAST_FLEET)
        engine = SlowRollout(make_engine(model), delay_s=0.3)
        gateway = SocGateway(engine, max_batch=1000, max_delay_s=0.01, max_in_flight=64)

        async def drive():
            async with gateway:
                rollout_task = asyncio.ensure_future(gateway.rollout(fleet.assignments(), 120.0))
                await asyncio.sleep(0.05)  # rollout now holds the batcher lock
                victim = asyncio.ensure_future(gateway.estimate("c0", 3.7, 1.0, 25.0))
                await asyncio.sleep(0.05)  # victim is parked on the executor
                victim.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await victim
                await rollout_task
                survivor = await asyncio.wait_for(gateway.estimate("c1", 3.7, 1.0, 25.0), timeout=5.0)
                deadline = time.monotonic() + 5.0
                while (gateway.in_flight or gateway.batcher.pending) and time.monotonic() < deadline:
                    await asyncio.sleep(0.005)
                # checked before stop(), whose forced flush would hide a leak
                return survivor, gateway.in_flight, gateway.batcher.pending

        survivor, in_flight, pending = asyncio.run(drive())
        assert survivor.ok  # the gateway still serves after the cancellation
        assert in_flight == 0
        assert pending == 0
        assert gateway.stats_dict()["estimate"]["completed"] == 2  # the victim's row was served too

    def test_idle_deadline_timer_sleeps_until_the_next_enqueue(self, model):
        """With nothing queued the deadline timer makes no batcher call;
        a lone request still flushes at its deadline."""
        gateway = SocGateway(make_engine(model), max_batch=1000, max_delay_s=0.02)
        batcher = gateway.batcher
        calls = []
        for name in ("poll", "release", "due_in"):
            op = getattr(batcher, name)
            setattr(batcher, name, lambda *args, _op=op, _name=name: (calls.append(_name), _op(*args))[1])

        async def drive():
            async with gateway:
                await asyncio.sleep(0.2)
                idle_calls = list(calls)
                t0 = time.monotonic()
                completion = await asyncio.wait_for(gateway.estimate("c0", 3.7, 1.0, 25.0), timeout=5.0)
                return idle_calls, completion, time.monotonic() - t0

        idle_calls, completion, elapsed = asyncio.run(drive())
        assert idle_calls.count("poll") + idle_calls.count("release") <= 1
        assert idle_calls.count("due_in") <= 1
        assert completion.ok and completion.batch_size == 1
        assert completion.wait_s >= 0.02  # released by the deadline
        assert elapsed < 0.02 + 0.5

    def test_concurrent_mixed_traffic_matches_direct_engine_calls(self, model):
        """512 concurrent callers — estimates, predicts and one unknown
        cell — get the values a direct engine call gives, and the
        gateway's and batcher's books balance."""
        rng = np.random.default_rng(7)
        est_cells = [f"c{k}" for k in range(256)]
        pred_cells = [f"c{k}" for k in range(256, 383)]
        engine, reference = make_engine(model, 400), make_engine(model, 400)
        for fleet_engine in (engine, reference):
            fleet_engine.estimate(pred_cells, 3.6, 1.0, 25.0)
        est_ids = est_cells + est_cells[:128]  # 384 estimates, some cells twice
        est = [(cid, *rng.uniform((3.0, -4.0, 10.0), (4.1, 1.0, 40.0))) for cid in est_ids]
        pred = [(cid, *rng.uniform((-4.0, 10.0, 30.0), (1.0, 40.0, 600.0))) for cid in pred_cells]
        calls = [("estimate", row) for row in est] + [("predict", row) for row in pred]
        calls.append(("estimate", ("ghost", 3.7, 1.0, 25.0)))
        order = rng.permutation(len(calls))
        gateway = SocGateway(engine, max_batch=64, max_delay_s=0.005)

        async def drive():
            async with gateway:
                results = await asyncio.gather(*(getattr(gateway, calls[k][0])(*calls[k][1]) for k in order))
                return results, gateway.in_flight, gateway.batcher.pending

        results, in_flight, pending = asyncio.run(drive())
        assert len(results) == 512 and in_flight == 0 and pending == 0
        got = {k: completion for k, completion in zip(order.tolist(), results)}
        ghost = got[len(calls) - 1]
        assert not ghost.ok and np.isnan(ghost.value)
        assert ghost.error == "unknown cell 'ghost': not registered with the engine"
        cols = list(zip(*est))
        want_est = reference.estimate(list(cols[0]), cols[1], cols[2], cols[3])
        cols = list(zip(*pred))
        want_pred = reference.predict(list(cols[0]), cols[1], cols[2], cols[3])
        for k, want in enumerate(want_est.tolist() + want_pred.tolist()):
            assert got[k].ok
            assert got[k].value == pytest.approx(want, abs=1e-12)
        stats = gateway.stats_dict()
        for endpoint in ("estimate", "predict"):
            ep = stats[endpoint]
            assert ep["requests"] == ep["completed"] + ep["shed"]
            assert ep["shed"] == 0
        assert stats["estimate"]["errors"] == 1 and stats["predict"]["errors"] == 0
        bstats = gateway.batcher.stats
        ok = stats["estimate"]["ok"] + stats["predict"]["ok"]
        errors = stats["estimate"]["errors"] + stats["predict"]["errors"]
        assert bstats.requests == ok + errors == 512
        assert bstats.errors == errors

    def test_stop_during_rollout_completes_queued_requests(self, model):
        """stop() while a rollout blocks the flusher mid executor-poll
        must still deliver queued completions, not discard them with
        the cancelled task."""
        fleet = generate_fleet(4, seed=3, **FAST_FLEET)
        clock_start = time.monotonic()
        engine = SlowRollout(make_engine(model), delay_s=0.4)
        gateway = SocGateway(engine, max_batch=1000, max_delay_s=0.01)

        async def drive():
            gateway.start()
            rollout_task = asyncio.ensure_future(gateway.rollout(fleet.assignments(), 120.0))
            await asyncio.sleep(0.05)  # rollout holds the lock; flusher falls back to executor
            pending = asyncio.ensure_future(gateway.estimate("c0", 3.7, 1.0, 25.0))
            await asyncio.sleep(0.05)
            await gateway.stop()  # cancels the flusher mid-poll; must not strand the request
            completion = await asyncio.wait_for(pending, timeout=5.0)
            await rollout_task
            return completion

        completion = asyncio.run(drive())
        assert completion.ok
        assert time.monotonic() - clock_start < 10.0  # sanity: nothing dead-locked
        assert gateway.in_flight == 0

    def test_stop_completes_stragglers(self, model):
        gateway = SocGateway(make_engine(model), max_batch=1000, max_delay_s=60.0)

        async def drive():
            gateway.start()
            pending = asyncio.ensure_future(gateway.estimate("c0", 3.7, 1.0, 25.0))
            while gateway.batcher.pending == 0:  # submission crosses the executor
                await asyncio.sleep(0.001)
            await gateway.stop()  # must flush the queued request, not strand it
            return await asyncio.wait_for(pending, timeout=1.0)

        completion = asyncio.run(drive())
        assert completion.ok

    def test_pump_drives_completions_without_flusher(self, model):
        clock_now = [0.0]
        gateway = SocGateway(make_engine(model), max_batch=1000, max_delay_s=0.5, clock=lambda: clock_now[0])

        async def drive():
            pending = asyncio.ensure_future(gateway.estimate("c0", 3.7, 1.0, 25.0))
            while gateway.batcher.pending == 0:  # submission crosses the executor
                await asyncio.sleep(0.001)
            assert gateway.pump() == 0  # deadline not reached on the fake clock
            clock_now[0] = 1.0
            assert gateway.pump() == 1
            return await pending

        completion = asyncio.run(drive())
        assert completion.ok
        assert completion.wait_s == pytest.approx(1.0)

    def test_registry_backed_stats_expose_metrics_snapshot(self, model):
        """The retired EndpointStats reservoir is gone: the same numbers
        come from the metrics registry, in both stats_dict shape and
        the mergeable snapshot format."""
        gateway = SocGateway(make_engine(model), max_batch=4, max_delay_s=10.0)

        async def drive():
            async with gateway:
                return await asyncio.gather(*(gateway.estimate(f"c{k}", 3.7, 1.0, 25.0) for k in range(4)))

        completions = asyncio.run(drive())
        assert all(c.ok for c in completions)
        snap = gateway.metrics_snapshot()
        assert snap["counters"]['gateway_requests_total{endpoint="estimate"}'] == 4.0
        assert snap["counters"]['gateway_completed_total{endpoint="estimate"}'] == 4.0
        hist = snap["histograms"]['gateway_latency_seconds{endpoint="estimate"}']
        assert hist["count"] == 4
        stats = gateway.stats_dict()["estimate"]
        assert stats["completed"] == 4 and stats["p50_ms"] >= 0.0
        assert gateway.stats_dict()["retries"] == 0

    def test_shared_registry_is_used_when_given(self, model):
        from repro.monitor import MetricsRegistry

        metrics = MetricsRegistry()
        gateway = SocGateway(make_engine(model), metrics=metrics)
        assert gateway.metrics is metrics
        gateway.stats["estimate"].requests.inc()
        assert metrics.counter_value("gateway_requests_total", endpoint="estimate") == 1.0


# ----------------------------------------------------------------------
class TestWorkerCrashRetry:
    """Gateway retry/hedging: a WorkerCrashError mid-flight restarts the
    dead (journaled) worker and retries the affected cells once, instead
    of surfacing ok=False."""

    def _worker_fleet(self, model, tmp_path, n_cells=8):
        spec = WorkerSpec(
            url="pipe://",
            model=model,
            journal=str(tmp_path / "w{shard}.journal"),
            name="w{shard}",
        )
        fleet = ShardedFleet(2, spec=spec)
        ids = [f"c{k}" for k in range(n_cells)]
        for cid in ids:
            fleet.register_cell(cid)
        return fleet, ids

    @staticmethod
    def _kill_worker(fleet, shard: int) -> None:
        worker = fleet._shards[shard]
        worker._proc.kill()
        worker._proc.wait()

    def test_estimates_survive_a_worker_crash(self, model, tmp_path):
        fleet, ids = self._worker_fleet(model, tmp_path)
        try:
            gateway = SocGateway(fleet, max_batch=len(ids), max_delay_s=10.0)
            self._kill_worker(fleet, 0)
            assert fleet.worker_health() == [False, True]

            async def drive():
                async with gateway:
                    return await asyncio.gather(*(gateway.estimate(cid, 3.7, 1.0, 25.0) for cid in ids))

            completions = asyncio.run(drive())
            assert all(c.ok for c in completions), [c.error for c in completions]
            assert fleet.worker_health() == [True, True]
            assert gateway.stats_dict()["retries"] == 1
            assert gateway.metrics.counter_value("gateway_retries_total") == 1.0
            # the restarted worker restored its cells from its journal
            reference = FleetEngine(default_model=model)
            for cid in ids:
                reference.register_cell(cid)
            expected = reference.estimate(ids, 3.7, 1.0, 25.0)
            by_cell = {c.cell_id: c.value for c in completions}
            for k, cid in enumerate(ids):
                assert by_cell[cid] == pytest.approx(float(expected[k]), abs=1e-12)
        finally:
            fleet.close()

    def test_rollout_survives_a_worker_crash(self, model, tmp_path):
        fleet, ids = self._worker_fleet(model, tmp_path)
        try:
            small = generate_fleet(6, seed=3, **FAST_FLEET)
            assignments = [(cid, cycle) for cid, (_, cycle) in zip(ids[:6], small.assignments())]
            gateway = SocGateway(fleet)
            self._kill_worker(fleet, 1)

            async def drive():
                async with gateway:
                    return await gateway.rollout(assignments, 120.0)

            results = asyncio.run(drive())
            assert set(results) == set(ids[:6])
            assert fleet.worker_health() == [True, True]
            assert gateway.stats_dict()["retries"] == 1
            ref = FleetEngine(default_model=model).rollout_fleet(assignments, 120.0)
            for cid, _ in assignments:
                np.testing.assert_allclose(results[cid].soc_pred, ref[cid].soc_pred, atol=1e-9, rtol=0)
        finally:
            fleet.close()

    def test_unrecoverable_engines_still_surface_errors(self, model):
        """Single engines have no workers to heal: behavior is unchanged."""
        gateway = SocGateway(make_engine(model))
        assert gateway._recover_workers() is False
