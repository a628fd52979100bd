"""The four workloads: open-loop live traffic and back-to-back fleet rollouts.

Live traffic is driven open-loop from one process, on the gateway's
own event loop: arrival times are drawn up front (Poisson), and each
request is fired at its scheduled time whether or not earlier ones have
completed.  Latency is measured from the scheduled arrival, so a stall
counts against every request queued behind it; how late the driver
itself ran is reported as send lag.

A live run alternates ``ROUNDS`` open-loop fixed-rate segments
(latency, failures, CPU per request) with closed-loop saturation
segments (``SATURATION_CLIENTS`` callers, each sending its next request
when the last completes: ok completions per second at the ceiling),
so both sample the machine across the whole run; a short open-loop
overload well past saturation ends it (shed fraction).  A rollout run calls
``SocGateway.rollout`` on the whole 1024-cell fleet back to back
(a closed loop of one caller); in the per-layer replays a 200 Hz ticker
on the same loop records how late scheduled wake-ups run meanwhile.

Back-to-back work — each set-up, each rollout call, each saturation
segment — is restated at the reference speed of :mod:`speed`, read
right before it (and, but for a set-up, right after).  The
open-loop fixed-rate figures stay as measured: at a tenth of capacity
their latency is mostly the batcher's fixed 2 ms deadline, which does
not scale with machine speed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import statistics
import time
from pathlib import Path

import numpy as np

from repro.serve.gateway import SocGateway

import common
import speed
from checks import Oracle
from common import HORIZONS_S, MAX_BATCH, MAX_DELAY_S, STEP_S, Inputs
from proxies import Meter, Timed

# workload -> (driver, topology)
WORKLOADS = {
    "live-inproc": ("live", "inproc"),
    "live-pipe2": ("live", "pipe2"),
    "rollout-inproc": ("rollout", "inproc"),
    "rollout-durable": ("rollout", "pipe2"),
}
# (fixed-rate phase, overload phase) offered rates in requests/second
RATES = {"inproc": (3000.0, 24000.0), "pipe2": (1200.0, 8000.0)}
PREDICT_SHARE = 0.25  # 3 estimates to 1 predict
WARMUP_S = 0.5
# shares of a live run's seconds: open-loop fixed rate, closed-loop
# saturation (SATURATION_CLIENTS callers, no shedding), open-loop overload
FIXED_SHARE, SATURATION_SHARE, OVERLOAD_SHARE = 0.6, 0.3, 0.1
ROUNDS = 25  # fixed-rate and saturation segments alternate this many times
SATURATION_CLIENTS = 512
SATURATION_ROWS_PER_S = 80000.0  # planned rows; more than any topology serves
RAMP_S = 0.1  # start of a saturation segment that is not counted
TICK_S = 0.005
# reference tasks per speed reading: before each set-up, around each
# saturation segment and around each rollout call
SETUP_READING, SEGMENT_READING, CALL_READING = 5, 5, 3
OK, SHED, ERROR = 1, 2, 3


@dataclasses.dataclass
class Plan:
    """One phase of seeded live traffic (parallel columns, one row per request)."""

    sched: list[float]
    kind: np.ndarray  # 0 estimate, 1 predict
    cell: np.ndarray
    a: list[float]  # V | I_avg
    b: list[float]  # I | T_avg
    c: list[float]  # T | horizon

    def __len__(self) -> int:
        return len(self.sched)

    def head(self, n: int) -> Plan:
        return Plan(self.sched[:n], self.kind[:n], self.cell[:n], self.a[:n], self.b[:n], self.c[:n])


def poisson(rate: float, duration_s: float, rng: np.random.Generator) -> np.ndarray:
    n = int(rate * duration_s * 1.2) + 64
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while times[-1] < duration_s:
        times = np.concatenate([times, times[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))])
    return times[times < duration_s]


def make_plan(inputs: Inputs, rate: float, duration_s: float, rng: np.random.Generator) -> Plan:
    """Seeded arrivals, kinds, cells and sensor readings for one phase."""
    sched = poisson(rate, duration_s, rng)
    n = sched.size
    kind = (rng.random(n) < PREDICT_SHARE).astype(np.int8)
    cell = rng.integers(0, inputs.n, size=n)
    j = (rng.random(n) * inputs.lengths[cell]).astype(np.intp)
    v, i, t = inputs.samples[:, cell, j]
    horizon = rng.choice(HORIZONS_S, size=n)
    est = kind == 0
    a, b, c = np.where(est, v, i), np.where(est, i, t), np.where(est, t, horizon)
    return Plan(sched.tolist(), kind, cell, a.tolist(), b.tolist(), c.tolist())


@dataclasses.dataclass
class Phase:
    """Outcome of one open-loop phase."""

    plan: Plan
    status: np.ndarray
    value: np.ndarray
    done: np.ndarray  # completion offsets from phase start
    lag: np.ndarray  # send lag per request

    @property
    def latency(self) -> np.ndarray:
        return self.done - np.asarray(self.plan.sched)

    def count(self, status: int) -> int:
        return int(np.count_nonzero(self.status == status))


async def open_loop(gateway: SocGateway, inputs: Inputs, plan: Plan) -> Phase:
    """Fire every planned request at its scheduled time; wait for all of them."""
    n = len(plan)
    status = np.zeros(n, dtype=np.int8)
    value = np.full(n, np.nan)
    done = np.full(n, np.nan)
    lag = np.zeros(n)
    ids, sched, kind, cell = inputs.ids, plan.sched, plan.kind.tolist(), plan.cell.tolist()
    a, b, c = plan.a, plan.b, plan.c
    clock = time.perf_counter
    loop = asyncio.get_running_loop()
    start = clock()

    async def fire(i: int) -> None:
        lag[i] = clock() - start - sched[i]
        call = gateway.estimate if kind[i] == 0 else gateway.predict
        try:
            completion = await call(ids[cell[i]], a[i], b[i], c[i])
        except Exception:
            status[i] = ERROR
        else:
            if completion.error is None:
                status[i] = OK
                value[i] = completion.value
            else:
                status[i] = SHED if completion.error.startswith("shed:") else ERROR
        done[i] = clock() - start

    # only in-flight tasks are kept, so a long phase does not grow the heap
    pending: set[asyncio.Task] = set()
    for i in range(n):
        delay = sched[i] - (clock() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        task = loop.create_task(fire(i))
        pending.add(task)
        task.add_done_callback(pending.discard)
    await asyncio.gather(*pending)
    return Phase(plan, status, value, done, lag)


async def closed_loop(gateway: SocGateway, inputs: Inputs, plan: Plan, clients: int, duration_s: float) -> Phase:
    """``clients`` callers, each sending its next planned request when the last completes."""
    n = len(plan)
    status = np.zeros(n, dtype=np.int8)
    value = np.full(n, np.nan)
    done = np.full(n, np.nan)
    ids, kind, cell = inputs.ids, plan.kind.tolist(), plan.cell.tolist()
    a, b, c = plan.a, plan.b, plan.c
    clock = time.perf_counter
    start = clock()
    rows = iter(range(n))

    async def client() -> None:
        for i in rows:
            if clock() - start >= duration_s:
                return
            call = gateway.estimate if kind[i] == 0 else gateway.predict
            completion = await call(ids[cell[i]], a[i], b[i], c[i])
            status[i] = OK if completion.error is None else ERROR
            value[i] = completion.value
            done[i] = clock() - start

    await asyncio.gather(*(client() for _ in range(clients)))
    # keep only the rows the callers reached (the plan has more than enough)
    used = int(np.flatnonzero(status)[-1]) + 1 if status.any() else 0
    return Phase(plan.head(used), status[:used], value[:used], done[:used], np.zeros(used))


def segment_p99(phases: list[Phase]) -> float:
    """Median over the fixed-rate segments of each segment's p99 (ms)."""
    per_segment = [np.percentile(p.latency[p.status == OK], 99.0) for p in phases if p.count(OK)]
    return float(statistics.median(per_segment) * 1e3)


def saturated_rate(phases: list[Phase], duration_s: float, readings: list[float] | None = None) -> float:
    """Median over the saturation segments of each one's ok completions per second.

    Completions in a segment's first ``RAMP_S`` (callers filling the
    queues; half the segment when it is shorter) are not counted.  With
    ``readings`` (the speed reading around each segment) each segment's
    counted time is restated at the reference speed first.
    """
    ramp = min(RAMP_S, duration_s / 2)
    rates = []
    for k, p in enumerate(phases):
        counted_s = duration_s - ramp
        if readings is not None:
            counted_s = speed.at_reference(counted_s, readings[k])
        rates.append(np.count_nonzero((p.status == OK) & (p.done >= ramp)) / counted_s)
    return float(statistics.median(rates))


def _batch_counters(gateway: SocGateway) -> np.ndarray:
    """Requests, flushes, size-triggered flushes and total wait so far."""
    stats = gateway.batcher.stats
    return np.array([stats.requests, stats.flushes, stats.size_flushes, stats.total_wait_s])


@dataclasses.dataclass
class Run:
    """Everything one workload run measured."""

    e2e: dict[str, float]
    layer: dict[str, float]
    notes: dict[str, object]
    attempted: int
    failed: int
    mismatches: int


class Tracer:
    """The two boundary meters of a traced replay."""

    def __init__(self) -> None:
        self.front = Meter()  # calls the gateway/batcher make into the fleet
        self.worker = Meter()  # calls the fleet makes into each worker (or the engine)


def run_workload(
    name: str,
    inputs: Inputs,
    oracle: Oracle,
    workdir: Path,
    seconds: float,
    seed: int,
    setups: int,
    tracer: Tracer | None = None,
    ticks: bool = False,
) -> Run:
    """Set the topology up ``setups`` times, then drive the last one for ``seconds``.

    ``ticks`` runs the rollout workloads' loop ticker (per-layer replays
    only: its wake-ups contend with the rollout thread for the GIL).
    """
    driver, topology = WORKLOADS[name]
    wrap = None if tracer is None else (lambda obj: Timed(obj, tracer.worker))
    setup_times = []
    setup_speeds = []
    readings = []
    topo = None
    try:
        for k in range(setups):
            if topo is not None:
                topo.close()
            gc.collect()  # each set-up starts from the same collector state
            setup_speeds.append(speed.reading(SETUP_READING))
            t0 = time.perf_counter()
            topo = common.build(topology, inputs, workdir / f"setup{k}", wrap=wrap)
            setup_times.append(time.perf_counter() - t0)
        readings.append(common.read_topology())
        backend = topo.backend if tracer is None else Timed(topo.backend, tracer.front)
        rng = np.random.default_rng([seed, 7])
        body = _live if driver == "live" else _rollout
        # what exists after set-up lives for the whole run: keep it out of
        # the collector's full passes, as a long-running server would
        gc.collect()
        gc.freeze()
        run = asyncio.run(body(topology, backend, inputs, oracle, seconds, rng, readings, tracer, ticks))
    finally:
        gc.unfreeze()
        if topo is not None:
            topo.close()
    run.e2e["setup_s"] = statistics.median(map(speed.at_reference, setup_times, setup_speeds))
    run.e2e["peak_rss_mb"] = max(r.rss_total for r in readings) / 2**20
    run.notes["raw"]["setup_s"] = statistics.median(setup_times)
    run.notes["setup_s_all"] = [round(t, 6) for t in setup_times]
    return run


async def _live(topology, backend, inputs, oracle, seconds, rng, readings, tracer, ticks) -> Run:
    fixed_rate, overload_rate = RATES[topology]
    fixed_s, sat_s = seconds * FIXED_SHARE / ROUNDS, seconds * SATURATION_SHARE / ROUNDS
    overload_s = seconds * OVERLOAD_SHARE
    fixed, sat = [], []
    sat_speeds = []
    parent_cpu = worker_cpu = 0.0
    batches = np.zeros(4)
    traced = np.zeros(9)
    async with SocGateway(backend, max_batch=MAX_BATCH, max_delay_s=MAX_DELAY_S) as gateway:
        await open_loop(gateway, inputs, make_plan(inputs, fixed_rate, WARMUP_S, rng))
        # fixed-rate and saturation segments alternate, so both sample the
        # machine across the whole run; only fixed-rate segments are
        # accounted for CPU, batching and the traced layers.  Each plan is
        # drawn just before its segment, so the driver holds one at a time
        for _ in range(ROUNDS):
            fixed_plan = make_plan(inputs, fixed_rate, fixed_s, rng)
            r0, b0 = common.read_topology(), _batch_counters(gateway)
            m0 = _meter_totals(tracer)
            fixed.append(await open_loop(gateway, inputs, fixed_plan))
            r1, b1 = common.read_topology(), _batch_counters(gateway)
            traced += _meter_totals(tracer) - m0
            batches += b1 - b0
            cpu = common.cpu_between(r0, r1)
            parent_cpu, worker_cpu = parent_cpu + cpu[0], worker_cpu + cpu[1]
            readings += [r0, r1]
            sat_plan = make_plan(inputs, SATURATION_ROWS_PER_S, sat_s, rng)
            before = speed.reading(SEGMENT_READING)
            sat.append(await closed_loop(gateway, inputs, sat_plan, SATURATION_CLIENTS, sat_s))
            sat_speeds.append((before + speed.reading(SEGMENT_READING)) / 2)
        ov = await open_loop(gateway, inputs, make_plan(inputs, overload_rate, overload_s, rng))
        readings.append(common.read_topology())
        check_attempted, check_bad = await oracle.served_check(gateway, rng)
    readings.append(common.read_topology())

    lat = np.concatenate([p.latency[p.status == OK] for p in fixed])
    n_ok = lat.size
    mismatches = check_bad
    for phase in (*fixed, *sat, ov):
        rows = np.flatnonzero((phase.status == OK) & (phase.plan.kind == 0))
        cols = [np.asarray(col)[rows] for col in (phase.plan.a, phase.plan.b, phase.plan.c)]
        mismatches += oracle.estimate_mismatches(phase.plan.cell[rows], *cols, phase.value[rows])
    served, flushes, size_flushes, wait_s = batches
    e2e = {
        "p50_ms": float(np.median(lat) * 1e3),
        "p99_ms": segment_p99(fixed),
        "saturated_rps": saturated_rate(sat, sat_s, sat_speeds),
        "cpu_us_per_op": (parent_cpu + worker_cpu) / max(n_ok, 1) * 1e6,
    }
    e2e["cell_steps_per_s"] = e2e["saturated_rps"]
    raw = {"saturated_rps": saturated_rate(sat, sat_s)}
    layer = {
        "batcher.mean_batch": served / max(flushes, 1),
        "batcher.mean_wait_ms": wait_s / max(served, 1) * 1e3,
        "batcher.size_flush_frac": size_flushes / max(flushes, 1),
        "gateway.shed_frac": ov.count(SHED) / len(ov.plan),
        "loadgen.send_lag_p99_ms": float(np.percentile(np.concatenate([p.lag for p in fixed]), 99.0) * 1e3),
        "worker.cpu_share": worker_cpu / max(parent_cpu + worker_cpu, 1e-9),
    }
    if tracer is not None:
        layer.update(_trace_layers(parent_cpu, n_ok, flushes, *traced))
    count = lambda phases, status: sum(p.count(status) for p in phases)  # noqa: E731
    attempted = sum(len(p.plan) for p in fixed) + count(sat, OK) + count(sat, ERROR) + len(ov.plan) + check_attempted
    failed = count(fixed, SHED) + count(fixed, ERROR) + count(sat, ERROR) + ov.count(ERROR) + mismatches
    notes = {
        "fixed_rate": fixed_rate,
        "overload_rate": overload_rate,
        "samples": n_ok,
        "saturation_ok": count(sat, OK),
        "overload_requests": len(ov.plan),
        "overload_shed": ov.count(SHED),
        "raw": raw,
    }
    return Run(e2e, layer, notes, attempted, failed, mismatches)


def _meter_totals(tracer: Tracer | None) -> np.ndarray:
    if tracer is None:
        return np.zeros(9)
    front, worker = tracer.front, tracer.worker
    return np.array([
        front.wall, front.cpu, front.n_calls, front.compute_calls, front.compute_rows,
        worker.wall, worker.n_calls, worker.compute_calls, worker.compute_rows,
    ])


async def _rollout(topology, backend, inputs, oracle, seconds, rng, readings, tracer, ticks) -> Run:
    reference = oracle.rollout_reference()
    lags: list[float] = []
    stop = asyncio.Event()

    async def ticker() -> None:
        clock = time.perf_counter
        due = clock() + TICK_S
        while not stop.is_set():
            await asyncio.sleep(max(0.0, due - clock()))
            lags.append(clock() - due)
            due = max(due + TICK_S, clock())

    async with SocGateway(backend, max_batch=MAX_BATCH, max_delay_s=MAX_DELAY_S) as gateway:
        # the warm-up call is checked too; a call with any mismatching cell fails
        mismatches = oracle.rollout_mismatches(await gateway.rollout(inputs.pairs, STEP_S), reference)
        calls, bad_calls = 1, int(mismatches > 0)
        tick = asyncio.get_running_loop().create_task(ticker()) if ticks else None
        speeds = [speed.reading(CALL_READING)]  # before the first call, then after each
        readings.append(common.read_topology())
        m0 = _meter_totals(tracer)
        latencies = []
        call_cpu = []  # parent + workers
        side_cpu = 0.0  # speed readings and output checks, not the program's
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(latencies) < 3:
            r0 = common.read_topology()
            t0 = time.perf_counter()
            results = await gateway.rollout(inputs.pairs, STEP_S)
            latencies.append(time.perf_counter() - t0)
            call_cpu.append(sum(common.cpu_between(r0, common.read_topology())))
            c0 = time.process_time()
            speeds.append(speed.reading(CALL_READING))
            bad = oracle.rollout_mismatches(results, reference)
            side_cpu += time.process_time() - c0
            mismatches += bad
            bad_calls += bad > 0
        readings.append(common.read_topology())
        stop.set()
        if tick is not None:
            await tick
        calls += len(latencies)
        traced = _meter_totals(tracer) - m0
        b0 = _batch_counters(gateway)
        check_attempted, check_bad = await oracle.served_check(gateway, rng)
        b1 = _batch_counters(gateway)
    readings.append(common.read_topology())
    mismatches += check_bad

    steps = inputs.cell_steps * len(latencies)
    parent_cpu, worker_cpu = common.cpu_between(readings[1], readings[2])
    parent_cpu -= side_cpu
    raw_lat = np.asarray(latencies)
    speeds = np.asarray(speeds)
    around = (speeds[:-1] + speeds[1:]) / 2  # the machine's speed around each call
    lat = speed.at_reference(raw_lat, around)
    e2e = {
        "p50_ms": float(np.median(lat) * 1e3),
        "p99_ms": float(np.percentile(lat, 99.0) * 1e3),
        "saturated_rps": len(lat) / float(lat.sum()),
        "cpu_us_per_op": float(np.median(speed.at_reference(np.asarray(call_cpu), around))) / inputs.cell_steps * 1e6,
        "cell_steps_per_s": float(np.median(inputs.cell_steps / lat)),
    }
    raw = {
        "p50_ms": float(np.median(raw_lat) * 1e3),
        "p99_ms": float(np.percentile(raw_lat, 99.0) * 1e3),
        "cell_steps_per_s": float(np.median(inputs.cell_steps / raw_lat)),
        "cpu_us_per_op": (parent_cpu + worker_cpu) / steps * 1e6,
    }
    served, flushes, size_flushes, wait_s = b1 - b0
    layer = {
        "batcher.mean_batch": served / max(flushes, 1),
        "batcher.mean_wait_ms": wait_s / max(served, 1) * 1e3,
        "batcher.size_flush_frac": size_flushes / max(flushes, 1),
        "gateway.shed_frac": 0.0,
        "loadgen.send_lag_p99_ms": float(np.percentile(lags, 99.0) * 1e3) if lags else 0.0,
        "worker.cpu_share": worker_cpu / max(parent_cpu + worker_cpu, 1e-9),
    }
    if tracer is not None:
        layer.update(_trace_layers(parent_cpu, steps, len(lat), *traced))
    notes = {
        "calls": len(lat),
        "cell_steps_per_call": inputs.cell_steps,
        "ticks": len(lags),
        "call_ms_p10_p50_p90": [round(float(np.percentile(raw_lat, q)) * 1e3, 3) for q in (10, 50, 90)],
        "raw": raw,
    }
    return Run(e2e, layer, notes, calls + check_attempted, bad_calls + check_bad, mismatches)


def _trace_layers(parent_cpu, ops, batches, f_wall, f_cpu, f_calls, f_compute, f_rows, w_wall, w_calls, w_compute, w_rows):
    """Self time per op of each layer on the blocking path, with its call counts."""
    ops = max(ops, 1)
    return {
        "trace.front_self_us_per_op": (parent_cpu - f_cpu) / ops * 1e6,
        "trace.fleet_self_us_per_op": (f_wall - w_wall) / ops * 1e6,
        "trace.worker_us_per_op": w_wall / ops * 1e6,
        "trace.fleet_calls_per_op": f_calls / ops,
        "trace.fleet_rows_per_call": f_rows / max(f_compute, 1),
        "trace.worker_calls_per_batch": w_calls / max(batches, 1),
        "trace.worker_rows_per_call": w_rows / max(w_compute, 1),
    }
