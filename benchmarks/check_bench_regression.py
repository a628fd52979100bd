"""Gate a benchmark run against a committed baseline.

Raw throughput is not comparable across CI runners (the fleet on a
loaded shared VM can be half the speed of the same code on an idle
one), so every gated metric is a **same-machine ratio**, which makes it
a machine-calibrated measure of what the serving layer is actually
buying:

- ``speedup`` (from ``bench_fleet_throughput.py --json``): the batched
  rollout over the per-cell loop, both timed in the same process.  A
  change that slows the batched path down shows up as a speedup drop
  regardless of runner hardware.
- ``gateway_ratio`` (from ``--gateway --gateway-json``): the async
  gateway's sustained req/s over the direct one-engine-call-per-request
  path.  A change that breaks micro-batch coalescing or bloats the
  event loop shows up as a ratio drop.
- ``kernel_speedup`` (from ``bench_kernel_latency.py --json``): the
  compiled inference kernel's single-row estimate latency over the
  Tensor path's, both timed in the same process.  A change that makes
  the kernel allocate, re-slice buffers, or fall off the GEMM chain
  shows up as a speedup drop.
- ``fused_speedup`` (same record): one cross-model fused GEMM chain
  over the per-model dispatch loop on a mixed-model batch in the
  dispatch-bound regime the engine fuses in.
- ``shm_payload_ratio`` (from the fleet record): a bulk array
  round-trip copied inline through a pipe over the same payload riding
  the shared-memory ring.  A change that breaks ring placement (so
  payloads silently fall back inline) shows up as the ratio dropping
  to ~1.

Checks applied to the current run (``--current``):

- the configured metric must not fall more than ``--tolerance``
  (default 30%) below the baseline's;
- for ``speedup``: ``max_traj_diff`` must stay within the 1e-9
  equivalence budget (a throughput "optimization" that changes the
  numbers is a bug); ``sharded_speedup``/``process_speedup`` are
  reported for the log but **not** gated — at smoke scale their wall
  time is a few milliseconds and occasionally doubles under runner
  contention, which would make the gate flaky (the whole point of the
  separate bench job is that a flake cannot mask a real failure);
- for ``gateway_ratio``: the run must have zero errored and zero shed
  completions (a gateway that hits throughput by dropping work has not
  hit throughput);
- for ``kernel_speedup``: ``max_equiv_diff`` must stay within the 1e-9
  golden-equivalence budget (same reasoning as ``max_traj_diff``), and
  ``frames_speedup`` is reported for the log but not gated (at smoke
  scale its wall time is small enough for runner contention to flip
  it);
- for ``fused_speedup``: ``fused_diff`` must stay within the 1e-9
  golden-equivalence budget.

Raw numbers are still printed for the log, and the current records are
uploaded as CI artifacts so a slow creep across many PRs can be
audited after the fact.

Usage::

    python benchmarks/check_bench_regression.py \\
        --baseline benchmarks/baselines/BENCH_fleet_baseline.json \\
        --current BENCH_fleet.json [--tolerance 0.30] [--metric speedup]
"""

from __future__ import annotations

import argparse
import json
import sys

# keys that must match between baseline and current for the comparison
# to be apples-to-apples, per gated metric
_CONFIG_KEYS = {
    "speedup": ("cells", "step_s", "fast"),
    "gateway_ratio": ("cells", "requests", "clients", "max_batch"),
    "kernel_speedup": ("reps", "batch", "step_s", "fast"),
    "fused_speedup": ("reps", "fused_models", "fused_batch", "fast"),
    "shm_payload_ratio": ("shm_payload_mb", "workers", "fast"),
}


def check(baseline: dict, current: dict, tolerance: float, metric: str = "speedup") -> list[str]:
    """Compare a current benchmark record to a baseline; returns failures."""
    failures: list[str] = []
    for key in _CONFIG_KEYS[metric]:
        if baseline.get(key) != current.get(key):
            failures.append(
                f"config mismatch on {key!r}: baseline {baseline.get(key)!r} "
                f"vs current {current.get(key)!r} (not comparing apples to apples)"
            )
    if failures:
        return failures
    if metric == "speedup" and current["max_traj_diff"] > 1e-9:
        failures.append(f"trajectory divergence {current['max_traj_diff']:.3e} exceeds the 1e-9 budget")
    if metric == "kernel_speedup" and current["max_equiv_diff"] > 1e-9:
        failures.append(
            f"kernel divergence {current['max_equiv_diff']:.3e} exceeds the 1e-9 "
            f"golden-equivalence budget"
        )
    if metric == "gateway_ratio" and (current.get("errors") or current.get("shed")):
        failures.append(
            f"gateway run dropped work: errors={current.get('errors')} shed={current.get('shed')} "
            f"(throughput with dropped completions does not count)"
        )
    if metric == "fused_speedup" and current["fused_diff"] > 1e-9:
        failures.append(
            f"fused-chain divergence {current['fused_diff']:.3e} exceeds the 1e-9 "
            f"golden-equivalence budget"
        )
    base, cur = baseline[metric], current[metric]
    floor = base * (1.0 - tolerance)
    verdict = "ok" if cur >= floor else "REGRESSION"
    print(
        f"{metric}: baseline {base:.1f}x, current {cur:.1f}x, "
        f"floor {floor:.1f}x ({tolerance:.0%} tolerance) -> {verdict}"
    )
    if cur < floor:
        failures.append(
            f"{metric} regressed: {cur:.1f}x is more than {tolerance:.0%} "
            f"below the baseline {base:.1f}x"
        )
    extras = {
        "speedup": ("sharded_speedup", "process_speedup", "shm_speedup"),
        "gateway_ratio": (),
        "kernel_speedup": ("batched_speedup", "frames_speedup"),
        "fused_speedup": (),
        "shm_payload_ratio": (),
    }[metric]
    for extra in extras:
        if baseline.get(extra) and current.get(extra):
            print(
                f"{extra} (informational, not gated): "
                f"baseline {baseline[extra]:.1f}x, current {current[extra]:.1f}x"
            )
    if metric == "speedup":
        print(
            f"raw throughput (informational): "
            f"{current['cell_steps_per_s_batched']:,.0f} cell-steps/s batched "
            f"(baseline recorded {baseline['cell_steps_per_s_batched']:,.0f})"
        )
    elif metric == "kernel_speedup":
        print(
            f"raw latency (informational): "
            f"kernel single-row p50 {current['kernel_p50_us']:.1f}us "
            f"(baseline recorded {baseline['kernel_p50_us']:.1f}us)"
        )
    elif metric == "gateway_ratio":
        print(
            f"raw throughput (informational): "
            f"{current['gateway_req_s']:,.0f} req/s through the gateway "
            f"(baseline recorded {baseline['gateway_req_s']:,.0f})"
        )
    elif metric == "fused_speedup":
        print(
            f"raw throughput (informational): "
            f"{current['mixed_model_rows_per_s']:,.0f} fused mixed-model rows/s "
            f"(baseline recorded {baseline['mixed_model_rows_per_s']:,.0f})"
        )
    else:
        print(
            f"raw latency (informational): "
            f"shm round-trip p50 {current['shm_payload_p50_us']:.0f}us "
            f"(baseline recorded {baseline['shm_payload_p50_us']:.0f}us)"
        )
    return failures


def check_all(baseline: dict, current: dict, tolerance: float) -> int:
    """Gate every metric present in both records; per-metric verdict table.

    Returns the number of failing metrics.  Erroring when the records
    share no gated metric catches the footgun of pointing ``--all`` at
    mismatched record kinds (e.g. a kernel baseline vs a fleet run) and
    silently gating nothing.
    """
    shared = [m for m in sorted(_CONFIG_KEYS) if m in baseline and m in current]
    if not shared:
        print("FAIL: baseline and current share no gated metric (mismatched record kinds?)")
        return 1
    results: list[tuple[str, list[str]]] = []
    for metric in shared:
        print(f"--- {metric} ---")
        failures = check(baseline, current, tolerance, metric=metric)
        for failure in failures:
            print(f"FAIL: {failure}")
        results.append((metric, failures))
    width = max(len(m) for m in shared)
    print(f"\n{'metric':<{width}}  verdict")
    for metric, failures in results:
        print(f"{metric:<{width}}  {'FAIL' if failures else 'ok'}")
    return sum(1 for _, failures in results if failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--baseline", required=True, help="committed baseline JSON")
    parser.add_argument("--current", required=True, help="fresh benchmark JSON")
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--metric",
        choices=sorted(_CONFIG_KEYS),
        default="speedup",
        help="which machine-calibrated ratio to gate (default: speedup)",
    )
    group.add_argument(
        "--all",
        action="store_true",
        help="gate every metric present in both records in one invocation",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional drop of the gated metric (default 0.30)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("--tolerance must be within [0, 1)")
    with open(args.baseline, encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(args.current, encoding="utf-8") as fh:
        current = json.load(fh)
    if args.all:
        failing = check_all(baseline, current, args.tolerance)
        if failing:
            print(f"benchmark gate FAILED ({failing} metric(s))")
            return 1
        print("benchmark gate passed (all shared metrics)")
        return 0
    failures = check(baseline, current, args.tolerance, metric=args.metric)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
