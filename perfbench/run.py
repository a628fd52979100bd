"""The repository benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-inproc --seed 1 --seconds 12 --trace 0

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics; ``--trace 1`` runs the layer ledger plus an untraced and a
traced replay of the workload and reports the per-layer metrics.
Every metric is printed on its own line with its unit, layer and the
end-to-end metric it should move; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Output checks run inside the same command, and any
mismatch makes it exit nonzero.  ``--smoke`` shrinks the fleet and the
ledger for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUPS = {"inproc": 30, "pipe2": 3}
TRACE_REPLAY_SHARE = 0.25  # of --seconds, for each of the untraced and traced replays
LEDGER_ITEM_S = 0.15
SMOKE_CELLS = 96


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small fleet and ledger (tests)")
    return parser.parse_args(argv)


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    # pinned before numpy loads; worker children inherit the environment
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    import numpy as np

    import catalog
    import checks
    import common
    import ledger
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = root / ".perfbench-work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        common.redirect_shm_rings(workdir)
        t0 = time.perf_counter()
        inputs = common.make_inputs(args.seed, workdir, SMOKE_CELLS if args.smoke else common.N_CELLS)
        oracle = checks.Oracle(inputs)
        topology = workloads.WORKLOADS[args.workload][1]
        env = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(root),
            "threads": {var: os.environ[var] for var in THREAD_VARS},
            "cells": inputs.n,
            "cell_steps_per_rollout": inputs.cell_steps,
            "rates_req_per_s": dict(zip(("fixed", "overload"), workloads.RATES[topology])),
            "max_batch": common.MAX_BATCH,
            "max_delay_s": common.MAX_DELAY_S,
            "input_generation_s": round(time.perf_counter() - t0, 3),
        }
        print("env " + json.dumps(env), flush=True)
        setups = 1 if args.smoke else SETUPS[topology]
        if args.trace == 0:
            run = workloads.run_workload(args.workload, inputs, oracle, workdir / "e2e", args.seconds, args.seed, setups)
            runs, metrics = [run], dict(run.e2e)
            table = [(name, unit, catalog.E2E_MEANING[name]) for name, unit, _, _ in catalog.END_TO_END]
        else:
            metrics = ledger.run_ledger(inputs, workdir, 0.01 if args.smoke else LEDGER_ITEM_S)
            replay_s = args.seconds * TRACE_REPLAY_SHARE
            base = workloads.run_workload(
                args.workload, inputs, oracle, workdir / "base", replay_s, args.seed, 1, ticks=True
            )
            traced = workloads.run_workload(
                args.workload, inputs, oracle, workdir / "traced", replay_s, args.seed, 1, workloads.Tracer(), ticks=True
            )
            runs = [base, traced]
            metrics.update(base.layer)
            metrics["latency.p99_ms"] = base.e2e["p99_ms"]
            metrics.update({k: v for k, v in traced.layer.items() if k.startswith("trace.")})
            metrics["trace.overhead_x"] = traced.e2e["cpu_us_per_op"] / base.e2e["cpu_us_per_op"]
            metrics["fail_frac"] = sum(r.failed for r in runs) / sum(r.attempted for r in runs)
            table = [(name, unit, f"[{layer}] should move {moves}") for name, unit, _, layer, moves in catalog.PER_LAYER]
        attempted = sum(r.attempted for r in runs)
        failed = sum(r.failed for r in runs)
        mismatches = sum(r.mismatches for r in runs)
        for k, r in enumerate(runs):
            print(f"run{k} " + json.dumps(r.notes), flush=True)
        print(f"{'fail_frac':34s} {failed / attempted:.6g} ratio  ({failed} failed of {attempted}; {mismatches} output mismatches)")
        for name, unit, about in table:
            print(f"{name:34s} {metrics[name]:.6g} {unit}  {about}")
        result = {
            "correct": mismatches == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit, _ in table},
        }
        print(json.dumps(result), flush=True)
        return 0 if mismatches == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
