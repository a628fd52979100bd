"""Machine speed, read from a fixed reference task timed during every run.

The benchmark shares a few vCPUs of a host whose other tenants come and
go: the same code runs up to ~1.6x slower for seconds to minutes at a
time, interpreter, numpy and set-up alike.  A figure that is pure
back-to-back work (a rollout call, a set-up, a saturated closed loop)
inherits that drift between runs.  So the benchmark times
:func:`reference_task` — a fixed mix of interpreted Python and small
numpy calls that lives here, outside the program — right before each
such observation, and reports the observation at the reference speed
(:func:`at_reference`).  The program cannot move the reference task, so
a real speed-up or slow-down moves the reported figure exactly as it
moves the raw one; the raw figures are printed on the ``run`` lines.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the task's time on an unloaded vCPU of the 2-vCPU machine the bounds were set on
REFERENCE_S = 1.0e-3
_W = np.random.default_rng(0).uniform(-0.3, 0.3, size=(32, 32))
_X = np.random.default_rng(1).uniform(-1.0, 1.0, size=(32, 64))


def reference_task() -> float:
    """A fixed ~1 ms mix of Python bytecode and small numpy calls."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(6000):
        acc += (i % 7) * 0.5
        table[i & 127] = acc
    x = _X
    for _ in range(48):
        x = np.tanh(_W @ x)
    return acc + float(x[0, 0]) + len(table)


def reading(n: int) -> float:
    """Median seconds of ``n`` back-to-back reference tasks: the machine's speed now."""
    clock = time.perf_counter
    times = []
    for _ in range(n):
        t0 = clock()
        reference_task()
        times.append(clock() - t0)
    return statistics.median(times)


def at_reference(seconds: float, speed_reading: float) -> float:
    """``seconds`` of work measured at ``speed_reading``, restated at the reference speed."""
    return seconds * REFERENCE_S / speed_reading
