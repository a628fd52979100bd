"""Shared fixtures: scaled-down dataset campaigns.

The full campaigns (defaults of :mod:`repro.datasets`) take tens of
seconds to simulate; tests use miniature versions that exercise the
same code paths.  Session scope keeps the cost to one generation per
test run.
"""

import pytest

from repro.datasets import LGConfig, SandiaConfig, generate_lg, generate_sandia

SMALL_SANDIA = SandiaConfig(
    cells=("sandia-nmc",),
    ambient_temps_c=(25.0,),
    cycles_per_condition=1,
    sim_dt_s=2.0,
    seed=11,
)

SMALL_LG = LGConfig(
    sampling_period_s=0.5,
    n_train_mixed=2,
    train_temps_c=(10.0, 25.0),
    test_temps_c=(25.0,),
    mixed_segment_s=(120.0, 240.0),
    initial_soc=0.55,
    test_patterns=("us06", "mixed"),
    seed=11,
)


@pytest.fixture(scope="session")
def small_sandia():
    """One-chemistry, one-temperature Sandia campaign (3 cycles)."""
    return generate_sandia(SMALL_SANDIA)


@pytest.fixture(scope="session")
def small_lg():
    """Two train + two test cycle LG campaign at 0.5 s sampling."""
    return generate_lg(SMALL_LG)


def _every_kth(cycle, k: int, dtype=None):
    """``cycle`` keeping every ``k``-th sample, its I/T channels stored as ``dtype``."""
    import dataclasses

    import numpy as np

    d = cycle.data
    channels = {
        f.name: np.ascontiguousarray(getattr(d, f.name)[::k])
        for f in dataclasses.fields(d)
        if isinstance(getattr(d, f.name), np.ndarray)
    }
    if dtype is not None:
        channels["current"] = channels["current"].astype(dtype)
        channels["temp_c"] = channels["temp_c"].astype(dtype)
    return dataclasses.replace(
        cycle,
        name=f"{cycle.name}-every{k}",
        sampling_period_s=cycle.sampling_period_s * k,
        data=dataclasses.replace(d, **channels),
    )


@pytest.fixture(scope="session")
def mixed_period_pairs():
    """Rollout assignments over 8, 16 and 24 s sampling periods: the
    benchmark fleet's shape with every second or third sample kept (the
    24 s traces stored as float32), some cells sharing one trace."""
    import numpy as np

    from repro.serve import generate_fleet

    fleet = generate_fleet(
        16,
        seed=0,
        cell_names=("sandia-nca", "sandia-nmc", "sandia-lfp", "lg-hg2"),
        protocols=("discharge",),
        max_time_s=1800.0,
    )
    traces = {}
    pairs = []
    for k, (cell_id, cycle) in enumerate(fleet.assignments()):
        every = 1 + k % 3
        key = (id(cycle), every)
        if key not in traces:
            dtype = np.float32 if every == 3 else None
            traces[key] = cycle if every == 1 else _every_kth(cycle, every, dtype)
        pairs.append((cell_id, traces[key]))
    return pairs
