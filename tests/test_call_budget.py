"""A deterministic guard against per-task regressions: the Python and C
function calls made during `Simulation.run()`, and during set-up
(`load_scenario` on a saved file plus `Simulation(...)`), counted with
`sys.setprofile`, stay under a ceiling pinned about 2% above the count
measured when it was set. Beside them, the bytes `tracemalloc` counts as
kept by `run()` and at the peak over set-up and `run()` stay under ceilings
pinned the same way.

The call count is the same from run to run and under any `PYTHONHASHSEED`,
so a run past its ceiling has taken on more interpreter work per task, not
noise. It does not see work done inside a C call or the garbage collector,
so it stands beside the benchmark's wall time, never in its place. The
byte counts repeat to within a few hundred bytes (what an earlier test left
in CPython's caches and free lists), far inside their 2%. The counts belong
to CPython 3.11, whose builtins, call paths and object sizes they count. A
change that adds work or memory on purpose re-pins the ceiling it crosses,
and says why.
"""

import gc
import sys
import tracemalloc

import pytest

from fedflow.builtins import generate_builtin_scenario
from fedflow.engine import Simulation
from fedflow.scenario import load_scenario, save_scenario

# (builtin, scale, scheduler) -> ceiling on the calls during `run()` at seed
# 7; the count when pinned, on CPython 3.11.7, is in the comment.
CEILINGS = {
    ("montage-like", 0.05, "dha"): 69_000,  # 67,550
    ("drug-like", 0.05, "capacity"): 82_100,  # 80,443
    ("dynamic-drug", 0.02, "dha"): 66_200,  # 64,883
    ("dynamic-montage", 0.1, "dha"): 139_100,  # 136,374
    # The scale at which a per-move cost over every prefix shows.
    ("dynamic-drug", 0.2, "dha"): 409_500,  # 401,441
    ("dynamic-montage", 0.02, "locality"): 33_100,  # 32,405
}

# The same for set-up, on the builtins of the three benchmark workloads.
SETUP_CEILINGS = {
    ("drug-like", 0.05, "capacity"): 18_800,  # 18,433
    ("montage-like", 0.05, "dha"): 9_870,  # 9,674
    ("dynamic-drug", 0.02, "dha"): 4_160,  # 4,074
}


def calls_during(fn) -> int:
    """The Python and C calls made while `fn()` runs."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
@pytest.mark.parametrize("case", CEILINGS, ids=lambda c: "-".join(map(str, c)))
def test_calls_during_run_stay_under_the_ceiling(case):
    name, scale, scheduler = case
    sim = Simulation(generate_builtin_scenario(name, scale), scheduler_kind=scheduler, seed=7)
    calls = calls_during(sim.run)
    tasks = len(sim.dag.nodes)
    assert calls <= CEILINGS[case], (
        f"{calls:,} calls during run() ({calls / tasks:.1f} per task), "
        f"over the ceiling of {CEILINGS[case]:,}"
    )


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
@pytest.mark.parametrize("case", SETUP_CEILINGS, ids=lambda c: "-".join(map(str, c)))
def test_calls_during_setup_stay_under_the_ceiling(case, tmp_path):
    name, scale, scheduler = case
    path = tmp_path / "scenario.json"
    save_scenario(generate_builtin_scenario(name, scale), path)
    calls = calls_during(
        lambda: Simulation(load_scenario(path), scheduler_kind=scheduler, seed=7)
    )
    assert calls <= SETUP_CEILINGS[case], (
        f"{calls:,} calls during set-up, over the ceiling of {SETUP_CEILINGS[case]:,}"
    )


# (builtin, scale, scheduler) -> ceilings on the bytes `tracemalloc` counts
# at seed 7: (kept by `run()`, peak over set-up and `run()`); the counts when
# pinned, on CPython 3.11.7, are in the comment.
MEMORY_CEILINGS = {
    ("drug-like", 0.05, "capacity"): (871_700, 1_254_300),  # 854,570, 1,229,678
    ("montage-like", 0.05, "dha"): (552_800, 771_400),  # 541,938, 756,253
}


def traced_bytes(path, scheduler: str) -> tuple:
    """(bytes `run()` keeps, peak bytes over set-up and `run()`) of one
    seeded run of the scenario file at `path`."""
    gc.collect()
    tracemalloc.start()
    try:
        sim = Simulation(load_scenario(path), scheduler_kind=scheduler, seed=7)
        before = tracemalloc.get_traced_memory()[0]
        sim.run()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before, peak


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
@pytest.mark.parametrize("case", MEMORY_CEILINGS, ids=lambda c: "-".join(map(str, c)))
def test_bytes_of_setup_and_run_stay_under_the_ceiling(case, tmp_path):
    name, scale, scheduler = case
    path = tmp_path / "scenario.json"
    save_scenario(generate_builtin_scenario(name, scale), path)
    kept, peak = traced_bytes(path, scheduler)
    kept_ceiling, peak_ceiling = MEMORY_CEILINGS[case]
    assert kept <= kept_ceiling, f"run() kept {kept:,} bytes, over the ceiling of {kept_ceiling:,}"
    assert peak <= peak_ceiling, f"peak of {peak:,} bytes, over the ceiling of {peak_ceiling:,}"
