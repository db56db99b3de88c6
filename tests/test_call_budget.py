"""A deterministic guard against per-task regressions: the Python and C
function calls made during `Simulation.run()`, and during set-up
(`load_scenario` on a saved file plus `Simulation(...)`), counted with
`sys.setprofile`, stay under a ceiling pinned about 2% above the count
measured when it was set.

The count is the same from run to run and under any `PYTHONHASHSEED`, so a
run past its ceiling has taken on more interpreter work per task, not noise.
It does not see work done inside a C call or the garbage collector, so it
stands beside the benchmark's wall time, never in its place. The counts
belong to CPython 3.11, whose builtins and call paths they count. A change
that adds work on purpose re-pins the ceiling it crosses, and says why.
"""

import sys

import pytest

from fedflow.builtins import generate_builtin_scenario
from fedflow.engine import Simulation
from fedflow.scenario import load_scenario, save_scenario

# (builtin, scale, scheduler) -> ceiling on the calls during `run()` at seed
# 7; the count when pinned, on CPython 3.11.7, is in the comment.
CEILINGS = {
    ("montage-like", 0.05, "dha"): 75_100,  # 73,626
    ("drug-like", 0.05, "capacity"): 86_000,  # 84,323
    ("dynamic-drug", 0.02, "dha"): 71_300,  # 69,937
    ("dynamic-montage", 0.1, "dha"): 153_200,  # 150,219
    ("dynamic-montage", 0.02, "locality"): 35_800,  # 35,069
}

# The same for set-up, on the builtins of the three benchmark workloads.
SETUP_CEILINGS = {
    ("drug-like", 0.05, "capacity"): 18_800,  # 18,440
    ("montage-like", 0.05, "dha"): 9_870,  # 9,681
    ("dynamic-drug", 0.02, "dha"): 4_160,  # 4,081
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
