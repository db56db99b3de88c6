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

    python tests/test_call_budget.py

prints, for every pinned case, its count now, its ceiling, and the ceiling
a re-pin sets: 2% above the count, rounded up to a multiple of 100 (of 10
below 10,000). It exits 1 when any count is over its ceiling, so it serves
as the same gate run by hand.
"""

import gc
import math
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fedflow.builtins import generate_builtin_scenario  # noqa: E402
from fedflow.engine import Simulation  # noqa: E402
from fedflow.scenario import load_scenario, save_scenario  # noqa: E402

# (builtin, scale, scheduler) -> ceiling on the calls during `run()` at seed
# 7; the count when pinned, on CPython 3.11.7, is in the comment.
CEILINGS = {
    ("montage-like", 0.05, "dha"): 62_100,  # 60,826
    ("drug-like", 0.05, "capacity"): 74_100,  # 72,617
    ("dynamic-drug", 0.02, "dha"): 57_100,  # 55,963
    ("dynamic-montage", 0.1, "dha"): 124_800,  # 122,286
    # The scale at which a per-move cost over every prefix shows.
    ("dynamic-drug", 0.2, "dha"): 361_800,  # 354,699
    ("dynamic-montage", 0.02, "locality"): 25_100,  # 24,513
}

# The same for set-up, on the builtins of the three benchmark workloads.
SETUP_CEILINGS = {
    ("drug-like", 0.05, "capacity"): 18_800,  # 18,430
    ("montage-like", 0.05, "dha"): 9_870,  # 9,671
    ("dynamic-drug", 0.02, "dha"): 4_160,  # 4,071
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


def run_calls(case) -> tuple:
    """(calls during `run()`, tasks) of the case's seeded run."""
    name, scale, scheduler = case
    sim = Simulation(generate_builtin_scenario(name, scale), scheduler_kind=scheduler, seed=7)
    calls = calls_during(sim.run)
    return calls, len(sim.dag.nodes)


def saved_scenario(case, directory) -> Path:
    """The case's builtin scenario, saved to a file in `directory`."""
    name, scale, _ = case
    path = Path(directory) / "scenario.json"
    save_scenario(generate_builtin_scenario(name, scale), path)
    return path


def setup_calls(case, path) -> int:
    """The calls made loading the scenario file at `path` and building the
    case's seeded `Simulation` from it."""
    return calls_during(lambda: Simulation(load_scenario(path), scheduler_kind=case[2], seed=7))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
@pytest.mark.parametrize("case", CEILINGS, ids=lambda c: "-".join(map(str, c)))
def test_calls_during_run_stay_under_the_ceiling(case):
    calls, tasks = run_calls(case)
    assert calls <= CEILINGS[case], (
        f"{calls:,} calls during run() ({calls / tasks:.1f} per task), "
        f"over the ceiling of {CEILINGS[case]:,}"
    )


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts pinned on CPython 3.11")
@pytest.mark.parametrize("case", SETUP_CEILINGS, ids=lambda c: "-".join(map(str, c)))
def test_calls_during_setup_stay_under_the_ceiling(case, tmp_path):
    calls = setup_calls(case, saved_scenario(case, tmp_path))
    assert calls <= SETUP_CEILINGS[case], (
        f"{calls:,} calls during set-up, over the ceiling of {SETUP_CEILINGS[case]:,}"
    )


# (builtin, scale, scheduler) -> ceilings on the bytes `tracemalloc` counts
# at seed 7: (kept by `run()`, peak over set-up and `run()`); the counts when
# pinned, on CPython 3.11.7, are in the comment.
MEMORY_CEILINGS = {
    ("drug-like", 0.05, "capacity"): (795_100, 1_177_300),  # 779,498, 1,154,134
    ("montage-like", 0.05, "dha"): (521_700, 739_800),  # 511,466, 725,277
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
    kept, peak = traced_bytes(saved_scenario(case, tmp_path), case[2])
    kept_ceiling, peak_ceiling = MEMORY_CEILINGS[case]
    assert kept <= kept_ceiling, f"run() kept {kept:,} bytes, over the ceiling of {kept_ceiling:,}"
    assert peak <= peak_ceiling, f"peak of {peak:,} bytes, over the ceiling of {peak_ceiling:,}"


def repinned(count: int) -> int:
    """The ceiling a re-pin sets for `count`: 2% above it, rounded up."""
    step = 100 if count >= 10_000 else 10
    return math.ceil(count * 1.02 / step) * step


def main() -> int:
    """Print each pinned case's count, its ceiling and the re-pinned ceiling;
    1 when a count is over its ceiling, else 0."""
    if sys.version_info[:2] != (3, 11):
        print(f"note: the ceilings are pinned on CPython 3.11, this is {sys.version.split()[0]}")
    rows = []
    for case, ceiling in CEILINGS.items():
        rows.append(("run() calls", case, run_calls(case)[0], ceiling))
    with tempfile.TemporaryDirectory() as tmp:
        for case, ceiling in SETUP_CEILINGS.items():
            rows.append(("set-up calls", case, setup_calls(case, saved_scenario(case, tmp)), ceiling))
        for case, ceilings in MEMORY_CEILINGS.items():
            counts = traced_bytes(saved_scenario(case, tmp), case[2])
            for what, count, ceiling in zip(("bytes kept", "peak bytes"), counts, ceilings):
                rows.append((what, case, count, ceiling))
    for what, case, count, ceiling in rows:
        name = "-".join(map(str, case))
        print(f"{what:13}{name:34}{count:>12,} ceiling {ceiling:>10,} re-pinned {repinned(count):>10,}"
              + ("  OVER" if count > ceiling else ""))
    return int(any(count > ceiling for _, _, count, ceiling in rows))


if __name__ == "__main__":
    sys.exit(main())
