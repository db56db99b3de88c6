"""The sweep: every builtin x scheduler at seeds 1-3, each run plain and
again with probes at start, a 0.3 transfer failure rate and a 3 s sync lag,
90 runs in all, each pinned in `test_sweep.json` beside this file.

A run's row is its makespan, transfer GB, `tasks_failed` and one SHA-256
over its four CSVs, or "deadlock" if it raises `DeadlockError`. A change
that is meant to keep behaviour leaves every row as it is. A change that
moves outputs on purpose re-pins them with

    PYTHONPATH=src python tests/test_sweep.py --repin

which rewrites the file and prints each changed row, and records those rows
in CHANGES.md.
"""

import dataclasses
import functools
import hashlib
import json
import logging
import sys
import tempfile
from pathlib import Path

import pytest

from fedflow.builtins import BUILTIN_NAMES, generate_builtin_scenario
from fedflow.engine import DeadlockError, Simulation

PINS = Path(__file__).with_name("test_sweep.json")
CSVS = ("summary.csv", "utilization.csv", "transfers.csv", "staging.csv")
VARIANTS = ("plain", "probe-fail-lag")
CASES = [
    (name, scheduler, seed, variant)
    for name in BUILTIN_NAMES
    for scheduler in ("capacity", "locality", "dha")
    for seed in (1, 2, 3)
    for variant in VARIANTS
]


def case_id(case) -> str:
    return "-".join(map(str, case))


@functools.lru_cache(maxsize=None)
def _builtin(name):
    # A run leaves its scenario as loaded (tests/test_scenario.py), so one
    # copy serves every run of a builtin.
    return generate_builtin_scenario(name, 0.05 if name == "elasticity" else 0.1)


def run_row(name, scheduler, seed, variant, out_dir):
    """The pinned row of one run, writing its CSVs under `out_dir`."""
    sc = _builtin(name)
    if variant == "probe-fail-lag":
        sc = dataclasses.replace(
            sc,
            defaults=dataclasses.replace(
                sc.defaults, probe_at_init=True, transfer_failure_rate=0.3, mock_sync_lag_s=3.0
            ),
        )
    try:
        metrics = Simulation(sc, scheduler_kind=scheduler, seed=seed).run()
    except DeadlockError:
        return "deadlock"
    metrics.emit(out_dir)
    digest = hashlib.sha256()
    for csv_name in CSVS:
        digest.update((out_dir / csv_name).read_bytes())
    return {
        "makespan_s": metrics.makespan,
        "transfer_GB": metrics.transfer_bytes / 1e9,
        "tasks_failed": metrics.tasks_failed,
        "csv_sha256": digest.hexdigest(),
    }


def _pinned() -> dict:
    return json.loads(PINS.read_text())


def test_every_case_is_pinned():
    assert sorted(_pinned()) == sorted(map(case_id, CASES))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_run_matches_its_pin(case, tmp_path):
    assert run_row(*case, tmp_path) == _pinned()[case_id(case)]


def repin():
    """Rewrite the pins from runs of the current code, one row a line, and
    print each row that changed."""
    old = _pinned() if PINS.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            key = case_id(case)
            new[key] = run_row(*case, Path(tmp) / key)
            if old.get(key) != new[key]:
                print(f"{key}: {old.get(key)} -> {new[key]}")
    for key in sorted(old.keys() - new.keys()):
        print(f"{key}: {old[key]} -> removed")
    rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(row)}" for key, row in new.items())
    PINS.write_text("{\n" + rows + "\n}\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--repin"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_sweep.py --repin")
    # Lossy runs log each transfer that runs out of retries.
    logging.basicConfig(level=logging.ERROR)
    repin()
