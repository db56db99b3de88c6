"""Self-tests of the benchmark harness, at a tiny scale (seconds to run).

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import csv
import inspect
import json
import signal
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

import fedflow  # noqa: E402
from fedflow import generate_builtin_scenario, save_scenario  # noqa: E402
from fedflow.metrics import SUMMARY_BASE_COLUMNS, TRANSFERS_COLUMNS  # noqa: E402

TINY = 0.01


@pytest.fixture(autouse=True)
def _short_setup(monkeypatch):
    monkeypatch.setattr(worker, "SETUP_SECONDS", 0.0)
# Per-layer metrics that run.py adds from outside the traced worker.
RUN_LEVEL_METRICS = {
    "builtins.generate_s",
    "engine.events_per_s",
    "engine.sim_wall_untraced_s",
    "trace.overhead_ratio",
}


def _scenario(tmp_path, workload: str) -> tuple:
    builtin, _scale, scheduler = run.WORKLOADS[workload]
    path = tmp_path / f"{workload}.json"
    save_scenario(generate_builtin_scenario(builtin, TINY), path)
    return path, scheduler


def _simulate(tmp_path, workload: str, seed: int, name: str, trace=False) -> dict:
    path, scheduler = _scenario(tmp_path, workload)
    return worker.simulate(path, scheduler, seed, tmp_path / name, trace=trace)


def _write_csv(path: Path, columns: list, rows: list):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        w.writerows(rows)


def _snapshot() -> dict:
    """Every attribute of the fedflow modules and of the classes they define."""
    snap = {}
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "fedflow" and not mod_name.startswith("fedflow."):
            continue
        for attr, value in vars(module).items():
            snap[(mod_name, attr)] = value
            if inspect.isclass(value) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    snap[(mod_name, attr, cattr)] = cvalue
    return snap


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("seed", [7, 8])
def test_tiny_workloads_pass_every_check(tmp_path, workload, seed):
    result = _simulate(tmp_path, workload, seed, "out")
    assert result["problems"] == []
    assert result["failed_tasks"] == 0
    assert result["tasks"] > 0 and result["makespan_s"] > 0


def test_checker_rejects_busy_over_active(tmp_path):
    result = _simulate(tmp_path, "dynamic-drug-dha", 7, "out")
    assert result["problems"] == []
    path = tmp_path / "out" / "utilization.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][2] = str(int(rows[3][3]) + 1)  # busy = active + 1
    _write_csv(path, rows[0], rows[1:])
    problems = checks.check_utilization(tmp_path / "out")
    assert len(problems) == 1 and "busy=" in problems[0]


def test_checker_rejects_transfer_overlap_beyond_cap(tmp_path):
    # Five 1000-byte jobs on one link; the fifth overlaps the first four.
    rows = [
        [i, f"d{i}", "a", "b", 1000, "done", 0, f"{i:.6f}", f"{10 + i:.6f}"]
        for i in range(5)
    ]
    _write_csv(tmp_path / "transfers.csv", TRANSFERS_COLUMNS, rows)
    _write_csv(tmp_path / "summary.csv", SUMMARY_BASE_COLUMNS, [["1.0", "0.000005", 0]])
    assert checks.check_transfers(tmp_path, concurrency_cap=5) == []
    problems = checks.check_transfers(tmp_path, concurrency_cap=4)
    assert len(problems) == 1 and "5 concurrent transfers" in problems[0]


def test_checker_allows_back_to_back_transfers(tmp_path):
    # A job that starts when another ends on the same link does not overlap it.
    rows = [
        [i, f"d{i}", "a", "b", 100, "done", 0, f"{i:.6f}", f"{i + 1:.6f}"]
        for i in range(3)
    ]
    _write_csv(tmp_path / "transfers.csv", TRANSFERS_COLUMNS, rows)
    _write_csv(tmp_path / "summary.csv", SUMMARY_BASE_COLUMNS, [["1.0", "0.000000", 0]])
    assert checks.check_transfers(tmp_path, concurrency_cap=1) == []


def test_checker_rejects_double_landing_and_byte_mismatch(tmp_path):
    rows = [
        [0, "d", "a", "b", 100, "done", 0, "0.000000", "1.000000"],
        [1, "d", "c", "b", 100, "done", 0, "2.000000", "3.000000"],
        [2, "e", "a", "b", 100, "done", 0, "-1.000000", "3.000000"],  # not moved
    ]
    _write_csv(tmp_path / "transfers.csv", TRANSFERS_COLUMNS, rows)
    _write_csv(tmp_path / "summary.csv", SUMMARY_BASE_COLUMNS, [["1.0", "0.000300", 0]])
    problems = checks.check_transfers(tmp_path, concurrency_cap=4)
    assert any("landed on b twice" in p for p in problems)
    assert any("moved jobs sum to 0.000000 GB, summary says 0.000300" in p
               for p in problems)


def test_wrappers_restore_every_patched_function(tmp_path):
    before = _snapshot()
    result = _simulate(tmp_path, "dynamic-drug-dha", 7, "traced", trace=True)
    assert result["layers"]["scheduling.moves"] >= 0
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    assert set(after) == set(before)


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            assert fedflow.engine.Simulation.run is not before[("fedflow.engine", "Simulation", "run")]
            1 / 0
    after = _snapshot()
    assert [k for k in before if after.get(k) is not before[k]] == []


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_is_byte_identical_and_counts_repeat(tmp_path, workload):
    plain = _simulate(tmp_path, workload, 7, "plain")
    first = _simulate(tmp_path, workload, 7, "traced1", trace=True)
    second = _simulate(tmp_path, workload, 7, "traced2", trace=True)
    assert plain["problems"] == first["problems"] == []
    assert first["csv_sha256"] == plain["csv_sha256"] == second["csv_sha256"]
    counts = {k: v for k, v in first["layers"].items() if isinstance(v, int)}
    assert counts and counts == {
        k: v for k, v in second["layers"].items() if isinstance(v, int)
    }
    for key in ("makespan_s", "transfer_GB"):
        assert plain[key] == first[key] == second[key]


def test_traced_metrics_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    result = _simulate(tmp_path, "montage-dha", 7, "traced", trace=True)
    assert set(result["layers"]) | RUN_LEVEL_METRICS == per_layer


def test_expected_comparison_names_each_differing_output(tmp_path, monkeypatch):
    recorded = {"makespan_s": 1.5, "transfer_GB": 2.0, "csv_sha256": {"summary.csv": "ab"}}
    expected = tmp_path / "expected.json"
    expected.write_text(json.dumps({"montage-dha": {"7": recorded}}))
    monkeypatch.setattr(run, "EXPECTED", expected)
    assert run._compare_expected("montage-dha", 7, dict(recorded)) == "match"
    changed = dict(recorded, transfer_GB=2.1, csv_sha256={"summary.csv": "cd"})
    assert (run._compare_expected("montage-dha", 7, changed)
            == "DIFFER in transfer_GB, csv_sha256")
    assert run._compare_expected("montage-dha", 8, recorded) == "none recorded for seed 8"


def test_sampler_restores_the_alarm_and_scales_by_host_speed():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3.5 * hostspeed.PERIOD_S:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3 and sampler.loop_s > 0
    # A host running the loop at half speed halves the work's fixed-speed time.
    sampler.samples = [2 * hostspeed.CALIBRATION_SECONDS]
    assert sampler.at_fixed_speed(1.0) == pytest.approx(0.5)
