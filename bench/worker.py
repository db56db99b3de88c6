"""One simulation of a benchmark workload, in a process of its own.

    python3 bench/worker.py --scenario FILE --scheduler NAME --seed N \
        --out DIR [--trace 0|1]

It goes through the same calls as `fedflow run`: `load_scenario`, then
`Simulation(...)`, `.run()` and `MetricsLog.emit`. Set-up (load plus
construction) is repeated, with a fresh scenario object each time, until
SETUP_SECONDS have been spent (at least MIN_SETUPS times), and each repeat
is one sample; the last simulation built is the one that runs. Each set-up
sample and the untraced run are also converted to a fixed host speed with
bench/hostspeed.py. With --trace 1 the tracer wraps the package for the
whole process, set-up runs once, the run is not sampled for host speed, and
per-layer metrics are added to the result.

The last line of standard output is one JSON object (see `simulate`).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from fedflow import DeadlockError, Simulation, load_scenario  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

CSV_NAMES = ("summary.csv", "utilization.csv", "transfers.csv", "staging.csv")
SETUP_SECONDS = 0.5
MIN_SETUPS = 3
MAX_SETUPS = 1000


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _setup(scenario_path, scheduler: str, seed: int):
    """One set-up sample: (seconds, load seconds, simulation)."""
    t0 = time.perf_counter()
    sc = load_scenario(scenario_path)
    t1 = time.perf_counter()
    sim = Simulation(sc, scheduler_kind=scheduler, seed=seed)
    t2 = time.perf_counter()
    return t2 - t0, t1 - t0, sim


def simulate(scenario_path, scheduler: str, seed: int, out_dir,
             trace: bool = False) -> dict:
    """Run one workload simulation and check its outputs.

    Returns a dict with the wall times (`setup_s` as a list of samples,
    `sim_wall_s`), the same at the fixed host speed (`setup_fixed_s`, and
    `sim_fixed_s` when not traced), `peak_rss_mb`, the simulated outputs
    (`makespan_s`, `transfer_GB`), `tasks` and `failed_tasks`, the output
    `problems` found, a SHA-256 per CSV, and with tracing the per-layer
    metrics (`layers`) and spans (`spans`).
    """
    tr = Tracer() if trace else None
    with tr or contextlib.nullcontext():
        setup, setup_fixed, loads = [], [], []
        sim = None
        while True:
            sim = None
            gc.collect()
            calibration = hostspeed.calibrate()
            seconds, load_s, sim = _setup(scenario_path, scheduler, seed)
            setup.append(seconds)
            setup_fixed.append(seconds * hostspeed.CALIBRATION_SECONDS / calibration)
            loads.append(load_s)
            if trace or len(setup) >= MAX_SETUPS or (
                len(setup) >= MIN_SETUPS and sum(setup) >= SETUP_SECONDS
            ):
                break
        gc.collect()
        tasks = len(sim.scenario.workflow)
        problems = []
        log = None
        sampler = None if trace else hostspeed.Sampler()
        with sampler or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                log = sim.run()
            except DeadlockError as exc:
                problems.append(f"DeadlockError: {str(exc).splitlines()[0]}")
            wall = time.perf_counter() - t0
        if sampler:
            wall -= sampler.loop_s

    result = {
        "setup_s": setup,
        "setup_fixed_s": setup_fixed,
        "sim_wall_s": wall,
        "tasks": tasks,
        "failed_tasks": tasks,
        "problems": problems,
    }
    if sampler:
        result["sim_fixed_s"] = sampler.at_fixed_speed(wall)
    if log is None:
        result["peak_rss_mb"] = _peak_rss_mb()
        return result

    out = Path(out_dir)
    t0 = time.perf_counter()
    log.emit(out)
    emit_s = time.perf_counter() - t0
    result["peak_rss_mb"] = _peak_rss_mb()
    problems += checks.check_terminal(sim)
    problems += checks.check_outputs(out, sim.scenario.defaults.transfer_concurrency)
    result.update(
        makespan_s=log.makespan,
        transfer_GB=log.transfer_bytes / 1e9,
        failed_tasks=tasks if problems else log.tasks_failed,
        csv_sha256={
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in CSV_NAMES
        },
    )
    if tr:
        layers = layer_metrics(tr, sim, log)
        layers["scenario.load_s"] = loads[0]
        layers["metrics.emit_s"] = emit_s
        layers["metrics.rows"] = (
            1 + len(log.utilization) + len(log.transfers) + len(log.staging_series)
        )
        result["layers"] = layers
        result["spans"] = tr.spans()
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scenario", required=True)
    p.add_argument("--scheduler", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    result = simulate(a.scenario, a.scheduler, a.seed, a.out, trace=bool(a.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
