"""fedflow benchmark: host time and simulated outputs of three workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a source checkout; the package is imported from the
checkout's `src/`, never from an installed copy. Workloads are defined in
WORKLOADS below and explained in bench/README.md.

With --trace 0 the scenario is simulated again and again, each time in a
fresh worker process, for as many whole simulations as fit in --seconds (at
least one), and the end-to-end metrics are medians over those simulations. With --trace 1 it is
simulated once untraced and once traced, and the per-layer metrics come from
the traced simulation.

Every simulation's outputs are checked (bench/checks.py), and every
simulation of one run must produce byte-identical CSVs. The outputs are also
compared with those recorded for the workload and seed in
bench/expected.json; a difference is printed but does not fail the run. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the metric names and units are those listed in
BENCHMARK.json. The exit code is 0 when every check passed, 1 when a check
failed, and 2 when the checkout or arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"
OUTPUT_KEYS = ("makespan_s", "transfer_GB", "csv_sha256")

# name -> (builtin scenario, scale, scheduler)
WORKLOADS = {
    "drug-capacity": ("drug-like", 0.5, "capacity"),
    "montage-dha": ("montage-like", 1.0, "dha"),
    "dynamic-drug-dha": ("dynamic-drug", 0.1, "dha"),
}
DEADLINE_S = 170.0  # the whole run, generation included
MAX_SIMULATIONS = 20


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _run_worker(scenario: Path, scheduler: str, seed: int, out: Path,
                trace: bool, timeout: float):
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--scenario", str(scenario), "--scheduler", scheduler,
        "--seed", str(seed), "--out", str(out), "--trace", str(int(trace)),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"error: worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _consistency(runs: list) -> list:
    """Simulations of one seed must agree exactly on outputs and CSVs."""
    first = runs[0]
    problems = []
    for i, r in enumerate(runs[1:], 1):
        for key in OUTPUT_KEYS:
            if r.get(key) != first.get(key):
                problems.append(f"simulation {i} differs from simulation 0 in {key}")
    return problems


def _compare_expected(workload: str, seed: int, run: dict) -> str:
    """How one simulation's outputs compare with the recorded ones."""
    recorded = json.loads(EXPECTED.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return f"none recorded for seed {seed}"
    differ = [key for key in OUTPUT_KEYS if run.get(key) != recorded[key]]
    return f"DIFFER in {', '.join(differ)}" if differ else "match"


def _print_table(title: str, rows: list):
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value!r:>24} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = time.perf_counter()
    if not (ROOT / "src" / "fedflow" / "__init__.py").is_file():
        return _fail(f"no fedflow source under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"{spec_path} not found")
    spec = json.loads(spec_path.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    sys.path.insert(0, str(ROOT / "src"))
    from fedflow import generate_builtin_scenario, save_scenario

    builtin, scale, scheduler = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scenario = work / "scenario.json"
    t0 = time.perf_counter()
    save_scenario(generate_builtin_scenario(builtin, scale), scenario)
    generate_s = time.perf_counter() - t0

    def simulate(i: int, trace: bool):
        remaining = DEADLINE_S - (time.perf_counter() - started)
        return _run_worker(scenario, scheduler, args.seed, work / f"sim{i}",
                           trace, remaining)

    runs = []
    if args.trace:
        runs = [simulate(0, False), simulate(1, True)]
    else:
        measure_start = time.perf_counter()
        while len(runs) < MAX_SIMULATIONS:
            runs.append(simulate(len(runs), False))
            if runs[-1] is None:
                break
            # Start another simulation only if it should end within --seconds.
            elapsed = time.perf_counter() - measure_start
            per_run = elapsed / len(runs)
            if elapsed + per_run > args.seconds or (
                time.perf_counter() - started + 2 * per_run > DEADLINE_S
            ):
                break
    if any(r is None for r in runs):
        return 1

    problems = [f"simulation {i}: {msg}" for i, r in enumerate(runs) for msg in r["problems"]]
    problems += _consistency(runs)
    attempted = sum(r["tasks"] for r in runs)
    failed = attempted if problems else sum(r["failed_tasks"] for r in runs)
    untraced = runs[:1] if args.trace else runs
    base = runs[0]

    print(f"workload {args.workload}: {builtin} @{scale:g}, {scheduler}, "
          f"seed {args.seed}, {len(runs)} simulation(s)")
    e2e = {
        "sim_fixed_s": statistics.median(r["sim_fixed_s"] for r in untraced),
        "sim_wall_s": statistics.median(r["sim_wall_s"] for r in untraced),
        "setup_s": statistics.median(s for r in untraced for s in r["setup_fixed_s"]),
        "setup_wall_s": statistics.median(s for r in untraced for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "makespan_s": base.get("makespan_s"),
        "transfer_GB": base.get("transfer_GB"),
    }
    e2e_units = {"sim_fixed_s": "s", "sim_wall_s": "s", "setup_s": "s", "setup_wall_s": "s",
                 "peak_rss_mb": "MB", "makespan_s": "sim_s", "transfer_GB": "GB"}
    _print_table("end to end (untraced):",
                 [(k, v, e2e_units[k]) for k, v in e2e.items()]
                 + [("failed_task_ratio", failed / attempted, "ratio")])
    print(f"  set-up samples: {sum(len(r['setup_s']) for r in untraced)}; "
          f"simulation wall times: {[round(r['sim_wall_s'], 4) for r in runs]}; "
          f"at fixed speed: {[round(r['sim_fixed_s'], 4) for r in untraced]}")
    print(f"outputs: {json.dumps({key: base.get(key) for key in OUTPUT_KEYS})}")
    print(f"expected outputs: {_compare_expected(args.workload, args.seed, base)}")

    if args.trace:
        traced = runs[1]
        metrics = dict(traced["layers"])
        metrics["builtins.generate_s"] = generate_s
        metrics["engine.sim_wall_untraced_s"] = base["sim_wall_s"]
        metrics["engine.events_per_s"] = metrics["engine.events"] / base["sim_wall_s"]
        metrics["trace.overhead_ratio"] = traced["sim_wall_s"] / base["sim_wall_s"]
        wall = traced["sim_wall_s"]
        print(f"spans of the traced simulation ({wall:.4f} s wall, "
              f"{metrics['trace.overhead_ratio']:.3f}x untraced), by self time:")
        print(f"  {'span':<32} {'calls':>10} {'incl_s':>10} {'self_s':>10} {'self%':>6}")
        for name, calls, incl, self_s in traced["spans"]:
            print(f"  {name:<32} {calls:>10} {incl:>10.4f} {self_s:>10.4f} "
                  f"{100 * self_s / wall:>6.1f}")
        _print_table("per layer (traced):",
                     [(k, metrics[k], units.get(k, "?")) for k in sorted(metrics)])
    else:
        # The wall times are printed above but not gated; see bench/README.md.
        metrics = {k: v for k, v in e2e.items() if k not in ("sim_wall_s", "setup_wall_s")}

    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    if set(metrics) != set(units):
        return _fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                     f"the {section} list of BENCHMARK.json")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
