"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Tolerances are pinned in each test.  Heavy simulation runs are cached and
shared across criteria so the whole gate stays inside its runtime budgets.
"""

import contextlib
import gc
import math
import random
import time

import pytest

from fedflow.builtins import generate_builtin_scenario, single_endpoint_variant
from fedflow.dag import Dag, FunctionDef
from fedflow.engine import Simulation
from fedflow.scheduling import capacity_partition, compute_priorities


@contextlib.contextmanager
def verdict(name, budget_s):
    start = time.monotonic()
    try:
        yield
    except Exception:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"[acceptance] {name}: PASS ({elapsed:.1f}s)")


_RUNS = {}


@pytest.fixture(scope="module", autouse=True)
def _drop_cached_runs():
    """Free the cached runs when the gate ends: their large heap would
    otherwise stay alive and slow every later collection of the test run."""
    yield
    _RUNS.clear()
    gc.collect()


def run(name, scale, scheduler, seed=0, **kwargs):
    """Run a builtin scenario once and cache the finished Simulation."""
    key = (name, scale, scheduler, seed, tuple(sorted(kwargs.items())))
    if key not in _RUNS:
        sc = generate_builtin_scenario(name, scale)
        sim = Simulation(sc, scheduler_kind=scheduler, seed=seed, **kwargs)
        sim.run()
        _RUNS[key] = sim
    return _RUNS[key]


def test_proportional_partition_exactness():
    with verdict("capacity-partition-exactness", budget_s=1.0):
        assert capacity_partition(8, [5, 2, 1]) == [5, 2, 1]
        rng = random.Random(20240818)
        for _ in range(1000):
            m = rng.randint(0, 10**4)
            caps = [rng.randint(0, 500) for _ in range(rng.randint(1, 16))]
            if sum(caps) == 0:
                caps[0] = 1
            counts = capacity_partition(m, caps)
            assert sum(counts) == m
            total = sum(caps)
            for count, cap in zip(counts, caps):
                assert abs(count - m * cap / total) < 1.0


def _brute_force(succ, costs, t):
    d, w = costs[t]
    if not succ[t]:
        return d + w
    return d + w + max(_brute_force(succ, costs, s) for s in succ[t])


def test_priority_oracle_equivalence():
    with verdict("priority-oracle-equivalence", budget_s=10.0):
        fn = FunctionDef("f")
        rng = random.Random(20240817)
        for _ in range(500):
            n = rng.randint(1, 20)
            dag = Dag()
            for t in range(n):
                dag.submit_task(fn, [d for d in range(t) if rng.random() < 0.25])
            costs = {t: (rng.uniform(0, 50), rng.uniform(0, 50)) for t in range(n)}
            pr = compute_priorities(dag, costs)
            for t in range(n):
                expect = _brute_force(dag.successors, costs, t)
                assert math.isclose(pr[t], expect, rel_tol=1e-9, abs_tol=1e-9)


def test_determinism_byte_identical_outputs(tmp_path):
    with verdict("determinism-byte-identical", budget_s=30.0):
        blobs = []
        for tag in ("a", "b"):
            sc = generate_builtin_scenario("drug-like", 0.01)
            sim = Simulation(sc, scheduler_kind="dha", seed=11)
            sim.run()
            out = tmp_path / tag
            sim.metrics.emit(out)
            blobs.append(
                (
                    (out / "summary.csv").read_bytes(),
                    (out / "utilization.csv").read_bytes(),
                )
            )
        assert blobs[0] == blobs[1]


def test_static_capacity_ordering():
    with verdict("static-capacity-ordering", budget_s=240.0):
        for name in ("drug-like", "montage-like"):
            results = {
                kind: run(name, 0.05, kind).metrics
                for kind in ("capacity", "locality", "dha")
            }
            dha = results["dha"].makespan
            # DHA wins with at least a 2% margin on both baselines.
            assert dha <= 0.98 * results["capacity"].makespan, name
            assert dha <= 0.98 * results["locality"].makespan, name
            # The offline partition moves fewer bytes than the greedy
            # data-gravity baseline.
            assert (
                results["capacity"].transfer_bytes
                < results["locality"].transfer_bytes
            ), name


def test_dynamic_capacity_ordering():
    with verdict("dynamic-capacity-ordering", budget_s=120.0):
        capacity = run("dynamic-drug", 0.1, "capacity").metrics.makespan
        locality = run("dynamic-drug", 0.1, "locality").metrics.makespan
        dha = run("dynamic-drug", 0.1, "dha").metrics.makespan
        frozen = run(
            "dynamic-drug", 0.1, "dha", reschedule_period=0.0
        ).metrics.makespan
        assert locality < 0.80 * capacity  # >= 20% better under churn
        assert dha < 0.90 * frozen  # re-scheduling worth >= 10%


def test_federation_beats_largest_single_endpoint():
    with verdict("federated-vs-single-endpoint", budget_s=120.0):
        federated = run("drug-like", 0.05, "dha").metrics.makespan
        solo_sc = single_endpoint_variant(
            generate_builtin_scenario("drug-like", 0.05), "taiyi"
        )
        solo = Simulation(solo_sc, scheduler_kind="dha", seed=0)
        solo.run()
        assert federated < solo.metrics.makespan


def test_elasticity_worker_plateaus(tmp_path):
    with verdict("elasticity-plateaus", budget_s=30.0):
        sim = run("elasticity", 1.0, "dha")
        sim.metrics.emit(tmp_path)
        series = {}
        import csv

        with open(tmp_path / "utilization.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                pts = series.setdefault(row["endpoint"], [])
                active = int(row["active"])
                if not pts or pts[-1] != active:
                    pts.append(active)
        # Burst 1 at t=10: 60/20/20.  EP3 idles out to 0, returns for
        # burst 2 at t=70: 100/40/20.  Everything released at the end.
        assert series["ep1"] == [0, 60, 100, 0]
        assert series["ep2"] == [0, 20, 40, 0]
        assert series["ep3"] == [0, 20, 0, 20, 0]


def test_scheduler_decision_overhead():
    with verdict("scheduler-decision-overhead", budget_s=300.0):
        # stage sizing chosen so the workflow has exactly 10,001 tasks
        scale = 2500 / 6000
        means = {}
        for kind in ("capacity", "locality", "dha"):
            sim = run("drug-like", scale, kind)
            assert len(sim.dag.nodes) == 10001
            means[kind] = sim.metrics.mean_decision_seconds
        assert all(m < 0.010 for m in means.values()), means
        assert means["capacity"] == min(means.values()), means


def test_fault_tolerance_contract():
    with verdict("fault-tolerance-contract", budget_s=60.0):
        sc = generate_builtin_scenario("drug-like", 0.01)
        import dataclasses

        sc.defaults = dataclasses.replace(
            sc.defaults, transfer_failure_rate=0.3, max_transfer_retries=3
        )
        sim = Simulation(sc, scheduler_kind="dha", seed=3)
        sim.run()
        failed_rows = [row for row in sim.metrics.transfers if row[5] == "failed"]
        assert all(row[6] <= 3 for row in failed_rows)
        assert any(row[6] > 0 for row in sim.metrics.transfers)  # retries happened
        for tid, tm in sim.metrics.tasks.items():
            if tm.final_state == "failed":
                node = sim.dag.nodes[tid]
                exhausted = (
                    len(sim._failed_endpoints[tid]) == len(sim.endpoints)
                    or node.attempt_count + 1 > sim.max_task_attempts
                )
                assert exhausted, tid
        clean = Simulation(
            generate_builtin_scenario("drug-like", 0.01),
            scheduler_kind="dha",
            seed=3,
        )
        clean.run()
        assert clean.metrics.tasks_failed == 0
        assert not any(row[5] == "failed" for row in clean.metrics.transfers)


def test_data_manager_trace_invariants():
    with verdict("data-manager-invariants", budget_s=60.0):
        sim = run("montage-like", 0.05, "dha")
        cap = sim.scenario.defaults.transfer_concurrency
        initial = {
            did: set(d.locations) for did, d in sim.scenario.data.items()
        }
        per_dest = {}
        per_pair = {}
        for job_id, data_id, src, dst, size, state, retries, t0, t1 in (
            sim.metrics.transfers
        ):
            assert src != dst
            assert dst not in initial.get(data_id, set())
            if t0 >= 0:  # rows that never started moved no bytes
                per_dest.setdefault((data_id, dst), []).append((t0, t1, state))
                per_pair.setdefault((src, dst), []).append((t0, t1))
        # At most one transfer ever lands a given item on a given endpoint,
        # and no transfer for the pair starts after one already succeeded.
        for (data_id, dst), rows in per_dest.items():
            done = [r for r in rows if r[2] == "done"]
            assert len(done) <= 1, (data_id, dst)
            if done:
                for t0, _, state in rows:
                    assert t0 <= done[0][1], (data_id, dst)
        # Sweep each link's transfer intervals: never more than the cap
        # in flight at once.
        for pair, spans in per_pair.items():
            events = []
            for t0, t1 in spans:
                end = t1 if t1 >= 0 else float("inf")
                events.append((t0, 1))
                events.append((end, -1))
            events.sort()
            level = 0
            for _, delta in events:
                level += delta
                assert level <= cap, pair
