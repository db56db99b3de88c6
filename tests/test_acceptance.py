"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Tolerances are pinned in each test.  Heavy simulation runs are cached and
shared across criteria so the whole gate stays inside its runtime budgets.
"""

import contextlib
import dataclasses
import gc
import math
import random
import time

import pytest

from fedflow.builtins import generate_builtin_scenario, single_endpoint_variant
from fedflow.dag import Dag, FunctionDef, TaskState
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


def run(name, scale, scheduler, seed=0, **defaults):
    """Run a builtin scenario once, with `defaults` overriding its
    `Defaults`, and cache the finished Simulation."""
    key = (name, scale, scheduler, seed, tuple(sorted(defaults.items())))
    if key not in _RUNS:
        sc = generate_builtin_scenario(name, scale)
        sc.defaults = dataclasses.replace(sc.defaults, **defaults)
        sim = Simulation(sc, scheduler_kind=scheduler, seed=seed)
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
        fn = FunctionDef("f", true_fixed_s=1.0)
        rng = random.Random(20240817)
        for _ in range(500):
            n = rng.randint(1, 20)
            dag = Dag()
            for t in range(n):
                dag.submit_task(fn, [d for d in range(t) if rng.random() < 0.25])
            costs = [(rng.uniform(0, 50), rng.uniform(0, 50)) for t in range(n)]
            pr = compute_priorities(dag, costs)
            succ = [node.successors for node in dag.nodes.values()]
            for t in range(n):
                expect = _brute_force(succ, costs, t)
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
            "dynamic-drug", 0.1, "dha", reschedule_period_s=0.0
        ).metrics.makespan
        assert locality < 0.80 * capacity  # >= 20% better under churn
        assert dha < 0.90 * frozen  # re-scheduling worth >= 10%


def test_dynamic_reschedule_churn():
    with verdict("dynamic-reschedule-churn", budget_s=60.0):
        metrics = run("dynamic-drug", 0.1, "dha", seed=7).metrics
        # A task counted against its own incumbent ping-ponged: 16,816
        # moves for 1,201 tasks and 19.0 GB moved. Allow 10% of those moves.
        assert metrics.move_count < 1682, metrics.move_count
        assert metrics.transfer_bytes / 1e9 < 19.0, metrics.transfer_bytes


def test_federation_beats_largest_single_endpoint():
    with verdict("federated-vs-single-endpoint", budget_s=120.0):
        federated = run("drug-like", 0.05, "dha").metrics.makespan
        solo_sc = single_endpoint_variant(
            generate_builtin_scenario("drug-like", 0.05), "taiyi"
        )
        solo = Simulation(solo_sc, scheduler_kind="dha", seed=0)
        solo.run()
        assert federated < solo.metrics.makespan


def test_montage_federation_gain():
    with verdict("montage-federation-gain", budget_s=120.0):
        federated = run("montage-like", 1.0, "dha", seed=7).metrics
        solo_sc = single_endpoint_variant(
            generate_builtin_scenario("montage-like", 1.0), "qiming"
        )
        solo = Simulation(solo_sc, scheduler_kind="dha", seed=7)
        solo.run()
        # At least 20% faster than qiming alone (372.9 s). A staging
        # estimate blind to the link queues gave 15.8% and 144.2 GB.
        assert federated.makespan <= 0.80 * solo.metrics.makespan, federated.makespan
        assert federated.transfer_bytes / 1e9 < 144.2, federated.transfer_bytes
        # The same blind estimate gave 327.8 s and 153.0 GB here.
        dynamic = run("dynamic-montage", 1.0, "dha", seed=7).metrics
        assert dynamic.makespan <= 319.3, dynamic.makespan
        assert dynamic.transfer_bytes / 1e9 < 153.0, dynamic.transfer_bytes


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
            # Hook times are kept only when asked for; untimed, every mean
            # reads 0.0 and the bounds below would hold on nothing.
            sim = Simulation(generate_builtin_scenario("drug-like", scale),
                             scheduler_kind=kind, seed=0, timings=True)
            sim.run()
            assert len(sim.dag.nodes) == 10001
            means[kind] = sim.metrics.mean_decision_seconds
        assert all(0.0 < m < 0.010 for m in means.values()), means
        assert means["capacity"] == min(means.values()), means


def test_fault_tolerance_contract():
    with verdict("fault-tolerance-contract", budget_s=60.0):
        sc = generate_builtin_scenario("drug-like", 0.01)
        sc.defaults = dataclasses.replace(
            sc.defaults, transfer_failure_rate=0.8, max_transfer_retries=3
        )
        sim = Simulation(sc, scheduler_kind="dha", seed=3)
        sim.run()
        failed_rows = [row for row in sim.metrics.transfers if row[5] == "failed"]
        assert all(row[6] <= 3 for row in failed_rows)
        assert any(row[6] > 0 for row in sim.metrics.transfers)  # retries happened
        # At this failure rate some task gives up at every seed from 1 to 12,
        # so the loop checks a task whatever the seed.
        gave_up = [
            node for node in sim.dag.nodes.values() if node.state is TaskState.FAILED
        ]
        assert gave_up
        for node in gave_up:
            # One attempt per endpoint it failed on, up to the cap.
            assert len(node.failed_endpoints) == sim.max_task_attempts, node.task_id
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
            # A task that needs an item already on its way waits on that
            # transfer, so every job, DONE ones included, reached its link.
            assert t0 >= 0, job_id
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
