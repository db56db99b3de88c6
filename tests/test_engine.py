"""End-to-end simulation oracles with hand-computed timing arithmetic."""

import dataclasses
import hashlib
import logging
import math
import operator
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fedflow import engine
from fedflow.builtins import generate_builtin_scenario
from fedflow.dag import INLINE_ARGS_LIMIT, Dag, TaskNode, TaskState, WorkflowError
from fedflow.data_manager import DataError, DataManager, JobState
from fedflow.endpoints import CapacityEvent
from fedflow.engine import (
    DeadlockError,
    EventKind,
    Simulation,
    next_poll,
    run_scenario,
)
from fedflow.scenario import MB, OUTPUT_PREFIX, DataSpec, scenario_from_dict

# Two endpoints over a symmetric 100 MB/s / 0.5 s link.  Endpoint "a" runs
# everything at 2x the base cost, "b" at 1x.
ORACLE = {
    "name": "oracle",
    "endpoints": [
        {
            "endpoint_id": "a",
            "workers_per_node": 2,
            "max_nodes": 1,
            "initial_nodes": 1,
            "perf_factor": 2.0,
        },
        {
            "endpoint_id": "b",
            "workers_per_node": 2,
            "max_nodes": 1,
            "initial_nodes": 1,
            "perf_factor": 1.0,
        },
    ],
    "network": {"default": {"bandwidth_MBps": 100.0, "latency_s": 0.5}},
    "functions": [
        {
            "name": "f",
            "true_fixed_s": 10.0,
            "true_rate_s_per_MB": 0.1,
            "output_ratio": 0.5,
        },
        {"name": "g", "true_fixed_s": 5.0},
    ],
    "workflow": [
        {
            "id": 0,
            "function": "f",
            "file_deps": [
                {"data_id": "d1", "size_MB": 100.0, "locations": ["a"]},
                {"data_id": "d2", "size_MB": 10.0, "locations": ["b"]},
            ],
        },
        {"id": 1, "function": "g", "deps": [0]},
    ],
    "defaults": {"scheduler": "locality"},
}


def oracle(**overrides):
    import copy

    doc = copy.deepcopy(ORACLE)
    doc.setdefault("defaults", {}).update(overrides.pop("defaults", {}))
    for key, value in overrides.items():
        doc[key] = value
    return scenario_from_dict(doc)


class TestHelpers:
    def test_next_poll(self):
        assert next_poll(42.6, 7.0) == 49.0
        assert next_poll(49.0, 7.0) == 49.0
        assert next_poll(3.2, 0.0) == 3.2


class TestTimingOracle:
    """Locality places task 0 on "a" (moves 10 MB instead of 100 MB), so:

    staging  = 0.5 + 10 MB / 100 MB/s                 = 0.6 s
    task 0   = 2.0 * (10 + 0.1 * 110 MB)              = 42.0 s  -> done 42.6
    output   = 0.5 * 110 MB = 55 MB, resident on "a"
    task 1   = 2.0 * 5 on "a" (its 55 MB input is local) = 10.0 s -> done 52.6
    """

    def test_makespan_and_bytes(self):
        m = run_scenario(oracle())
        assert m.makespan == pytest.approx(52.6)
        assert m.transfer_bytes == 10_000_000
        assert m.tasks_failed == 0

    def test_task_timeline(self):
        sim = Simulation(oracle())
        m = sim.run()
        t0, t1 = m.tasks[0], m.tasks[1]
        assert t0.staging_end == pytest.approx(0.6)
        assert t0.end_time == pytest.approx(42.6)
        assert t1.start_time == pytest.approx(42.6)
        assert t1.end_time == pytest.approx(52.6)
        assert t0.assigned_endpoint == t1.assigned_endpoint == "a"

    def test_output_item_registered_with_predicted_size(self):
        sim = Simulation(oracle())
        sim.run()
        out = sim.data.items["out:0"]
        assert out.size == 55_000_000
        assert out.locations == {"a"}
        assert "out:0" in sim.dag.nodes[1].file_deps

    def test_poll_interval_rounds_observations_up(self):
        # Completions are only seen at 7 s poll ticks: 42.6 -> 49, 59 -> 63.
        sc = oracle(
            network=dict(
                ORACLE["network"], client={"poll_interval_s": 7.0}
            )
        )
        m = run_scenario(sc)
        assert m.tasks[0].observed_time == pytest.approx(49.0)
        assert m.tasks[1].start_time == pytest.approx(49.0)
        assert m.makespan == pytest.approx(63.0)

    def test_dispatch_latency_added_per_attempt(self):
        sc = oracle(
            network=dict(ORACLE["network"], client={"dispatch_latency_s": 2.0})
        )
        m = run_scenario(sc)
        assert m.makespan == pytest.approx(56.6)


# The oracle with a noisy `f`.
NOISY = {
    "functions": [
        {"name": "f", "true_fixed_s": 10.0, "noise": 0.2},
        {"name": "g", "true_fixed_s": 5.0},
    ]
}


def recorded_exec_time(sim, function="f"):
    """The execution time recorded for the oracle's only task of `function`."""
    (rec,) = [r for r in sim.exec_profiler.history if r.function == function]
    return rec.exec_time


class TestExecutionSampling:
    def test_noise_bounds_and_determinism(self):
        durations = set()
        for _ in range(2):
            sim = Simulation(oracle(**NOISY), seed=7, history=True)
            sim.run()
            d = recorded_exec_time(sim)
            assert 2.0 * 10.0 * 0.8 <= d <= 2.0 * 10.0 * 1.2
            durations.add(round(d, 12))
        assert len(durations) == 1  # same seed, same draw

    def test_different_seeds_differ(self):
        a = Simulation(oracle(**NOISY), seed=1, history=True)
        a.run()
        b = Simulation(oracle(**NOISY), seed=2, history=True)
        b.run()
        assert recorded_exec_time(a) != recorded_exec_time(b)


class TestHistoryOptIn:
    @pytest.mark.parametrize("scheduler", ["capacity", "dha"])
    def test_a_default_run_keeps_no_history_and_fits_the_same(self, scheduler):
        sims = {}
        for history in (False, True):
            sc = generate_builtin_scenario("dynamic-drug", 0.02)
            sims[history] = Simulation(sc, scheduler_kind=scheduler, seed=7, history=history)
            sims[history].run()
        bare, kept = sims[False].exec_profiler, sims[True].exec_profiler
        assert bare.history == []
        assert len(kept.history) == sum(m.attempts for m in kept._moments.values()) > 0
        assert bare._fits and bare._fits == kept._fits
        tasks = sims[True].dag.nodes
        assert [sims[False].exec_row(t) for t in tasks] == [sims[True].exec_row(t) for t in tasks]


def joined_key_draw(seed, *key) -> float:
    """The draw by its defining formula, the reference `Simulation._draw`
    and its callers are checked against: the seed and the key's fields,
    each through `str`, joined by ':' and hashed with BLAKE2b."""
    text = ":".join(map(str, (seed,) + key))
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return (int.from_bytes(digest, "big") >> 11) * 2.0**-53


def keys_drawn(sim, call) -> list:
    """The keys `call()` passes to `sim._draw`, in order."""
    keys = []
    draw = sim._draw
    sim._draw = lambda key: keys.append(key) or draw(key)
    try:
        call()
    finally:
        del sim._draw
    return keys


# Ids as a scenario may name them: any text, with ':' common among them.
IDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12) | st.text(":ab", max_size=6)


class TestDraw:
    """`Simulation._draw`, the keyed hash behind every noisy or lossy draw."""

    def test_same_key_same_value_in_unit_interval(self):
        a, b = Simulation(oracle(), seed=7), Simulation(oracle(), seed=7)
        for key in [b"exec:0:0", b"exec:1:3", b"xfer:d1:a:b:0"]:
            assert a._draw(key) == a._draw(key) == b._draw(key)
        values = [a._draw(b"exec:%d:0" % tid) for tid in range(1000)]
        assert all(0.0 <= u < 1.0 for u in values)

    def test_keys_differing_in_one_field_differ(self):
        sim = Simulation(oracle(), seed=7)
        base = b"xfer:d1:a:b:0"
        variants = [b"exec:d1:a:b:0", b"xfer:d2:a:b:0", b"xfer:d1:b:b:0", b"xfer:d1:a:a:0",
                    b"xfer:d1:a:b:1"]
        values = {sim._draw(key) for key in [base] + variants}
        values.add(Simulation(oracle(), seed=8)._draw(base))
        assert len(values) == len(variants) + 2

    @pytest.mark.parametrize(
        "seed,key,value",
        [
            (7, ("exec", 0, 0), 0.26072383805712496),
            (7, ("exec", 1, 3), 0.32227606512853435),
            (7, ("exec", 12000, 1), 0.4439106121149031),
            (3, ("exec", 5, 0), 0.22631041350778858),
            (7, ("xfer", "d1", "a", "b", 0), 0.21458151715995932),
            (7, ("xfer", "out:17", "taiyi", "qiming", 2), 0.3741436553739915),
            (7, ("xfer", "__probe__a__b", "a", "b", 0), 0.8449269499413524),
        ],
    )
    def test_recorded_values(self, seed, key, value):
        """Draws recorded when the key was first defined; a change to them
        changes every noisy and lossy run's outputs."""
        sim = Simulation(oracle(), seed=seed)
        assert sim._draw(":".join(map(str, key)).encode()) == value
        assert joined_key_draw(seed, *key) == value

    def test_interleaved_draws_of_two_seeds_share_no_state(self):
        """Each draw feeds its key to a copy of its simulation's seeded hash,
        so draws of two simulations, taken in turn, each give the draw of
        the defining formula for their own seed."""
        sims = {seed: Simulation(oracle(), seed=seed) for seed in (7, 8)}
        for task_id in range(50):
            for attempt in range(2):
                for seed, sim in sims.items():
                    key = b"exec:%d:%d" % (task_id, attempt)
                    assert sim._draw(key) == joined_key_draw(seed, "exec", task_id, attempt)

    @settings(max_examples=200)
    @given(seed=st.integers(-(2**70), 2**70), task_id=st.integers(0, 10**9),
           attempt=st.integers(0, 99))
    def test_exec_draw_is_the_joined_key_draw(self, seed, task_id, attempt):
        sim = Simulation(oracle(**NOISY), seed=seed)
        fn = sim.scenario.functions["f"]
        sim.dag.nodes[task_id] = TaskNode(task_id, fn)
        u = joined_key_draw(seed, "exec", task_id, attempt)
        node, ep = sim.dag.nodes[task_id], sim._by_id["b"]
        (key,) = keys_drawn(sim, lambda: sim.sample_exec_duration(node, ep, attempt))
        assert sim._draw(key) == u
        noise = fn.noise * (2.0 * u - 1.0)
        assert sim.sample_exec_duration(node, ep, attempt) == fn.true_fixed_s * (1.0 + noise)

    @settings(max_examples=200)
    @given(seed=st.integers(0, 2**64), data_id=IDS, src=IDS, dst=IDS)
    def test_transfer_draw_is_the_joined_key_draw(self, seed, data_id, src, dst):
        sim = Simulation(oracle(defaults={"transfer_failure_rate": 0.5}), seed=seed)
        job = SimpleNamespace(data_id=data_id, src=src, dst=dst)
        outcomes = []
        keys = keys_drawn(sim, lambda: outcomes.extend(sim._transfer_success(job) for _ in "ab"))
        for attempt, (key, success) in enumerate(zip(keys, outcomes, strict=True)):
            u = joined_key_draw(seed, "xfer", data_id, src, dst, attempt)
            assert sim._draw(key) == u
            assert success == (u >= 0.5)

    def test_exec_noise_is_bounded_and_centred(self):
        sim = Simulation(oracle(**NOISY), seed=7)
        sim.run()
        node = sim.dag.nodes[0]
        fn = node.function
        base = sim._by_id["b"].spec.perf_factor * fn.true_seconds(node.input_bytes)
        noise = [
            sim.sample_exec_duration(node, sim._by_id["b"], attempt) / base - 1.0
            for attempt in range(20_000)
        ]
        assert all(-fn.noise <= x < fn.noise for x in noise)
        assert abs(sum(noise) / len(noise) / fn.noise) <= 0.02

    def test_transfer_failure_frequency_matches_rate(self):
        sim = Simulation(oracle(defaults={"transfer_failure_rate": 0.3}), seed=7)
        # 10,000 items, two landing attempts each: 20,000 transfer keys.
        jobs = [
            SimpleNamespace(data_id=f"d{i}", src="a", dst="b")
            for i in range(10_000)
        ]
        failures = sum(not sim._transfer_success(job) for job in jobs + jobs)
        assert abs(failures / 20_000 - 0.3) <= 0.02


class TestCapacityEventMidRun:
    def test_reduction_drains_one_worker_per_completion(self):
        # 8 ten-second tasks on 4 workers; at t=5 the pool loses 2 workers,
        # taken from the first two completions.  3 waves instead of 2.
        sc = scenario_from_dict(
            {
                "name": "cap",
                "endpoints": [
                    {
                        "endpoint_id": "a",
                        "workers_per_node": 4,
                        "max_nodes": 1,
                        "initial_nodes": 1,
                        "capacity_trace": [{"time_s": 5.0, "delta_workers": -2}],
                    }
                ],
                "network": {"default": {"bandwidth_MBps": 100.0, "latency_s": 0.1}},
                "functions": [{"name": "f", "true_fixed_s": 10.0}],
                "workflow": [{"id": i, "function": "f"} for i in range(8)],
                "defaults": {"scheduler": "capacity"},
            }
        )
        sim = Simulation(sc)
        m = sim.run()
        assert m.makespan == pytest.approx(30.0)
        assert sim.endpoints[0].active_workers == 2


class TestFailures:
    def failure_doc(self, split_data=True):
        # With split_data each endpoint is missing one input, so every
        # placement needs a transfer and a 100% failure rate is terminal.
        deps = [{"data_id": "d1", "size_MB": 10.0, "locations": ["b"]}]
        if split_data:
            deps.append({"data_id": "d2", "size_MB": 10.0, "locations": ["a"]})
        return {
            "name": "fail",
            "endpoints": [
                {
                    "endpoint_id": "a",
                    "workers_per_node": 2,
                    "max_nodes": 1,
                    "initial_nodes": 1,
                },
                {
                    "endpoint_id": "b",
                    "workers_per_node": 2,
                    "max_nodes": 1,
                    "initial_nodes": 1,
                },
            ],
            "network": {"default": {"bandwidth_MBps": 100.0, "latency_s": 0.1}},
            "functions": [{"name": "f", "true_fixed_s": 1.0}],
            "workflow": [
                {"id": 0, "function": "f", "file_deps": deps},
                {"id": 1, "function": "f", "deps": [0]},
            ],
            "defaults": {
                "scheduler": "capacity",
                "transfer_failure_rate": 1.0,
                "max_transfer_retries": 2,
            },
        }

    def test_exhausted_transfers_fail_task_and_cascade(self):
        sim = Simulation(scenario_from_dict(self.failure_doc()))
        m = sim.run()
        assert m.tasks_failed == 2
        assert m.tasks[0].state is TaskState.FAILED
        assert m.tasks[1].state is TaskState.UNRUNNABLE and sim.unrunnable == {1}
        assert m.tasks[1].terminal
        assert m.transfer_bytes == 0  # nothing ever landed

    def test_task_submitted_after_its_dependency_failed_is_unrunnable(self):
        # Task 0 has failed for good by t=100, when task 1 is submitted.
        doc = self.failure_doc()
        doc["workflow"][1]["submit_time_s"] = 100.0
        sim = Simulation(scenario_from_dict(doc))
        m = sim.run()
        assert m.tasks_failed == 2
        assert m.tasks[1].state is TaskState.UNRUNNABLE
        assert not any(ep.committed for ep in sim.endpoints)

    def test_transfer_rows_record_retries(self):
        m = run_scenario(scenario_from_dict(self.failure_doc()))
        failed_rows = [row for row in m.transfers if row[5] == "failed"]
        assert failed_rows and all(row[6] == 2 for row in failed_rows)

    def test_zero_failure_rate_is_clean(self):
        doc = self.failure_doc()
        doc["defaults"]["transfer_failure_rate"] = 0.0
        m = run_scenario(scenario_from_dict(doc))
        assert m.tasks_failed == 0

    def test_failure_draws_follow_the_transfer_not_the_job_id(self):
        """Which attempts of a transfer fail depends on the transfer and on
        the attempts made before to land its item there, not on how many
        other jobs were opened first: probes opened earlier shift every job
        id and change nothing. A job re-opened after one ran out of retries
        draws afresh, so each item lands in the end."""

        def outcomes(probe_first):
            doc = self.failure_doc()
            doc["defaults"].update(transfer_failure_rate=0.7, max_transfer_retries=1)
            sim = Simulation(scenario_from_dict(doc), seed=7)
            if probe_first:
                assert len(sim.data.issue_probes(10**6, 0.0)) == 2
            seen = []
            for task_id, (data_id, dst) in enumerate((("d1", "a"), ("d2", "b"))):
                while dst not in sim.data.items[data_id].locations:
                    (job,), _ = sim.data.stage(task_id, [data_id], dst, 0.0)
                    while job.state is JobState.ACTIVE:
                        success = sim._transfer_success(job)
                        seen.append((data_id, job.job_id, success))
                        sim.data.on_transfer_finished(job, success, 0.0)
            return seen

        plain, probed = outcomes(False), outcomes(True)
        assert [(d, ok) for d, _, ok in plain] == [(d, ok) for d, _, ok in probed]
        assert [j for _, j, _ in plain] != [j for _, j, _ in probed]
        # Some item needed a second job: its first ran out of retries.
        assert len({(d, j) for d, j, _ in plain}) > 2, plain

    def test_retry_succeeds_on_second_endpoint(self):
        # The single input lives on "b", so the retry there needs no
        # transfer and the workflow still completes.
        doc = self.failure_doc(split_data=False)
        m = run_scenario(scenario_from_dict(doc))
        assert m.tasks_failed == 0
        assert m.tasks[0].assigned_endpoint == "b"


class TestStateBookkeeping:
    def test_dha_run_hashes_no_task_state(self, monkeypatch):
        # A state change reads the per-state facts by the states' indexes,
        # so it never hashes one. Lossy transfers add retries, tasks that fail
        # for good and unrunnable successors to the re-scheduling moves.
        sc = generate_builtin_scenario("dynamic-drug", 0.02)
        sc.defaults = dataclasses.replace(
            sc.defaults, transfer_failure_rate=0.3, max_transfer_retries=0
        )
        hashes = []
        original = TaskState.__hash__
        monkeypatch.setattr(
            TaskState, "__hash__", lambda s: hashes.append(s) or original(s)
        )
        logging.disable(logging.ERROR)
        try:
            sim = Simulation(sc, scheduler_kind="dha", seed=7)
            m = sim.run()
        finally:
            logging.disable(logging.NOTSET)
        assert m.tasks_failed > 0 and sim.unrunnable
        assert hashes == []

    @pytest.mark.parametrize("old", list(TaskState), ids=lambda s: s.value)
    def test_every_move_is_the_one_task_state_declares(self, old):
        """`_enter` accepts exactly `old.successors`, stamps `new.stamp`
        and samples the staging series exactly when STAGING is left or
        entered; any other move changes nothing and raises."""
        stamps = [s.stamp for s in TaskState if s.stamp]
        staging_index = TaskState.STAGING.index
        for new in TaskState:
            sim = Simulation(oracle())
            node = sim.dag.nodes[sim.dag.submit_task(sim.scenario.functions["f"])]
            node.state = old
            sim._state_counts[old.index] = 1
            sim.clock = 12.5
            counts = list(sim._state_counts)
            stamped = dict.fromkeys(stamps)
            staging = []
            legal = new in old.successors
            if legal:
                sim._enter(node, new)
                counts[old.index] -= 1
                counts[new.index] += 1
                if new.stamp:
                    stamped[new.stamp] = 12.5
                if TaskState.STAGING in (old, new):
                    staging = [(12.5, counts[staging_index])]
            else:
                with pytest.raises(WorkflowError) as excinfo:
                    sim._enter(node, new)
                message = f"task {node.task_id}: illegal transition {old.value} -> {new.value}"
                assert str(excinfo.value) == message
            assert node.state is (new if legal else old)
            assert sim._state_counts == counts
            assert {s: getattr(node, s) for s in stamps} == stamped
            assert sim.metrics.staging_series == staging

    @pytest.mark.parametrize("scheduler", ["capacity", "locality", "dha"])
    def test_a_simulation_keeps_its_attributes_under_the_key_sharing_limit(self, scheduler):
        # CPython 3.11 stops sharing an instance dict's keys at its 30th
        # attribute, and every attribute read of a run then gets slower.
        for timings in (False, True):
            sc = generate_builtin_scenario("dynamic-drug", 0.02)
            sim = Simulation(sc, scheduler_kind=scheduler, timings=timings)
            sim.run()
            assert len(vars(sim)) < 30


class TestDeadlock:
    def test_no_workers_and_no_elasticity_deadlocks(self):
        sc = scenario_from_dict(
            {
                "name": "stuck",
                "endpoints": [
                    {
                        "endpoint_id": "a",
                        "workers_per_node": 1,
                        "max_nodes": 1,
                        "initial_nodes": 0,
                    }
                ],
                "network": {"default": {"bandwidth_MBps": 100.0, "latency_s": 0.1}},
                "functions": [{"name": "f", "true_fixed_s": 1.0}],
                "workflow": [{"id": 0, "function": "f"}],
            }
        )
        with pytest.raises(DeadlockError, match="task 0"):
            run_scenario(sc)


def run_python(script, *args, **env):
    """Run `script` in a fresh interpreter that imports this fedflow."""
    src = str(Path(engine.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, **env)
    subprocess.run([sys.executable, "-c", script, *args], env=env, check=True)


class TestDeterminism:
    def test_identical_runs_produce_identical_metrics(self):
        runs = []
        for _ in range(2):
            m = run_scenario(oracle(), seed=3)
            runs.append(
                (
                    m.makespan,
                    m.transfer_bytes,
                    m.event_count,
                    tuple(m.transfers),
                )
            )
        assert runs[0] == runs[1]

    def test_lossy_run_is_byte_identical_across_hash_seeds(self, tmp_path):
        # A draw keyed through `hash()` would differ between these processes.
        script = (
            "import dataclasses, sys\n"
            "from fedflow.builtins import generate_builtin_scenario\n"
            "from fedflow.engine import Simulation\n"
            "sc = generate_builtin_scenario('dynamic-drug', 0.02)\n"
            "sc.defaults = dataclasses.replace(sc.defaults, transfer_failure_rate=0.3)\n"
            "Simulation(sc, scheduler_kind='dha', seed=7).run().emit(sys.argv[1])\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            run_python(script, str(out), PYTHONHASHSEED=hash_seed)
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("summary.csv", "utilization.csv", "transfers.csv", "staging.csv")
            })
        assert outputs[0] == outputs[1]

    def test_package_does_not_load_openssl(self):
        # `_hashlib` (OpenSSL) would add about 2 MB to the benchmark's peak_rss_mb.
        run_python(
            "import sys, fedflow, fedflow.cli\n"
            "assert '_hashlib' not in sys.modules\n"
        )

    @pytest.mark.parametrize("kind", ["capacity", "locality", "dha"])
    def test_all_schedulers_complete_oracle(self, kind):
        m = run_scenario(oracle(), scheduler_kind=kind)
        assert m.tasks_failed == 0
        assert m.makespan > 0


class TestSchedulerCounters:
    def test_nested_hooks_are_timed_once(self, monkeypatch):
        # Each clock read is one second later than the last.
        reads = iter(range(100))
        clock = SimpleNamespace(perf_counter=lambda: float(next(reads)))
        monkeypatch.setattr(engine, "_time", clock)
        sim = Simulation(oracle(), scheduler_kind="dha", timings=True)
        sim._hook(False, sim._hook, False, lambda: None)
        assert sim.metrics.sched_seconds == 1.0

    def test_decision_time_leaves_out_rescheduling(self, monkeypatch):
        """The engine's re-scheduling hooks, a capacity change and the tick
        that `arm_reschedule` queues, count toward `sched_seconds` but not
        toward the time per placement decision, nested hooks included."""
        reads = iter(range(100))
        clock = SimpleNamespace(perf_counter=lambda: float(next(reads)))
        monkeypatch.setattr(engine, "_time", clock)
        sim = Simulation(oracle(), scheduler_kind="dha", timings=True)
        strategy = sim.strategy
        sim._on_capacity_change("a", CapacityEvent(0.0, 1))
        sim.arm_reschedule(5.0)
        [tick] = [p for _, kind, _, p in sim._events if kind == EventKind.RESCHEDULE_TICK]
        tick[0](*tick[1:])
        sim._hook(False, strategy.on_deps_done, [])
        sim._hook(False, strategy.on_worker_free, "a")
        # Nested: only the outermost hook is timed, and it names the kind.
        sim._hook(True, sim._hook, False, strategy.on_worker_free, "a")
        sim._hook(False, sim._hook, True, strategy.on_reschedule_tick)
        m = sim.metrics
        assert (m.sched_seconds, m.resched_seconds) == (6.0, 3.0)
        m.decision_count = 6
        assert m.mean_decision_seconds == 0.5

    def test_a_run_times_rescheduling(self):
        # dynamic-drug's capacity events and DHA's ticks re-schedule.
        sc = generate_builtin_scenario("dynamic-drug", 0.02)
        m = Simulation(sc, scheduler_kind="dha", seed=7, timings=True).run()
        assert 0.0 < m.resched_seconds < m.sched_seconds

    @pytest.mark.parametrize("name, scheduler", [
        ("dynamic-drug", "dha"), ("drug-like", "capacity"),
    ])
    def test_timing_changes_no_output(self, tmp_path, name, scheduler):
        """A timed run and an untimed one write the same CSVs and counts;
        the untimed one times nothing."""
        runs = {}
        for timings in (False, True):
            sc = generate_builtin_scenario(name, 0.02)
            m = Simulation(sc, scheduler_kind=scheduler, seed=7, timings=timings).run()
            out = tmp_path / str(timings)
            m.emit(out)
            runs[timings] = m, {
                csv: (out / csv).read_bytes()
                for csv in ("summary.csv", "utilization.csv", "transfers.csv", "staging.csv")
            }
        (untimed, untimed_csvs), (timed, timed_csvs) = runs[False], runs[True]
        assert untimed_csvs == timed_csvs
        counts = operator.attrgetter("decision_count", "move_count", "pass_scores", "event_count")
        assert counts(untimed) == counts(timed)
        assert untimed.sched_seconds == untimed.resched_seconds == 0.0
        assert timed.sched_seconds > 0.0

    def test_moves_are_not_decisions(self):
        # dynamic-drug moves tasks off an endpoint that loses most of its
        # workers; every task is placed once and none is retried.
        sc = generate_builtin_scenario("dynamic-drug", 0.02)
        sim = Simulation(sc, scheduler_kind="dha", seed=7)
        moved = []
        move_assignment = sim.move_assignment

        def recorded_move(task_id, endpoint_id):
            moved.append(task_id)
            move_assignment(task_id, endpoint_id)

        sim.move_assignment = recorded_move
        metrics = sim.run()
        assert moved and metrics.move_count == len(moved)
        assert metrics.decision_count == len(sim.dag.nodes)


def reference_batch(dag, data, spec_by_tid, functions, specs, clock):
    """A batch registered through the checked builders, one call each per
    task: `Dag.submit_task`, then the sizes, the output item through
    `DataManager.register_item`, and the unmet and dead deps. The reference
    `Simulation._register_batch` is held to."""
    task_ids, dead_deps = [], []
    for t in sorted(specs, key=lambda s: s.id):
        fn = functions[t.function]
        dep_tids = [spec_by_tid[d] for d in t.deps]
        outputs = [dag.nodes[d].output for d in dep_tids if dag.nodes[d].output is not None]
        tid = dag.submit_task(fn, dep_tids, [*t.file_deps, *outputs], t.inline_args_B)
        spec_by_tid[t.id] = tid
        node = dag.nodes[tid]
        node.file_bytes = sum(data.items[d].size for d in node.file_deps)
        node.input_bytes = node.file_bytes + t.inline_args_B
        out_size = int(round(fn.output_ratio * node.input_bytes))
        if fn.output_ratio > 0 and out_size > 0:
            node.output = data.register_item(f"{OUTPUT_PREFIX}{tid}", out_size).data_id
        node.submit_time = clock
        unmet = [d for d in node.deps if dag.nodes[d].state is not TaskState.DONE]
        node.deps_left = len(unmet)
        dead_deps += [d for d in unmet if dag.nodes[d].state in (TaskState.FAILED,
                                                                 TaskState.UNRUNNABLE)]
        task_ids.append(tid)
    return task_ids, dead_deps


@st.composite
def batched_workflows(draw):
    """A scenario document whose tasks are split into batches, with spec ids
    that do not follow submission order, deps (repeats included) on any
    task submitted before, repeated file deps, and functions with no
    output, an output and an output that rounds to 0 bytes."""
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n)))
    batch_of = {tid: draw(st.integers(0, 2)) for tid in ids}
    order = sorted(ids, key=lambda t: (batch_of[t], t))
    sizes = [0.0, 0.5, 2.0]
    workflow = []
    for k, tid in enumerate(order):
        deps = draw(st.lists(st.sampled_from(order[:k]), max_size=4)) if k else []
        fds = draw(st.lists(st.integers(0, len(sizes) - 1), max_size=3))
        workflow.append({
            "id": tid,
            "function": draw(st.sampled_from(["plain", "out", "tiny"])),
            "deps": deps,
            "file_deps": [
                {"data_id": f"d{i}", "size_MB": sizes[i], "locations": ["a"]} for i in fds
            ],
            "inline_args_B": draw(st.sampled_from([0, 1, 1000, INLINE_ARGS_LIMIT])),
            "submit_time_s": 10.0 * batch_of[tid],
        })
    draw(st.randoms()).shuffle(workflow)
    return {
        "name": "batches",
        "endpoints": [{"endpoint_id": "a", "workers_per_node": 1, "max_nodes": 1,
                       "initial_nodes": 1}],
        "functions": [
            {"name": "plain", "true_fixed_s": 1.0},
            {"name": "out", "true_fixed_s": 1.0, "output_ratio": 0.5},
            {"name": "tiny", "true_fixed_s": 1.0, "output_ratio": 1e-9},
        ],
        "workflow": workflow,
    }


# Spec id -> (submit time, function, deps, file deps), listed by batch, the
# first in descending id. Submission order is (submit time, id), so task
# indexes go to ids 0, 2, 40, 1, 3, 5.
GAPPED_IDS = {
    40: (0.0, "f", [0, 2], ["d0"]),
    2: (0.0, "f", [0], ["d1"]),
    0: (0.0, "f", [], ["d0", "d1"]),
    1: (5.0, "f", [2, 40], []),
    3: (5.0, "g", [0, 2], ["d1"]),
    5: (5.0, "f", [1], []),
}
RENUMBER = {0: 0, 2: 1, 40: 2, 1: 3, 3: 4, 5: 5}
RENUMBERED = {
    RENUMBER[sid]: (when, fn, [RENUMBER[d] for d in deps], fds)
    for sid, (when, fn, deps, fds) in GAPPED_IDS.items()
}
# (task id, deps) by task index, as both numberings register them.
TASKS_BY_INDEX = [(0, ()), (1, (0,)), (2, (0, 1)), (3, (1, 2)), (4, (0, 1)), (5, (3,))]
CSV_NAMES = ("summary.csv", "utilization.csv", "transfers.csv", "staging.csv")


def gapped_ids_doc(tasks: dict) -> dict:
    """A two-batch scenario whose workflow is `tasks`, in the order given,
    on the two endpoints of ORACLE, one of which changes capacity mid-run."""
    declared = set()
    workflow = []
    for sid, (when, fn, deps, fds) in tasks.items():
        file_deps = []
        for did in fds:
            if did in declared:
                file_deps.append(did)
            else:
                declared.add(did)
                where = ["a"] if did == "d0" else ["b"]
                file_deps.append({"data_id": did, "size_MB": 40.0, "locations": where})
        workflow.append({"id": sid, "function": fn, "deps": deps, "file_deps": file_deps,
                         "submit_time_s": when})
    endpoints = [dict(ep) for ep in ORACLE["endpoints"]]
    endpoints[1]["capacity_trace"] = [{"time_s": 7.0, "delta_workers": -1}]
    return dict(ORACLE, endpoints=endpoints, workflow=workflow,
                defaults={"reschedule_period_s": 2.0})


class TestRegisterBatch:
    """`_register_batch` builds each task in one pass; the graph it builds
    is the one the checked builders build (`reference_batch`)."""

    @settings(max_examples=150, deadline=None)
    @given(batched_workflows(), st.data())
    def test_one_pass_graph_equals_the_reference(self, doc, data):
        sc = scenario_from_dict(doc)
        sim = Simulation(sc, scheduler_kind="capacity")
        ref_dag = Dag()
        ref_data = DataManager(sim.endpoint_order, sim.transfer_profiler)
        for did, d in sc.data.items():
            ref_data.register_item(did, int(round(d.size_MB * MB)), d.locations)
        ref_spec_by_tid = {}
        batches = {}
        for t in sc.workflow:
            batches.setdefault(t.submit_time_s, []).append(t)
        for when, specs in sorted(batches.items()):
            # Earlier tasks may have run, failed for good or be under way.
            for tid in sim.dag.nodes:
                state = data.draw(st.sampled_from(TaskState))
                sim.dag.nodes[tid].state = ref_dag.nodes[tid].state = state
            sim.clock = when
            before = sim._state_counts[TaskState.PENDING.index]
            got = sim._register_batch(specs)
            want = reference_batch(ref_dag, ref_data, ref_spec_by_tid, sc.functions,
                                   specs, when)
            assert got == want
            assert sim._state_counts[TaskState.PENDING.index] == before + len(specs)
        assert sim.dag.nodes == ref_dag.nodes
        assert [n.successors for n in sim.dag.nodes.values()] == [
            n.successors for n in ref_dag.nodes.values()
        ]
        assert sim.data.items == ref_data.items
        # Only the spec ids that are not their task's id are mapped, and a
        # task whose spec id is its id holds the spec's own int.
        assert sim._spec_by_tid == {
            sid: tid for sid, tid in ref_spec_by_tid.items() if sid != tid
        }
        for t in sc.workflow:
            if t.id not in sim._spec_by_tid:
                assert sim.dag.nodes[t.id].task_id is t.id

    @pytest.mark.parametrize("scheduler", ["capacity", "locality", "dha"])
    def test_spec_ids_that_are_not_task_indexes_run_as_their_renumbered_twin(
        self, scheduler, tmp_path
    ):
        """Spec ids with gaps, a batch listed in descending id, and deps on
        ids that are other tasks' indexes (spec 1 is task 3, and task 1 is
        spec 2) give the CSVs of the same workflow numbered by index."""
        csvs = {}
        for twin, doc in (("gapped", gapped_ids_doc(GAPPED_IDS)),
                          ("renumbered", gapped_ids_doc(RENUMBERED))):
            sim = Simulation(scenario_from_dict(doc), scheduler_kind=scheduler, seed=3)
            sim.run().emit(tmp_path / twin)
            assert [(n.task_id, n.deps) for n in sim.dag.nodes.values()] == TASKS_BY_INDEX
            assert sim.dag.nodes[5].file_deps == ("out:3",)
            csvs[twin] = {name: (tmp_path / twin / name).read_bytes() for name in CSV_NAMES}
        assert csvs["gapped"] == csvs["renumbered"]
        assert csvs["gapped"]["transfers.csv"].count(b"\n") > 1

    def test_equal_input_sums_and_output_sizes_share_one_int_in_a_batch(self):
        sim = Simulation(generate_builtin_scenario("montage-like", 0.05), scheduler_kind="dha")
        sim.run()
        fits = [n for n in sim.dag.nodes.values() if n.function.name == "fit"]
        assert len(fits) > 1 and all(len(n.file_deps) == 2 for n in fits)
        items = sim.data.items
        first = fits[0]
        assert all(n.file_bytes is first.file_bytes for n in fits)
        assert all(items[n.output].size is items[first.output].size for n in fits)

    def test_a_hand_built_batch_in_descending_id_is_registered_in_ascending_id(self):
        sc = scenario_from_dict(gapped_ids_doc(GAPPED_IDS))
        sc.workflow.reverse()
        sim = Simulation(sc, scheduler_kind="dha", seed=3)
        sim.run()
        assert [(n.task_id, n.deps) for n in sim.dag.nodes.values()] == TASKS_BY_INDEX
        assert sim._spec_by_tid == {2: 1, 40: 2, 1: 3, 3: 4}

    @pytest.mark.parametrize("ids, dep", [
        ((10, 11), 0),  # index 0 is spec 10's task, and no task has spec id 0
        ((10, 11), 12),  # no spec id 12, and no index 12
        ((0, 1), 2),  # ids that are their indexes: a dep on a later id
        ((0, 1), 1),  # ... and on the task itself
    ])
    def test_a_hand_built_dep_on_no_registered_spec_id_raises(self, ids, dep):
        """The loader rejects each of these deps; a `Scenario` built by
        hand meets the builder's check, as `Dag.submit_task` raises it."""
        sc = scenario_from_dict(gapped_ids_doc({sid: (0.0, "f", [], []) for sid in ids}))
        sc.workflow[1].deps = (dep,)
        message = f"task {ids[1]}: unknown dependency handle {dep}"
        with pytest.raises(WorkflowError, match=re.escape(message)):
            Simulation(sc, scheduler_kind="dha").run()

    @pytest.mark.parametrize("size, message", [
        (INLINE_ARGS_LIMIT + 1, "exceed the 10 MB limit"),
        (-1, "must be non-negative"),
    ])
    def test_hand_built_inline_arguments_out_of_range_raise(self, size, message):
        """The loader rejects both sizes; a `Scenario` built by hand still
        meets the builder's check."""
        sc = oracle()
        sc.workflow[1].inline_args_B = size
        with pytest.raises(WorkflowError, match=message):
            Simulation(sc).run()

    def test_hand_built_duplicate_output_item_raises(self):
        sc = oracle()
        sc.data["out:0"] = DataSpec("out:0", 1.0, ("a",))
        with pytest.raises(DataError, match="duplicate data item out:0"):
            Simulation(sc).run()
