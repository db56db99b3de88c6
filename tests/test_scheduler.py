"""Scheduling algorithms: proportional partitioning, priorities, selection."""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fedflow.builtins import generate_builtin_scenario
from fedflow.dag import Dag, FunctionDef, TaskState
from fedflow.data_manager import DataItem
from fedflow.engine import Simulation
from fedflow.scheduling import (
    DhaStrategy,
    LocalityStrategy,
    SchedulerError,
    capacity_blocks,
    capacity_partition,
    compute_priorities,
    earliest_finish_time,
    locality_select,
    reassignment_endpoint,
    success_rates_for,
)

FN = FunctionDef("f", true_fixed_s=1.0)


class TestCapacityPartition:
    def test_reference_example(self):
        assert capacity_partition(8, [5, 2, 1]) == [5, 2, 1]

    def test_sums_are_exact(self):
        assert sum(capacity_partition(7, [3, 3, 1])) == 7

    def test_zero_tasks(self):
        assert capacity_partition(0, [5, 2]) == [0, 0]

    def test_all_zero_capacity_rejected(self):
        with pytest.raises(SchedulerError):
            capacity_partition(5, [0, 0])

    def test_negative_rejected(self):
        with pytest.raises(SchedulerError):
            capacity_partition(-1, [1])
        with pytest.raises(SchedulerError):
            capacity_partition(1, [-1])

    @settings(max_examples=1000, deadline=None)
    @given(
        st.integers(0, 10**4),
        st.lists(st.integers(0, 500), min_size=1, max_size=16).filter(
            lambda c: sum(c) > 0
        ),
    )
    def test_partition_is_exact_and_near_quota(self, m, capacities):
        counts = capacity_partition(m, capacities)
        assert sum(counts) == m
        total = sum(capacities)
        for count, cap in zip(counts, capacities):
            assert abs(count - m * cap / total) < 1.0

    def test_deterministic_tie_break(self):
        assert capacity_partition(1, [1, 1]) == capacity_partition(1, [1, 1])
        assert capacity_partition(1, [1, 2]) == [0, 1]


class TestCapacityBlocks:
    def test_blocks_cut_dfs_order(self):
        dag = Dag()
        a = dag.submit_task(FN)
        b = dag.submit_task(FN, [a])
        c = dag.submit_task(FN, [a])
        d = dag.submit_task(FN)
        blocks = capacity_blocks(dag, [a, b, c, d], [2, 1, 1])
        assert blocks == [[a, b], [c], [d]]
        assert sum(len(x) for x in blocks) == 4


def brute_force_priority(succ, costs, t):
    d, w = costs[t]
    children = succ[t]
    if not children:
        return d + w
    return d + w + max(brute_force_priority(succ, costs, s) for s in children)


class TestPriorities:
    def test_chain(self):
        dag = Dag()
        a = dag.submit_task(FN)
        b = dag.submit_task(FN, [a])
        pr = compute_priorities(dag, {a: (1.0, 2.0), b: (0.5, 4.0)})
        assert math.isclose(pr[b], 4.5)
        assert math.isclose(pr[a], 3.0 + 4.5)

    def test_matches_brute_force_on_random_dags(self):
        rng = random.Random(20240817)
        for _ in range(500):
            n = rng.randint(1, 20)
            dag = Dag()
            for t in range(n):
                deps = [d for d in range(t) if rng.random() < 0.25]
                dag.submit_task(FN, deps)
            costs = {
                t: (rng.uniform(0, 50), rng.uniform(0, 50)) for t in range(n)
            }
            pr = compute_priorities(dag, costs)
            for t in range(n):
                expect = brute_force_priority(dag.successors, costs, t)
                assert math.isclose(pr[t], expect, rel_tol=1e-9, abs_tol=1e-9)


class TestLocalitySelect:
    def items(self):
        return {
            "x": DataItem("x", 100, {"a"}),
            "y": DataItem("y", 10, {"b"}),
        }

    def test_prefers_fewest_bytes_moved(self):
        choice = locality_select(
            ["x", "y"], self.items(), [("a", 1, 0), ("b", 1, 1)]
        )
        assert choice == "a"

    def test_tie_prefers_more_free_workers(self):
        items = {"x": DataItem("x", 0, {"a"})}
        assert locality_select(["x"], items, [("a", 1, 0), ("b", 5, 1)]) == "b"

    def test_final_tie_prefers_declaration_order(self):
        assert locality_select([], {}, [("b", 1, 1), ("a", 1, 0)]) == "a"

    def test_no_feasible_endpoint(self):
        assert locality_select(["x"], self.items(), []) is None


@pytest.mark.parametrize("name,scale", [("montage-like", 0.02), ("dynamic-montage", 0.05)])
def test_locality_picks_only_uncommitted_idle_workers(name, scale, monkeypatch):
    """Every endpoint locality picks, for a first placement or a retry, has
    an idle worker that no assigned, undispatched task has taken. Failed
    transfers make tasks retry, and a retry commits work like any other
    assignment."""
    sc = generate_builtin_scenario(name, scale)
    sc.defaults = dataclasses.replace(
        sc.defaults, transfer_failure_rate=0.3, max_transfer_retries=1
    )
    select = LocalityStrategy._select
    picks = []

    def checked_select(self, task_id):
        choice = select(self, task_id)
        if choice is not None:
            committed = len(self.sim.assigned_undispatched[choice])
            picks.append(self.sim.endpoint_by_id(choice).idle_workers > committed)
        return choice

    monkeypatch.setattr(LocalityStrategy, "_select", checked_select)
    sim = Simulation(sc, scheduler_kind="locality", seed=7)
    sim.run()
    assert any(node.attempt_count for node in sim.dag.nodes.values()), "no retry"
    assert picks and all(picks), f"{picks.count(False)} of {len(picks)} picks overcommit"


class TestEarliestFinishTime:
    def test_staging_bound(self):
        assert earliest_finish_time(10.0, 5.0, 12.0, 3.0) == 18.0

    def test_availability_bound(self):
        assert earliest_finish_time(10.0, 1.0, 20.0, 3.0) == 23.0


class FakeSim:
    """One READY task, assigned to `incumbent`, whose finish time on each
    endpoint is its predicted execution time there."""

    def __init__(self, exec_s: dict, incumbent: str):
        self.clock = 0.0
        self.endpoint_order = list(exec_s)
        self.exec_s = exec_s
        self.dag = Dag()
        node = self.dag.nodes[self.dag.submit_task(FN)]
        node.state = TaskState.READY
        node.assigned_endpoint = incumbent
        self.evaluated = []
        self.moves = []

    def staging_time_estimate(self, task_id, endpoint_id):
        return 0.0

    def earliest_idle_estimate(self, endpoint_id):
        return self.clock

    def predicted_exec(self, task_id, endpoint_id):
        self.evaluated.append(endpoint_id)
        return self.exec_s[endpoint_id]

    def undispatched_tasks(self):
        return [0]

    def move_assignment(self, task_id, endpoint_id):
        self.moves.append((task_id, endpoint_id))


class TestDhaEndpointChoice:
    def test_select_tie_prefers_declaration_order(self):
        sim = FakeSim({"a": 5.0, "b": 5.0, "c": 5.0}, incumbent="b")
        assert DhaStrategy(sim).select_endpoint(0) == "a"
        assert sim.evaluated == ["a", "b", "c"]

    def test_reschedule_keeps_incumbent_on_tie(self):
        sim = FakeSim({"a": 5.0, "b": 5.0, "c": 6.0}, incumbent="b")
        assert DhaStrategy(sim).reschedule_pass() == 0
        assert sim.moves == []
        assert sim.evaluated == ["b", "a", "c"]

    def test_reschedule_moves_on_strict_gain(self):
        sim = FakeSim({"a": 5.0, "b": 5.0, "c": 4.0}, incumbent="b")
        assert DhaStrategy(sim).reschedule_pass() == 1
        assert sim.moves == [(0, "c")]


class TableSim:
    """One task whose staging, idle and execution times on each endpoint
    come from a table; records the endpoints it stages."""

    def __init__(self, clock: float, table: dict):
        self.clock = clock
        self.table = table  # endpoint -> (staging, idle, exec)
        self.staged = []

    def staging_time_estimate(self, task_id, endpoint_id):
        self.staged.append(endpoint_id)
        return self.table[endpoint_id][0]

    def earliest_idle_estimate(self, endpoint_id):
        return self.table[endpoint_id][1]

    def predicted_exec(self, task_id, endpoint_id):
        return self.table[endpoint_id][2]


# Few distinct values, so that ties are common.
times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 100.0, allow_nan=False)
)
candidate_tables = st.lists(
    st.tuples(times, st.one_of(times, st.just(math.inf)), times), min_size=1, max_size=6
)


class TestEarliestFinishingBound:
    @settings(max_examples=500, deadline=None)
    @given(times, candidate_tables, st.data())
    def test_matches_full_scoring(self, clock, rows, data):
        """The choice is the first candidate of minimal finish time, as a full
        score of every candidate gives; a candidate is staged exactly when
        its finish time without staging beats every earlier one."""
        declared = [f"e{i}" for i in range(len(rows))]
        incumbent = data.draw(st.sampled_from(declared))
        incumbent_first = [incumbent] + [e for e in declared if e != incumbent]
        table = dict(zip(declared, rows))
        for candidates in (declared, incumbent_first):
            sim = TableSim(clock, table)
            got = DhaStrategy(sim)._earliest_finishing(0, candidates)
            efts = [earliest_finish_time(clock, *table[e]) for e in candidates]
            assert got == candidates[efts.index(min(efts))]
            expect_staged = [
                e
                for i, e in enumerate(candidates)
                if i == 0
                or max(clock, table[e][1]) + table[e][2] < min(efts[:i])
            ]
            assert sim.staged == expect_staged


class PassSim(FakeSim):
    """Two READY tasks on "a", which is busy until t=10; "b" has one idle
    worker, so it is idle now until a task is moved there."""

    def __init__(self):
        super().__init__({"a": 5.0, "b": 5.0}, incumbent="a")
        node = self.dag.nodes[self.dag.submit_task(FN)]
        node.state = TaskState.READY
        node.assigned_endpoint = "a"
        self.b_idle = True
        self.idle_reads = []

    def earliest_idle_estimate(self, endpoint_id):
        self.idle_reads.append(endpoint_id)
        if endpoint_id == "b" and self.b_idle:
            return self.clock
        return 10.0

    def undispatched_tasks(self):
        return [0, 1]

    def move_assignment(self, task_id, endpoint_id):
        super().move_assignment(task_id, endpoint_id)
        self.dag.nodes[task_id].assigned_endpoint = endpoint_id
        self.b_idle = False


class TestReschedulePass:
    def test_move_refreshes_idle_estimates(self):
        """The first move fills "b", so the second task no longer gains by
        going there and keeps its incumbent on the tie."""
        sim = PassSim()
        assert DhaStrategy(sim).reschedule_pass() == 1
        assert sim.moves == [(0, "b")]
        assert sim.idle_reads == ["a", "b", "a", "b"]

    def test_idle_estimates_reused_without_a_move(self):
        sim = PassSim()
        sim.b_idle = False
        assert DhaStrategy(sim).reschedule_pass() == 0
        assert sim.idle_reads == ["a", "b"]


def test_idle_estimates_per_pass_bounded_by_moves(monkeypatch):
    """A pass reads each endpoint's idle estimate at most once before its
    first move and once after each move."""
    sc = generate_builtin_scenario("dynamic-drug", 0.02)
    reads = []
    passes = []  # (idle estimates read, moves) per pass
    idle = Simulation.earliest_idle_estimate
    reschedule = DhaStrategy.reschedule_pass

    def counted_idle(self, endpoint_id):
        reads.append(endpoint_id)
        return idle(self, endpoint_id)

    def counted_pass(self):
        before = len(reads)
        moves = reschedule(self)
        passes.append((len(reads) - before, moves))
        return moves

    monkeypatch.setattr(Simulation, "earliest_idle_estimate", counted_idle)
    monkeypatch.setattr(DhaStrategy, "reschedule_pass", counted_pass)
    sim = Simulation(sc, scheduler_kind="dha", seed=7)
    sim.run()
    n_eps = len(sim.endpoints)
    assert sum(moves for _, moves in passes) > 0, "no pass moved a task"
    assert all(n <= n_eps * (moves + 1) for n, moves in passes), passes


class TestReassignment:
    def test_first_retry_uses_normal_choice(self):
        got = reassignment_endpoint(1, {"a"}, {}, ["a", "b", "c"], lambda: "c")
        assert got == "c"

    def test_normal_choice_on_failed_endpoint_overridden(self):
        got = reassignment_endpoint(
            1, {"a"}, {"b": 0.9, "c": 0.1}, ["a", "b", "c"], lambda: "a"
        )
        assert got == "b"

    def test_first_retry_without_own_pick_uses_success_rate(self):
        # Capacity has no own pick for a retry.
        got = reassignment_endpoint(
            1, {"a"}, {"b": 0.2, "c": 0.8}, ["a", "b", "c"], lambda: None
        )
        assert got == "c"

    def test_later_retries_use_success_rate(self):
        got = reassignment_endpoint(
            2, {"a"}, {"b": 0.2, "c": 0.8}, ["a", "b", "c"], lambda: "b"
        )
        assert got == "c"

    def test_rate_tie_prefers_declaration_order(self):
        got = reassignment_endpoint(2, {"a"}, {}, ["a", "b", "c"], lambda: None)
        assert got == "b"

    def test_exhausted_everywhere(self):
        assert (
            reassignment_endpoint(3, {"a", "b"}, {}, ["a", "b"], lambda: None)
            is None
        )

    def test_success_rates(self):
        recs = [
            type("R", (), {"function": "f", "endpoint": "a", "success": True})(),
            type("R", (), {"function": "f", "endpoint": "a", "success": False})(),
            type("R", (), {"function": "g", "endpoint": "a", "success": False})(),
        ]
        assert success_rates_for("f", recs) == {"a": 0.5}
