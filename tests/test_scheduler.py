"""Scheduling algorithms: proportional partitioning, priorities, selection."""

import dataclasses
import heapq
import math
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fedflow import scheduling
from fedflow.builtins import generate_builtin_scenario
from fedflow.dag import Dag, FunctionDef, TaskState
from fedflow.data_manager import DataManager
from fedflow.engine import Simulation
from fedflow.metrics import MetricsLog
from fedflow.profilers import ExecutionProfiler, TaskRecord, TransferProfiler
from fedflow.scenario import scenario_from_dict
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
)
from test_golden import CASES, _scenario
from test_live_counters import undispatched_by_endpoint

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
        pr = compute_priorities(dag, [(1.0, 2.0), (0.5, 4.0)])
        assert type(pr) is list and len(pr) == 2
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
            costs = [(rng.uniform(0, 50), rng.uniform(0, 50)) for t in range(n)]
            pr = compute_priorities(dag, costs)
            succ = [node.successors for node in dag.nodes.values()]
            for t in range(n):
                expect = brute_force_priority(succ, costs, t)
                assert math.isclose(pr[t], expect, rel_tol=1e-9, abs_tol=1e-9)


class TestLocalitySelect:
    def data(self, *items):
        dm = DataManager(["a", "b"], TransferProfiler())
        for data_id, size, where in items:
            dm.register_item(data_id, size, {where})
        return dm

    def test_prefers_fewest_bytes_moved(self):
        data = self.data(("x", 100, "a"), ("y", 10, "b"))
        choice = locality_select(["x", "y"], data, [("a", 1, 0), ("b", 1, 1)])
        assert choice == "a"

    def test_tie_prefers_more_free_workers(self):
        data = self.data(("x", 0, "a"))
        assert locality_select(["x"], data, [("a", 1, 0), ("b", 5, 1)]) == "b"

    def test_final_tie_prefers_declaration_order(self):
        assert locality_select([], self.data(), [("b", 1, 1), ("a", 1, 0)]) == "a"

    def test_no_feasible_endpoint(self):
        assert locality_select(["x"], self.data(("x", 100, "a")), []) is None


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
            ep = self.sim._by_id[choice]
            picks.append(ep.idle_workers > len(undispatched_by_endpoint(self.sim)[choice]))
        return choice

    monkeypatch.setattr(LocalityStrategy, "_select", checked_select)
    sim = Simulation(sc, scheduler_kind="locality", seed=7)
    sim.run()
    assert any(node.failed_endpoints for node in sim.dag.nodes.values()), "no retry"
    assert picks and all(picks), f"{picks.count(False)} of {len(picks)} picks overcommit"


class TestEarliestFinishTime:
    def test_staging_bound(self):
        assert earliest_finish_time(10.0, 5.0, 12.0, 3.0) == 18.0

    def test_availability_bound(self):
        assert earliest_finish_time(10.0, 1.0, 20.0, 3.0) == 23.0


def idle_terms(sim, endpoint_id: str) -> tuple:
    """The terms of an endpoint's idle estimate, read from the engine's
    counts without changing them: (idle workers less waiting work, when the
    first running task is predicted to finish but not before now, predicted
    backlog seconds, active workers)."""
    ep = sim._by_id[endpoint_id]
    clock = sim.clock
    if ep.active_workers == 0:
        return (0, clock if sim.scenario.defaults.elastic else math.inf, 0.0, 0)
    nodes = sim.dag.nodes
    running = [f for f, tid in ep.finish_heap if nodes[tid].state is TaskState.RUNNING]
    first = min(running, default=clock)
    return (
        ep.idle_workers - ep.waiting_work,
        first if first > clock else clock,
        ep.backlog_s,
        ep.active_workers,
    )


def idle_from_terms(clock: float, terms: tuple, left_out_s=None) -> float:
    """The idle rule over its terms, with one committed task whose backlog
    is `left_out_s` seconds left out: the reference that
    `Simulation.earliest_idle_estimate` is checked against, as
    `reference_pass` is for the pass."""
    spare, start, backlog_s, workers = terms
    if not workers:
        return start
    if left_out_s is not None:
        spare += 1
        backlog_s -= left_out_s
    if spare > 0:
        return clock
    return start + backlog_s / workers


# Idle terms (see `idle_from_terms`) of an endpoint with an idle worker and
# no waiting work, and of one whose single worker is predicted busy until
# t=10 with one more task waiting than it has idle workers.
IDLE_NOW = (1, 0.0, 0.0, 1)
BUSY_TO_10 = (-1, 10.0, 0.0, 1)


def dha(sim) -> DhaStrategy:
    """DHA on a fake simulation, with every task of its graph ranked 0.0:
    a real run ranks a batch's tasks when it is submitted, and the fakes
    submit no batch."""
    strategy = DhaStrategy(sim)
    strategy.priorities = [0.0] * len(sim.dag.nodes)
    return strategy


class FakeSim:
    """One READY task, assigned to `incumbent`, whose finish time on each
    endpoint is its predicted execution time there; records the endpoints
    whose idle estimates are read (`idle_reads`, and `left_out_reads` for
    the reads that leave a task out) and the endpoints staged."""

    def __init__(self, exec_s: dict, incumbent: str):
        self.clock = 0.0
        self.endpoint_order = list(exec_s)
        self.exec_s = exec_s
        self.data = DataManager(
            self.endpoint_order, TransferProfiler(), concurrency_cap=1, max_transfer_retries=0
        )
        # The strategy stages through the data manager: record it there.
        self.data.staging_estimate = self.staging_estimate
        self.dag = Dag()
        node = self.dag.nodes[self.dag.submit_task(FN)]
        node.state = TaskState.READY
        node.assigned_endpoint = incumbent
        self.metrics = MetricsLog(self.endpoint_order, self.dag.nodes, self.data.jobs)
        self.idle_reads = []
        self.left_out_reads = []
        self.staged = []
        self.moves = []

    def staging_estimate(self, file_deps, endpoint_id):
        self.staged.append(endpoint_id)
        return 0.0

    def terms(self, endpoint_id):
        return IDLE_NOW

    def earliest_idle_estimate(self, endpoint_id, left_out_s=None):
        reads = self.idle_reads if left_out_s is None else self.left_out_reads
        reads.append(endpoint_id)
        return idle_from_terms(self.clock, self.terms(endpoint_id), left_out_s)

    def exec_row(self, task_id):
        return self.exec_s

    def move_assignment(self, task_id, endpoint_id):
        self.moves.append((task_id, endpoint_id))


class TestDhaEndpointChoice:
    def test_select_tie_prefers_declaration_order(self):
        sim = FakeSim({"a": 5.0, "b": 5.0, "c": 5.0}, incumbent="b")
        assert dha(sim).select_endpoint(0) == "a"
        assert sim.idle_reads == ["a", "b", "c"]
        assert sim.staged == ["a"]

    def test_reschedule_keeps_incumbent_on_tie(self):
        """No other endpoint beats the incumbent even with free staging, so
        the pass stages nothing: the incumbent holds the task's inputs."""
        sim = FakeSim({"a": 5.0, "b": 5.0, "c": 6.0}, incumbent="b")
        assert dha(sim).reschedule_pass() == 0
        assert sim.moves == []
        assert sim.idle_reads == ["a", "b", "c"]
        assert sim.left_out_reads == ["b"]
        assert sim.staged == []

    def test_reschedule_moves_on_strict_gain(self):
        sim = FakeSim({"a": 5.0, "b": 5.0, "c": 4.0}, incumbent="b")
        assert dha(sim).reschedule_pass() == 1
        assert sim.moves == [(0, "c")]
        assert sim.staged == ["c"]


class TableSim:
    """One task whose staging, idle and execution times on each endpoint
    come from a table; records the endpoints it stages. It is its own data
    manager."""

    def __init__(self, clock: float, table: dict):
        self.clock = clock
        self.table = table  # endpoint -> (staging, idle, exec)
        self.endpoint_order = list(table)
        self.dag = Dag()
        self.dag.submit_task(FN)
        self.data = self
        self.staged = []

    def staging_estimate(self, file_deps, endpoint_id):
        self.staged.append(endpoint_id)
        return self.table[endpoint_id][0]

    def earliest_idle_estimate(self, endpoint_id, left_out_s=None):
        return self.table[endpoint_id][1]

    def exec_row(self, task_id):
        return {ep: row[2] for ep, row in self.table.items()}


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
            idle = {}
            node, row = sim.dag.nodes[0], sim.exec_row(0)
            got = dha(sim)._earliest_finishing(node, row, tuple(candidates), idle)
            efts = [earliest_finish_time(clock, *table[e]) for e in candidates]
            assert got == candidates[efts.index(min(efts))]
            expect_staged = [
                e
                for i, e in enumerate(candidates)
                if i == 0
                or max(clock, table[e][1]) + table[e][2] < min(efts[:i])
            ]
            assert sim.staged == expect_staged
            assert idle == {e: table[e][1] for e in candidates}


class PassSim(FakeSim):
    """Two READY tasks on "a", which is busy until t=10 with either task
    left out; "b" has one idle worker, so it is idle now until a task is
    moved there."""

    def __init__(self):
        super().__init__({"a": 5.0, "b": 5.0}, incumbent="a")
        node = self.dag.nodes[self.dag.submit_task(FN)]
        node.state = TaskState.READY
        node.assigned_endpoint = "a"
        self.b_idle = True

    def terms(self, endpoint_id):
        if endpoint_id == "b" and self.b_idle:
            return IDLE_NOW
        return BUSY_TO_10

    def move_assignment(self, task_id, endpoint_id):
        super().move_assignment(task_id, endpoint_id)
        self.dag.nodes[task_id].assigned_endpoint = endpoint_id
        self.b_idle = False


class TestReschedulePass:
    def test_move_refreshes_idle_estimates(self):
        """The first move fills "b", so the second task no longer gains by
        going there and keeps its incumbent on the tie. The move drops the
        estimates of its two endpoints only."""
        sim = PassSim()
        assert dha(sim).reschedule_pass() == 1
        assert sim.moves == [(0, "b")]
        assert sim.idle_reads == ["a", "b", "a", "b"]
        assert sim.left_out_reads == ["a", "a"]

    def test_idle_estimates_reused_without_a_move(self):
        sim = PassSim()
        sim.b_idle = False
        assert dha(sim).reschedule_pass() == 0
        assert sim.idle_reads == ["a", "b"]
        assert sim.left_out_reads == ["a"]

    def test_staged_set_rule_holds_in_a_pass(self):
        """Equal priorities go in task id order; no incumbent is staged, and
        the second task's bound on "b" (10 + 5) ties its incumbent's finish
        time, so "b" is not staged for it."""
        sim = PassSim()
        dha(sim).reschedule_pass()
        assert sim.staged == ["b"]


class ClassSim(FakeSim):
    """Two READY tasks that share a function and input size, and so a cost
    row (5 s everywhere), given as (incumbent, own backlog, file deps);
    `terms` gives each endpoint's idle terms, and a task's staging time on
    an endpoint is the size of its file deps held elsewhere and not on
    their way there, in seconds. Each item is (data id, size, endpoints
    holding it, endpoints another task's open job lands it on); each task's
    inputs are on its incumbent, as a committed task's are."""

    def __init__(self, terms: dict, tasks: list, items=()):
        super().__init__(dict.fromkeys(terms, 5.0), incumbent=tasks[0][0])
        self.table = terms
        for data_id, size, where, inbound in items:
            self.data.register_item(data_id, size, where)
            for dst in inbound:
                self.data.stage(99, [data_id], dst, 0.0)
        self.dag.submit_task(FN)
        for node, (incumbent, backlog_s, file_deps) in zip(self.dag.nodes.values(), tasks):
            node.state = TaskState.READY
            node.assigned_endpoint = incumbent
            node.backlog_s = backlog_s
            node.file_deps = file_deps

    def terms(self, endpoint_id):
        return self.table[endpoint_id]

    def staging_estimate(self, file_deps, endpoint_id):
        items = self.data.items
        return float(
            sum(
                items[d].size
                for d in file_deps
                if endpoint_id not in items[d].locations | items[d].inbound
            )
        )


@pytest.mark.parametrize(
    "terms, tasks, items, target",
    [
        # Task 1 waits behind "b" until 10; task 0 holds idle "a".
        ({"a": IDLE_NOW, "b": BUSY_TO_10}, [("a", 0.0, ()), ("b", 0.0, ())], (), "a"),
        # Left out of "a", task 0 leaves no backlog and task 1 leaves 10 s.
        (
            {"a": (-1, 0.0, 10.0, 1), "b": (0, 4.0, 0.0, 1)},
            [("a", 10.0, ()), ("a", 0.0, ())],
            (),
            "b",
        ),
        # Both wait on "a" until 10; task 0's input is 20 s from "b", and
        # task 1's is on "b" too.
        (
            {"a": BUSY_TO_10, "b": (0, 3.0, 0.0, 1)},
            [("a", 0.0, ("x",)), ("a", 0.0, ("y",))],
            (("x", 20, ("a",), ()), ("y", 20, ("a", "b"), ())),
            "b",
        ),
        # Both inputs are on "a", busy until 10; task 1's is already on its
        # way to idle "b", so moving there costs it no staging.
        (
            {"a": BUSY_TO_10, "b": IDLE_NOW},
            [("a", 0.0, ("x",)), ("a", 0.0, ("y",))],
            (("x", 20, ("a",), ()), ("y", 20, ("a",), ("b",))),
            "b",
        ),
    ],
    ids=["incumbent", "own-backlog", "file-deps", "inbound"],
)
def test_decision_class_tells_tasks_apart(terms, tasks, items, target):
    """Two tasks that differ only in one part of their decision class:
    task 0 keeps its incumbent, and task 1 must still be scored and moved,
    by the prefix index's walk and by the reference walk."""
    for walk in (DhaStrategy.reschedule_pass, reference_pass):
        sim = ClassSim(terms, tasks, items)
        assert walk(dha(sim)) == 1
        assert sim.moves == [(1, target)]


def test_a_bound_verdict_serves_every_class_of_its_prefix():
    """Two tasks that differ only in the size of their input, so in two
    classes of one prefix: the first retires on the staging-free bound, and
    its prefix with it, so the second is never priced. Only the first
    counts as scored."""
    sim = ClassSim(
        {"a": IDLE_NOW, "b": BUSY_TO_10},
        [("a", 0.0, ("x",)), ("a", 0.0, ("y",))],
        (("x", 20, ("a",), ()), ("y", 30, ("a",), ())),
    )
    assert dha(sim).reschedule_pass() == 0
    assert sim.left_out_reads == ["a"]
    assert sim.metrics.pass_scores == 1


def test_idle_estimates_per_pass_bounded_by_moves(monkeypatch):
    """A pass reads each endpoint's idle estimate once, and again only for
    the two endpoints of each move; the reads that score an incumbent with
    its task left out are not counted."""
    sc = generate_builtin_scenario("dynamic-drug", 0.02)
    reads = []
    passes = []  # (idle estimates read, moves) per pass
    estimate = Simulation.earliest_idle_estimate
    reschedule = DhaStrategy.reschedule_pass

    def counted_estimate(self, endpoint_id, left_out_s=None):
        if left_out_s is None:
            reads.append(endpoint_id)
        return estimate(self, endpoint_id, left_out_s)

    def counted_pass(self):
        before = len(reads)
        moves = reschedule(self)
        passes.append((len(reads) - before, moves))
        return moves

    monkeypatch.setattr(Simulation, "earliest_idle_estimate", counted_estimate)
    monkeypatch.setattr(DhaStrategy, "reschedule_pass", counted_pass)
    sim = Simulation(sc, scheduler_kind="dha", seed=7)
    sim.run()
    n_eps = len(sim.endpoints)
    assert sum(moves for _, moves in passes) > 0, "no pass moved a task"
    assert all(n <= n_eps + 2 * moves for n, moves in passes), passes


def test_reused_idle_estimates_equal_fresh_ones(monkeypatch):
    """Each idle estimate a placement or a pass reuses from its table equals
    the engine's estimate at that moment, each incumbent a pass scores is
    scored with the reference idle rule over the engine's idle terms, the
    task left out, and each cost row read equals `predicted_exec` on every
    endpoint."""
    sc = generate_builtin_scenario("dynamic-drug", 0.02)
    score = DhaStrategy._earliest_finishing
    reused = Counter()

    def checked_score(self, node, row, candidates, idle, best_ep=None, best_eft=None):
        sim = self.sim
        kind = "pass" if node.assigned_endpoint is not None else "placement"
        for ep_id in candidates:
            if ep_id in idle:
                assert idle[ep_id] == sim.earliest_idle_estimate(ep_id), (kind, ep_id)
                reused[kind] += 1
        assert row == {ep: sim.predicted_exec(node.task_id, ep) for ep in sim.endpoint_order}
        if best_ep is not None:
            assert best_ep == node.assigned_endpoint
            assert best_eft == earliest_finish_time(
                sim.clock,
                sim.staging_time_estimate(node.task_id, best_ep),
                idle_from_terms(sim.clock, idle_terms(sim, best_ep), node.backlog_s),
                row[best_ep],
            )
            reused["incumbent"] += 1
        return score(self, node, row, candidates, idle, best_ep, best_eft)

    monkeypatch.setattr(DhaStrategy, "_earliest_finishing", checked_score)
    sim = Simulation(sc, scheduler_kind="dha", seed=7)
    sim.run()
    assert all(reused[k] > 0 for k in ("placement", "pass", "incumbent")), reused


def reference_pass(self) -> int:
    """`DhaStrategy.reschedule_pass` as one walk over every undispatched
    task: the reference the prefix index is checked against. Tasks go in
    priority order, each is keyed by `_decision_class` when reached, and a
    task is skipped when a task of its class has kept its incumbent since
    the last move."""
    sim = self.sim
    nodes = sim.dag.nodes
    priorities = self.priorities
    undispatched = undispatched_by_endpoint(sim).values()
    movable = sorted((-priorities[t], t) for tids in undispatched for t in tids)
    if not movable:
        return 0
    clock = sim.clock
    moves = 0
    idle = {ep: sim.earliest_idle_estimate(ep) for ep in sim.endpoint_order}
    stays: set = set()
    for _, tid in movable:
        node = nodes[tid]
        # An earlier move may have finished this task's staging and let it
        # be dispatched.
        if node.state not in (TaskState.STAGING, TaskState.READY):
            continue
        decision = self._decision_class(node)
        if decision in stays:
            continue
        incumbent = node.assigned_endpoint
        sim.metrics.pass_scores += 1
        row = sim.exec_row(tid)
        eft = earliest_finish_time(
            clock,
            sim.data.staging_estimate(node.file_deps, incumbent),
            sim.earliest_idle_estimate(incumbent, node.backlog_s),
            row[incumbent],
        )
        best_ep = self._earliest_finishing(node, row, self._others[incumbent], idle, incumbent, eft)
        if best_ep == incumbent:
            stays.add(decision)
            continue
        sim.move_assignment(tid, best_ep)
        for ep in (incumbent, best_ep):
            idle[ep] = sim.earliest_idle_estimate(ep)
        stays.clear()
        moves += 1
    return moves


def _case_scenario(name, scale, variant):
    if variant == "sync-lag-3":
        # A freed worker is heard of 3 s late, so a move's target can
        # dispatch a task the same pass has yet to reach.
        sc = generate_builtin_scenario(name, scale)
        sc.defaults = dataclasses.replace(sc.defaults, mock_sync_lag_s=3.0)
        return sc
    if variant != "two-batch":
        return _scenario(name, scale, variant)
    # The last two stages arrive at 600 s, after both capacity changes, so
    # the index is dropped and started again in the middle of the run.
    sc = generate_builtin_scenario(name, scale)
    sc.workflow = [
        dataclasses.replace(t, submit_time_s=600.0) if t.function in ("refine", "aggregate") else t
        for t in sc.workflow
    ]
    return sc


def _run_recording_moves(monkeypatch, tmp_path, case=("dynamic-drug", 0.02, ""), walk=None):
    """Run a case under DHA, its passes made by `walk` when given; returns
    (moves in order, tasks the passes scored, bytes of each CSV). Tasks
    scored are the engine's `pass_scores`: a pass prices each with one
    left-out idle read of its incumbent. `reference_pass` scores each in
    full, passing its incumbent to `_earliest_finishing`; the index's pass
    retires some on a bound first, and leaves out the rest of a bounded
    prefix unpriced."""
    moves, full, left_out = [], [], []
    move_assignment = Simulation.move_assignment
    estimate = Simulation.earliest_idle_estimate
    score = DhaStrategy._earliest_finishing

    def recorded_move(self, task_id, endpoint_id):
        moves.append((self.clock, task_id, endpoint_id))
        return move_assignment(self, task_id, endpoint_id)

    def counted_estimate(self, endpoint_id, left_out_s=None):
        if left_out_s is not None:
            left_out.append(endpoint_id)
        return estimate(self, endpoint_id, left_out_s)

    def counted_score(self, node, row, candidates, idle, best_ep=None, best_eft=None):
        if best_ep is not None:
            full.append(node.task_id)
        return score(self, node, row, candidates, idle, best_ep, best_eft)

    monkeypatch.setattr(Simulation, "move_assignment", recorded_move)
    monkeypatch.setattr(Simulation, "earliest_idle_estimate", counted_estimate)
    monkeypatch.setattr(DhaStrategy, "_earliest_finishing", counted_score)
    if walk is not None:
        monkeypatch.setattr(DhaStrategy, "reschedule_pass", walk)
    metrics = Simulation(_case_scenario(*case), scheduler_kind="dha", seed=7).run()
    metrics.emit(tmp_path)
    monkeypatch.undo()
    assert metrics.pass_scores == len(left_out)
    if walk is reference_pass:
        assert metrics.pass_scores == len(full)
    else:
        assert metrics.pass_scores >= len(full)
    csvs = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    return moves, metrics.pass_scores, csvs


def test_decision_memo_is_exact(monkeypatch, tmp_path):
    """A pass reuses a "stays" verdict for every task of the same decision
    class until a move; with every task in a class of its own, so that
    each is scored in full, the run makes the same moves and the same
    CSVs, byte for byte. At seed 7 the memo saves 26 of dynamic-montage
    0.3's 378 scores, and none on dynamic-montage 0.1 or dynamic-drug
    0.02."""
    case = ("dynamic-montage", 0.3, "")
    memo = _run_recording_moves(monkeypatch, tmp_path / "memo", case)
    monkeypatch.setattr(DhaStrategy, "_decision_class", lambda self, node: (node.task_id,))
    full = _run_recording_moves(monkeypatch, tmp_path / "full", case)
    assert memo[0] and memo[0] == full[0]
    assert memo[2] == full[2]
    assert memo[1] < full[1], "the memo saved no score"


# Every DHA golden case, and larger runs with more passes, classes and
# moves; "two-batch" submits a second batch between passes, and under
# "lossy" committed tasks fail between passes.
REFERENCE_CASES = [(name, scale, variant) for name, scale, kind, variant in CASES if kind == "dha"]
REFERENCE_CASES += [
    ("dynamic-drug", 0.02, "lossy"),
    ("dynamic-drug", 0.1, ""),
    ("dynamic-drug", 0.1, "two-batch"),
    ("dynamic-drug", 0.1, "sync-lag-3"),
    ("dynamic-montage", 0.1, ""),
    ("elasticity", 0.1, ""),
]


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda c: "-".join(str(p) for p in c if p))
def test_class_index_walk_equals_reference_walk(case, monkeypatch, tmp_path):
    """The pass over the prefix index makes the moves and writes the CSVs
    of the reference walk, byte for byte, and prices no more tasks."""
    moves, scores, csvs = _run_recording_moves(monkeypatch, tmp_path / "index", case)
    reference = _run_recording_moves(monkeypatch, tmp_path / "reference", case, reference_pass)
    assert (moves, csvs) == (reference[0], reference[2])
    assert scores <= reference[1]
    if case[0].startswith("dynamic"):
        assert moves, "no move to compare"


def test_a_pass_meets_tasks_its_moves_dispatched(monkeypatch):
    """The "sync-lag-3" reference case reaches the pass-over path: a pass
    pops from its index a task that one of its moves has let the target
    dispatch, and passes it over. The golden "sync-lag" case does not."""
    sim = Simulation(_case_scenario("dynamic-drug", 0.1, "sync-lag-3"), scheduler_kind="dha", seed=7)
    nodes = sim.dag.nodes
    passed_over = []

    def recorded_pop(heap):
        entry = heapq.heappop(heap)
        # A pass's entries have four fields, a delay queue's two.
        if len(entry) == 4 and nodes[entry[1]].state not in (TaskState.STAGING, TaskState.READY):
            passed_over.append(entry[1])
        return entry

    monkeypatch.setattr(
        scheduling,
        "heapq",
        SimpleNamespace(heapify=heapq.heapify, heappush=heapq.heappush, heappop=recorded_pop),
    )
    sim.run()
    assert passed_over


# Two endpoints with one worker each. Task 0 (12 s) starts on "a" and task 1
# (10 s) on "b"; task 2 (5 s) waits, so each endpoint is busy until its
# running task's predicted finish.
PING_PONG = {
    "name": "ping-pong",
    "endpoints": [
        {"endpoint_id": ep, "workers_per_node": 1, "max_nodes": 1, "initial_nodes": 1}
        for ep in ("a", "b")
    ],
    "network": {"default": {"bandwidth_MBps": 100.0, "latency_s": 0.5}},
    "functions": [
        {"name": "long", "true_fixed_s": 12.0},
        {"name": "mid", "true_fixed_s": 10.0},
        {"name": "short", "true_fixed_s": 5.0},
    ],
    "workflow": [
        {"id": 0, "function": "long"},
        {"id": 1, "function": "mid"},
        {"id": 2, "function": "short"},
    ],
    "defaults": {"scheduler": "dha"},
}


def test_second_pass_at_one_clock_moves_nothing():
    """Task 2 waits on "b" (finish 10 + 5) rather than "a" (12 + 5). Counted
    against its own incumbent it would look like 10 + 5 + 5 there, move to
    "a", and at once look 12 + 5 + 5 there and move back; left out of its
    incumbent's estimate, it stays in both passes."""
    sim = Simulation(scenario_from_dict(PING_PONG), seed=7)
    _, _, _, (submit, *args) = heapq.heappop(sim._events)
    submit(*args)
    node = sim.dag.nodes[2]
    assert [sim.dag.nodes[t].assigned_endpoint for t in range(3)] == ["a", "b", "b"]
    assert node.state is TaskState.READY
    assert sim.earliest_idle_estimate("b") == 15.0
    assert sim.earliest_idle_estimate("b", node.backlog_s) == 10.0
    dha = sim.strategy
    assert [dha.reschedule_pass(), dha.reschedule_pass()] == [0, 0]
    assert sim.metrics.move_count == 0 and node.assigned_endpoint == "b"


class IdleCheckedSimulation(Simulation):
    """After each event's callback, checks every endpoint's idle estimate,
    whole and with each committed task left out, against the reference rule
    over freshly read terms; counts the checks by the branch the terms
    take ("freed" when leaving one task out is what frees a worker)."""

    def __init__(self, *args, **kwargs):
        self.branches = Counter()
        super().__init__(*args, **kwargs)

    def schedule(self, when, kind, payload):
        super().schedule(when, kind, (self._run_then_check, *payload))

    def _run_then_check(self, callback, *args):
        callback(*args)
        clock = self.clock
        nodes = self.dag.nodes
        undispatched = undispatched_by_endpoint(self)
        for ep in self.endpoints:
            ep_id = ep.endpoint_id
            terms = idle_terms(self, ep_id)
            spare, _, _, workers = terms
            self.branches["no workers" if not workers else "idle" if spare > 0 else "busy"] += 1
            assert self.earliest_idle_estimate(ep_id) == idle_from_terms(clock, terms), ep_id
            for tid in undispatched[ep_id]:
                left_out_s = nodes[tid].backlog_s
                expected = idle_from_terms(clock, terms, left_out_s)
                assert self.earliest_idle_estimate(ep_id, left_out_s) == expected, (ep_id, tid)
                self.branches["freed" if workers and spare == 0 else "left out"] += 1


@pytest.mark.parametrize(
    "name,scale,variant,branches",
    [
        ("dynamic-drug", 0.02, "", ("idle", "busy", "left out")),
        ("dynamic-drug", 0.02, "sync-lag", ("idle", "busy", "freed")),
        ("elasticity", 0.05, "", ("idle", "no workers", "left out")),
    ],
)
def test_idle_estimate_equals_the_terms_rule_after_every_event(name, scale, variant, branches):
    """The one-frame idle estimate equals the rule over its terms, whole
    and with each committed task left out, after every event; the elastic
    run takes the zero-worker branch, and the sync-lag run has endpoints
    where leaving one task out frees a worker."""
    sim = IdleCheckedSimulation(_scenario(name, scale, variant), "dha", seed=7)
    sim.run()
    assert all(sim.branches[b] for b in branches), sim.branches


def topological_priorities(dag, costs):
    """Upward ranks walked over `dag.topological_order()`: the reference for
    the reverse-submission-order walk of `compute_priorities`."""
    priority = {}
    for t in reversed(dag.topological_order()):
        d_bar, w_bar = costs[t]
        succ_max = max((priority[s] for s in dag.nodes[t].successors), default=0.0)
        priority[t] = d_bar + w_bar + succ_max
    return priority


costs_st = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 1e6, allow_nan=False))


class TestPriorityWalk:
    @settings(max_examples=100)
    @given(st.data())
    def test_reverse_submission_order_matches_topological_order(self, data):
        """Bit for bit, over the whole graph and over its tasks not DONE; a
        task is DONE only once all of its deps are."""
        n = data.draw(st.integers(1, 25))
        dag = Dag()
        done = set()
        for t in range(n):
            deps = data.draw(st.sets(st.integers(0, t - 1), max_size=4)) if t else set()
            dag.submit_task(FN, deps)
            if deps <= done and data.draw(st.booleans()):
                done.add(t)
        costs = [(data.draw(costs_st), data.draw(costs_st)) for t in range(n)]
        reference = topological_priorities(dag, costs)
        assert compute_priorities(dag, costs) == [reference[t] for t in range(n)]
        live = [None if t in done else c for t, c in enumerate(costs)]
        assert all(live[s] is not None
                   for t in range(n) if live[t] is not None for s in dag.nodes[t].successors)
        assert compute_priorities(dag, live) == [
            0.0 if t in done else reference[t] for t in range(n)
        ]


@pytest.mark.parametrize(
    "name,scale", [("montage-like", 0.05), ("dynamic-drug", 0.02), ("elasticity", 0.05)]
)
def test_average_costs_once_per_cost_class(name, scale, monkeypatch):
    """A recompute averages each (function, input size, file bytes) class of
    the tasks not DONE once, and gives each of them the priority that one
    `average_costs` call per task over the topological order gives."""
    sc = generate_builtin_scenario(name, scale)
    average_costs = scheduling.average_costs
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return average_costs(*args, **kwargs)

    recompute = DhaStrategy._recompute_priorities
    checked = []

    def checked_recompute(self):
        sim = self.sim
        live = [n for n in sim.dag.nodes.values() if n.state is not TaskState.DONE]
        classes = {(n.function.name, n.input_bytes, n.file_bytes) for n in live}
        before = len(calls)
        recompute(self)
        assert len(calls) - before == len(classes)
        costs = {
            tid: average_costs(
                n.function,
                n.input_bytes,
                n.file_bytes,
                sim.exec_profiler,
                sim.transfer_profiler,
            )
            for tid, n in sim.dag.nodes.items()
        }
        reference = topological_priorities(sim.dag, costs)
        assert self.priorities == [
            0.0 if n.state is TaskState.DONE else reference[tid]
            for tid, n in sim.dag.nodes.items()
        ]
        checked.append(len(sim.dag.nodes) - len(live))

    monkeypatch.setattr(scheduling, "average_costs", counted)
    monkeypatch.setattr(DhaStrategy, "_recompute_priorities", checked_recompute)
    Simulation(sc, scheduler_kind="dha", seed=7).run()
    assert checked, "no recompute"
    if name == "elasticity":
        assert checked[-1] > 0, "no task was DONE at a later batch"


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
        p = ExecutionProfiler()
        for function, success in (("f", True), ("f", False), ("g", False)):
            p.record(TaskRecord(function, "a", 1, 1.0, 0, success, 0.0))
        assert p.success_rates("f") == {"a": 0.5}
