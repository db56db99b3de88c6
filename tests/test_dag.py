"""Task graph construction, state machine, and traversal order."""

from itertools import pairwise

import pytest
from hypothesis import given, settings, strategies as st

from fedflow.dag import (
    INLINE_ARGS_LIMIT,
    MOVES,
    Dag,
    FunctionDef,
    TaskNode,
    TaskState,
    WorkflowError,
    dfs_order,
)
from fedflow.engine import Simulation
from fedflow.scenario import scenario_from_dict

FN = FunctionDef("f", true_fixed_s=1.0)

S = TaskState
# Every legal (from, to) move; every other pair of states is illegal.
LEGAL = {
    (S.PENDING, S.STAGING),
    (S.PENDING, S.UNRUNNABLE),
    (S.STAGING, S.READY),
    (S.STAGING, S.FAILED),
    (S.READY, S.QUEUED),
    (S.READY, S.STAGING),
    (S.QUEUED, S.RUNNING),
    (S.RUNNING, S.DONE),
    (S.FAILED, S.STAGING),
}


def build(edges, n):
    dag = Dag()
    parents = {}
    for t in range(n):
        parents.setdefault(t, [])
    for a, b in edges:
        parents.setdefault(b, []).append(a)
    for t in range(n):
        dag.submit_task(FN, parents.get(t, []))
    return dag


class TestSubmit:
    def test_handles_are_sequential(self):
        dag = Dag()
        assert [dag.submit_task(FN) for _ in range(3)] == [0, 1, 2]

    def test_unknown_dependency_rejected(self):
        dag = Dag()
        with pytest.raises(WorkflowError, match="unknown dependency"):
            dag.submit_task(FN, [5])

    def test_inline_args_over_limit_rejected(self):
        dag = Dag()
        with pytest.raises(WorkflowError, match="10 MB"):
            dag.submit_task(FN, inline_args_size=INLINE_ARGS_LIMIT + 1)
        dag.submit_task(FN, inline_args_size=INLINE_ARGS_LIMIT)

    def test_negative_inline_args_rejected(self):
        with pytest.raises(WorkflowError):
            Dag().submit_task(FN, inline_args_size=-1)

    def test_successors_tracked(self):
        dag = build([(0, 1), (0, 2)], 3)
        assert dag.nodes[0].successors == (1, 2)
        assert dag.nodes[1].successors == dag.nodes[2].successors == ()

    @pytest.mark.parametrize("dep", [-1, 2, 3])
    def test_a_dep_on_no_registered_task_id_names_the_task(self, dep):
        """A negative handle, or one no task has yet (the task's own id
        included), raises before anything is added: a list index would
        wrap on -1 and wire an edge from the last task."""
        dag = build([(0, 1)], 2)
        with pytest.raises(WorkflowError, match=f"^task 2: unknown dependency handle {dep}$"):
            dag.submit_task(FN, [0, dep])
        assert len(dag.nodes) == 2
        assert [node.successors for node in dag.nodes] == [(1,), ()]


ONE_ENDPOINT = {
    "name": "moves",
    "endpoints": [{"endpoint_id": "a", "workers_per_node": 1, "max_nodes": 1, "initial_nodes": 1}],
    "functions": [{"name": "f", "true_fixed_s": 1.0}],
    "workflow": [{"id": 0, "function": "f"}],
}


def move_rule():
    """`Simulation._enter`, the one rule that moves a task between states,
    bound to a one-endpoint simulation; it moves any node handed to it."""
    return Simulation(scenario_from_dict(ONE_ENDPOINT))._enter


class TestStateMachine:
    def test_happy_path(self):
        move = move_rule()
        node = TaskNode(0, FN)
        for s in (
            TaskState.STAGING,
            TaskState.READY,
            TaskState.QUEUED,
            TaskState.RUNNING,
            TaskState.DONE,
        ):
            move(node, s)
        assert node.terminal

    def test_illegal_transition_raises(self):
        node = TaskNode(0, FN)
        with pytest.raises(WorkflowError, match="task 0: illegal transition pending -> running"):
            move_rule()(node, TaskState.RUNNING)

    def test_retry_cycle(self):
        move = move_rule()
        node = TaskNode(0, FN)
        move(node, TaskState.STAGING)
        move(node, TaskState.FAILED)
        move(node, TaskState.STAGING)  # retry path
        move(node, TaskState.READY)
        move(node, TaskState.STAGING)  # re-scheduling path

    def test_done_is_final(self):
        move = move_rule()
        node = TaskNode(0, FN)
        for s in (TaskState.STAGING, TaskState.READY, TaskState.QUEUED,
                  TaskState.RUNNING, TaskState.DONE):
            move(node, s)
        with pytest.raises(WorkflowError):
            move(node, TaskState.STAGING)

    def test_every_pair_of_states(self):
        """A legal move changes the state; an illegal one raises and changes
        nothing: not the state, the per-state counts or the staging series."""
        sim = Simulation(scenario_from_dict(ONE_ENDPOINT))
        for old in TaskState:
            for new in TaskState:
                node = TaskNode(0, FN, state=old)
                assert (MOVES[old.index][new.index] is not None) == ((old, new) in LEGAL)
                if (old, new) in LEGAL:
                    sim._enter(node, new)
                    assert node.state is new
                else:
                    counts = list(sim._state_counts)
                    series = list(sim.metrics.staging_series)
                    with pytest.raises(WorkflowError, match="illegal transition"):
                        sim._enter(node, new)
                    assert node.state is old
                    assert sim._state_counts == counts
                    assert sim.metrics.staging_series == series

    def test_unrunnable_is_final(self):
        move = move_rule()
        node = TaskNode(0, FN)
        move(node, TaskState.UNRUNNABLE)
        assert node.terminal
        for s in TaskState:
            with pytest.raises(WorkflowError):
                move(node, s)

    def test_state_facts(self):
        assert [s.index for s in TaskState] == list(range(len(TaskState)))
        terminal = {s for s in TaskState if s.terminal}
        assert terminal == {S.DONE, S.FAILED, S.UNRUNNABLE}
        stamps = {s: s.stamp for s in TaskState if s.stamp}
        assert stamps == {
            S.READY: "staging_end",
            S.QUEUED: "dispatch_time",
            S.RUNNING: "start_time",
            S.DONE: "end_time",
        }
        assert all(hasattr(TaskNode(0, FN), stamp) for stamp in stamps.values())


class TestTopologicalOrder:
    def test_parents_first(self):
        dag = build([(0, 2), (1, 2), (2, 3)], 4)
        order = dag.topological_order()
        assert order.index(0) < order.index(2) < order.index(3)

    def test_cycle_detected(self):
        dag = build([(0, 1)], 2)
        dag.nodes[0].deps = (1,)  # force a cycle behind the API's back
        dag.nodes[1].successors += (0,)
        with pytest.raises(WorkflowError, match="cycle"):
            dag.topological_order()


class TestDfsOrder:
    def test_illustrative_layout(self):
        # 0 -> {1, 2}, 1 -> 3, 2 -> 4; 5 -> 6; 7 isolated.
        dag = build([(0, 1), (0, 2), (1, 3), (2, 4), (5, 6)], 8)
        assert dfs_order(dag) == [0, 1, 3, 2, 4, 5, 6, 7]

    def test_empty_graph_rejected(self):
        with pytest.raises(WorkflowError):
            dfs_order(Dag())

    @settings(deadline=None)
    @given(st.integers(0, 400), st.data())
    def test_is_permutation_respecting_edges(self, n, data):
        n = max(n, 1)
        edges = []
        for b in range(1, n):
            for a in data.draw(
                st.lists(st.integers(0, b - 1), max_size=2, unique=True)
            ):
                edges.append((a, b))
        dag = build(edges, n)
        order = dfs_order(dag)
        assert sorted(order) == list(range(n))
        pos = {t: i for i, t in enumerate(order)}
        # The walk reaches a task through one of its parents, so that parent
        # comes first; sources are entered in ascending id.
        parents = {}
        for a, b in edges:
            parents.setdefault(b, []).append(a)
        for b, ps in parents.items():
            assert min(pos[a] for a in ps) < pos[b]
        sources = [t for t in order if t not in parents]
        assert sources == sorted(sources)

    def test_deterministic(self):
        dag = build([(0, 1), (0, 2), (1, 3)], 5)
        assert dfs_order(dag) == dfs_order(dag)


def parent_dfs_order(dag):
    """`dfs_order` as it was over successor sets: the sources and each
    task's children sorted at every visit. The reference the walk over
    ascending successor lists must match."""
    visited, order = set(), []
    for root in sorted(t for t, n in dag.nodes.items() if not n.deps):
        stack = [root]
        while stack:
            t = stack.pop()
            if t in visited:
                continue
            visited.add(t)
            order.append(t)
            for child in sorted(set(dag.nodes[t].successors), reverse=True):
                if child not in visited:
                    stack.append(child)
    return order


class TestGraphShape:
    """The graph is kept as ascending id sequences: each task's deps a
    sorted tuple without duplicates, each successors tuple strictly
    ascending and the exact inverse of the deps, so no walk needs to sort."""

    @given(st.data())
    def test_submitted_graph_is_sorted_and_inverse(self, data):
        n = data.draw(st.integers(1, 60))
        dag = Dag()
        handles = [[]]
        dag.submit_task(FN)
        for b in range(1, n):
            # Duplicate and unordered handles, passed as any iterable.
            drawn = data.draw(st.lists(st.integers(0, b - 1), max_size=5))
            handles.append(drawn)
            assert dag.submit_task(FN, iter(drawn)) == b
        edges = set()
        for t, node in dag.nodes.items():
            assert type(node.deps) is tuple
            assert node.deps == tuple(sorted(set(handles[t])))
            edges.update((d, t) for d in node.deps)
        successors = [node.successors for node in dag.nodes.values()]
        inverse = [(t, s) for t, succ in enumerate(successors) for s in succ]
        assert all(type(succ) is tuple for succ in successors)
        assert all(a < b for succ in successors for a, b in pairwise(succ))
        assert len(inverse) == len(edges) and set(inverse) == edges
        assert dfs_order(dag) == parent_dfs_order(dag)
        # Every edge points from a lower id to a higher one, so Kahn's walk
        # with ascending ties is the submission order.
        assert dag.topological_order() == list(range(n))
