"""Task graph construction, state machine, and traversal order."""

import pytest
from hypothesis import given, strategies as st

from fedflow.dag import (
    INLINE_ARGS_LIMIT,
    Dag,
    FunctionDef,
    TaskState,
    WorkflowError,
    dfs_order,
)

FN = FunctionDef("f")


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
        assert dag.successors[0] == {1, 2}


class TestStateMachine:
    def test_happy_path(self):
        dag = Dag()
        t = dag.submit_task(FN)
        node = dag.nodes[t]
        for s in (
            TaskState.STAGING,
            TaskState.READY,
            TaskState.QUEUED,
            TaskState.RUNNING,
            TaskState.DONE,
        ):
            node.set_state(s)
        assert node.terminal

    def test_illegal_transition_raises(self):
        dag = Dag()
        node = dag.nodes[dag.submit_task(FN)]
        with pytest.raises(WorkflowError, match="illegal transition"):
            node.set_state(TaskState.RUNNING)

    def test_retry_cycle(self):
        dag = Dag()
        node = dag.nodes[dag.submit_task(FN)]
        node.set_state(TaskState.STAGING)
        node.set_state(TaskState.FAILED)
        node.set_state(TaskState.STAGING)  # retry path
        node.set_state(TaskState.READY)
        node.set_state(TaskState.STAGING)  # re-scheduling path

    def test_done_is_final(self):
        dag = Dag()
        node = dag.nodes[dag.submit_task(FN)]
        for s in (TaskState.STAGING, TaskState.READY, TaskState.QUEUED,
                  TaskState.RUNNING, TaskState.DONE):
            node.set_state(s)
        with pytest.raises(WorkflowError):
            node.set_state(TaskState.STAGING)


class TestTopologicalOrder:
    def test_parents_first(self):
        dag = build([(0, 2), (1, 2), (2, 3)], 4)
        order = dag.topological_order()
        assert order.index(0) < order.index(2) < order.index(3)

    def test_cycle_detected(self):
        dag = build([(0, 1)], 2)
        dag.nodes[0].deps.add(1)  # force a cycle behind the API's back
        dag.successors[1].add(0)
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
        # A node's first (lowest-id) parent path implies the parent of the
        # chain that discovered it appears earlier.
        for a, b in edges:
            assert pos[b] != pos[a]

    def test_deterministic(self):
        dag = build([(0, 1), (0, 2), (1, 3)], 5)
        assert dfs_order(dag) == dfs_order(dag)
