"""Dynamic task graphs built by handle passing, with a per-task state machine."""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

logger = logging.getLogger(__name__)

# Inline (serialized) arguments above this size must travel as data items.
INLINE_ARGS_LIMIT = 10 * 1024 * 1024


class WorkflowError(ValueError):
    """Raised on malformed graph construction or illegal state transitions."""


class TaskState(Enum):
    PENDING = "pending"
    STAGING = "staging"
    READY = "ready"
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


# FAILED -> STAGING is the retry path; STAGING -> FAILED covers exhausted
# transfer retries, which fail a task that never reached a worker; READY ->
# STAGING happens when re-scheduling moves a staged task to a new endpoint.
_LEGAL_TRANSITIONS = {
    TaskState.PENDING: {TaskState.STAGING},
    TaskState.STAGING: {TaskState.READY, TaskState.FAILED},
    TaskState.READY: {TaskState.QUEUED, TaskState.STAGING},
    TaskState.QUEUED: {TaskState.RUNNING},
    TaskState.RUNNING: {TaskState.DONE, TaskState.FAILED},
    TaskState.DONE: set(),
    TaskState.FAILED: {TaskState.STAGING},
}


@dataclass(frozen=True)
class CostHint:
    """Fallback cost estimate used before any profile history exists."""

    fixed_s: float = 0.0
    rate_s_per_b: float = 0.0

    def __post_init__(self):
        if self.fixed_s < 0 or self.rate_s_per_b < 0:
            raise WorkflowError("cost hint components must be non-negative")


@dataclass(frozen=True)
class FunctionDef:
    name: str
    cost_hint: Optional[CostHint] = None


@dataclass
class TaskNode:
    task_id: int
    function: FunctionDef
    deps: set = field(default_factory=set)
    file_deps: set = field(default_factory=set)
    output: Optional[str] = None
    state: TaskState = TaskState.PENDING
    assigned_endpoint: Optional[str] = None
    attempt_count: int = 0

    def set_state(self, new: TaskState):
        if new not in _LEGAL_TRANSITIONS[self.state]:
            raise WorkflowError(
                f"task {self.task_id}: illegal transition {self.state.value} -> {new.value}"
            )
        self.state = new

    @property
    def terminal(self) -> bool:
        return self.state in (TaskState.DONE, TaskState.FAILED)


class Dag:
    """A workflow DAG that can grow at any time during execution.

    Edges may only point at tasks that already exist, so the graph is acyclic
    by construction.
    """

    def __init__(self):
        self.nodes: dict[int, TaskNode] = {}
        self.successors: dict[int, set] = {}
        self._next_id = 0

    def submit_task(
        self,
        function: FunctionDef,
        dep_handles: Iterable[int] = (),
        file_deps: Iterable[str] = (),
        inline_args_size: int = 0,
    ) -> int:
        deps = set(dep_handles)
        for dep in deps:
            if dep not in self.nodes:
                raise WorkflowError(f"unknown dependency handle {dep}")
        if inline_args_size > INLINE_ARGS_LIMIT:
            raise WorkflowError(
                f"inline arguments of {inline_args_size} bytes exceed the "
                f"10 MB limit ({INLINE_ARGS_LIMIT} bytes); use a data item"
            )
        if inline_args_size < 0:
            raise WorkflowError("inline argument size must be non-negative")
        task_id = self._next_id
        self._next_id += 1
        node = TaskNode(
            task_id=task_id,
            function=function,
            deps=deps,
            file_deps=set(file_deps),
        )
        self.nodes[task_id] = node
        self.successors[task_id] = set()
        for dep in deps:
            self.successors[dep].add(task_id)
        return task_id

    def sources(self) -> list:
        return sorted(t for t, n in self.nodes.items() if not n.deps)

    def topological_order(self) -> list:
        """Kahn's algorithm with a min-heap frontier (ascending ids on ties)."""
        order = []
        indegree = {t: len(n.deps) for t, n in self.nodes.items()}
        frontier = [t for t, d in indegree.items() if d == 0]
        heapq.heapify(frontier)
        while frontier:
            t = heapq.heappop(frontier)
            order.append(t)
            for s in self.successors[t]:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(frontier, s)
        if len(order) != len(self.nodes):
            raise WorkflowError("cycle detected in task graph")
        return order


def dfs_order(dag: Dag) -> list:
    """Depth-first traversal from the source tasks.

    Children are visited in ascending task id; disconnected components are
    entered in ascending smallest-task-id order. The fixed rule keeps block
    cuts over this order deterministic.
    """
    if not dag.nodes:
        raise WorkflowError("dfs_order on empty graph")
    visited: set = set()
    order: list = []

    def visit(root: int):
        stack = [root]
        while stack:
            t = stack.pop()
            if t in visited:
                continue
            visited.add(t)
            order.append(t)
            for child in sorted(dag.successors[t], reverse=True):
                if child not in visited:
                    stack.append(child)

    for root in dag.sources():
        visit(root)
    # Defensive: tasks unreachable from sources (cannot happen while deps
    # reference existing tasks only).
    for t in sorted(dag.nodes):
        if t not in visited:
            visit(t)
    return order
