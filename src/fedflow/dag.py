"""Dynamic task graphs built by handle passing, with a per-task state machine."""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional

if TYPE_CHECKING:
    from .data_manager import DataItem

logger = logging.getLogger(__name__)

# Inline (serialized) arguments above this size must travel as data items.
INLINE_ARGS_LIMIT = 10 * 1024 * 1024


class WorkflowError(ValueError):
    """Raised on malformed graph construction or illegal state transitions."""


def check_inline_args(size: int):
    """Raise `WorkflowError` unless `size` bytes may travel inline."""
    if size > INLINE_ARGS_LIMIT:
        raise WorkflowError(f"inline arguments of {size} bytes exceed the 10 MB limit "
                            f"({INLINE_ARGS_LIMIT} bytes); use a data item")
    if size < 0:
        raise WorkflowError("inline argument size must be non-negative")


class TaskState(Enum):
    """A task's states, with what a state change reads: `index`, the
    position in the per-state counts; `stamp`, the TaskNode time that
    entering sets; `terminal`; and `successors`, the legal next states.
    FAILED -> STAGING is the retry path, STAGING -> FAILED exhausted transfer
    retries (the only way a task fails), READY -> STAGING a re-scheduling
    move, and PENDING -> UNRUNNABLE a dependency that failed for good."""

    PENDING = "pending", None, False, ("STAGING", "UNRUNNABLE")
    STAGING = "staging", None, False, ("READY", "FAILED")
    READY = "ready", "staging_end", False, ("QUEUED", "STAGING")
    QUEUED = "queued", "dispatch_time", False, ("RUNNING",)
    RUNNING = "running", "start_time", False, ("DONE",)
    DONE = "done", "end_time", True, ()
    FAILED = "failed", None, True, ("STAGING",)
    UNRUNNABLE = "unrunnable", None, True, ()

    def __new__(cls, value, stamp, terminal, successors):
        state = object.__new__(cls)
        state._value_ = value
        state.index = len(cls.__members__)
        state.stamp = stamp
        state.terminal = terminal
        state.successors = successors  # names until the class exists
        return state


# Tuples, not sets: a membership test compares by identity, with no hashing.
for _state in TaskState:
    _state.successors = tuple(TaskState[name] for name in _state.successors)

# MOVES[old.index][new.index]: None for an illegal move; for a legal one,
# what the move does beyond the state itself: (the TaskNode time that
# entering `new` stamps, or None; whether the move changes the STAGING
# count). Indexes, not Enum attribute reads: Simulation._enter reads it on
# every state change of a run.
MOVES = tuple(
    tuple(
        (new.stamp, TaskState.STAGING in (old, new)) if new in old.successors else None
        for new in TaskState
    )
    for old in TaskState
)


@dataclass(frozen=True)
class FunctionDef:
    """The one record of a declared function.

    Its true cost drives both the sampled execution time and the execution
    profiler's last fallback. The cost hint is the profiler's estimate
    before it has a fit: both of its fields are set, or neither is.
    """

    name: str
    true_fixed_s: float
    true_rate_s_per_MB: float = 0.0
    output_ratio: float = 0.0
    noise: float = 0.0
    cost_hint_fixed_s: Optional[float] = None
    cost_hint_rate_s_per_B: Optional[float] = None

    def true_seconds(self, input_bytes: int) -> float:
        """True execution seconds at reference speed, before noise."""
        return self.true_fixed_s + self.true_rate_s_per_MB * input_bytes / 1e6


@dataclass(slots=True)
class TaskNode:
    """The one record of a task: its place in the graph, its run-time state
    and the times it entered each state. The fields through `successors`
    are set at submit, in the order `Simulation._register_batch` passes
    them; the simulation owns every field from `state` on."""

    task_id: int
    function: FunctionDef
    deps: tuple = ()  # task ids, ascending and unique
    # The input DataItems: declared items and the outputs of deps, unique
    # and sorted by data id.
    file_deps: tuple = ()
    # The task's output DataItem, or None when it writes none. The node is
    # the item's only holder: its data id, `out:<task id>`, is built only
    # where it is written, hashed or sorted.
    output: Optional[DataItem] = None
    file_bytes: int = 0  # sum of the sizes of file_deps
    input_bytes: int = 0  # file_bytes plus the inline arguments
    deps_left: int = 0  # deps not yet DONE
    submit_time: float = 0.0
    # Ids of the tasks that depend on this one, ascending. A batch that
    # submits some replaces the tuple, never changes it, so nodes may share
    # one: the deps of a task that had no successor share its 1-tuple.
    successors: tuple = ()
    state: TaskState = TaskState.PENDING
    assigned_endpoint: Optional[str] = None
    announced: bool = False  # handed to the scheduler as ready
    # Endpoints the task failed on, one per failed attempt.
    failed_endpoints: frozenset = frozenset()
    # Predicted seconds this task adds to its assigned endpoint's backlog
    # until it starts running; kept only for a strategy that reads idle
    # estimates.
    backlog_s: float = 0.0
    staging_end: Optional[float] = None
    dispatch_time: Optional[float] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    @property
    def terminal(self) -> bool:
        return self.state.terminal


class TaskList(list):
    """The run's TaskNodes, indexed by task id: ids are dense, so a list
    slot (8 B) holds what a dict entry held in about 55. `items()` and
    `values()` read it as the `{task id: node}` dict it replaces."""

    __slots__ = ()

    def items(self):
        """(task id, node) pairs, in id order."""
        return enumerate(self)

    def values(self):
        """The nodes, in id order: the list itself."""
        return self


class Dag:
    """A workflow DAG that can grow at any time during execution.

    Edges may only point at tasks that already exist, so the graph is acyclic
    by construction. `nodes` is a `TaskList`: the node of each task at its
    id, its index in submission order. Each node holds both directions of
    its edges, its `deps` and its `successors`.
    """

    def __init__(self):
        self.nodes: TaskList = TaskList()

    def submit_task(
        self,
        function: FunctionDef,
        dep_handles: Iterable[int] = (),
        file_deps: Iterable[DataItem] = (),
        inline_args_size: int = 0,
    ) -> int:
        """Add a task and return its id. The checked builder of one task;
        `Simulation._register_batch` builds a batch to the same rules.
        `file_deps` are DataItems, sorted here by data id. Each dep's
        successors grow by one new tuple."""
        task_id = len(self.nodes)
        deps = set(dep_handles)
        for dep in deps:
            if not 0 <= dep < task_id:
                raise WorkflowError(f"task {task_id}: unknown dependency handle {dep}")
        check_inline_args(inline_args_size)
        named = {item.data_id: item for item in file_deps}
        node = TaskNode(
            task_id=task_id,
            function=function,
            deps=tuple(sorted(deps)),
            file_deps=tuple(map(named.__getitem__, sorted(named))),
        )
        self.nodes.append(node)
        for dep in deps:
            self.nodes[dep].successors += (task_id,)
        return task_id

    def topological_order(self) -> list:
        """Kahn's algorithm with a min-heap frontier (ascending ids on ties)."""
        order = []
        indegree = [len(n.deps) for n in self.nodes]
        frontier = [t for t, d in enumerate(indegree) if d == 0]
        heapq.heapify(frontier)
        while frontier:
            t = heapq.heappop(frontier)
            order.append(t)
            for s in self.nodes[t].successors:
                indegree[s] -= 1
                if indegree[s] == 0:
                    heapq.heappush(frontier, s)
        if len(order) != len(self.nodes):
            raise WorkflowError("cycle detected in task graph")
        return order


def dfs_order(dag: Dag) -> list:
    """Depth-first traversal from the source tasks.

    Sources are entered, and children visited, in ascending task id. The
    fixed rule keeps block cuts over this order deterministic. Every
    dependency chain ends at a source, so the walk reaches every task.
    """
    if not dag.nodes:
        raise WorkflowError("dfs_order on empty graph")
    nodes = dag.nodes
    visited: set = set()
    order: list = []
    for root in [t for t, node in nodes.items() if not node.deps]:
        stack = [root]
        while stack:
            t = stack.pop()
            if t in visited:
                continue
            visited.add(t)
            order.append(t)
            for child in reversed(nodes[t].successors):
                if child not in visited:
                    stack.append(child)
    return order
