"""Endpoint models: worker pools, queues, capacity traces, and elasticity."""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass

logger = logging.getLogger(__name__)


class EndpointError(RuntimeError):
    """Raised on operations against an inconsistent endpoint state."""


@dataclass(frozen=True)
class EndpointSpec:
    endpoint_id: str
    workers_per_node: int
    max_nodes: int
    initial_nodes: int = 0
    idle_timeout_s: float = 30.0
    perf_factor: float = 1.0

    def __post_init__(self):
        if self.workers_per_node <= 0 or self.max_nodes <= 0:
            raise ValueError(f"{self.endpoint_id}: node sizes must be positive")
        if not 0 <= self.initial_nodes <= self.max_nodes:
            raise ValueError(f"{self.endpoint_id}: initial_nodes out of range")
        if self.idle_timeout_s <= 0:
            raise ValueError(f"{self.endpoint_id}: idle_timeout must be positive")
        if self.perf_factor <= 0:
            raise ValueError(f"{self.endpoint_id}: perf_factor must be positive")

    @property
    def max_workers(self) -> int:
        return self.workers_per_node * self.max_nodes


@dataclass(frozen=True)
class CapacityEvent:
    time_s: float
    delta_workers: int


class EndpointModel:
    """Worker pool and task queue of one endpoint.

    This object doubles as the client-side proxy of the endpoint: in
    simulation the proxy and the genuine endpoint coincide, so the scheduler
    reads queue and worker counts directly (an optional sync lag is injected
    by the engine, not here). `waiting_work`, `backlog_s` and `finish_heap`
    are the client's own facts about the endpoint; the engine keeps them,
    and fills `backlog_s` and `finish_heap` only for DHA, whose idle
    estimate reads them. `dispatch` leaves `waiting_work` as it is: the
    engine takes a task's claim when it assigns the task and gives it back
    when the task starts, moves, fails or can never run.
    """

    __slots__ = (
        "spec", "endpoint_id", "active_workers", "busy_workers", "queued",
        "last_busy_time", "pending_reduction", "waiting_work", "backlog_s", "finish_heap",
    )

    def __init__(self, spec: EndpointSpec):
        self.spec = spec
        self.endpoint_id = spec.endpoint_id
        self.active_workers = spec.initial_nodes * spec.workers_per_node
        self.busy_workers = 0
        self.queued: deque = deque()
        self.last_busy_time = 0.0
        # Capacity reduction that could not be applied while workers are busy;
        # drains one worker at a time as tasks complete.
        self.pending_reduction = 0
        # Tasks assigned here that have not started: a retry included, and
        # the queued ones.
        self.waiting_work = 0
        # Predicted seconds of the work here that is not running yet, kept
        # as a running sum so the idle estimate stays O(1) per query.
        self.backlog_s = 0.0
        # Heap of (predicted finish, task_id) of tasks started here, under
        # DHA only; the idle estimate pops the entries of finished tasks.
        self.finish_heap: list = []

    @property
    def idle_workers(self) -> int:
        return self.active_workers - self.busy_workers

    def dispatch(self, task_id: int) -> str:
        """Hand a task to the endpoint: run it if a worker is idle, else queue."""
        if self.busy_workers > self.active_workers:
            raise EndpointError(f"{self.endpoint_id}: busy exceeds active")
        if self.active_workers > self.busy_workers:
            self.busy_workers += 1
            return "accepted"
        self.queued.append(task_id)
        return "queued"

    def start_queued(self) -> list:
        """Start queued tasks, FIFO, while a worker is idle; returns their
        ids. The only rule that starts a queued task, so no task waits in
        the queue beside an idle worker."""
        started = []
        while self.queued and self.busy_workers < self.active_workers:
            self.busy_workers += 1
            started.append(self.queued.popleft())
        return started

    def complete(self, clock: float) -> list:
        """Release the worker of a finished task; returns the queued tasks
        started. Deferred capacity reductions absorb freed workers before
        the queue does."""
        if self.busy_workers <= 0:
            raise EndpointError(f"{self.endpoint_id}: no running task to complete")
        self.busy_workers -= 1
        self.last_busy_time = clock
        if self.pending_reduction > 0:
            self.pending_reduction -= 1
            self.active_workers -= 1
        return self.start_queued()

    def apply_capacity_event(self, event: CapacityEvent) -> list:
        """Adjust the worker count, clamped to [busy_workers, max_workers];
        returns the queued tasks that added workers started."""
        target = self.active_workers + event.delta_workers
        clamped = min(max(target, self.busy_workers), self.spec.max_workers)
        if clamped != target:
            logger.info(
                "%s: capacity delta %+d clamped (busy=%d, max=%d)",
                self.endpoint_id,
                event.delta_workers,
                self.busy_workers,
                self.spec.max_workers,
            )
        if target < clamped:
            # The reduction below the busy floor drains as workers free up.
            self.pending_reduction += clamped - target
        self.active_workers = clamped
        return self.start_queued()


def scale_decision(clock: float, endpoints: list, total_pending: int) -> list:
    """Default multi-endpoint elasticity policy.

    Scale out aggressively: when more tasks are pending than there are
    workers overall, every endpoint grows toward its waiting work, in whole
    nodes. Scale in conservatively: an endpoint that has been fully idle (no
    running or waiting work) for at least its idle timeout releases all of
    its nodes.

    Returns (endpoint, worker_delta) pairs; deltas are not yet applied.
    """
    decisions = []
    total_active = sum(ep.active_workers for ep in endpoints)
    scale_out = total_pending > total_active
    for ep in endpoints:
        share = ep.waiting_work
        if scale_out and share > ep.active_workers:
            wpn = ep.spec.workers_per_node
            target = min(math.ceil(share / wpn), ep.spec.max_nodes) * wpn
            if target > ep.active_workers:
                decisions.append((ep, target - ep.active_workers))
                continue
        if (
            ep.active_workers > 0
            and ep.busy_workers == 0
            and share == 0
            and clock - ep.last_busy_time >= ep.spec.idle_timeout_s
        ):
            decisions.append((ep, -ep.active_workers))
    return decisions
