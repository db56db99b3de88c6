"""Task-to-endpoint mapping: Capacity, Locality, and DHA algorithms.

Capacity partitions the DFS order of the graph into blocks proportional to
endpoint worker counts, offline. Locality picks, in real time, the endpoint
with idle capacity that minimizes bytes moved. DHA ranks tasks by a
recursive upward cost, picks endpoints by earliest finish time, delays
dispatch until the target has an idle worker, and re-schedules undispatched
tasks when capacity changes.
"""

from __future__ import annotations

import bisect
import heapq
import logging
from collections import deque
from typing import Optional

from .dag import Dag, TaskState, dfs_order
from .profilers import average_costs

logger = logging.getLogger(__name__)

# Module globals: an attribute of an Enum class is slow to read.
_STAGING, _READY, _DONE = TaskState.STAGING, TaskState.READY, TaskState.DONE


class SchedulerError(RuntimeError):
    pass


def capacity_partition(task_count: int, capacities: list) -> list:
    """Split `task_count` into per-endpoint quotas proportional to capacity.

    Largest-remainder rounding so the quotas sum exactly; remainder ties go
    to the larger capacity, then the lower index.
    """
    if task_count < 0:
        raise SchedulerError("task count must be non-negative")
    if any(c < 0 for c in capacities):
        raise SchedulerError("capacities must be non-negative")
    total = sum(capacities)
    if total <= 0:
        raise SchedulerError("no capacity: sum of worker counts is zero")
    quotas = [task_count * c / total for c in capacities]
    counts = [int(q) for q in quotas]
    leftover = task_count - sum(counts)
    order = sorted(
        range(len(capacities)),
        key=lambda i: (-(quotas[i] - counts[i]), -capacities[i], i),
    )
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def capacity_blocks(dag: Dag, task_ids: list, capacities: list) -> list:
    """Cut the DFS order (restricted to `task_ids`) into capacity blocks.

    Returns a list (one entry per endpoint) of task-id lists, consecutive in
    DFS order so tasks on a path tend to share an endpoint.
    """
    selected = set(task_ids)
    order = [t for t in dfs_order(dag) if t in selected]
    counts = capacity_partition(len(order), capacities)
    blocks, start = [], 0
    for c in counts:
        blocks.append(order[start : start + c])
        start += c
    return blocks


def compute_priorities(dag: Dag, costs: list) -> list:
    """Recursive upward cost of each task, as a list indexed by task id:
    own staging + execution means, `costs[t]`, plus the largest successor
    priority; 0.0 for a task whose cost is None. Every successor of a task
    with a cost has one. Tasks are visited in reverse submission order,
    which is reverse topological, since a task's deps exist when it is
    submitted."""
    priority = [0.0] * len(costs)
    nodes = dag.nodes
    for t in reversed(range(len(costs))):
        cost = costs[t]
        if cost is not None:
            succ_max = max(map(priority.__getitem__, nodes[t].successors), default=0.0)
            priority[t] = cost[0] + cost[1] + succ_max
    return priority


def locality_select(file_deps, data, feasible: list) -> Optional[str]:
    """Pick the feasible endpoint minimizing the dependency bytes the data
    manager `data` would move there.

    `feasible` is a list of (endpoint_id, free_slots, declaration_index) for
    endpoints with at least one assignable idle worker. Ties prefer more
    free slots, then lower declaration index.
    """
    best = None
    for ep_id, free, index in feasible:
        key = (data.bytes_to_move(file_deps, ep_id), -free, index)
        if best is None or key < best[0]:
            best = (key, ep_id)
    return best[1] if best else None


def earliest_finish_time(
    clock: float, staging_time: float, earliest_idle: float, exec_time: float
) -> float:
    return max(clock + staging_time, earliest_idle) + exec_time


def reassignment_endpoint(
    attempt_count: int,
    failed_endpoints: set,
    success_rates: dict,
    endpoint_order: list,
    normal_choice,
) -> Optional[str]:
    """Endpoint for a failed task's next attempt, or None when out of options.

    The first retry goes to `normal_choice()`, the scheduler's own pick,
    when the task has not failed there; capacity has no pick (None). Every
    other retry goes to the untried endpoint with the best historical
    success rate. A task that has failed everywhere is terminal.
    """
    candidates = [ep for ep in endpoint_order if ep not in failed_endpoints]
    if not candidates:
        return None
    if attempt_count <= 1:
        choice = normal_choice()
        if choice in candidates:
            return choice
    return max(candidates, key=lambda ep: (success_rates.get(ep, 0.0), -endpoint_order.index(ep)))


# ---------------------------------------------------------------------------
# Strategies driven by the simulation engine. The engine calls the hooks;
# the strategy calls back into the engine to assign, stage, and dispatch.
# ---------------------------------------------------------------------------


class BaseStrategy:
    name = "base"
    # Whether the strategy reads `earliest_idle_estimate`. Only if so does the
    # engine keep its inputs: each endpoint's `finish_heap` and `backlog_s`.
    reads_idle_estimate = False

    def __init__(self, sim):
        self.sim = sim

    def on_batch_submitted(self, task_ids: list):
        pass

    def on_deps_done(self, task_ids: list):
        """Take the tasks that just became ready, in ascending id."""
        raise NotImplementedError

    def on_staging_complete(self, task_id: int):
        """Dispatch a staged task at once."""
        self.sim.dispatch_task(task_id)

    def on_worker_free(self, endpoint_id: str):
        pass

    def on_capacity_change(self, endpoint_id: str):
        pass

    def on_reschedule_tick(self):
        pass

    def retry_choice(self, task_id: int) -> Optional[str]:
        """The scheduler's own pick for a failed task's first retry; None
        when it has none."""
        return None


class CapacityStrategy(BaseStrategy):
    """Offline proportional partitioning over the DFS order."""

    name = "capacity"

    def on_batch_submitted(self, task_ids: list):
        sim = self.sim
        capacities = [ep.active_workers for ep in sim.endpoints]
        if sum(capacities) == 0:
            # Nothing provisioned yet (elastic start): partition by maximums.
            capacities = [ep.spec.max_workers for ep in sim.endpoints]
        blocks = capacity_blocks(sim.dag, task_ids, capacities)
        for ep, block in zip(sim.endpoints, blocks):
            for tid in block:
                sim.assign(tid, ep.endpoint_id)

    def on_deps_done(self, task_ids: list):
        # Staging starts the moment dependencies finish; the assignment was
        # fixed offline.
        for tid in task_ids:
            self.sim.begin_staging(tid)


class LocalityStrategy(BaseStrategy):
    """Real-time minimum-transfer placement, gated on idle workers.

    An endpoint is feasible while it has more idle workers than waiting
    work: tasks committed to it (a retry included) or queued there.
    """

    name = "locality"

    def __init__(self, sim):
        super().__init__(sim)
        self.waiting: deque = deque()  # FIFO of ready, unassigned task ids

    def _feasible(self):
        out = []
        for index, ep in enumerate(self.sim.endpoints):
            free = ep.idle_workers - ep.waiting_work
            if free > 0:
                out.append((ep.endpoint_id, free, index))
        return out

    def _select(self, task_id: int) -> Optional[str]:
        node = self.sim.dag.nodes[task_id]
        return locality_select(node.file_deps, self.sim.data, self._feasible())

    def _pump(self):
        sim = self.sim
        while self.waiting:
            choice = self._select(self.waiting[0])
            if choice is None:
                return
            tid = self.waiting.popleft()
            sim.assign(tid, choice)
            sim.begin_staging(tid)

    def on_deps_done(self, task_ids: list):
        self.waiting.extend(task_ids)
        self._pump()

    def on_worker_free(self, endpoint_id: str):
        self._pump()

    def on_capacity_change(self, endpoint_id: str):
        self._pump()

    def retry_choice(self, task_id: int) -> Optional[str]:
        return self._select(task_id)


class _PrefixClass:
    """The committed tasks of one decision prefix (`DhaStrategy._prefix`),
    as (-priority, task id) in the order a pass takes them."""

    __slots__ = ("key", "members")

    def __init__(self, key: tuple):
        self.key = key
        self.members: list = []


class DhaStrategy(BaseStrategy):
    """Priority-ordered earliest-finish-time selection with delayed dispatch."""

    name = "dha"
    reads_idle_estimate = True

    def __init__(self, sim):
        super().__init__(sim)
        # Upward rank by task id (`compute_priorities`), 0.0 for a task
        # DONE when the ranks were last computed.
        self.priorities: list = []
        order = sim.endpoint_order
        self.delay_queues = {ep: [] for ep in order}  # endpoint_id -> heap of (-priority, tid)
        # Per incumbent, every other endpoint: candidates to steal a task.
        self._others = {ep: tuple(e for e in order if e != ep) for ep in order}
        # The committed tasks by decision prefix, brought up to date at the
        # start of each pass from the changes the engine records (`_flush`),
        # each filed under its prefix. Started at the first pass, so a run
        # without one never starts it.
        self._classes: Optional[dict] = None  # prefix -> _PrefixClass
        self._class_of: dict = {}  # committed task id -> its _PrefixClass

    # -- priorities --------------------------------------------------------

    def _recompute_priorities(self):
        """Upward ranks of the tasks not DONE; every successor of such a
        task is not DONE either. Tasks that share a function, input size and
        file bytes share their cost means, so each such class is averaged
        once: the profilers do not change during the call."""
        sim = self.sim
        by_class: dict = {}
        nodes = sim.dag.nodes
        costs = [None] * len(nodes)
        for tid, node in nodes.items():
            if node.state is _DONE:
                continue
            key = (node.function.name, node.input_bytes, node.file_bytes)
            cost = by_class.get(key)
            if cost is None:
                cost = by_class[key] = average_costs(
                    node.function,
                    node.input_bytes,
                    node.file_bytes,
                    sim.exec_profiler,
                    sim.transfer_profiler,
                )
            costs[tid] = cost
        self.priorities = compute_priorities(sim.dag, costs)

    def on_batch_submitted(self, task_ids: list):
        self._recompute_priorities()
        # Forget the index and stop watching: member order reads the
        # priorities, so the next pass starts it again.
        self._classes = None
        self._class_of = {}
        self.sim.changed_tasks = None

    # -- endpoint selection ------------------------------------------------

    def _earliest_finishing(
        self, node, row: dict, candidates, idle: dict, best_ep=None, best_eft=None
    ) -> str:
        """The candidate endpoint with the earliest finish time for the task,
        whose cost row is `row`; ties go to the candidate listed first, and
        to `best_ep`, already scored at `best_eft`, before any candidate.

        `idle` maps endpoints to idle estimates already read, and is filled
        with each candidate's; the caller drops the entries whose inputs
        change. A candidate is staged only when its finish time without
        staging beats the best so far: staging is non-negative and float
        `+` and `max` are monotone, so that bound is never above the full
        finish time, and only a strict gain wins.
        """
        sim = self.sim
        clock = sim.clock
        file_deps = node.file_deps
        staging_estimate = sim.data.staging_estimate
        for ep_id in candidates:
            ready = idle.get(ep_id)
            if ready is None:
                ready = idle[ep_id] = sim.earliest_idle_estimate(ep_id)
            exec_s = row[ep_id]
            if best_ep is not None and (ready if ready > clock else clock) + exec_s >= best_eft:
                continue
            # `earliest_finish_time` inline (`max` keeps its first argument on a tie)
            staged = clock + staging_estimate(file_deps, ep_id)
            eft = (staged if staged >= ready else ready) + exec_s
            if best_ep is None or eft < best_eft:
                best_ep, best_eft = ep_id, eft
        return best_ep

    def select_endpoint(self, task_id: int, idle: Optional[dict] = None) -> str:
        """`idle` as in `_earliest_finishing`; a fresh table when None."""
        sim = self.sim
        node = sim.dag.nodes[task_id]
        idle = {} if idle is None else idle
        return self._earliest_finishing(node, sim.exec_row(task_id), sim.endpoint_order, idle)

    def on_deps_done(self, task_ids: list):
        sim = self.sim
        priorities = self.priorities
        # One table for the whole call: the clock is fixed, and a placement
        # changes the committed work, backlog and workers of its target only
        # (a first placement has no incumbent).
        idle: dict = {}
        for _, tid in sorted([(-priorities[t], t) for t in task_ids]):
            target = self.select_endpoint(tid, idle)
            sim.assign(tid, target)
            sim.begin_staging(tid)
            idle.pop(target, None)

    # -- delayed dispatch --------------------------------------------------

    def on_staging_complete(self, task_id: int):
        ep = self.sim.dag.nodes[task_id].assigned_endpoint
        heapq.heappush(self.delay_queues[ep], (-self.priorities[task_id], task_id))
        self.delay_dispatch(ep)

    def delay_dispatch(self, endpoint_id: str):
        """Dispatch staged tasks, highest priority first, while workers idle."""
        sim = self.sim
        ep = sim._by_id[endpoint_id]
        queue = self.delay_queues[endpoint_id]
        nodes = sim.dag.nodes
        while queue and ep.active_workers > ep.busy_workers:
            _, tid = heapq.heappop(queue)
            node = nodes[tid]
            # Lazy deletion: skip entries invalidated by re-scheduling.
            if node.state is not _READY or node.assigned_endpoint != endpoint_id:
                continue
            sim.dispatch_task(tid)

    def on_worker_free(self, endpoint_id: str):
        self.delay_dispatch(endpoint_id)

    # -- re-scheduling -----------------------------------------------------

    def on_capacity_change(self, endpoint_id: str):
        for ep in self.sim.endpoints:
            self.delay_dispatch(ep.endpoint_id)
        # Seconds between re-scheduling passes; 0 disables them.
        period = self.sim.scenario.defaults.reschedule_period_s
        if period > 0:
            self.reschedule_pass()
            self.sim.arm_reschedule(period)

    def on_reschedule_tick(self):
        """The tick stays armed while undispatched work waits and some other
        event is queued: with none queued, no pass can find new capacity,
        and the run ends or deadlocks instead of spinning."""
        sim = self.sim
        self.reschedule_pass()
        for ep in sim.endpoints:
            self.delay_dispatch(ep.endpoint_id)
        if sim._work_queued() and any(ep.committed for ep in sim.endpoints):
            sim.arm_reschedule(sim.scenario.defaults.reschedule_period_s)

    def _prefix(self, node) -> tuple:
        """What a pass's staging-free bound reads of an undispatched task:
        its cost row (function and input bytes), incumbent and own backlog.
        Only `Simulation._commit` changes these fields of a committed task."""
        return (node.function.name, node.input_bytes, node.assigned_endpoint, node.backlog_s)

    def _decision_class(self, node) -> tuple:
        """What a pass's decision for an undispatched task reads besides the
        idle estimates and the link queues: its prefix, and the size,
        locations and open destinations (`inbound`) of each file dependency,
        in order. An item's locations and inbound are frozensets that a
        change replaces, so they serve as a key as they stand."""
        items = self.sim.data.items
        key = self._prefix(node)
        for data_id in node.file_deps:
            item = items[data_id]
            key += (item.size, item.locations, item.inbound)
        return key

    # -- the index of committed tasks by decision prefix ---------------------

    def _flush(self):
        """Take in the tasks committed, un-assigned or dispatched since the
        last flush: each is unfiled, and filed again under its prefix while
        it stays committed."""
        sim = self.sim
        tids = sim.changed_tasks
        classes = self._classes
        class_of = self._class_of
        nodes = sim.dag.nodes
        priorities = self.priorities
        for tid in tids:
            cls = class_of.pop(tid, None)
            entry = (-priorities[tid], tid)
            if cls is not None:
                members = cls.members
                del members[bisect.bisect_left(members, entry)]
                if not members:
                    del classes[cls.key]
            # DHA commits a task as it starts staging.
            node = nodes[tid]
            state = node.state
            if state is _STAGING or state is _READY:
                key = self._prefix(node)
                cls = classes.get(key)
                if cls is None:
                    cls = classes[key] = _PrefixClass(key)
                bisect.insort(cls.members, entry)
                class_of[tid] = cls
        tids.clear()

    def reschedule_pass(self) -> int:
        """Re-run endpoint selection for undispatched tasks; steal when the
        earliest finish time strictly improves even after paying for the
        extra transfers of already-staged inputs. The incumbent is scored
        with the task left out of its waiting work and backlog, so the task
        does not count against the endpoint it already holds.

        Tasks are taken in priority order, and a task is scored unless a
        task of its decision class has kept its incumbent since the last
        move: while the tables stand, it would too. The pass walks one heap
        entry per prefix, the prefix's next member. A member is first
        bounded with free staging, exact for its incumbent: when no other
        endpoint beats the incumbent so, the verdict reads only the prefix,
        the clock and the idle table, and the prefix leaves the heap until
        the next move. After a move, the prefixes that left since the last
        one, and the moved task's own, come back at their first member
        after the moved task; every other prefix is there already.

        The index takes in the engine's changes once, at the start, and
        stands still until the pass ends: a member that a move's target has
        dispatched since is passed over.
        """
        sim = self.sim
        if self._classes is None:
            self._classes = {}
            sim.changed_tasks = set(sim.undispatched_tasks())
        self._flush()
        if not self._classes:
            return 0
        nodes = sim.dag.nodes
        clock = sim.clock
        moves = scores = 0
        # One table of idle estimates for the whole pass: the clock is
        # fixed, and a move changes the committed work and backlog of its
        # two endpoints only. The staging it finishes and the dispatches
        # that follow land on the target too: its admitted jobs all go
        # there, and an orphaned job finishes no task.
        idle = {ep: sim.earliest_idle_estimate(ep) for ep in sim.endpoint_order}
        # (-priority, task id, position, members): each prefix at its next member.
        heap = [(*cls.members[0], 0, cls.members) for cls in self._classes.values()]
        heapq.heapify(heap)
        stays: set = set()  # decision classes that kept their incumbent since the last move
        left: list = []  # member lists of the prefixes that left the heap since the last move
        while heap:
            neg_priority, tid, position, members = heapq.heappop(heap)
            node = nodes[tid]
            if node.state is not _STAGING and node.state is not _READY:
                pass  # a move's target dispatched it: passed over
            elif (key := self._decision_class(node)) not in stays:
                scores += 1
                incumbent = node.assigned_endpoint
                row = sim.exec_row(tid)
                # Each input of a committed task is on its incumbent, is empty
                # or has an open job there, so it stages there in 0 s.
                ready = sim.earliest_idle_estimate(incumbent, node.backlog_s)
                eft = (ready if ready > clock else clock) + row[incumbent]
                others = self._others[incumbent]
                for ep in others:
                    ready = idle[ep]
                    if (ready if ready > clock else clock) + row[ep] < eft:
                        break
                else:
                    # A verdict on the prefix, the clock and `idle` alone:
                    # the prefix leaves the heap until the next move.
                    left.append(members)
                    continue
                best_ep = self._earliest_finishing(node, row, others, idle, incumbent, eft)
                if best_ep != incumbent:
                    sim.move_assignment(tid, best_ep)
                    for ep in (incumbent, best_ep):
                        idle[ep] = sim.earliest_idle_estimate(ep)
                    moves += 1
                    # The move may change any decision after it.
                    stays.clear()
                    left.append(members)
                    for back in left:
                        j = bisect.bisect_right(back, (neg_priority, tid))
                        if j < len(back):
                            heapq.heappush(heap, (*back[j], j, back))
                    left.clear()
                    continue
                stays.add(key)
            position += 1
            if position < len(members):
                heapq.heappush(heap, (*members[position], position, members))
        sim.metrics.pass_scores += scores
        if moves:
            logger.debug("re-scheduling moved %d tasks", moves)
        return moves

    def retry_choice(self, task_id: int) -> Optional[str]:
        return self.select_endpoint(task_id)


STRATEGIES = {
    "capacity": CapacityStrategy,
    "locality": LocalityStrategy,
    "dha": DhaStrategy,
}
