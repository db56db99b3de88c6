"""Deterministic discrete-event core: clock, event queue, link table,
duration sampling, and orchestration of scheduler, endpoints, and data
manager."""

from __future__ import annotations

import functools
import gc
import heapq
import logging
import math
import operator
import time as _time
# The C type `hashlib.blake2b` returns. Importing `hashlib` itself also loads
# OpenSSL, about 2-4 MB more RSS in every process that imports fedflow.
from _blake2 import blake2b
from enum import IntEnum
from typing import Optional

from .dag import (
    INLINE_ARGS_LIMIT, MOVES, Dag, TaskNode, TaskState, WorkflowError, check_inline_args,
)
from .data_manager import DataError, DataItem, DataManager, TransferJob
from .endpoints import CapacityEvent, EndpointModel, scale_decision
from .metrics import MetricsLog
from .profilers import (
    PROBE_SIZE_BYTES,
    ExecutionProfiler,
    TaskRecord,
    TransferProfiler,
)
from .scenario import MB, OUTPUT_PREFIX, Scenario
from .scheduling import STRATEGIES, reassignment_endpoint

logger = logging.getLogger(__name__)


class DeadlockError(RuntimeError):
    """The event queue drained while tasks were still live."""


class EventKind(IntEnum):
    # Numeric order is the tie-break for events at the same timestamp; the
    # kind also names the event for counting. What an event does is its
    # payload, `(callback, *args)`.
    SUBMIT_BATCH = 0
    TRANSFER_COMPLETE = 1
    TASK_COMPLETE = 2
    RESULT_OBSERVED = 3
    CAPACITY_CHANGE = 4
    RESCHEDULE_TICK = 5
    SCALE_TICK = 6
    REFRESH_TICK = 7  # never queued: `_loop` refits at refresh boundaries


# An attribute of an Enum class takes about ten times as long to read as a
# module global on CPython 3.11, so the engine reads the states from here.
_PENDING, _STAGING, _READY, _QUEUED, _RUNNING, _DONE, _FAILED, _UNRUNNABLE = TaskState
_TRANSFER_COMPLETE = EventKind.TRANSFER_COMPLETE
_TASK_COMPLETE = EventKind.TASK_COMPLETE

# The strategy hooks `Simulation(timings=True)` times: first placement, and
# re-scheduling, whose time `resched_seconds` also keeps apart.
_PLACE_HOOKS = ("on_batch_submitted", "on_deps_done", "on_staging_complete", "on_worker_free")
_RESCHED_HOOKS = ("on_capacity_change", "on_reschedule_tick")


def next_poll(t: float, interval: float) -> float:
    """The first poll tick at or after t (t itself when interval is 0)."""
    if interval <= 0:
        return t
    return math.ceil(t / interval - 1e-9) * interval


class Simulation:
    """One deterministic run of a scenario under one scheduling algorithm.

    With `timings`, the strategy hooks are timed into the metrics'
    `sched_seconds` and `resched_seconds`; without, both stay 0.0 and the
    hooks are plain calls. With `history`, the execution profiler keeps
    every task record in its `history`, for `ExecutionProfiler.save`;
    without, it only folds them into its fits."""

    def __init__(
        self,
        scenario: Scenario,
        scheduler_kind: Optional[str] = None,
        seed: Optional[int] = None,
        timings: bool = False,
        history: bool = False,
    ):
        self.scenario = scenario
        d = scenario.defaults
        self.scheduler_kind = scheduler_kind or d.scheduler
        self.seed = d.seed if seed is None else seed
        # The hash of the seed and ':', which `_draw` copies before its key.
        self._seed_hash = blake2b(f"{self.seed}:".encode(), digest_size=8)
        self.poll_interval = scenario.network.poll_interval_s
        self.dispatch_latency = scenario.network.dispatch_latency_s
        self.failure_rate = d.transfer_failure_rate
        # (data_id, dst) -> transfer attempts made so far to land the item there.
        self._landing_attempts: dict = {}
        # Attempts per task, each on an endpoint the task has not failed on.
        n_eps = len(scenario.endpoints)
        self.max_task_attempts = min(d.max_task_attempts or n_eps, n_eps)
        self.sync_lag = d.mock_sync_lag_s

        self.endpoints = [EndpointModel(spec) for spec in scenario.endpoints]
        self.endpoint_order = [ep.endpoint_id for ep in self.endpoints]
        self._by_id = {ep.endpoint_id: ep for ep in self.endpoints}
        # (src, dst) -> (latency_s, bandwidth_Bps): the true network, which
        # times every transfer and is the transfer profiler's fallback.
        self.links = {}
        for a in self.endpoint_order:
            for b in self.endpoint_order:
                if a != b:
                    link = scenario.network.link(a, b)
                    self.links[(a, b)] = (link.latency_s, link.bandwidth_MBps * MB)

        self.exec_profiler = ExecutionProfiler(scenario.endpoints, keep_history=history)
        self.transfer_profiler = TransferProfiler(fallback=self.links)
        self.data = DataManager(
            self.endpoint_order,
            self.transfer_profiler,
            concurrency_cap=d.transfer_concurrency,
            max_transfer_retries=d.max_transfer_retries,
        )

        self.dag = Dag()

        self.clock = 0.0
        self._events: list = []
        self._seq = 0
        self.metrics = MetricsLog(self.endpoint_order, self.dag.nodes, self.data.jobs)

        # Registered tasks per TaskState.index; _enter moves a task between them.
        self._state_counts: list = [0] * len(TaskState)
        self._resched_armed_until = -1.0
        self._in_hook = False
        # Spec id -> task id, for the spec ids that are not their task's id,
        # and the inverse: task id -> spec id for those tasks.
        self._spec_by_tid: dict = {}
        self._spec_of_moved: dict = {}
        # Ids of the tasks whose claim on an endpoint was taken or given
        # back since a strategy last read them (`_claim` and `_release` add
        # them); None while no strategy watches. DHA's index files each
        # claiming task under fields only `_claim` changes, so this set is
        # all it reads.
        self.changed_tasks: Optional[set] = None
        # With the one set below, the instance holds 29 attributes. A 30th
        # makes CPython 3.11 stop sharing its dict's keys, and every
        # attribute read of a run gets slower (dynamic-montage 1.0 DHA
        # measured 3% slower in all); tests/test_engine.py checks the count.

        if self.scheduler_kind not in STRATEGIES:
            raise WorkflowError(f"unknown scheduler '{self.scheduler_kind}'")
        self.strategy = strategy = STRATEGIES[self.scheduler_kind](self)
        if timings:
            # Shadow the hooks on the instance, so an untimed run calls the
            # strategy with no wrapper frame at all.
            for names, resched in ((_PLACE_HOOKS, False), (_RESCHED_HOOKS, True)):
                for name in names:
                    hook = functools.partial(self._hook, resched, getattr(strategy, name))
                    setattr(strategy, name, hook)

        self._build_initial_events()

    # -- construction ------------------------------------------------------

    def _build_initial_events(self):
        sc = self.scenario
        for did, d in sc.data.items():
            self.data.register_item(did, int(round(d.size_MB * MB)), d.locations)
        # One lookup per run of equal submit times: a loaded workflow is one
        # run per batch, and a hand-built one in any order still groups.
        batches: dict = {}
        when = None
        for t in sc.workflow:
            if t.submit_time_s != when:
                when = t.submit_time_s
                batch = batches.setdefault(when, [])
            batch.append(t)
        for when, specs in sorted(batches.items()):
            self.schedule(when, EventKind.SUBMIT_BATCH, (self._on_submit_batch, specs))
        for ep_id, trace in sc.capacity_traces.items():
            for ev in trace:
                payload = (self._on_capacity_change, ep_id, ev)
                self.schedule(ev.time_s, EventKind.CAPACITY_CHANGE, payload)
        if sc.defaults.elastic:
            self.schedule(0.0, EventKind.SCALE_TICK, (self._on_scale_tick,))
        if sc.defaults.probe_at_init:
            for job in self.data.issue_probes(PROBE_SIZE_BYTES, 0.0):
                self._schedule_transfer(job)
        for ep in self.endpoints:
            self._record_workers(ep)

    # -- event plumbing ----------------------------------------------------

    def schedule(self, when: float, kind: EventKind, payload):
        """Queue `payload`, a `(callback, *args)` tuple, to run at `when`.
        Events at the same time run in kind order, then in scheduling order."""
        self._seq += 1
        heapq.heappush(self._events, (when, kind, self._seq, payload))

    def _schedule_transfer(self, job: TransferJob):
        latency, bandwidth = self.links[(job.src, job.dst)]
        duration = latency + job.size / bandwidth
        payload = (self._on_transfer_complete, job, duration)
        self.schedule(self.clock + duration, _TRANSFER_COMPLETE, payload)

    # -- deterministic randomness -----------------------------------------

    def _draw(self, key: bytes) -> float:
        """A uniform draw on [0, 1) for `key`, a quantity's fields joined by
        ':': the top 53 bits of the 8-byte BLAKE2b hash of the seed, ':' and
        the key, times 2**-53 (the resolution of `random.random()`). The
        hash of the seed and ':' is made once; each draw feeds its key to a
        copy, which gives the digest of hashing all of it in one call."""
        h = self._seed_hash.copy()
        h.update(key)
        return (int.from_bytes(h.digest(), "big") >> 11) * 2.0**-53

    def sample_exec_duration(self, node: TaskNode, ep: EndpointModel, attempt: int) -> float:
        """The task's execution seconds on the endpoint at this attempt."""
        fn = node.function
        noise = 0.0
        if fn.noise > 0:
            noise = fn.noise * (2.0 * self._draw(b"exec:%d:%d" % (node.task_id, attempt)) - 1.0)
        return ep.spec.perf_factor * fn.true_seconds(node.input_bytes) * (1.0 + noise)

    def _transfer_success(self, job: TransferJob) -> bool:
        """Whether a finished transfer attempt succeeded. The draw is keyed
        by the transfer and by how many attempts to land its item on its
        destination came before, over retries and re-opened jobs alike, so
        it does not depend on how many other jobs were opened."""
        if self.failure_rate <= 0:
            return True
        key = (job.data_id, job.dst)
        attempt = self._landing_attempts.get(key, 0)
        self._landing_attempts[key] = attempt + 1
        draw = self._draw(f"xfer:{job.data_id}:{job.src}:{job.dst}:{attempt}".encode())
        return draw >= self.failure_rate

    # -- sizes and predictions --------------------------------------------

    def predicted_exec(self, task_id: int, endpoint_id: str) -> float:
        node = self.dag.nodes[task_id]
        return self.exec_profiler.predict_exec(node.function, endpoint_id, node.input_bytes)

    def exec_row(self, task_id: int) -> dict:
        """The task's cost row: its predicted execution seconds on every
        endpoint, by endpoint id in declaration order, as the execution
        profiler caches it; `predicted_exec` reads the same row."""
        node = self.dag.nodes[task_id]
        return self.exec_profiler.exec_row(node.function, node.input_bytes)

    def staging_time_estimate(self, task_id: int, endpoint_id: str) -> float:
        return self.data.staging_estimate(self.dag.nodes[task_id].file_deps, endpoint_id)

    def earliest_idle_estimate(self, endpoint_id: str,
                               left_out_s: Optional[float] = None) -> float:
        """When the endpoint is next expected to have an idle worker.

        Uses the proxy's live counts plus predicted remaining runtimes: now,
        while idle workers outnumber the waiting work (tasks assigned there
        that have not started); otherwise when the first running task is
        predicted to finish, but not before now, plus the backlog of work
        not running yet spread evenly over the pool. With `left_out_s`, one
        waiting task whose backlog is `left_out_s` seconds is left out of
        the waiting work and the backlog. An endpoint with zero workers is
        available now when the scenario is elastic, on the assumption that
        elasticity will provision it, and never otherwise.
        """
        ep = self._by_id[endpoint_id]
        clock = self.clock
        workers = ep.active_workers
        if not workers:
            return clock if self.scenario.defaults.elastic else math.inf
        spare = workers - ep.busy_workers - ep.waiting_work
        backlog_s = ep.backlog_s
        if left_out_s is not None:
            spare += 1
            backlog_s -= left_out_s
        if spare > 0:
            return clock
        heap = ep.finish_heap
        nodes = self.dag.nodes
        # A task runs at most once (only staging fails), so an entry whose
        # task is no longer RUNNING is stale.
        while heap and nodes[heap[0][1]].state is not _RUNNING:
            heapq.heappop(heap)
        first = heap[0][0] if heap else clock
        return (first if first > clock else clock) + backlog_s / workers

    # -- task graph construction ------------------------------------------

    def _register_batch(self, specs: list) -> tuple:
        """Register a batch's tasks in ascending spec id in one pass: each
        node built and checked as `Dag.submit_task` builds it, with its sizes,
        its output item (checked as `register_item` checks) and unmet deps.

        A task's id is its index in submission order. A task whose spec id
        is that index holds the spec's own int, and `_spec_by_tid` maps
        only the spec ids that are not, so a dep it does not map names its
        task by itself, unless that index is another spec's task
        (`_spec_of_moved`). A dep on no registered spec id raises
        `WorkflowError`. In a batch, equal sums of several input sizes, and
        equal output sizes, are one int object."""
        task_ids = []
        dead_deps = []  # deps met FAILED or UNRUNNABLE, in the order met
        functions = self.scenario.functions
        spec_by_tid = self._spec_by_tid
        moved = self._spec_of_moved
        nodes = self.dag.nodes
        items = self.data.items
        clock = self.clock
        sizes: dict = {}  # each fresh size int of the batch, by value
        tid = len(nodes)
        for t in sorted(specs, key=operator.attrgetter("id")):
            if t.id == tid:
                tid = t.id
            else:
                spec_by_tid[t.id] = tid
                moved[tid] = t.id
            fn = functions[t.function]
            inline = t.inline_args_B
            if not 0 <= inline <= INLINE_ARGS_LIMIT:
                check_inline_args(inline)
            # Most tasks have one dep or one file dep, and one needs no sort.
            file_deps = t.file_deps
            deps, deps_left = (), 0
            if t.deps:
                deps = t.deps
                if spec_by_tid:  # some spec id moved: resolve each dep
                    resolved = set()
                    for d in deps:
                        if d in spec_by_tid:
                            d = spec_by_tid[d]
                        elif d in moved:
                            raise WorkflowError(f"task {t.id}: unknown dependency handle {d}")
                        resolved.add(d)
                    deps = tuple(sorted(resolved))
                elif len(deps) > 1:  # no spec id moved, as in a scenario numbered by index
                    deps = tuple(sorted(set(deps)))
                if deps == t.deps:  # a tuple of task ids already: keep the spec's
                    deps = t.deps
                file_deps = [*file_deps]
                for d in deps:
                    try:
                        dep = nodes[d]
                    except KeyError:  # no task registered yet has spec id d
                        raise WorkflowError(f"task {t.id}: unknown dependency handle {d}") from None
                    dep.successors.append(tid)
                    if dep.output is not None:
                        file_deps.append(dep.output)
                    state = dep.state
                    if state is not _DONE:
                        deps_left += 1
                        if state is _FAILED or state is _UNRUNNABLE:
                            dead_deps.append(d)
            file_deps = tuple(sorted(set(file_deps)) if len(file_deps) > 1 else file_deps)
            # With one file dep the sum is that item's own size object, and
            # with no inline args the input size is the sum itself, so the
            # node holds no copied ints; a sum of several sizes is a new int.
            file_bytes = size = 0
            for d in file_deps:
                size = items[d].size
                file_bytes = file_bytes + size if file_bytes else size
            if file_bytes is not size:
                if file_bytes in sizes:
                    file_bytes = sizes[file_bytes]
                else:
                    sizes[file_bytes] = file_bytes
            input_bytes = file_bytes + inline if inline else file_bytes
            output = None
            if fn.output_ratio > 0:
                try:
                    out_size = int(round(fn.output_ratio * input_bytes))
                except OverflowError:  # the product is inf
                    raise WorkflowError(
                        f"task {t.id}: output size ({fn.output_ratio} x {input_bytes} bytes) "
                        "is not finite"
                    ) from None
                if out_size > 0:
                    if out_size in sizes:
                        out_size = sizes[out_size]
                    else:
                        sizes[out_size] = out_size
                    output = f"{OUTPUT_PREFIX}{tid}"
                    if output in items:
                        raise DataError(f"duplicate data item {output}")
                    items[output] = DataItem(output, out_size)
            nodes[tid] = TaskNode(tid, fn, deps, file_deps, output, file_bytes, input_bytes,
                                  deps_left, clock, [])
            task_ids.append(tid)
            tid += 1
        self._state_counts[_PENDING.index] += len(task_ids)
        return task_ids, dead_deps

    # -- task state --------------------------------------------------------

    def _enter(self, node, new: TaskState):
        """Move a task to `new`, the only way a task's state changes, in one
        frame: check the move in MOVES (an illegal one raises and changes
        nothing), keep the per-state counts, stamp the entry time and, when
        the STAGING count changes, keep its last sample at this clock."""
        old = node.state
        move = MOVES[old.index][new.index]
        if move is None:
            raise WorkflowError(
                f"task {node.task_id}: illegal transition {old.value} -> {new.value}"
            )
        node.state = new
        counts = self._state_counts
        counts[old.index] -= 1
        counts[new.index] += 1
        stamp, staging_changes = move
        if stamp is not None:
            setattr(node, stamp, self.clock)
        if staging_changes:
            flat = self.metrics.staging_flat
            if flat and flat[-2] == self.clock:
                flat[-1] = counts[_STAGING.index]
            else:
                flat += (self.clock, counts[_STAGING.index])

    # -- scheduler callbacks ----------------------------------------------

    def _claim(self, node, endpoint_id: str):
        """Point the task at the endpoint and take its claim there: one task
        of waiting work, and its backlog when the strategy reads idle
        estimates. `_release` gives both back."""
        ep = self._by_id[endpoint_id]
        if self.strategy.reads_idle_estimate:
            row = self.exec_profiler.exec_row(node.function, node.input_bytes)
            node.backlog_s = row[endpoint_id]
            ep.backlog_s += node.backlog_s
        node.assigned_endpoint = endpoint_id
        ep.waiting_work += 1
        if self.changed_tasks is not None:
            self.changed_tasks.add(node.task_id)

    def _release(self, node):
        """Give back the claim `_claim` took on the task's endpoint: when the
        task starts, moves, fails or can never run."""
        ep = self._by_id[node.assigned_endpoint]
        ep.waiting_work -= 1
        if node.backlog_s:  # only under a strategy that reads idle estimates
            ep.backlog_s -= node.backlog_s
            node.backlog_s = 0.0
        if self.changed_tasks is not None:
            self.changed_tasks.add(node.task_id)

    def assign(self, task_id: int, endpoint_id: str):
        """A scheduling decision: a first placement or a retry."""
        self._claim(self.dag.nodes[task_id], endpoint_id)
        self.metrics.decision_count += 1

    def begin_staging(self, task_id: int):
        node = self.dag.nodes[task_id]
        self._enter(node, _STAGING)
        self._stage(node)

    def _stage(self, node):
        """Start transfers of the task's inputs to its assigned endpoint, or
        finish its staging when it waits on none."""
        waited_on, started = self.data.stage(
            node.task_id, node.file_deps, node.assigned_endpoint, self.clock
        )
        for job in started:
            self._schedule_transfer(job)
        if not waited_on:
            self._staging_finished(node)

    def _staging_finished(self, node):
        self._enter(node, _READY)
        self.strategy.on_staging_complete(node.task_id)

    def move_assignment(self, task_id: int, endpoint_id: str):
        """Re-scheduling: point an undispatched task at a new endpoint and
        restart staging there (already-staged replicas stay where they are)."""
        node = self.dag.nodes[task_id]
        if node.state is _READY:
            # Back into STAGING for the new target.
            self._enter(node, _STAGING)
        self.data.cancel_task_jobs(task_id)
        self._release(node)
        self._claim(node, endpoint_id)
        self.metrics.move_count += 1
        self._stage(node)

    def dispatch_task(self, task_id: int):
        """Hand the task to its endpoint, which starts it or queues it;
        record the endpoint's workers. A queued task keeps its claim until
        it starts."""
        node = self.dag.nodes[task_id]
        ep = self._by_id[node.assigned_endpoint]
        self._enter(node, _QUEUED)
        if ep.dispatch(task_id) == "accepted":
            self._start_running(node, ep)
        self.metrics.utilization_flat += (
            self.clock, ep.endpoint_id, ep.busy_workers, ep.active_workers
        )

    def _start_running(self, node, ep: EndpointModel):
        """Run the task on a worker of `ep`, its assigned endpoint, and queue
        its completion."""
        self._enter(node, _RUNNING)
        self._release(node)
        attempt = len(node.failed_endpoints)  # each earlier one failed on its own endpoint
        duration = self.sample_exec_duration(node, ep, attempt)
        end = self.clock + self.dispatch_latency + duration
        if self.strategy.reads_idle_estimate:
            row = self.exec_profiler.exec_row(node.function, node.input_bytes)
            heapq.heappush(ep.finish_heap, (self.clock + row[ep.endpoint_id], node.task_id))
        self.schedule(end, _TASK_COMPLETE, (self._on_task_complete, node, duration))

    # -- failure handling --------------------------------------------------

    def _fail_task(self, task_id: int):
        """End the attempt of a STAGING task whose transfer ran out of retries
        (only staging fails); retry elsewhere or give up."""
        node = self.dag.nodes[task_id]
        ep_id = node.assigned_endpoint
        self.data.cancel_task_jobs(task_id)
        self._enter(node, _FAILED)
        failed = node.failed_endpoints = node.failed_endpoints | {ep_id}
        self._release(node)
        self.exec_profiler.record(TaskRecord(
            function=node.function.name, endpoint=ep_id, input_size=node.input_bytes,
            exec_time=0.0, output_size=0, success=False, timestamp=self.clock,
        ))
        if len(failed) >= self.max_task_attempts:
            logger.error(
                "task %d failed on all attempted endpoints (%s); giving up",
                task_id,
                sorted(failed),
            )
            self._cascade_unrunnable(task_id)
            return
        attempt = len(failed)
        rates = self.exec_profiler.success_rates(node.function.name)
        choice = reassignment_endpoint(
            attempt, failed, rates, self.endpoint_order,
            lambda: self.strategy.retry_choice(task_id),
        )
        logger.info(
            "task %d failed on %s; retrying on %s (attempt %d)", task_id, ep_id, choice, attempt
        )
        self.assign(task_id, choice)
        self.begin_staging(task_id)

    def _cascade_unrunnable(self, root: int):
        stack = [root]
        while stack:
            t = stack.pop()
            for s in self.dag.nodes[t].successors:
                node = self.dag.nodes[s]
                if node.state is not _UNRUNNABLE:
                    # Its chain never finishes, so it never left PENDING;
                    # give back the claim capacity took at submit.
                    self._enter(node, _UNRUNNABLE)
                    if node.assigned_endpoint is not None:
                        self._release(node)
                    logger.error(
                        "task %d is unrunnable: dependency chain failed at task %d",
                        s,
                        root,
                    )
                    stack.append(s)

    # -- bookkeeping -------------------------------------------------------

    def _record_workers(self, ep: EndpointModel):
        self.metrics.utilization_flat += (
            self.clock, ep.endpoint_id, ep.busy_workers, ep.active_workers
        )

    def arm_reschedule(self, period: float):
        """Queue a re-scheduling tick one period from now, unless one is
        already queued for a later time: one chain of ticks, which ends when
        a tick does not re-arm."""
        if self._resched_armed_until <= self.clock:
            self._resched_armed_until = when = self.clock + period
            payload = (self.strategy.on_reschedule_tick,)
            self.schedule(when, EventKind.RESCHEDULE_TICK, payload)

    @property
    def unrunnable(self) -> frozenset:
        """Tasks that never ran because a dependency failed for good."""
        return frozenset(t for t, n in self.dag.nodes.items() if n.state is _UNRUNNABLE)

    def _live_count(self) -> int:
        """Registered tasks that are not in a terminal state."""
        c = self._state_counts
        return len(self.dag.nodes) - c[_DONE.index] - c[_FAILED.index] - c[_UNRUNNABLE.index]

    def _pending_count(self) -> int:
        """Live tasks that are not running."""
        return self._live_count() - self._state_counts[_RUNNING.index]

    @property
    def finished(self) -> bool:
        """No task is live and no batch is still to be submitted."""
        return self._live_count() == 0 and all(
            e[1] != EventKind.SUBMIT_BATCH for e in self._events
        )

    def _work_queued(self) -> bool:
        """Whether an event other than the scale tick is queued. At most
        one scale tick is ever queued, so a longer queue holds work."""
        events = self._events
        return len(events) > 1 or (bool(events) and events[0][1] != EventKind.SCALE_TICK)

    def _ticks_can_help(self) -> bool:
        """Whether the scale tick can still lead to forward progress, and
        so re-arms: while other work is queued, or while the next tick would
        grow a pool or a pool with workers has no running or waiting work
        and so can still idle out. Only an elastic run queues a scale tick.
        Without this guard a stuck run would re-arm its tick forever instead
        of draining the queue and raising a deadlock; after the last task,
        the tick lives on while a pool still has workers to release.
        """
        if self._work_queued():
            return True
        decisions = scale_decision(self.clock, self.endpoints, self._pending_count())
        return any(delta > 0 for _, delta in decisions) or any(
            ep.active_workers > 0 and ep.busy_workers == 0 and ep.waiting_work == 0
            for ep in self.endpoints
        )

    def _hook(self, resched: bool, fn, *args):
        """Run a strategy hook, timed: the wrapper `Simulation(timings=True)`
        installs on each hook (an untimed run calls the strategy directly).
        Hooks nest (a re-scheduling tick moves a task whose staging
        completes), so only the outermost one is timed, into
        `sched_seconds`, and also into `resched_seconds` when `resched`
        marks it a re-scheduling hook (`on_capacity_change`,
        `on_reschedule_tick`)."""
        if self._in_hook:
            return fn(*args)
        self._in_hook = True
        t0 = _time.perf_counter()
        try:
            return fn(*args)
        finally:
            elapsed = _time.perf_counter() - t0
            self.metrics.sched_seconds += elapsed
            if resched:
                self.metrics.resched_seconds += elapsed
            self._in_hook = False

    # -- readiness ---------------------------------------------------------

    def _announce_ready(self, candidates):
        """Announce, in order, the candidates that are ready; they must be
        unique and ascending (a new batch's ids, or one successor list)."""
        batch = []
        for tid in candidates:
            node = self.dag.nodes[tid]
            if node.announced or node.deps_left or node.state.terminal:
                continue
            node.announced = True
            batch.append(tid)
        if batch:
            self.strategy.on_deps_done(batch)

    # -- event handlers: callbacks named by event payloads -----------------

    def _on_submit_batch(self, specs: list):
        task_ids, dead_deps = self._register_batch(specs)
        self.strategy.on_batch_submitted(task_ids)
        # Between events a FAILED task has failed for good, so a task that
        # depends on one, or on an unrunnable one, can never run (no hook
        # fails a task, so the states read at registration still hold).
        for dep in dead_deps:
            self._cascade_unrunnable(dep)
        self._announce_ready(task_ids)

    def _on_transfer_complete(self, job: TransferJob, duration: float):
        success = self._transfer_success(job)
        completed, failed, started = self.data.on_transfer_finished(job, success, self.clock)
        if success:
            self.transfer_profiler.observe(job.src, job.dst, job.size, duration)
        for j in started:
            self._schedule_transfer(j)
        nodes = self.dag.nodes
        for task_id in completed:
            self._staging_finished(nodes[task_id])
        for task_id in failed:
            self._fail_task(task_id)

    def _on_task_complete(self, node, exec_time: float):
        """Finish the task on its endpoint: record it with the execution
        profiler, land its output there, start what the freed worker takes
        from the queue, and announce its successors as ready once its
        result is observed, at once when there is no poll interval."""
        clock = self.clock
        ep = self._by_id[node.assigned_endpoint]
        self._enter(node, _DONE)
        nodes = self.dag.nodes
        successors = node.successors
        for s in successors:
            nodes[s].deps_left -= 1
        output = node.output
        # TaskRecord's fields in order, with no call to its Python-level
        # constructor: function, endpoint, input_size, exec_time,
        # output_size, success, timestamp.
        self.exec_profiler.record(tuple.__new__(TaskRecord, (
            node.function.name, ep.endpoint_id, node.input_bytes, exec_time,
            0 if output is None else self.data.items[output].size, True, clock,
        )))
        if output is not None:
            self.data.add_replica(output, ep.endpoint_id)
        started = ep.complete(clock)
        self.metrics.utilization_flat += (
            clock, ep.endpoint_id, ep.busy_workers, ep.active_workers
        )
        for task_id in started:
            self._start_running(nodes[task_id], ep)
        # The observed time is stamped here, for the poll tick that its
        # event runs at; nothing reads it before the run ends.
        interval = self.poll_interval
        if interval > 0 and (observed := next_poll(clock, interval)) > clock:
            node.observed_time = observed
            self.schedule(observed, EventKind.RESULT_OBSERVED, (self._announce_ready, successors))
        else:
            node.observed_time = clock
            self._announce_ready(successors)
        if ep.active_workers > ep.busy_workers:
            if self.sync_lag > 0:
                self.schedule(
                    clock + self.sync_lag,
                    EventKind.RESULT_OBSERVED,
                    (self.strategy.on_worker_free, ep.endpoint_id),
                )
            else:
                self.strategy.on_worker_free(ep.endpoint_id)

    def _start_queued(self, ep: EndpointModel, started: list):
        """Record the endpoint's workers after a change to them, then run
        the queued tasks that the change started."""
        self._record_workers(ep)
        nodes = self.dag.nodes
        for task_id in started:
            self._start_running(nodes[task_id], ep)

    def _on_capacity_change(self, endpoint_id: str, event: CapacityEvent):
        ep = self._by_id[endpoint_id]
        self._start_queued(ep, ep.apply_capacity_event(event))
        self.strategy.on_capacity_change(endpoint_id)

    def _on_scale_tick(self):
        decisions = scale_decision(self.clock, self.endpoints, self._pending_count())
        for ep, delta in decisions:
            self._start_queued(ep, ep.apply_capacity_event(CapacityEvent(self.clock, delta)))
        for ep, delta in decisions:
            if delta > 0:
                self.strategy.on_worker_free(ep.endpoint_id)
        if self._ticks_can_help():
            self.schedule(
                self.clock + self.scenario.defaults.scale_tick_s,
                EventKind.SCALE_TICK,
                (self._on_scale_tick,),
            )

    # -- main loop ---------------------------------------------------------

    def run(self) -> MetricsLog:
        """Run the events until none is queued and return the metrics, or
        raise `DeadlockError` if tasks are still live then. The queue
        drains: profiler refits need no event, and the scale and
        re-scheduling ticks re-arm only while they can still help.

        The cyclic garbage collector is paused for the run, and left as the
        caller had it, however the run ends. A run makes no reference
        cycles, so a collector pass finds nothing to free; yet each task
        adds tracked objects that live to the end of the run, and with the
        collector on a drug-like 0.5 run starts 92 passes, about a twentieth
        of its time (tests/test_collector.py pins both facts). Those
        objects are still young when the run returns, so the caller's next
        collection scans them once: the pause defers that part of the
        collector's work."""
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._loop()
            if not self.finished:
                self._raise_deadlock()
            self._finalize_metrics()
        finally:
            if collecting:
                gc.enable()
        return self.metrics

    def _loop(self):
        """Handle the queued events in (time, kind, sequence) order until
        none is left. Both profilers refit when the clock first moves past
        a refresh boundary, a multiple of `refresh_tick_s`: after every
        event at the boundary, before any later one. A refit is idempotent,
        so one serves every boundary the clock skips, and the boundary
        advances in a bounded number of steps however far the clock jumps."""
        events = self._events
        heappop = heapq.heappop
        metrics = self.metrics
        clock = self.clock
        period = boundary = self.scenario.defaults.refresh_tick_s
        while events:
            when, _, _, payload = heappop(events)
            if when < clock - 1e-9:
                raise RuntimeError("event time moved backwards")
            if when > clock:
                self.clock = clock = when
                if when > boundary:
                    self.exec_profiler.refresh()
                    self.transfer_profiler.refresh()
                    # Repeated sums, not `k * period`, which can differ in the
                    # last bit and so move a refit across an event at a boundary.
                    # A jump over more than 2**16 periods, which no builtin run
                    # makes, first takes all but one of them as a product, so
                    # the sums that finish it are few. A period below the
                    # boundary's float spacing no longer moves it (nor a
                    # product that overflows), and then the boundary takes
                    # the event's time.
                    gap = when - boundary
                    if gap > 65536.0 * period:
                        boundary = min(boundary + (gap // period - 1.0) * period, when)
                    while boundary < when:
                        step = boundary + period
                        boundary = step if step > boundary else when
            metrics.event_count += 1
            payload[0](*payload[1:])

    def _raise_deadlock(self):
        stuck = []
        for tid, node in self.dag.nodes.items():
            if node.terminal:
                continue
            missing = [d for d in node.deps if self.dag.nodes[d].state is not _DONE]
            stuck.append(
                f"task {tid} [{node.state.value}] on {node.assigned_endpoint}: "
                f"unfinished deps {missing}"
            )
        raise DeadlockError(
            "simulation deadlocked with live tasks and an empty event queue:\n"
            + "\n".join(stuck)
        )

    def _finalize_metrics(self):
        m = self.metrics
        nodes = self.dag.nodes.values()
        completions = [
            n.observed_time if n.observed_time is not None else n.end_time
            for n in nodes
            if n.end_time is not None
        ]
        submits = [n.submit_time for n in nodes]
        m.makespan = (max(completions) - min(submits)) if completions else 0.0
        m.transfer_bytes = self.data.transfer_bytes_total()
        # Gave up (FAILED is terminal only then) or never ran.
        m.tasks_failed = self._state_counts[_FAILED.index] + self._state_counts[_UNRUNNABLE.index]


def run_scenario(
    scenario: Scenario,
    scheduler_kind: Optional[str] = None,
    seed: Optional[int] = None,
) -> MetricsLog:
    return Simulation(scenario, scheduler_kind, seed).run()
