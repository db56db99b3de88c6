"""Deterministic discrete-event core: clock, event queue, network model,
duration sampling, and orchestration of scheduler, endpoints, and data
manager."""

from __future__ import annotations

import heapq
import logging
import math
import random
import time as _time
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional

from .dag import Dag, TaskState, WorkflowError
from .data_manager import (
    DataManager,
    LocalCopyBackend,
    SimulatedBackend,
    TransferJob,
)
from .endpoints import CapacityEvent, EndpointModel, scale_decision
from .metrics import MetricsLog
from .profilers import (
    PROBE_SIZE_BYTES,
    ExecutionProfiler,
    FunctionTruth,
    TransferProfiler,
)
from .scenario import MB, Scenario
from .scheduling import (
    STRATEGIES,
    DhaStrategy,
    reassignment_endpoint,
)

logger = logging.getLogger(__name__)


class DeadlockError(RuntimeError):
    """The event queue drained while tasks were still live."""


class EventKind(IntEnum):
    # Numeric order is the tie-break for events at the same timestamp.
    SUBMIT_BATCH = 0
    TRANSFER_COMPLETE = 1
    TASK_COMPLETE = 2
    RESULT_OBSERVED = 3
    CAPACITY_CHANGE = 4
    RESCHEDULE_TICK = 5
    SCALE_TICK = 6
    REFRESH_TICK = 7


@dataclass(order=True)
class SimEvent:
    time: float
    kind: EventKind
    seq: int
    payload: object = field(compare=False, default=None)


class NetworkModel:
    def __init__(self, spec):
        self._spec = spec

    def link(self, src: str, dst: str):
        link = self._spec.link(src, dst)
        return link.latency_s, link.bandwidth_MBps * MB

    def duration(self, src: str, dst: str, size: int) -> float:
        latency, bandwidth = self.link(src, dst)
        return latency + size / bandwidth


def next_poll(t: float, interval: float) -> float:
    """The first poll tick at or after t (t itself when interval is 0)."""
    if interval <= 0:
        return t
    return math.ceil(t / interval - 1e-9) * interval


class Simulation:
    """One deterministic run of a scenario under one scheduling algorithm."""

    def __init__(
        self,
        scenario: Scenario,
        scheduler_kind: Optional[str] = None,
        seed: Optional[int] = None,
        reschedule_period: Optional[float] = None,
        history_path=None,
        transfer_root=None,
    ):
        self.scenario = scenario
        d = scenario.defaults
        self.scheduler_kind = scheduler_kind or d.scheduler
        self.seed = d.seed if seed is None else seed
        self.poll_interval = scenario.network.poll_interval_s
        self.dispatch_latency = scenario.network.dispatch_latency_s
        self.failure_rate = d.transfer_failure_rate
        self.max_task_attempts = d.max_task_attempts or len(scenario.endpoints)
        self.sync_lag = d.mock_sync_lag_s

        self.endpoints = [EndpointModel(spec) for spec in scenario.endpoints]
        self.endpoint_order = [ep.endpoint_id for ep in self.endpoints]
        self._by_id = {ep.endpoint_id: ep for ep in self.endpoints}
        self._perf_factors = {ep.endpoint_id: ep.spec.perf_factor for ep in self.endpoints}
        self.network = NetworkModel(scenario.network)

        backend = SimulatedBackend()
        if d.file_transfer_type == "local-copy":
            backend = LocalCopyBackend(transfer_root or ".fedflow-transfers")
        self.data = DataManager(
            concurrency_cap=d.transfer_concurrency,
            max_transfer_retries=d.max_transfer_retries,
            backend=backend,
        )

        truth = {
            f.name: FunctionTruth(f.true_fixed_s, f.true_rate_s_per_MB)
            for f in scenario.functions.values()
        }
        self.exec_profiler = ExecutionProfiler(truth=truth)
        if history_path:
            self.exec_profiler.load(history_path)
        self.history_path = history_path
        fallback = {}
        for a in self.endpoint_order:
            for b in self.endpoint_order:
                if a != b:
                    latency, bandwidth = self.network.link(a, b)
                    fallback[(a, b)] = (latency, bandwidth)
        self.transfer_profiler = TransferProfiler(fallback=fallback)

        self.dag = Dag()
        self.functions = {
            name: spec.function_def() for name, spec in scenario.functions.items()
        }
        self._function_spec = scenario.functions

        self.clock = 0.0
        self._events: list = []
        self._seq = 0
        self.metrics = MetricsLog(self.endpoint_order)

        self.reserved: dict = {ep: 0 for ep in self.endpoint_order}
        self._reserved_tasks: set = set()
        self.assigned_undispatched: dict = {ep: set() for ep in self.endpoint_order}
        # Predicted seconds of not-yet-running work per endpoint, kept as a
        # running sum so the idle estimate stays O(1) per query.
        self._backlog_pred: dict = {ep: 0.0 for ep in self.endpoint_order}
        self._backlog_contrib: dict = {}  # task_id -> (endpoint, seconds)
        self._running_pred_finish: dict = {ep: {} for ep in self.endpoint_order}
        self._finish_heap: dict = {ep: [] for ep in self.endpoint_order}
        self._running_endpoint: dict = {}
        self._input_bytes: dict = {}
        self._file_bytes: dict = {}
        self._failed_endpoints: dict = {}
        self._announced: set = set()
        self.unrunnable: set = set()
        # Registered tasks that are not DONE, FAILED or unrunnable.
        self._live = 0
        # task_id -> deps not yet DONE, for tasks that still have any.
        self._deps_left: dict = {}
        self._staging_count = 0
        self._resched_armed_until = -1.0
        self._spec_by_tid: dict = {}
        self._actual_durations: dict = {}

        if self.scheduler_kind not in STRATEGIES:
            raise WorkflowError(f"unknown scheduler '{self.scheduler_kind}'")
        if self.scheduler_kind == "dha":
            period = (
                d.reschedule_period_s
                if reschedule_period is None
                else reschedule_period
            )
            self.strategy = DhaStrategy(self, reschedule_period=period)
        else:
            self.strategy = STRATEGIES[self.scheduler_kind](self)

        self._build_initial_events()

    # -- construction ------------------------------------------------------

    def endpoint_by_id(self, endpoint_id: str) -> EndpointModel:
        return self._by_id[endpoint_id]

    def _build_initial_events(self):
        sc = self.scenario
        for did, d in sc.data.items():
            self.data.register_item(did, int(round(d.size_MB * MB)), d.locations)
        batches: dict = {}
        for t in sc.workflow:
            batches.setdefault(t.submit_time_s, []).append(t)
        self._pending_batches = len(batches)
        for when in sorted(batches):
            self.schedule(when, EventKind.SUBMIT_BATCH, batches[when])
        for ep_id, trace in sc.capacity_traces.items():
            for ev in trace:
                self.schedule(ev.time_s, EventKind.CAPACITY_CHANGE, (ep_id, ev))
        if sc.defaults.elastic:
            self.schedule(0.0, EventKind.SCALE_TICK, None)
        self.schedule(sc.defaults.refresh_tick_s, EventKind.REFRESH_TICK, None)
        if sc.defaults.probe_at_init:
            self._issue_probes()
        for ep in self.endpoints:
            self.metrics.record_workers(
                0.0, ep.endpoint_id, ep.busy_workers, ep.active_workers
            )

    def _issue_probes(self):
        for src in self.endpoint_order:
            for dst in self.endpoint_order:
                if src == dst or not self.transfer_profiler.needs_probe(src, dst):
                    continue
                job, started, _ = self.data.probe_job(src, dst, PROBE_SIZE_BYTES, 0.0)
                for j in started:
                    self._schedule_transfer(j)

    # -- event plumbing ----------------------------------------------------

    def schedule(self, when: float, kind: EventKind, payload=None):
        self._seq += 1
        heapq.heappush(self._events, SimEvent(when, kind, self._seq, payload))

    def _schedule_transfer(self, job: TransferJob):
        duration = self.network.duration(job.src, job.dst, job.size)
        self.schedule(self.clock + duration, EventKind.TRANSFER_COMPLETE, (job, duration))

    # -- deterministic randomness -----------------------------------------

    def _stream(self, *key) -> random.Random:
        return random.Random(":".join(str(k) for k in (self.seed,) + key))

    def sample_exec_duration(self, task_id: int, endpoint_id: str, attempt: int) -> float:
        node = self.dag.nodes[task_id]
        fn = self._function_spec[node.function.name]
        ep = self._by_id[endpoint_id].spec
        base = fn.true_fixed_s + fn.true_rate_s_per_MB * self.input_bytes(task_id) / MB
        noise = 0.0
        if fn.noise > 0:
            noise = self._stream("exec", task_id, attempt).uniform(-fn.noise, fn.noise)
        return ep.perf_factor * base * (1.0 + noise)

    def _transfer_success(self, job: TransferJob) -> bool:
        if self.failure_rate <= 0:
            return True
        draw = self._stream("xfer", job.job_id, job.retries_used).random()
        return draw >= self.failure_rate

    # -- sizes and predictions --------------------------------------------

    def file_bytes(self, task_id: int) -> int:
        return self._file_bytes[task_id]

    def input_bytes(self, task_id: int) -> int:
        return self._input_bytes[task_id]

    def predicted_exec(self, task_id: int, endpoint_id: str) -> float:
        node = self.dag.nodes[task_id]
        return self.exec_profiler.predict_exec(
            node.function,
            self._by_id[endpoint_id].spec,
            self.input_bytes(task_id),
            self._perf_factors,
        )

    def staging_time_estimate(self, task_id: int, endpoint_id: str) -> float:
        node = self.dag.nodes[task_id]
        total = 0.0
        for did in sorted(node.file_deps):
            item = self.data.items[did]
            if endpoint_id in item.locations or item.size == 0:
                continue
            if not item.locations:
                continue  # not produced yet; cost unknown
            src = self.data.choose_source(item, self.endpoint_order)
            total += self.transfer_profiler.predict_transfer(src, endpoint_id, item.size)
        return total

    def earliest_idle_estimate(self, endpoint_id: str) -> float:
        """When the endpoint is next expected to have an idle worker.

        Uses the proxy's live counts plus predicted remaining runtimes; the
        backlog of queued and staged-but-undispatched work is spread evenly
        over the pool. Endpoints with zero workers are treated as available,
        on the assumption that elasticity will provision them.
        """
        ep = self._by_id[endpoint_id]
        if ep.active_workers == 0:
            return self.clock
        committed = max(
            self.reserved.get(endpoint_id, 0),
            len(self.assigned_undispatched[endpoint_id]) + len(ep.queued),
        )
        if ep.idle_workers > committed:
            return self.clock
        running = self._running_pred_finish[endpoint_id]
        heap = self._finish_heap[endpoint_id]
        while heap and (heap[0][1] not in running or running[heap[0][1]] != heap[0][0]):
            heapq.heappop(heap)
        base = heap[0][0] if heap else self.clock
        backlog = self._backlog_pred[endpoint_id]
        return max(self.clock, base) + backlog / ep.active_workers

    # -- task graph construction ------------------------------------------

    def _register_batch(self, specs: list) -> list:
        task_ids = []
        for t in sorted(specs, key=lambda s: s.id):
            fn = self.functions[t.function]
            fspec = self._function_spec[t.function]
            file_deps = list(t.file_deps)
            dep_tids = [self._spec_by_tid[d] for d in t.deps]
            for dep in dep_tids:
                out = self.dag.nodes[dep].output
                if out is not None:
                    file_deps.append(out)
            tid = self.dag.submit_task(fn, dep_tids, file_deps, t.inline_args_B)
            self._spec_by_tid[t.id] = tid
            node = self.dag.nodes[tid]
            fbytes = sum(self.data.items[d].size for d in node.file_deps)
            self._file_bytes[tid] = fbytes
            self._input_bytes[tid] = fbytes + t.inline_args_B
            if fspec.output_ratio > 0:
                out_id = f"out:{tid}"
                out_size = int(round(fspec.output_ratio * self._input_bytes[tid]))
                if out_size > 0:
                    self.data.register_item(out_id, out_size, (), producer_task=tid)
                    node.output = out_id
            self.metrics.task(tid).submit_time = self.clock
            self._failed_endpoints[tid] = set()
            self._live += 1
            left = sum(1 for d in node.deps if self.dag.nodes[d].state != TaskState.DONE)
            if left:
                self._deps_left[tid] = left
            task_ids.append(tid)
        return task_ids

    # -- scheduler callbacks ----------------------------------------------

    def _drop_backlog(self, task_id: int):
        entry = self._backlog_contrib.pop(task_id, None)
        if entry is not None:
            self._backlog_pred[entry[0]] -= entry[1]

    def assign(self, task_id: int, endpoint_id: str, reserve: bool = False):
        node = self.dag.nodes[task_id]
        old = node.assigned_endpoint
        if old is not None and task_id in self.assigned_undispatched.get(old, ()):
            self.assigned_undispatched[old].discard(task_id)
        self._drop_backlog(task_id)
        pred = self.predicted_exec(task_id, endpoint_id)
        self._backlog_contrib[task_id] = (endpoint_id, pred)
        self._backlog_pred[endpoint_id] += pred
        node.assigned_endpoint = endpoint_id
        self.assigned_undispatched[endpoint_id].add(task_id)
        if reserve:
            self.reserved[endpoint_id] += 1
            self._reserved_tasks.add(task_id)
        self.metrics.decision_count += 1
        self.metrics.task(task_id).endpoint = endpoint_id

    def begin_staging(self, task_id: int):
        node = self.dag.nodes[task_id]
        if node.state in (TaskState.PENDING, TaskState.FAILED):
            if node.state == TaskState.FAILED:
                self._live += 1  # a retry
            node.set_state(TaskState.STAGING)
            self._staging_count += 1
            self.metrics.record_staging_count(self.clock, self._staging_count)
            tm = self.metrics.task(task_id)
            if tm.staging_start is None:
                tm.staging_start = self.clock
        self._stage(task_id)

    def _stage(self, task_id: int):
        """Start transfers of the task's inputs to its assigned endpoint and
        finish staging of every task that no longer waits on one."""
        node = self.dag.nodes[task_id]
        jobs, started, completed = self.data.stage(
            task_id,
            node.file_deps,
            node.assigned_endpoint,
            self.endpoint_order,
            self.clock,
        )
        for job in started:
            self._schedule_transfer(job)
        if not jobs:
            self._staging_finished(task_id)
        for other in completed:
            self._staging_finished(other)

    def _staging_finished(self, task_id: int):
        node = self.dag.nodes[task_id]
        self._staging_count -= 1
        self.metrics.record_staging_count(self.clock, self._staging_count)
        self.metrics.task(task_id).staging_end = self.clock
        node.set_state(TaskState.READY)
        self._hook(self.strategy.on_staging_complete, task_id)

    def move_assignment(self, task_id: int, endpoint_id: str):
        """Re-scheduling: point an undispatched task at a new endpoint and
        restart staging there (already-staged replicas stay where they are)."""
        node = self.dag.nodes[task_id]
        if node.state == TaskState.READY:
            # Back into STAGING for the new target.
            self._staging_count += 1
            node.set_state(TaskState.STAGING)
        self.data.cancel_task_jobs(task_id)
        self.assign(task_id, endpoint_id)
        self._stage(task_id)

    def dispatch_task(self, task_id: int):
        node = self.dag.nodes[task_id]
        ep = self._by_id[node.assigned_endpoint]
        node.set_state(TaskState.QUEUED)
        if task_id in self._reserved_tasks:
            self._reserved_tasks.discard(task_id)
            self.reserved[ep.endpoint_id] -= 1
        self.assigned_undispatched[ep.endpoint_id].discard(task_id)
        self.metrics.task(task_id).dispatch_time = self.clock
        outcome = ep.dispatch(task_id)
        if outcome == "accepted":
            self._start_running(task_id, ep)
        self._record_workers(ep)

    def _start_running(self, task_id: int, ep: EndpointModel):
        node = self.dag.nodes[task_id]
        node.set_state(TaskState.RUNNING)
        duration = self.sample_exec_duration(
            task_id, ep.endpoint_id, node.attempt_count
        )
        self._actual_durations[task_id] = duration
        self._drop_backlog(task_id)
        end = self.clock + self.dispatch_latency + duration
        pred_finish = self.clock + self.predicted_exec(task_id, ep.endpoint_id)
        self._running_pred_finish[ep.endpoint_id][task_id] = pred_finish
        heapq.heappush(self._finish_heap[ep.endpoint_id], (pred_finish, task_id))
        self._running_endpoint[task_id] = ep.endpoint_id
        self.metrics.task(task_id).start_time = self.clock
        self.schedule(end, EventKind.TASK_COMPLETE, task_id)

    # -- failure handling --------------------------------------------------

    def _fail_task(self, task_id: int):
        node = self.dag.nodes[task_id]
        ep_id = node.assigned_endpoint
        if node.state != TaskState.FAILED:
            if node.state == TaskState.STAGING:
                self._staging_count -= 1
                self.metrics.record_staging_count(self.clock, self._staging_count)
            node.set_state(TaskState.FAILED)
            self._live -= 1
        self._failed_endpoints[task_id].add(ep_id)
        self._drop_backlog(task_id)
        if task_id in self._reserved_tasks:
            self._reserved_tasks.discard(task_id)
            self.reserved[ep_id] -= 1
        self.assigned_undispatched[ep_id].discard(task_id)
        self._record_task_outcome(task_id, ep_id, success=False)
        if len(self._failed_endpoints[task_id]) >= len(self.endpoints):
            self._terminal_failure(task_id)
            return
        if node.attempt_count + 1 > self.max_task_attempts:
            self._terminal_failure(task_id)
            return
        node.attempt_count += 1
        rates = self.exec_profiler.success_rates(node.function.name)
        choice = reassignment_endpoint(
            node.attempt_count,
            self._failed_endpoints[task_id],
            rates,
            self.endpoint_order,
            lambda: self.strategy.retry_choice(task_id),
        )
        if choice is None:
            self._terminal_failure(task_id)
            return
        logger.info(
            "task %d failed on %s; retrying on %s (attempt %d)",
            task_id,
            ep_id,
            choice,
            node.attempt_count,
        )
        self.data.cancel_task_jobs(task_id)
        self.assign(task_id, choice)
        self.begin_staging(task_id)

    def _terminal_failure(self, task_id: int):
        node = self.dag.nodes[task_id]
        logger.error(
            "task %d failed on all attempted endpoints (%s); giving up",
            task_id,
            sorted(self._failed_endpoints[task_id]),
        )
        self.metrics.task(task_id).final_state = "failed"
        self._cascade_unrunnable(task_id)

    def _cascade_unrunnable(self, root: int):
        stack = [root]
        while stack:
            t = stack.pop()
            for s in sorted(self.dag.successors[t]):
                if s not in self.unrunnable:
                    # Its chain never finishes, so it never left PENDING.
                    self.unrunnable.add(s)
                    self._live -= 1
                    self.metrics.task(s).final_state = "unrunnable"
                    logger.error(
                        "task %d is unrunnable: dependency chain failed at task %d",
                        s,
                        root,
                    )
                    stack.append(s)

    # -- bookkeeping -------------------------------------------------------

    def _record_workers(self, ep: EndpointModel):
        self.metrics.record_workers(
            self.clock, ep.endpoint_id, ep.busy_workers, ep.active_workers
        )

    def _record_task_outcome(self, task_id: int, endpoint_id: str, success: bool):
        from .profilers import TaskRecord

        node = self.dag.nodes[task_id]
        out_size = 0
        if success and node.output is not None:
            out_size = self.data.items[node.output].size
        self.exec_profiler.record(
            TaskRecord(
                function=node.function.name,
                endpoint=endpoint_id,
                input_size=self.input_bytes(task_id),
                exec_time=self._actual_durations.get(task_id, 0.0) if success else 0.0,
                output_size=out_size,
                success=success,
                timestamp=self.clock,
            )
        )

    def undispatched_tasks(self) -> list:
        out = []
        for ep in self.endpoint_order:
            out.extend(self.assigned_undispatched[ep])
        return sorted(out)

    def arm_reschedule(self, period: float):
        when = self.clock + period
        if when > self._resched_armed_until:
            self._resched_armed_until = when
            self.schedule(when, EventKind.RESCHEDULE_TICK, None)

    def _pending_count(self) -> int:
        """Live tasks that are not running."""
        return self._live - len(self._running_endpoint)

    def _queue_share(self) -> dict:
        share = {ep: 0 for ep in self.endpoint_order}
        for ep_id in self.endpoint_order:
            share[ep_id] += len(self.assigned_undispatched[ep_id])
            share[ep_id] += len(self._by_id[ep_id].queued)
        return share

    @property
    def finished(self) -> bool:
        return self._pending_batches == 0 and self._live == 0

    def _ticks_can_help(self) -> bool:
        """Whether periodic ticks can still lead to forward progress.

        Without this guard a stuck run would re-arm its refresh/scale ticks
        forever instead of draining the queue and raising a deadlock.
        """
        if self._pending_batches > 0:
            return True
        if any(ep.busy_workers > 0 for ep in self.endpoints):
            return True
        if self.data.open_jobs:
            return True
        if (
            self.scenario.defaults.elastic
            and self._pending_count() > 0
            and any(
                ep.active_workers < ep.spec.max_workers for ep in self.endpoints
            )
        ):
            return True
        return False

    def _hook(self, fn, *args):
        t0 = _time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.metrics.sched_seconds += _time.perf_counter() - t0

    # -- readiness ---------------------------------------------------------

    def _announce_ready(self, candidates):
        batch = []
        for tid in sorted(set(candidates)):
            node = self.dag.nodes[tid]
            if (
                tid in self._announced
                or tid in self.unrunnable
                or node.terminal
                or tid in self._deps_left
            ):
                continue
            self._announced.add(tid)
            batch.append(tid)
        if batch:
            self._hook(self.strategy.on_deps_done, batch)

    # -- event handlers ----------------------------------------------------

    def _on_submit_batch(self, specs: list):
        self._pending_batches -= 1
        task_ids = self._register_batch(specs)
        self._hook(self.strategy.on_batch_submitted, task_ids)
        self._announce_ready(task_ids)

    def _on_transfer_complete(self, job: TransferJob, duration: float):
        success = self._transfer_success(job)
        completed, failed_task, started = self.data.on_transfer_finished(
            job, success, self.clock
        )
        if success:
            self.transfer_profiler.observe(job.src, job.dst, job.size, duration)
        for j in started:
            self._schedule_transfer(j)
        for task_id in completed:
            if self.dag.nodes[task_id].state == TaskState.STAGING:
                self._staging_finished(task_id)
        if failed_task is not None:
            self._fail_task(failed_task)

    def _on_task_complete(self, task_id: int):
        node = self.dag.nodes[task_id]
        ep = self._by_id[self._running_endpoint.pop(task_id)]
        node.set_state(TaskState.DONE)
        self._live -= 1
        for s in self.dag.successors[task_id]:
            self._deps_left[s] -= 1
            if not self._deps_left[s]:
                del self._deps_left[s]
        self._running_pred_finish[ep.endpoint_id].pop(task_id, None)
        tm = self.metrics.task(task_id)
        tm.end_time = self.clock
        tm.final_state = "done"
        self._record_task_outcome(task_id, ep.endpoint_id, success=True)
        if node.output is not None:
            self.data.add_replica(node.output, ep.endpoint_id)
        next_task = ep.complete(self.clock)
        self._record_workers(ep)
        if next_task is not None:
            self._start_running(next_task, ep)
        observed = next_poll(self.clock, self.poll_interval)
        if observed > self.clock:
            self.schedule(observed, EventKind.RESULT_OBSERVED, task_id)
        else:
            self._on_result_observed(task_id)
        if ep.idle_workers > 0:
            if self.sync_lag > 0:
                self.schedule(
                    self.clock + self.sync_lag,
                    EventKind.RESULT_OBSERVED,
                    ("worker-free", ep.endpoint_id),
                )
            else:
                self._hook(self.strategy.on_worker_free, ep.endpoint_id)

    def _on_result_observed(self, payload):
        if isinstance(payload, tuple) and payload[0] == "worker-free":
            self._hook(self.strategy.on_worker_free, payload[1])
            return
        task_id = payload
        self.metrics.task(task_id).observed_time = self.clock
        self._announce_ready(self.dag.successors[task_id])

    def _on_capacity_change(self, endpoint_id: str, event: CapacityEvent):
        ep = self._by_id[endpoint_id]
        ep.apply_capacity_event(event)
        self._record_workers(ep)
        self._hook(self.strategy.on_capacity_change, endpoint_id)

    def _on_scale_tick(self):
        decisions = scale_decision(
            self.clock, self.endpoints, self._pending_count(), self._queue_share()
        )
        grown = []
        for ep, delta in decisions:
            if delta > 0:
                ep.active_workers += delta
                grown.append(ep)
            else:
                ep.release_all()
            self._record_workers(ep)
        for ep in grown:
            self._hook(self.strategy.on_worker_free, ep.endpoint_id)
        rearm = (not self.finished and self._ticks_can_help()) or (
            self.finished and any(ep.active_workers > 0 for ep in self.endpoints)
        )
        if rearm:
            self.schedule(
                self.clock + self.scenario.defaults.scale_tick_s,
                EventKind.SCALE_TICK,
                None,
            )

    def _on_refresh_tick(self):
        self.exec_profiler.refresh()
        self.transfer_profiler.refresh()
        if not self.finished and self._ticks_can_help():
            self.schedule(
                self.clock + self.scenario.defaults.refresh_tick_s,
                EventKind.REFRESH_TICK,
                None,
            )

    def _on_reschedule_tick(self):
        moved = self._hook(self.strategy.on_reschedule_tick)
        if moved and isinstance(self.strategy, DhaStrategy):
            period = self.strategy.reschedule_period
            if period > 0:
                self.arm_reschedule(period)

    # -- main loop ---------------------------------------------------------

    def run(self) -> MetricsLog:
        handlers = {
            EventKind.SUBMIT_BATCH: lambda p: self._on_submit_batch(p),
            EventKind.TRANSFER_COMPLETE: lambda p: self._on_transfer_complete(*p),
            EventKind.TASK_COMPLETE: lambda p: self._on_task_complete(p),
            EventKind.RESULT_OBSERVED: lambda p: self._on_result_observed(p),
            EventKind.CAPACITY_CHANGE: lambda p: self._on_capacity_change(*p),
            EventKind.SCALE_TICK: lambda p: self._on_scale_tick(),
            EventKind.REFRESH_TICK: lambda p: self._on_refresh_tick(),
            EventKind.RESCHEDULE_TICK: lambda p: self._on_reschedule_tick(),
        }
        while self._events:
            event = heapq.heappop(self._events)
            if event.time < self.clock - 1e-9:
                raise RuntimeError("event time moved backwards")
            self.clock = max(self.clock, event.time)
            self.metrics.event_count += 1
            handlers[event.kind](event.payload)
        if not self.finished:
            self._raise_deadlock()
        self._finalize_metrics()
        if self.history_path:
            self.exec_profiler.save(self.history_path)
        return self.metrics

    def _raise_deadlock(self):
        stuck = []
        for tid, node in sorted(self.dag.nodes.items()):
            if node.terminal or tid in self.unrunnable:
                continue
            missing = sorted(
                d for d in node.deps if self.dag.nodes[d].state != TaskState.DONE
            )
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
        completions = [
            tm.observed_time if tm.observed_time is not None else tm.end_time
            for tm in m.tasks.values()
            if tm.end_time is not None
        ]
        submits = [tm.submit_time for tm in m.tasks.values()]
        m.makespan = (max(completions) - min(submits)) if completions else 0.0
        m.transfer_bytes = self.data.transfer_bytes_total()
        m.tasks_failed = sum(
            1 for tm in m.tasks.values() if tm.final_state in ("failed", "unrunnable")
        )
        for job in self.data.jobs.values():
            m.transfers.append(
                (
                    job.job_id,
                    job.data_id,
                    job.src,
                    job.dst,
                    job.size,
                    job.state.value,
                    job.retries_used,
                    -1.0 if job.started_at is None else job.started_at,
                    -1.0 if job.finished_at is None else job.finished_at,
                )
            )


def run_scenario(
    scenario: Scenario,
    scheduler_kind: Optional[str] = None,
    seed: Optional[int] = None,
    **kwargs,
) -> MetricsLog:
    return Simulation(scenario, scheduler_kind, seed, **kwargs).run()
