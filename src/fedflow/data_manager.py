"""Data items, replica tracking, and staging: which inputs move to an
endpoint and from which replica, their transfers with retry, and what moving
them costs, all read from one rule: an input moves unless it is empty or on
the target, from its first replica in declaration order. An item's replicas,
and the destinations its open jobs land it on, are endpoint bitmasks: bit i
stands for `endpoint_order[i]` (`DataManager.bit`), so the first replica is
the mask's lowest set bit, which `_Sources` reads once per mask. `stage` and
`staging_estimate` (which DHA calls for each candidate) apply the rule
inline; `TestOneRule` in tests/test_data_manager.py pins them to `_source`
and to each other.

At most one transfer job is open (waiting or active) per item and
destination, and every task that needs the item there waits on that job.
Each ordered endpoint pair's `_Lane` runs its transfers under a concurrency
cap; jobs past the cap wait FIFO by job id, and the staging estimate charges
for that queue. The bytes moved are those of the jobs that finished a
transfer (failed attempts contribute nothing).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Optional

from .scenario import OUTPUT_PREFIX, PROBE_PREFIX

logger = logging.getLogger(__name__)


class DataError(RuntimeError):
    """Raised on inconsistent data-manager state."""


class JobState(Enum):
    WAITING = "waiting"
    ACTIVE = "active"
    DONE = "done"
    FAILED = "failed"


# Module globals read faster than Enum attributes on CPython 3.11.
_WAITING, _ACTIVE, _DONE, _FAILED = JobState
_job_id = attrgetter("job_id")
_OUTPUT_PREFIX_LEN = len(OUTPUT_PREFIX)


# The run makes one per task output and keeps it to the end, so it is a
# slotted record, like TransferJob. It hashes and compares by identity
# (`eq=False`): the data manager keys its open jobs on the item itself.
@dataclass(slots=True, eq=False)
class DataItem:
    """A data item: a declared one, which `DataManager.items` holds under its
    data id, or a task's output, which only its task's node holds. `key` is
    the declared data id, or the producing task's id."""

    key: str | int
    size: int
    # Endpoint bitmasks (`DataManager.bit`): the endpoints holding a replica,
    # and the destinations with an open job for the item. Ints, so a reader
    # may keep either as a key.
    locations: int = 0
    inbound: int = 0

    @property
    def data_id(self) -> str:
        """The item's name: its declared data id, or `out:<task id>`."""
        key = self.key
        return key if key.__class__ is str else f"{OUTPUT_PREFIX}{key}"


@dataclass(slots=True)
class TransferJob:
    """One job landing its item on `dst`, copied from `src`. It holds the
    item itself; `data_id`, the item's name, is built when read."""

    job_id: int
    item: DataItem
    src: str
    dst: str
    size: int
    # The tasks waiting on the job, in the order they began to; a cancelled
    # task leaves while the job is open, and the tuple is kept once it ends.
    # Every job lives to the end of the run, so it is kept small: a slotted
    # record, and a tuple (most jobs hold one task), not a list.
    tasks: tuple = ()
    state: JobState = _WAITING
    retries_used: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def task_id(self) -> Optional[int]:
        """The first task waiting on the job, or None when none is."""
        return self.tasks[0] if self.tasks else None

    @property
    def data_id(self) -> str:
        """The data id of the job's item."""
        return self.item.data_id


# One ordered endpoint pair's transfers under the concurrency cap.
@dataclass(slots=True)
class _Lane:
    active: int = 0
    waiting: list = field(default_factory=list)  # heap of WAITING job ids
    waiting_bytes: int = 0  # bytes of the jobs in `waiting`


class _Sources(dict):
    """Replica mask -> the endpoint of its lowest set bit, the first
    location in declaration order (None when empty): the replica staging
    copies from, picked on first read."""

    def __init__(self, order):
        super().__init__()
        self.order = order

    def __missing__(self, locations):
        src = self[locations] = (
            self.order[(locations & -locations).bit_length() - 1] if locations else None
        )
        return src


class DataManager:
    def __init__(
        self, endpoint_order, transfer_profiler, concurrency_cap=4, max_transfer_retries=3
    ):
        if concurrency_cap < 1:
            raise DataError("concurrency cap must be >= 1")
        # Endpoint ids in declaration order: the order replicas are chosen in.
        self.endpoint_order = tuple(endpoint_order)
        # Endpoint id -> its bit in an item's masks: bit i for the i-th.
        self.bit = {ep: 1 << i for i, ep in enumerate(self.endpoint_order)}
        # Prices staging, and tells which links still need a probe.
        self.transfer_profiler = transfer_profiler
        self.concurrency_cap = concurrency_cap
        self.max_transfer_retries = max_transfer_retries
        # Data id -> DataItem, for the declared items and the link probes;
        # a task's output is held by its node alone.
        self.items: dict = {}
        self.jobs: dict = {}
        self._next_job_id = 0
        order = self.endpoint_order
        # dst -> src -> the pair's lane, for every ordered pair.
        self._lanes = {dst: {src: _Lane() for src in order} for dst in order}
        # (item, dst) -> the one WAITING or ACTIVE job landing that item on
        # that endpoint.
        self._open: dict = {}
        # task_id -> ids of the open jobs its latest stage() waits on; the
        # entry goes when the set empties or the task is cancelled.
        self._task_jobs: dict = {}
        self._sources = _Sources(self.endpoint_order)

    # -- items -------------------------------------------------------------

    def register_item(self, data_id: str, size: int, locations=()) -> DataItem:
        if size < 0:
            raise DataError(f"{data_id}: negative size")
        if data_id in self.items:
            raise DataError(f"duplicate data item {data_id}")
        if data_id[:_OUTPUT_PREFIX_LEN] == OUTPUT_PREFIX:
            raise DataError(f"{data_id}: '{OUTPUT_PREFIX}<task id>' names a task's output")
        bit = self.bit
        replicas = 0
        for ep in locations:
            if ep not in bit:
                raise DataError(f"{data_id}: location '{ep}' is not an endpoint")
            replicas |= bit[ep]
        item = DataItem(data_id, size, replicas)
        self.items[data_id] = item
        return item

    def add_replica(self, item: DataItem, endpoint: str):
        item.locations |= self.bit[endpoint]

    # -- staging -----------------------------------------------------------

    def choose_source(self, item: DataItem) -> str:
        """Deterministic replica choice: first location in declaration order."""
        src = self._sources[item.locations]
        if src is None:
            raise DataError(f"{item.data_id}: no replica available")
        return src

    def _source(self, item: DataItem, target: str) -> Optional[str]:
        """The replica `item` is copied from to `target`, or None when it is
        empty or already there: the one rule of what staging moves."""
        if item.locations & self.bit[target] or item.size == 0:
            return None
        return self.choose_source(item)

    def staging_estimate(self, file_deps, target: str) -> float:
        """Predicted seconds to move the inputs, DataItems, that `stage`
        would move to `target`, summed in `file_deps` order.

        An input with an open job to `target` adds nothing: the task would
        wait on that job. Any other moved input adds its predicted transfer,
        and, when its link has every slot busy, its share of the link's
        queue: the predicted seconds of the WAITING jobs over the cap.

        The `_source` rule is applied inline, in its order: an item with no
        replica raises before its open jobs are looked at.
        """
        sources = self._sources
        links = self.transfer_profiler.links
        lanes = self._lanes[target]
        bit = self.bit[target]
        cap = self.concurrency_cap
        total = 0.0
        for item in file_deps:
            size = item.size
            locations = item.locations
            if locations & bit or size == 0:
                continue
            src = sources[locations]
            if src is None:
                raise DataError(f"{item.data_id}: no replica available")
            if item.inbound & bit:
                continue
            try:
                latency, bandwidth = links[(src, target)]
            except KeyError:  # `link` raises the profiler's error for it
                latency, bandwidth = self.transfer_profiler.link(src, target)
            total += latency + size / bandwidth
            lane = lanes[src]
            if lane.active >= cap:
                total += (len(lane.waiting) * latency + lane.waiting_bytes / bandwidth) / cap
        return total

    def bytes_to_move(self, file_deps, target: str) -> int:
        """Bytes of the inputs, DataItems, that `stage` would move to `target`."""
        return sum(item.size for item in file_deps if self._source(item, target) is not None)

    def stage(self, task_id: int, file_deps, target: str, clock: float) -> tuple:
        """Make the task wait on the open transfer of each input, a
        DataItem, that moves (`_source`) to `target`, opening one where none
        is, in the order of `file_deps` (a task's are sorted at submit).

        Returns (waited_on, started): the jobs the task now waits on, and
        the jobs admitted under the concurrency cap right away. An empty
        `waited_on` means staging for this task is already complete.
        """
        sources = self._sources
        bit = self.bit[target]
        waited_on, started = [], []
        for item in file_deps:
            locations = item.locations
            if locations & bit or item.size == 0:
                continue
            src = sources[locations]
            if src is None:
                raise DataError(f"{item.data_id}: no replica available")
            job = self._open.get((item, target))
            if job is None:
                job, admitted = self._open_job(item, src, target, clock)
                started.extend(admitted)
            job.tasks += (task_id,)
            waited_on.append(job)
        if waited_on:
            # Re-staging always follows cancel_task_jobs, so these are the
            # task's only open jobs.
            self._task_jobs[task_id] = set(map(_job_id, waited_on))
        return waited_on, started

    def issue_probes(self, size: int, clock: float) -> list:
        """Queue a `size`-byte probe, owned by no task, on each link the
        transfer profiler has not observed; returns the jobs admitted."""
        needs_probe = self.transfer_profiler.needs_probe
        started = []
        for src in self.endpoint_order:
            for dst in self.endpoint_order:
                if src == dst or not needs_probe(src, dst):
                    continue
                item = self.register_item(f"{PROBE_PREFIX}{src}__{dst}", size, {src})
                started.extend(self._open_job(item, src, dst, clock)[1])
        return started

    def _open_job(self, item: DataItem, src: str, dst: str, clock: float) -> tuple:
        """Open a job landing `item` on `dst` under the next job id and queue
        it on its link; returns (job, jobs admitted on that link)."""
        job = TransferJob(self._next_job_id, item, src, dst, item.size)
        self._next_job_id += 1
        self.jobs[job.job_id] = job
        self._open[(item, dst)] = job
        item.inbound |= self.bit[dst]
        return job, self._start_waiting(self._enqueue(job), clock)

    def _enqueue(self, job: TransferJob) -> _Lane:
        """Queue a WAITING job on its link's lane; returns the lane."""
        lane = self._lanes[job.dst][job.src]
        heapq.heappush(lane.waiting, job.job_id)
        lane.waiting_bytes += job.size
        return lane

    def _start_waiting(self, lane: _Lane, clock: float) -> list:
        """Admit the lane's waiting jobs under the cap, FIFO by job id;
        returns them. Every job in a waiting heap is WAITING: cancelling a
        task leaves its jobs open."""
        started = []
        waiting = lane.waiting
        cap = self.concurrency_cap
        while waiting and lane.active < cap:
            job = self.jobs[heapq.heappop(waiting)]
            lane.waiting_bytes -= job.size
            job.state = _ACTIVE
            job.started_at = clock
            lane.active += 1
            started.append(job)
        return started

    def on_transfer_finished(self, job: TransferJob, success: bool, clock: float):
        """Finish an active job; retry on failure until retries are exhausted.

        Returns (completed_tasks, failed_tasks, started_jobs): tasks whose
        last open job just landed, the tasks that waited on a job that ran
        out of retries, and jobs newly admitted under the cap.
        """
        if job.state is not _ACTIVE:
            raise DataError(f"job {job.job_id} is not active")
        lane = self._lanes[job.dst][job.src]
        lane.active -= 1
        completed, failed = [], []
        if success:
            job.state = _DONE
            job.finished_at = clock
            self._close(job)
            self.add_replica(job.item, job.dst)
            for task_id in job.tasks:
                pending = self._task_jobs[task_id]
                pending.remove(job.job_id)
                if not pending:
                    del self._task_jobs[task_id]
                    completed.append(task_id)
        elif job.retries_used < self.max_transfer_retries:
            job.retries_used += 1
            job.state = _WAITING
            job.started_at = None
            self._enqueue(job)
        else:
            job.state = _FAILED
            job.finished_at = clock
            self._close(job)
            failed = list(job.tasks)
            logger.warning(
                "transfer %d (%s %s->%s) failed after %d retries",
                job.job_id,
                job.data_id,
                job.src,
                job.dst,
                job.retries_used,
            )
        return completed, failed, self._start_waiting(lane, clock)

    def _close(self, job: TransferJob):
        """Forget a job that ended DONE or FAILED as its item's open one."""
        del self._open[(job.item, job.dst)]
        job.item.inbound &= ~self.bit[job.dst]

    def cancel_task_jobs(self, task_id: int):
        """Forget bookkeeping for a task being re-staged elsewhere or failed.

        Only the task's own jobs are visited. The task stops waiting on the
        open ones, which stay open: active jobs are left to finish (their
        replicas stay useful) and waiting ones still run when admitted.
        """
        for job_id in self._task_jobs.pop(task_id, ()):
            job = self.jobs[job_id]
            if job.state is _WAITING or job.state is _ACTIVE:
                job.tasks = tuple(t for t in job.tasks if t != task_id)

    def transfer_bytes_total(self) -> int:
        """Bytes of the DONE jobs: each moved its bytes once (a retry
        restarts the transfer)."""
        return sum(job.size for job in self.jobs.values() if job.state is _DONE)
