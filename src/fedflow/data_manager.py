"""Data items, replica tracking, and staging: which inputs move to an
endpoint and from which replica, their transfers with retry, and what moving
them costs, all read from one rule. `DataManager._source` is that rule;
`staging_estimate`, which DHA calls for each candidate it stages, applies it
inline, and `TestOneRule` in tests/test_data_manager.py pins the two to
each other.

At most one transfer job is open (waiting or active) per item and
destination, and every task that needs the item there waits on that job.
Transfers between each ordered endpoint pair run under a concurrency cap;
jobs past the cap wait FIFO by job id, and the staging estimate charges for
that queue. The bytes moved are those of the jobs that finished a transfer
(failed attempts contribute nothing).
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .scenario import PROBE_PREFIX

logger = logging.getLogger(__name__)


class DataError(RuntimeError):
    """Raised on inconsistent data-manager state."""


class JobState(Enum):
    WAITING = "waiting"
    ACTIVE = "active"
    DONE = "done"
    FAILED = "failed"


# The run makes one per task output and keeps it to the end, so it is a
# slotted record, like TransferJob.
@dataclass(slots=True)
class DataItem:
    data_id: str
    size: int
    # A new replica replaces the set, so a reader may keep it as a key.
    locations: frozenset = frozenset()
    # The destinations with an open job for the item; replaced the same way.
    inbound: frozenset = frozenset()


@dataclass(slots=True)
class TransferJob:
    job_id: int
    data_id: str
    src: str
    dst: str
    size: int
    # The tasks waiting on the job, in the order they began to; a cancelled
    # task leaves while the job is open, and the tuple is kept once it ends.
    # Every job lives to the end of the run, so it is kept small: a slotted
    # record, and a tuple (most jobs hold one task), not a list.
    tasks: tuple = ()
    state: JobState = JobState.WAITING
    retries_used: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    @property
    def task_id(self) -> Optional[int]:
        """The first task waiting on the job, or None when none is."""
        return self.tasks[0] if self.tasks else None


class DataManager:
    def __init__(
        self, endpoint_order, transfer_profiler, concurrency_cap=4, max_transfer_retries=3
    ):
        if concurrency_cap < 1:
            raise DataError("concurrency cap must be >= 1")
        # Endpoint ids in declaration order: the order replicas are chosen in.
        self.endpoint_order = tuple(endpoint_order)
        # Prices staging, and tells which links still need a probe.
        self.transfer_profiler = transfer_profiler
        self.concurrency_cap = concurrency_cap
        self.max_transfer_retries = max_transfer_retries
        self.items: dict = {}
        self.jobs: dict = {}
        self._next_job_id = 0
        self._active: dict = {}  # (src, dst) -> count
        self._waiting: dict = {}  # (src, dst) -> heap of job ids
        # (src, dst) -> bytes of the WAITING jobs in that heap.
        self._waiting_bytes: dict = {}
        # (data_id, dst) -> the one WAITING or ACTIVE job landing that item
        # on that endpoint.
        self._open: dict = {}
        # task_id -> ids of the open jobs its latest stage() waits on; the
        # entry goes when the set empties or the task is cancelled.
        self._task_jobs: dict = {}
        # One object per endpoint set value, which many items share as
        # their replica and inbound sets.
        self._replica_sets: dict = {}
        # endpoint -> its interned one-endpoint set: an item's first replica.
        self._first_replica = {
            ep: self._replica_set(frozenset((ep,))) for ep in self.endpoint_order
        }

    # -- items -------------------------------------------------------------

    def register_item(self, data_id: str, size: int, locations=()) -> DataItem:
        if size < 0:
            raise DataError(f"{data_id}: negative size")
        if data_id in self.items:
            raise DataError(f"duplicate data item {data_id}")
        item = DataItem(data_id, size, self._replica_set(frozenset(locations)))
        self.items[data_id] = item
        return item

    def _replica_set(self, locations: frozenset) -> frozenset:
        return self._replica_sets.setdefault(locations, locations)

    def add_replica(self, data_id: str, endpoint: str):
        item = self.items[data_id]
        if item.locations:
            item.locations = self._replica_set(item.locations | {endpoint})
        else:
            item.locations = self._first_replica[endpoint]

    # -- staging -----------------------------------------------------------

    def choose_source(self, item: DataItem) -> str:
        """Deterministic replica choice: first location in declaration order."""
        for ep in self.endpoint_order:
            if ep in item.locations:
                return ep
        raise DataError(f"{item.data_id}: no replica available")

    def _source(self, item: DataItem, target: str) -> Optional[str]:
        """The replica `item` is copied from to `target`, or None when it is
        empty or already there: the one rule of what staging moves."""
        if target in item.locations or item.size == 0:
            return None
        return self.choose_source(item)

    def staging_estimate(self, file_deps, target: str) -> float:
        """Predicted seconds to move the inputs `stage` would move to
        `target`, summed in `file_deps` order.

        An input with an open job to `target` adds nothing: the task would
        wait on that job. Any other moved input adds its predicted transfer,
        and, when its link has every slot busy, its share of the link's
        queue: the predicted seconds of the WAITING jobs over the cap.

        The `_source` rule is applied inline, in its order: an item with no
        replica raises before its open jobs are looked at.
        """
        items = self.items
        order = self.endpoint_order
        links = self.transfer_profiler.links
        active = self._active
        cap = self.concurrency_cap
        total = 0.0
        for data_id in file_deps:
            item = items[data_id]
            size = item.size
            locations = item.locations
            if target in locations or size == 0:
                continue
            for src in order:
                if src in locations:
                    break
            else:
                raise DataError(f"{data_id}: no replica available")
            if target in item.inbound:
                continue
            pair = (src, target)
            try:
                latency, bandwidth = links[pair]
            except KeyError:  # `link` raises the profiler's error for it
                latency, bandwidth = self.transfer_profiler.link(src, target)
            total += latency + size / bandwidth
            if active.get(pair, 0) >= cap:
                count = len(self._waiting[pair])
                total += (count * latency + self._waiting_bytes[pair] / bandwidth) / cap
        return total

    def bytes_to_move(self, file_deps, target: str) -> int:
        """Bytes of the inputs `stage` would move to `target`."""
        items = self.items
        deps = (items[d] for d in file_deps)
        return sum(item.size for item in deps if self._source(item, target) is not None)

    def stage(self, task_id: int, file_deps, target: str, clock: float) -> tuple:
        """Make the task wait on the open transfer of each input that moves
        (`_source`) to `target`, opening one where none is, in the order of
        `file_deps` (a task's are sorted at submit).

        Returns (waited_on, started): the jobs the task now waits on, and
        the jobs admitted under the concurrency cap right away. An empty
        `waited_on` means staging for this task is already complete.
        """
        waited_on, started = [], []
        for data_id in file_deps:
            item = self.items[data_id]
            src = self._source(item, target)
            if src is None:
                continue
            job = self._open.get((data_id, target))
            if job is None:
                job, admitted = self._open_job(data_id, src, target, item.size, clock)
                started.extend(admitted)
            job.tasks += (task_id,)
            waited_on.append(job)
        if waited_on:
            # Re-staging always follows cancel_task_jobs, so these are the
            # task's only open jobs.
            self._task_jobs[task_id] = {job.job_id for job in waited_on}
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
                started.extend(self._open_job(item.data_id, src, dst, size, clock)[1])
        return started

    def _open_job(self, data_id: str, src: str, dst: str, size: int, clock: float) -> tuple:
        """Open a job under the next job id and queue it on its link;
        returns (job, jobs admitted on that link)."""
        job = TransferJob(self._next_job_id, data_id, src, dst, size)
        self._next_job_id += 1
        self.jobs[job.job_id] = job
        self._open[(data_id, dst)] = job
        item = self.items[data_id]
        item.inbound = self._replica_set(item.inbound | {dst})
        return job, self._start_waiting(self._enqueue(job), clock)

    def _enqueue(self, job: TransferJob) -> tuple:
        """Queue a WAITING job on its link; returns the link, (src, dst)."""
        pair = (job.src, job.dst)
        heapq.heappush(self._waiting.setdefault(pair, []), job.job_id)
        self._waiting_bytes[pair] = self._waiting_bytes.get(pair, 0) + job.size
        return pair

    def _start_waiting(self, pair, clock: float) -> list:
        """Admit the link's waiting jobs under the cap, FIFO by job id;
        returns them. Every job in a waiting heap is WAITING: cancelling a
        task leaves its jobs open."""
        started = []
        waiting = self._waiting.get(pair, [])
        while waiting and self._active.get(pair, 0) < self.concurrency_cap:
            job = self.jobs[heapq.heappop(waiting)]
            self._waiting_bytes[pair] -= job.size
            job.state = JobState.ACTIVE
            job.started_at = clock
            self._active[pair] = self._active.get(pair, 0) + 1
            started.append(job)
        return started

    def on_transfer_finished(self, job: TransferJob, success: bool, clock: float):
        """Finish an active job; retry on failure until retries are exhausted.

        Returns (completed_tasks, failed_tasks, started_jobs): tasks whose
        last open job just landed, the tasks that waited on a job that ran
        out of retries, and jobs newly admitted under the cap.
        """
        if job.state != JobState.ACTIVE:
            raise DataError(f"job {job.job_id} is not active")
        pair = (job.src, job.dst)
        self._active[pair] -= 1
        completed, failed = [], []
        if success:
            job.state = JobState.DONE
            job.finished_at = clock
            self._close(job)
            self.add_replica(job.data_id, job.dst)
            for task_id in job.tasks:
                pending = self._task_jobs[task_id]
                pending.remove(job.job_id)
                if not pending:
                    del self._task_jobs[task_id]
                    completed.append(task_id)
        elif job.retries_used < self.max_transfer_retries:
            job.retries_used += 1
            job.state = JobState.WAITING
            job.started_at = None
            self._enqueue(job)
        else:
            job.state = JobState.FAILED
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
        return completed, failed, self._start_waiting(pair, clock)

    def _close(self, job: TransferJob):
        """Forget a job that ended DONE or FAILED as its item's open one."""
        del self._open[(job.data_id, job.dst)]
        item = self.items[job.data_id]
        item.inbound = self._replica_set(item.inbound - {job.dst})

    def cancel_task_jobs(self, task_id: int):
        """Forget bookkeeping for a task being re-staged elsewhere or failed.

        Only the task's own jobs are visited. The task stops waiting on the
        open ones, which stay open: active jobs are left to finish (their
        replicas stay useful) and waiting ones still run when admitted.
        """
        for job_id in self._task_jobs.pop(task_id, ()):
            job = self.jobs[job_id]
            if job.state in (JobState.WAITING, JobState.ACTIVE):
                job.tasks = tuple(t for t in job.tasks if t != task_id)

    def transfer_bytes_total(self) -> int:
        """Bytes of the DONE jobs: each moved its bytes once (a retry
        restarts the transfer)."""
        return sum(job.size for job in self.jobs.values() if job.state is JobState.DONE)
