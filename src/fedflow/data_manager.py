"""Data items, replica tracking, and staging transfers with retry.

Transfers between each ordered endpoint pair run under a concurrency cap;
jobs past the cap wait FIFO by job id. Every successfully moved byte is
accounted in a global counter (failed attempts contribute nothing).
"""

from __future__ import annotations

import heapq
import logging
import shutil
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

logger = logging.getLogger(__name__)


class DataError(RuntimeError):
    """Raised on inconsistent data-manager state."""


class JobState(Enum):
    WAITING = "waiting"
    ACTIVE = "active"
    DONE = "done"
    FAILED = "failed"


@dataclass
class DataItem:
    data_id: str
    size: int
    locations: set = field(default_factory=set)
    producer_task: Optional[int] = None


@dataclass
class TransferJob:
    job_id: int
    data_id: str
    src: str
    dst: str
    size: int
    task_id: Optional[int]
    state: JobState = JobState.WAITING
    retries_used: int = 0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None


class SimulatedBackend:
    """Duration-and-outcome oracle; no side effects."""

    kind = "simulated"

    def execute(self, job: TransferJob):
        pass


class LocalCopyBackend:
    """Copies real files between per-endpoint directories under a root.

    Exists to exercise the backend interface end to end; simulated time is
    still driven by the network model.
    """

    kind = "local-copy"

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, endpoint: str, data_id: str) -> Path:
        return self.root / endpoint / data_id

    def execute(self, job: TransferJob):
        src = self.path_for(job.src, job.data_id)
        dst = self.path_for(job.dst, job.data_id)
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(src, dst)


class DataManager:
    def __init__(
        self,
        concurrency_cap: int = 4,
        max_transfer_retries: int = 3,
        backend=None,
    ):
        if concurrency_cap < 1:
            raise DataError("concurrency cap must be >= 1")
        self.concurrency_cap = concurrency_cap
        self.max_transfer_retries = max_transfer_retries
        self.backend = backend or SimulatedBackend()
        self.items: dict = {}
        self.jobs: dict = {}
        self._next_job_id = 0
        self._active: dict = {}  # (src, dst) -> count
        self._waiting: dict = {}  # (src, dst) -> heap of job ids
        self._active_items: dict = {}  # (data_id, dst) -> active job count
        self._blocked: dict = {}  # (data_id, dst) -> job ids parked behind a duplicate
        # task_id -> outstanding job count, and the jobs of its latest stage();
        # both entries go when the count reaches 0 or the task is cancelled.
        self._pending_per_task: dict = {}
        self._task_jobs: dict = {}
        self.open_jobs = 0  # jobs WAITING or ACTIVE
        self._bytes_total = 0

    # -- items -------------------------------------------------------------

    def register_item(
        self, data_id: str, size: int, locations=(), producer_task=None
    ) -> DataItem:
        if size < 0:
            raise DataError(f"{data_id}: negative size")
        if data_id in self.items:
            raise DataError(f"duplicate data item {data_id}")
        item = DataItem(data_id, size, set(locations), producer_task)
        self.items[data_id] = item
        return item

    def add_replica(self, data_id: str, endpoint: str):
        self.items[data_id].locations.add(endpoint)

    # -- staging -----------------------------------------------------------

    def choose_source(self, item: DataItem, endpoint_order: list) -> str:
        """Deterministic replica choice: first location in declaration order."""
        for ep in endpoint_order:
            if ep in item.locations:
                return ep
        raise DataError(f"{item.data_id}: no replica available")

    def stage(
        self,
        task_id: int,
        file_deps,
        target: str,
        endpoint_order: list,
        clock: float,
    ) -> tuple:
        """Create one transfer job per non-resident dependency.

        Returns (jobs, started) where `started` are the jobs admitted under
        the concurrency cap right away. An empty job list means staging for
        this task is already complete.
        """
        jobs = []
        for data_id in sorted(file_deps):
            item = self.items[data_id]
            if target in item.locations or item.size == 0:
                continue
            job = TransferJob(
                job_id=self._next_job_id,
                data_id=data_id,
                src=self.choose_source(item, endpoint_order),
                dst=target,
                size=item.size,
                task_id=task_id,
            )
            self._next_job_id += 1
            self.jobs[job.job_id] = job
            jobs.append(job)
        if jobs:
            # Re-staging always follows cancel_task_jobs, so these are the
            # task's only open jobs.
            self._pending_per_task[task_id] = len(jobs)
            self._task_jobs[task_id] = jobs
        started, completed = [], []
        for job in jobs:
            s, c = self._enqueue(job, clock)
            started.extend(s)
            completed.extend(c)
        return jobs, started, completed

    def probe_job(self, src: str, dst: str, size: int, clock: float) -> tuple:
        """A bandwidth-probe transfer owned by no task."""
        data_id = f"__probe__{src}__{dst}"
        if data_id not in self.items:
            self.register_item(data_id, size, locations={src})
        job = TransferJob(
            job_id=self._next_job_id,
            data_id=data_id,
            src=src,
            dst=dst,
            size=size,
            task_id=None,
        )
        self._next_job_id += 1
        self.jobs[job.job_id] = job
        started, completed = self._enqueue(job, clock)
        return job, started, completed

    def _enqueue(self, job: TransferJob, clock: float) -> tuple:
        self.open_jobs += 1
        pair = (job.src, job.dst)
        heapq.heappush(self._waiting.setdefault(pair, []), job.job_id)
        return self._start_waiting(pair, clock)

    def _job_satisfied(self, job: TransferJob) -> list:
        """Account one finished (or obviated) job; returns completed tasks."""
        self.open_jobs -= 1
        task_id = job.task_id
        if task_id is None:
            return []
        self._pending_per_task[task_id] -= 1
        if self._pending_per_task[task_id] == 0:
            del self._pending_per_task[task_id]
            del self._task_jobs[task_id]
            return [task_id]
        return []

    def _start_waiting(self, pair, clock: float) -> tuple:
        """Admit waiting jobs under the cap; returns (started, completed_tasks).

        A job whose destination has meanwhile received the replica is
        satisfied without moving bytes; a job duplicating an in-flight
        (data, destination) transfer parks until that transfer resolves.
        """
        started, completed = [], []
        waiting = self._waiting.get(pair, [])
        while waiting and self._active.get(pair, 0) < self.concurrency_cap:
            job = self.jobs[heapq.heappop(waiting)]
            if job.state != JobState.WAITING:
                continue  # orphaned or already resolved
            key = (job.data_id, job.dst)
            if job.dst in self.items[job.data_id].locations:
                job.state = JobState.DONE
                job.finished_at = clock
                completed.extend(self._job_satisfied(job))
                continue
            if self._active_items.get(key, 0) > 0:
                self._blocked.setdefault(key, []).append(job.job_id)
                continue
            job.state = JobState.ACTIVE
            job.started_at = clock
            self._active[pair] = self._active.get(pair, 0) + 1
            self._active_items[key] = self._active_items.get(key, 0) + 1
            started.append(job)
        return started, completed

    def on_transfer_finished(self, job: TransferJob, success: bool, clock: float):
        """Finish an active job; retry on failure until retries are exhausted.

        Returns (completed_tasks, failed_task, started_jobs): tasks whose last
        outstanding job just resolved, the task failed by retry exhaustion (if
        any), and jobs newly admitted under the cap.
        """
        if job.state != JobState.ACTIVE:
            raise DataError(f"job {job.job_id} is not active")
        pair = (job.src, job.dst)
        key = (job.data_id, job.dst)
        self._active[pair] -= 1
        self._active_items[key] -= 1
        completed = []
        failed_task = None
        if success:
            job.state = JobState.DONE
            job.finished_at = clock
            self.backend.execute(job)
            self.add_replica(job.data_id, job.dst)
            self._bytes_total += job.size
            completed.extend(self._job_satisfied(job))
        elif job.retries_used < self.max_transfer_retries:
            job.retries_used += 1
            job.state = JobState.WAITING
            job.started_at = None
            heapq.heappush(self._waiting.setdefault(pair, []), job.job_id)
        else:
            job.state = JobState.FAILED
            job.finished_at = clock
            self.open_jobs -= 1
            failed_task = job.task_id
            logger.warning(
                "transfer %d (%s %s->%s) failed after %d retries",
                job.job_id,
                job.data_id,
                job.src,
                job.dst,
                job.retries_used,
            )
        pairs = {pair}
        for jid in self._blocked.pop(key, []):
            parked = self.jobs[jid]
            if parked.state != JobState.WAITING:
                continue
            park_pair = (parked.src, parked.dst)
            heapq.heappush(self._waiting.setdefault(park_pair, []), jid)
            pairs.add(park_pair)
        started = []
        for p in sorted(pairs):
            s, c = self._start_waiting(p, clock)
            started.extend(s)
            completed.extend(c)
        return completed, failed_task, started

    def cancel_task_jobs(self, task_id: int):
        """Forget bookkeeping for a task being re-staged elsewhere.

        Only the task's own jobs are visited. Open ones lose their owner:
        active jobs are left to finish (their replicas stay useful) and
        waiting ones still run when admitted.
        """
        self._pending_per_task.pop(task_id, None)
        for job in self._task_jobs.pop(task_id, ()):
            if job.state in (JobState.WAITING, JobState.ACTIVE):
                job.task_id = None

    def transfer_bytes_total(self) -> int:
        return self._bytes_total
