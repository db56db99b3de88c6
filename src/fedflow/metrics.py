"""Run metrics: per-task intervals, worker-utilization series, CSV export."""

from __future__ import annotations

import csv
import logging
from pathlib import Path

from .dag import TaskState

logger = logging.getLogger(__name__)

SUMMARY_BASE_COLUMNS = ["makespan_s", "transfer_GB", "tasks_failed"]
UTILIZATION_COLUMNS = ["time_s", "endpoint", "busy", "active"]
TRANSFERS_COLUMNS = [
    "job_id",
    "data_id",
    "src",
    "dst",
    "size_B",
    "state",
    "retries_used",
    "started_at_s",
    "finished_at_s",
]
STAGING_COLUMNS = ["time_s", "tasks_in_staging"]


def _fmt(value) -> str:
    """A value as the CSVs write it: a float with six decimals, anything
    else (an int time from a scenario file, None) as `str` writes it."""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _rows_of(flat: list, width: int):
    """Consecutive rows of `width` fields of a flat list, as tuples, one at
    a time."""
    return zip(*[iter(flat)] * width)


# The row formatters of the series CSVs, one per series, each a generator:
# a row's time columns go through `_fmt`, and its ints and strings go to the
# `csv` writer as they are, which writes them as `str` does.


def _utilization_rows(flat: list):
    return ((_fmt(t), ep, busy, active) for t, ep, busy, active in _rows_of(flat, 4))


def _staging_rows(flat: list):
    return ((_fmt(t), count) for t, count in _rows_of(flat, 2))


def _transfer_row(job) -> tuple:
    """A transfers row of a job: its fields in TRANSFERS_COLUMNS order, and
    -1.0 for a time it did not reach."""
    return (job.job_id, job.data_id, job.src, job.dst, job.size, job.state.value,
            job.retries_used, -1.0 if job.started_at is None else job.started_at,
            -1.0 if job.finished_at is None else job.finished_at)


def _transfer_rows(jobs):
    return ((*row[:7], _fmt(row[7]), _fmt(row[8])) for row in map(_transfer_row, jobs))


class MetricsLog:
    def __init__(self, endpoint_ids: list, tasks: dict, jobs: dict):
        self.endpoint_ids = list(endpoint_ids)
        self.tasks = tasks  # task_id -> TaskNode, timestamps included
        # job_id -> TransferJob, every transfer job of the run: the data
        # manager's own table, which `transfers` and `emit` read.
        self.jobs = jobs
        # Utilization rows laid end to end, four fields each (time,
        # endpoint, busy, active): a row costs four slots, not a tuple.
        self.utilization_flat: list = []
        # Staging samples laid end to end the same way, two fields each
        # (time, tasks_in_staging), one sample per time.
        self.staging_flat: list = []
        self.makespan: float = 0.0
        self.transfer_bytes: int = 0
        self.tasks_failed: int = 0
        self.sched_seconds: float = 0.0  # all strategy hooks, in a timed run only
        self.resched_seconds: float = 0.0  # the re-scheduling hooks among them
        self.decision_count: int = 0  # first placements and retries
        self.move_count: int = 0  # re-scheduling moves
        self.pass_scores: int = 0  # tasks a re-scheduling pass priced, one left-out idle read each
        self.event_count: int = 0

    @property
    def utilization(self) -> list:
        """The utilization rows, as (time, endpoint, busy, active) tuples."""
        return list(_rows_of(self.utilization_flat, 4))

    @property
    def staging_series(self) -> list:
        """The staging samples, as (time, tasks_in_staging) tuples."""
        return list(_rows_of(self.staging_flat, 2))

    @property
    def transfers(self) -> list:
        """The transfers rows, one per job in the order opened, as tuples
        matching TRANSFERS_COLUMNS."""
        return [_transfer_row(job) for job in self.jobs.values()]

    @property
    def mean_decision_seconds(self) -> float:
        """Placement hook time per first placement or retry."""
        if not self.decision_count:
            return 0.0
        return (self.sched_seconds - self.resched_seconds) / self.decision_count

    def per_endpoint_task_counts(self) -> dict:
        counts = {ep: 0 for ep in self.endpoint_ids}
        for node in self.tasks.values():
            if node.state is TaskState.DONE:
                counts[node.assigned_endpoint] += 1
        return counts

    # -- export ------------------------------------------------------------

    def emit(self, out_dir):
        """Write the four CSVs to `out_dir`, each series row by row from
        what the run keeps."""
        out = Path(out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
            self._write_summary(out / "summary.csv")
            self._write_rows(out / "utilization.csv", UTILIZATION_COLUMNS,
                             _utilization_rows(self.utilization_flat))
            self._write_rows(out / "transfers.csv", TRANSFERS_COLUMNS,
                             _transfer_rows(self.jobs.values()))
            self._write_rows(out / "staging.csv", STAGING_COLUMNS,
                             _staging_rows(self.staging_flat))
        except OSError as exc:
            raise MetricsIOError(str(exc)) from exc

    def _write_summary(self, path):
        counts = self.per_endpoint_task_counts()
        columns = SUMMARY_BASE_COLUMNS + [f"tasks_{ep}" for ep in self.endpoint_ids]
        row = [
            _fmt(self.makespan),
            _fmt(self.transfer_bytes / 1e9),
            str(self.tasks_failed),
        ] + [str(counts[ep]) for ep in self.endpoint_ids]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerow(row)

    @staticmethod
    def _write_rows(path, columns, rows):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            writer.writerows(rows)


class MetricsIOError(OSError):
    """Raised when metrics files cannot be written."""
