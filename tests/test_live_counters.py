"""The engine's and data manager's live counters equal the full scans they
replace, after every event of every golden run.

The counters are `Simulation.finished`, `Simulation._pending_count()`,
`DataManager.open_jobs`, the per-task remaining-deps counts and the per-task
job index that `cancel_task_jobs` walks. A subclass of `Simulation` checks
them against scans of the task graph and the job table after each top-level
event handler; the run itself is unchanged.
"""

import dataclasses
import logging
from collections import Counter

import pytest

from fedflow.builtins import generate_builtin_scenario
from fedflow.dag import TaskState
from fedflow.data_manager import JobState
from fedflow.engine import Simulation
from test_golden import CASES, SEED, _scenario

OPEN = (JobState.WAITING, JobState.ACTIVE)
HANDLERS = (
    "_on_submit_batch",
    "_on_transfer_complete",
    "_on_task_complete",
    "_on_result_observed",
    "_on_capacity_change",
    "_on_scale_tick",
    "_on_refresh_tick",
    "_on_reschedule_tick",
)
# Half of all transfer attempts fail and each job retries once, so tasks are
# retried elsewhere, fail for good and leave unrunnable successors.
LOSSY_CASES = [("montage-like", 0.02, s, "lossy") for s in ("capacity", "locality", "dha")]


def check_counters(sim):
    nodes, unrunnable = sim.dag.nodes, sim.unrunnable
    live = pending = 0
    not_done = []
    for tid, node in nodes.items():
        state = node.state
        if state is not TaskState.DONE:
            not_done.append(tid)
            if state is not TaskState.FAILED and tid not in unrunnable:
                live += 1
                pending += state is not TaskState.RUNNING
    assert sim.finished == (sim._pending_batches == 0 and live == 0)
    assert sim._pending_count() == pending
    deps_left = Counter(s for t in not_done for s in sim.dag.successors[t])
    assert sim._deps_left == deps_left

    data = sim.data
    jobs = data.jobs.values()
    assert data.open_jobs == sum(1 for j in jobs if j.state in OPEN)
    index = data._task_jobs
    assert all(index.values()), "empty index entry"
    assert index.keys() == data._pending_per_task.keys()
    indexed = {(t, j.job_id) for t, js in index.items() for j in js}
    for j in jobs:
        if j.state in OPEN and j.task_id is not None:
            assert (j.task_id, j.job_id) in indexed


def _checked(name):
    handler = getattr(Simulation, name)

    def run_then_check(self, *args):
        self.depth += 1
        try:
            handler(self, *args)
        finally:
            self.depth -= 1
        if not self.depth:
            check_counters(self)
            self.checks += 1

    return run_then_check


class ScanCheckedSimulation(Simulation):
    depth = 0
    checks = 0


for _name in HANDLERS:
    setattr(ScanCheckedSimulation, _name, _checked(_name))


def _case_scenario(name, scale, variant):
    if variant != "lossy":
        return _scenario(name, scale, variant)
    sc = generate_builtin_scenario(name, scale)
    sc.defaults = dataclasses.replace(
        sc.defaults, transfer_failure_rate=0.5, max_transfer_retries=1
    )
    return sc


@pytest.mark.parametrize(
    "case", CASES + LOSSY_CASES, ids=lambda c: "-".join(str(p) for p in c if p)
)
def test_counters_equal_scans_after_every_event(case):
    name, scale, scheduler, variant = case
    logging.disable(logging.WARNING)  # the lossy runs log every failure
    try:
        sim = ScanCheckedSimulation(
            _case_scenario(name, scale, variant), scheduler_kind=scheduler, seed=SEED
        )
        metrics = sim.run()
    finally:
        logging.disable(logging.NOTSET)
    assert sim.checks == metrics.event_count
    if variant == "lossy":
        assert metrics.tasks_failed > 0 and sim.unrunnable
