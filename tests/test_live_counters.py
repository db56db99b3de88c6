"""The engine's and data manager's live counters equal the full scans they
replace, after every event of every golden run.

The counters are `Simulation.finished`, `Simulation._pending_count()`, the
per-state task counts, the last staging-series sample, each endpoint's
committed set and predicted backlog, `Simulation._work_queued()`, which
reads the queue's length on the rule that at most one scale tick is ever
queued, each node's remaining-deps count, the data manager's table of open
jobs (one per item and destination), each item's set of destinations with
an open job, its per-task index of the jobs a task waits on, which must
invert each job's record of its waiting tasks, and each link's lane: its
count of ACTIVE jobs, never over the concurrency cap, its waiting heap,
which holds exactly the link's WAITING jobs, and the byte sum of that heap.
Every item's replica and inbound set is the interned object, each memoized
set step gives the interned result of its step, and the source table gives
each replica set its first location in declaration order.
Each endpoint's finish heap and backlog are kept only for DHA, the one
strategy whose idle estimate reads them: capacity and locality leave every
heap empty and every backlog at 0, and under DHA every RUNNING task has an
entry on its endpoint's heap. A
subclass of `Simulation` checks them against scans of the task graph, the
endpoints and the job table after each event, together with the rule that
no endpoint holds a queued task beside an idle worker; the run itself is
unchanged. Under DHA, once a pass has started it, the index of
committed tasks by decision prefix is checked against one built afresh.

Every input of a STAGING or READY task is on its endpoint, is empty, or has
an open job there, so the data manager prices staging it there at exactly
0 s; DHA's re-scheduling pass prices each incumbent on that rule.

Each task's successor list must stay strictly ascending, since the
readiness, cascade and placement walks over it no longer sort; the lossy
dynamic-drug DHA run takes that through retries, unrunnable cascades and
re-scheduling moves.
"""

import logging
from collections import Counter
from itertools import pairwise

import pytest

from fedflow.dag import TaskState
from fedflow.data_manager import JobState
from fedflow.engine import EventKind, Simulation
from test_golden import CASES, SEED, _scenario

OPEN = (JobState.WAITING, JobState.ACTIVE)
UNDISPATCHED = (TaskState.PENDING, TaskState.STAGING, TaskState.READY)
# `EndpointModel.backlog_s` is a running sum of adds and subtracts, so it drifts from a
# fresh sum by float rounding: under 1e-10 s over the runs below.
BACKLOG_TOLERANCE_S = 1e-6
# Lossy runs (see `_scenario`): tasks fail, are retried and leave unrunnable
# successors. Under DHA the dynamic ones also re-schedule, so the prefix index
# sees tasks leave it by failure.
LOSSY_CASES = [("montage-like", 0.02, s, "lossy") for s in ("capacity", "locality", "dha")]
LOSSY_CASES += [("dynamic-drug", 0.02, "dha", "lossy"), ("dynamic-montage", 0.02, "dha", "lossy")]
# Each check scans every task, so the full-size golden cases are left out.
SCANNED_CASES = [case for case in CASES if case[1] < 1.0] + LOSSY_CASES


def check_counters(sim):
    nodes = sim.dag.nodes
    live = pending = 0
    not_done = []
    undispatched = {ep: set() for ep in sim.endpoint_order}
    backlog = {ep: 0.0 for ep in sim.endpoint_order}
    for tid, node in nodes.items():
        state = node.state
        if node.backlog_s:
            backlog[node.assigned_endpoint] += node.backlog_s
        if state in UNDISPATCHED and node.assigned_endpoint is not None:
            undispatched[node.assigned_endpoint].add(tid)
        if state is not TaskState.DONE:
            not_done.append(tid)
            if state not in (TaskState.FAILED, TaskState.UNRUNNABLE):
                live += 1
                pending += state is not TaskState.RUNNING
    kinds = Counter(e[1] for e in sim._events)
    assert sim.finished == (kinds[EventKind.SUBMIT_BATCH] == 0 and live == 0)
    assert sim._pending_count() == pending
    states = Counter(node.state for node in nodes.values())
    assert sim._state_counts == [states[s] for s in TaskState]
    running = sum(ep.busy_workers for ep in sim.endpoints)
    assert states[TaskState.RUNNING] == running
    flat = sim.metrics.staging_flat  # (time, count) pairs end to end
    assert (flat[-1] if flat else 0) == states[TaskState.STAGING]
    for ep in sim.endpoints:
        assert ep.committed == undispatched[ep.endpoint_id], ep.endpoint_id
        assert abs(ep.backlog_s - backlog[ep.endpoint_id]) <= BACKLOG_TOLERANCE_S, ep.endpoint_id
        assert not ep.queued or ep.idle_workers == 0, f"{ep.endpoint_id}: queued beside idle"
    if sim.scheduler_kind == "dha":
        on_heap = {(ep.endpoint_id, tid) for ep in sim.endpoints for _, tid in ep.finish_heap}
        running = {
            (node.assigned_endpoint, tid)
            for tid, node in nodes.items()
            if node.state is TaskState.RUNNING
        }
        assert running <= on_heap, "a running task missing from its finish heap"
    else:
        assert not any(ep.finish_heap for ep in sim.endpoints), "finish heap filled"
        assert all(ep.backlog_s == 0.0 for ep in sim.endpoints), "backlog kept"
        assert all(node.backlog_s == 0.0 for node in nodes.values()), "task backlog kept"
    assert all(a < b for node in nodes.values() for a, b in pairwise(node.successors))
    deps_left = Counter(s for t in not_done for s in nodes[t].successors)
    assert all(node.deps_left == deps_left[tid] for tid, node in nodes.items())
    assert kinds[EventKind.SCALE_TICK] <= 1
    assert sim._work_queued() == any(kind != EventKind.SCALE_TICK for kind in kinds)

    data = sim.data
    for tid, node in nodes.items():
        if node.state in (TaskState.STAGING, TaskState.READY):
            assert data.staging_estimate(node.file_deps, node.assigned_endpoint) == 0.0, tid
    open_jobs = [j for j in data.jobs.values() if j.state in OPEN]
    assert len({(j.data_id, j.dst) for j in open_jobs}) == len(open_jobs), "one open job per key"
    assert data._open == {(j.data_id, j.dst): j for j in open_jobs}
    # Between events a task waits only on open jobs: a job that fails for
    # good fails its tasks in the same event.
    waiting_on = {}
    for j in open_jobs:
        assert len(set(j.tasks)) == len(j.tasks), j.job_id
        for tid in j.tasks:
            waiting_on.setdefault(tid, set()).add(j.job_id)
    assert data._task_jobs == waiting_on
    inbound = {}
    for data_id, dst in data._open:
        inbound.setdefault(data_id, set()).add(dst)
    assert all(item.inbound == inbound.get(d, set()) for d, item in data.items.items())
    # Each link's ACTIVE count and WAITING jobs, scanned in job-id order.
    active = Counter((j.src, j.dst) for j in open_jobs if j.state is JobState.ACTIVE)
    waiting = {}
    for j in open_jobs:
        if j.state is JobState.WAITING:
            waiting.setdefault((j.src, j.dst), []).append(j)
    order = data.endpoint_order
    assert list(data._lanes) == list(order)
    for dst, row in data._lanes.items():
        assert list(row) == list(order), dst
        for src, lane in row.items():
            pair, heap = (src, dst), lane.waiting
            queued = waiting.get(pair, [])
            assert lane.active == active[pair] <= data.concurrency_cap, pair
            assert sorted(heap) == [j.job_id for j in queued], pair
            assert all(heap[(i - 1) // 2] < heap[i] for i in range(1, len(heap))), pair
            assert lane.waiting_bytes == sum(j.size for j in queued), pair
    interned = data._replica_sets
    for item in data.items.values():
        assert interned[item.locations] is item.locations, item.data_id
        assert interned[item.inbound] is item.inbound, item.data_id
    for locations, src in data._sources.items():
        assert src == next((ep for ep in order if ep in locations), None), locations
    for steps, step in ((data._added, frozenset.__or__), (data._removed, frozenset.__sub__)):
        for (s, ep), result in steps.items():
            assert interned[s] is s and interned[result] is result, (s, ep)
            assert result == step(s, {ep}), (s, ep)


def check_class_index(sim):
    """DHA's index, with the changes since its last flush taken in, holds
    the committed tasks under the prefixes a fresh build gives them, each
    member list sorted in walk order, and each task's prefix holds it.
    Taking the changes in early changes nothing a pass decides: a pass
    takes them in first."""
    dha = sim.strategy
    if getattr(dha, "_classes", None) is None:
        return
    dha._flush()
    nodes = sim.dag.nodes
    rebuilt = {}
    for ep in sim.endpoints:
        for tid in ep.committed:
            entry = (-dha.priorities[tid], tid)
            rebuilt.setdefault(dha._prefix(nodes[tid]), []).append(entry)
    for key, cls in dha._classes.items():
        assert cls.key == key
        assert all(a < b for a, b in pairwise(cls.members)), key
    assert {key: cls.members for key, cls in dha._classes.items()} == {
        key: sorted(members) for key, members in rebuilt.items()
    }
    filed = {tid: cls for cls in dha._classes.values() for _, tid in cls.members}
    assert filed.keys() == dha._class_of.keys()
    assert all(dha._class_of[tid] is cls for tid, cls in filed.items())


class ScanCheckedSimulation(Simulation):
    """Runs the scans after each event's callback."""

    checks = 0

    def schedule(self, when, kind, payload):
        super().schedule(when, kind, (self._run_then_check, *payload))

    def _run_then_check(self, callback, *args):
        callback(*args)
        check_counters(self)
        check_class_index(self)
        self.checks += 1


@pytest.mark.parametrize(
    "case", SCANNED_CASES, ids=lambda c: "-".join(str(p) for p in c if p)
)
def test_counters_equal_scans_after_every_event(case):
    name, scale, scheduler, variant = case
    logging.disable(logging.WARNING)  # the lossy runs log every failure
    try:
        sim = ScanCheckedSimulation(
            _scenario(name, scale, variant), scheduler_kind=scheduler, seed=SEED
        )
        metrics = sim.run()
    finally:
        logging.disable(logging.NOTSET)
    assert sim.checks == metrics.event_count
    if variant == "lossy":
        assert metrics.tasks_failed > 0 and sim.unrunnable
        if name.startswith("dynamic"):
            assert metrics.move_count > 0, "no pass moved a task"
