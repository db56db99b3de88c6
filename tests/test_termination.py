"""Runs end, ticks live exactly as long as work is queued, profilers refit
at every refresh boundary the run passes, and a task that stops releases
what it holds.

Every run here is bounded in events, so a run that would spin forever fails
instead of hanging the suite.
"""

import dataclasses
import logging
import signal
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fedflow.builtins import BUILTIN_NAMES, generate_builtin_scenario
from fedflow.dag import TaskState
from fedflow.endpoints import CapacityEvent
from fedflow.engine import DeadlockError, Simulation
from fedflow.scenario import ScenarioError, scenario_from_dict
from fedflow.scheduling import DhaStrategy
from test_live_counters import ScanCheckedSimulation, undispatched_by_endpoint
from test_scheduler import reference_pass

SEED = 7
MAX_EVENTS = 50_000


class BoundedSimulation(Simulation):
    """Fails once it has handled `MAX_EVENTS` events, and records every
    event handled and profiler refresh, in order, with the clock at each,
    and every task completion and task outcome."""

    def __init__(self, *args, **kwargs):
        self.timeline = []  # ("event" | "exec" | "xfer", clock)
        self.completions = []
        self.outcomes = []  # (task_id, endpoint, success), one per attempt
        super().__init__(*args, **kwargs)
        for name, profiler in (("exec", self.exec_profiler), ("xfer", self.transfer_profiler)):
            profiler.refresh = self._logged(name, profiler.refresh)

    def _logged(self, name, callback):
        def logged(*args):
            self.timeline.append((name, self.clock))
            return callback(*args)

        return logged

    def schedule(self, when, kind, payload):
        if self.metrics.event_count > MAX_EVENTS:
            pytest.fail(f"no end after {MAX_EVENTS} events (t={self.clock:.0f} s)")
        super().schedule(when, kind, (self._logged("event", payload[0]), *payload[1:]))

    def _on_task_complete(self, node, exec_time):
        self.completions.append(self.clock)
        self.outcomes.append((node.task_id, node.assigned_endpoint, True))
        super()._on_task_complete(node, exec_time)

    def _fail_task(self, task_id):
        self.outcomes.append((task_id, self.dag.nodes[task_id].assigned_endpoint, False))
        super()._fail_task(task_id)


class MoveRecordingSimulation(BoundedSimulation, ScanCheckedSimulation):
    """Records each re-scheduling move as (clock, task, target), and counts
    the idle reads that leave a task out of its incumbent: a pass makes one
    for each task it prices. After each event it runs the live-counter and
    prefix-index checks of `tests/test_live_counters.py`."""

    def __init__(self, *args, **kwargs):
        self.moves = []
        self.left_out_reads = 0
        super().__init__(*args, **kwargs)

    def move_assignment(self, task_id, endpoint_id):
        self.moves.append((self.clock, task_id, endpoint_id))
        super().move_assignment(task_id, endpoint_id)

    def earliest_idle_estimate(self, endpoint_id, left_out_s=None):
        if left_out_s is not None:
            self.left_out_reads += 1
        return super().earliest_idle_estimate(endpoint_id, left_out_s)


class ReferenceDhaStrategy(DhaStrategy):
    reschedule_pass = reference_pass


def dha_outputs(sc, walk_class=DhaStrategy) -> tuple:
    """A DHA run whose passes `walk_class` makes: (moves, bytes of each
    CSV, or None when the run deadlocks, tasks the passes scored). The
    scores must equal the left-out idle reads."""
    sim = MoveRecordingSimulation(sc, scheduler_kind="dha", seed=SEED)
    sim.strategy = walk_class(sim)
    try:
        metrics = sim.run()
    except DeadlockError:
        csvs = None
    else:
        with tempfile.TemporaryDirectory() as out:
            metrics.emit(out)
            csvs = {p.name: p.read_bytes() for p in sorted(Path(out).iterdir())}
    assert sim.metrics.pass_scores == sim.left_out_reads
    return sim.moves, csvs, sim.metrics.pass_scores


def check_index_walk(sc):
    """The pass over the prefix index makes the moves and writes the CSVs
    of `reference_pass`, and prices no more tasks."""
    *outputs, scores = dha_outputs(sc)
    *reference, reference_scores = dha_outputs(sc, ReferenceDhaStrategy)
    assert outputs == reference
    assert scores <= reference_scores


def check_refits(sim):
    """No event runs past a refresh boundary, a multiple of
    `refresh_tick_s`, unless both profilers have refreshed past that
    boundary, and a refresh comes only when the clock first passes one."""
    period = sim.scenario.defaults.refresh_tick_s
    boundary = period  # the first boundary no event has run past
    refreshed = {"exec": -1.0, "xfer": -1.0}
    for what, clock in sim.timeline:
        if what != "event":
            assert clock > boundary, f"{what} refresh at {clock} s passes no boundary"
            refreshed[what] = clock
            continue
        passed = None
        while boundary < clock:
            passed = boundary
            boundary += period
        if passed is not None:
            assert min(refreshed.values()) > passed, f"event at {clock} s, no refit past {passed} s"


def lossy(name, scale, **defaults):
    sc = generate_builtin_scenario(name, scale)
    sc.defaults = dataclasses.replace(sc.defaults, **defaults)
    return sc


@pytest.fixture
def quiet():
    logging.disable(logging.WARNING)  # lossy runs log every failure
    yield
    logging.disable(logging.NOTSET)


@pytest.mark.parametrize("scheduler", ["capacity", "locality", "dha"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_every_builtin_ends_under_every_scheduler(name, scheduler):
    # Each run finishes, or stops with a deadlock, within the event bound;
    # the dynamic builtins under DHA run re-scheduling passes while
    # capacity changes.
    sim = BoundedSimulation(generate_builtin_scenario(name, 0.01), scheduler_kind=scheduler, seed=SEED)
    if (name, scheduler) == ("elasticity", "locality"):
        # See test_elastic_locality_deadlocks_instead_of_spinning.
        with pytest.raises(DeadlockError):
            sim.run()
        return
    metrics = sim.run()
    assert sim.finished and metrics.tasks_failed == 0
    check_refits(sim)
    if name.startswith("dynamic") and scheduler == "dha":
        assert metrics.pass_scores > 0


def test_refresh_ticks_run_until_the_last_task_completes():
    # With a 30 s poll interval, results wait in queued RESULT_OBSERVED
    # events while no worker is busy and no transfer is open; the profilers
    # still refit at every boundary up to the last event.
    sc = generate_builtin_scenario("montage-like", 0.02)
    sc.network = dataclasses.replace(sc.network, poll_interval_s=30.0)
    sim = BoundedSimulation(sc, scheduler_kind="dha", seed=SEED)
    sim.run()
    check_refits(sim)
    last_event = max(clock for what, clock in sim.timeline if what == "event")
    assert last_event > max(sim.completions) + sc.defaults.refresh_tick_s
    assert max(clock for what, clock in sim.timeline if what == "exec") > max(sim.completions)


@pytest.fixture
def wall_bound():
    """Fails the test once it has run for 2 s of wall time: a refresh
    boundary that spins does so inside one event, so no event bound sees it."""

    def expire(signum, frame):
        pytest.fail("no end within 2 s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0.0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("scheduler", ["capacity", "locality", "dha"])
@pytest.mark.parametrize("long_s", [1e9, 1e15])
def test_a_long_jump_of_the_clock_advances_the_refresh_boundary_at_once(
    long_s, scheduler, wall_bound
):
    # A chain of a long task, then 3 s and 1 s ones. The first completion
    # jumps the clock over 2e8 or 2e14 refresh periods of 5 s. The boundary
    # then stands at that completion, a multiple of 5 s, so the profilers
    # refit at it and again at the 3 s task's completion, and the 1 s task
    # ends before the next boundary.
    doc = {
        "name": "long-task",
        "endpoints": [{"endpoint_id": "a", "workers_per_node": 1, "max_nodes": 1, "initial_nodes": 1}],
        "network": {"default": {"bandwidth_MBps": 100.0, "latency_s": 0.1}},
        "functions": [
            {"name": "long", "true_fixed_s": long_s},
            {"name": "three", "true_fixed_s": 3.0},
            {"name": "one", "true_fixed_s": 1.0},
        ],
        "workflow": [
            {"id": 0, "function": "long"},
            {"id": 1, "function": "three", "deps": [0]},
            {"id": 2, "function": "one", "deps": [1]},
        ],
        "defaults": {"refresh_tick_s": 5.0},
    }
    sim = BoundedSimulation(scenario_from_dict(doc), scheduler_kind=scheduler, seed=SEED)
    metrics = sim.run()
    assert metrics.tasks_failed == 0
    assert metrics.makespan == long_s + 4.0
    assert [clock for what, clock in sim.timeline if what == "exec"] == [long_s, long_s + 3.0]


def test_elastic_run_with_unrunnable_tasks_ends(quiet):
    # Capacity assigns every task at submit; an unrunnable task must give
    # that claim back, or its endpoint is never idle and scale ticks go on.
    sc = lossy(
        "drug-like",
        0.02,
        scheduler="capacity",
        elastic=True,
        transfer_failure_rate=0.5,
        max_transfer_retries=0,
    )
    sim = BoundedSimulation(sc, seed=SEED)
    metrics = sim.run()
    assert sim.finished and sim.unrunnable
    assert metrics.tasks_failed > 0
    assert not any(ep.waiting_work for ep in sim.endpoints)


def test_each_failed_attempt_is_recorded_once(caplog):
    sc = lossy(
        "drug-like",
        0.02,
        scheduler="capacity",
        transfer_failure_rate=0.5,
        max_transfer_retries=1,
    )
    with caplog.at_level(logging.ERROR, logger="fedflow.engine"):
        sim = BoundedSimulation(sc, seed=SEED)
        metrics = sim.run()
    gave_up = Counter(
        r.args[0] for r in caplog.records if r.getMessage().endswith("giving up")
    )
    failed = [t for t, node in metrics.tasks.items() if node.state is TaskState.FAILED]
    assert failed and gave_up == Counter(failed)
    failures = Counter(t for t, _, success in sim.outcomes if not success)
    for tid, node in sim.dag.nodes.items():
        assert failures[tid] == len(node.failed_endpoints), tid
    for tid in failed:
        assert len(sim.dag.nodes[tid].failed_endpoints) == sim.max_task_attempts, tid


@pytest.mark.parametrize("limit", [1, 2])
def test_max_task_attempts_caps_attempts(limit, quiet):
    sc = lossy(
        "montage-like",
        0.02,
        scheduler="capacity",
        transfer_failure_rate=0.6,
        max_transfer_retries=0,
        max_task_attempts=limit,
    )
    sim = BoundedSimulation(sc, seed=SEED)
    sim.run()
    attempts = Counter(t for t, _, _ in sim.outcomes)
    assert max(attempts.values()) == limit


def taiyi_goes_offline():
    """dynamic-drug 0.02 with taiyi taken to 0 workers at 540 s."""
    sc = generate_builtin_scenario("dynamic-drug", 0.02)
    sc.capacity_traces = dict(sc.capacity_traces, taiyi=[CapacityEvent(540.0, -10_000)])
    return sc


# Makespans at SEED; keyed by scheduler alone, so a re-pin keeps the test ids.
MAKESPAN_WITHOUT_TAIYI = {"dha": 2970.6, "locality": 2976.1}


@pytest.mark.parametrize("scheduler", MAKESPAN_WITHOUT_TAIYI)
def test_work_leaves_an_endpoint_with_no_workers(scheduler):
    sim = BoundedSimulation(taiyi_goes_offline(), scheduler_kind=scheduler, seed=SEED)
    metrics = sim.run()
    assert metrics.tasks_failed == 0
    assert metrics.makespan == pytest.approx(MAKESPAN_WITHOUT_TAIYI[scheduler], abs=0.05)


def test_capacity_deadlocks_on_an_endpoint_with_no_workers():
    # Capacity's partition is fixed offline, so taiyi's share has nowhere to
    # run; the run stops with a deadlock instead of spinning.
    sim = BoundedSimulation(taiyi_goes_offline(), scheduler_kind="capacity", seed=SEED)
    with pytest.raises(DeadlockError, match=r"\[queued\] on taiyi"):
        sim.run()


def test_dha_deadlocks_when_every_endpoint_loses_its_workers():
    # Each endpoint drops to 0 workers at its own time, off the 10 s tick
    # grid, while tasks wait undispatched. The re-scheduling tick stays
    # armed while other events are queued, and stops once none is: the run
    # raises instead of spinning. Two tick chains, one per capacity change,
    # would keep each other armed forever.
    sc = generate_builtin_scenario("dynamic-drug", 0.02)
    sc.capacity_traces = {
        ep.endpoint_id: [CapacityEvent(540.0 + 65.0 * i, -10_000)]
        for i, ep in enumerate(sc.endpoints)
    }
    sim = BoundedSimulation(sc, scheduler_kind="dha", seed=SEED)
    with pytest.raises(DeadlockError, match=r"\[ready\]"):
        sim.run()
    assert any(undispatched_by_endpoint(sim).values())
    assert any(ep.waiting_work > len(ep.queued) for ep in sim.endpoints)
    assert all(ep.active_workers == 0 for ep in sim.endpoints)


@pytest.mark.parametrize("scale", [0.05, 0.1, 1.0])
def test_elastic_locality_deadlocks_instead_of_spinning(scale):
    # Locality holds ready tasks unassigned, so no pool has waiting work to
    # grow for, and no pool has workers left to idle out: the scale and
    # refresh ticks stop and the drained queue raises.
    sc = generate_builtin_scenario("elasticity", scale)
    sim = BoundedSimulation(sc, scheduler_kind="locality", seed=SEED)
    with pytest.raises(DeadlockError, match=r"\[pending\]"):
        sim.run()
    assert all(ep.active_workers == 0 for ep in sim.endpoints)


def test_elastic_run_lives_until_an_idle_pool_releases_its_workers():
    # Capacity commits 2 of the 20 tasks to a, which loses its workers at
    # 0.1 s while their input is still moving. b runs its 18 by 20 s; with
    # 100 workers against 2 pending tasks no tick grows a pool, but b idles
    # out 30 s later, and then a grows for its 2 tasks. Ticks that waited
    # only for growth would stop at 20 s and end the run in a deadlock.
    doc = {
        "name": "idle-out",
        "endpoints": [
            {
                "endpoint_id": "a",
                "workers_per_node": 10,
                "max_nodes": 1,
                "initial_nodes": 1,
                "capacity_trace": [{"time_s": 0.1, "delta_workers": -10}],
            },
            {"endpoint_id": "b", "workers_per_node": 100, "max_nodes": 1, "initial_nodes": 1},
        ],
        "network": {"default": {"bandwidth_MBps": 100.0, "latency_s": 0.1}},
        "functions": [{"name": "f", "true_fixed_s": 20.0}],
        "workflow": [
            {
                "id": i,
                "function": "f",
                "file_deps": [{"data_id": "d", "size_MB": 100.0, "locations": ["b"]}],
            }
            for i in range(20)
        ],
        "defaults": {"scheduler": "capacity", "elastic": True},
    }
    sim = BoundedSimulation(scenario_from_dict(doc), seed=SEED)
    metrics = sim.run()
    assert metrics.tasks_failed == 0
    assert metrics.makespan == pytest.approx(71.0)
    assert sim.completions[-1] > 50.0  # a ran its tasks after b idled out


ENDPOINTS = ("a", "b")


@st.composite
def workflow_documents(draw, loadable=False):
    """Small scenario documents: 1-25 tasks listed in any id order, each
    submitted at one of a few times, with deps on other tasks and optional
    inline data declarations; one capacity change, possibly to 0 workers,
    and `elastic` on or off. In about half of them a task may depend on any
    task, which mostly fails to load; in the rest only on tasks listed
    before it, which loads unless a dep is submitted later. With
    `loadable`, 10-25 tasks all submitted at 0 s depend only on tasks
    listed before them, followed by up to 12 copies of one task with no
    inputs: they share a function, an input size and often an incumbent,
    so one pass can move several tasks of one decision prefix. Any of them
    may probe every link at start, and lose three transfer attempts in
    ten."""
    ids = draw(st.lists(st.integers(0, 40), min_size=10 if loadable else 1, max_size=25,
                        unique=True))
    if loadable:
        ids.sort()
    any_order = not loadable and draw(st.booleans())
    # Each item has one declaration that most entries repeat; the rest may
    # contradict it.
    items = {
        "x": {"data_id": "x", "size_MB": 5.0, "locations": ["a"]},
        "y": {"data_id": "y", "size_MB": 50.0, "locations": ["b", "a"]},
    }
    declaration = st.fixed_dictionaries({
        "data_id": st.sampled_from(list(items)),
        "size_MB": st.sampled_from([0.0, 5.0, 50.0]),
        "locations": st.lists(st.sampled_from(ENDPOINTS), min_size=1, unique=True),
    })
    declared = []
    workflow = []
    for i, tid in enumerate(ids):
        file_deps = []
        forms = ["ref", "repeat"] if loadable else ["ref", "repeat", "repeat", "any"]
        for form in draw(st.lists(st.sampled_from(forms), max_size=2)):
            if form == "ref" and declared:
                file_deps.append(draw(st.sampled_from(declared)))
                continue
            fd = draw(declaration) if form == "any" else draw(st.sampled_from(list(items.values())))
            declared.append(fd["data_id"])
            file_deps.append(fd)
        others = ids if any_order else ids[:i]
        workflow.append({
            "id": tid,
            "function": draw(st.sampled_from(["f", "g"])),
            "deps": draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
            if others else [],
            "file_deps": file_deps,
            "submit_time_s": 0.0 if loadable else draw(st.sampled_from([0.0, 3.0, 10.0])),
        })
    if loadable:
        copies = draw(st.integers(0, 12))
        workflow += [{"id": tid, "function": "f"} for tid in range(41, 41 + copies)]
    event = {
        "time_s": draw(st.sampled_from([0.0, 2.0, 7.0])),
        "delta_workers": draw(st.sampled_from([-1, 2] if loadable else [-10_000, -1, 2])),
    }
    changed = draw(st.sampled_from(ENDPOINTS))
    return {
        "name": "generated",
        "endpoints": [
            {
                "endpoint_id": ep,
                "workers_per_node": 2,
                "max_nodes": 2,
                "initial_nodes": draw(st.integers(0, 1)),
                "idle_timeout_s": 5.0,
                "capacity_trace": [event] if ep == changed else [],
            }
            for ep in ENDPOINTS
        ],
        "network": {"default": {"bandwidth_MBps": 10.0, "latency_s": 0.1}},
        "functions": [
            {"name": "f", "true_fixed_s": 2.0, "output_ratio": 0.5},
            {"name": "g", "true_fixed_s": 0.5, "true_rate_s_per_MB": 0.1, "noise": 0.2},
        ],
        "workflow": workflow,
        "defaults": {
            "elastic": draw(st.booleans()),
            "probe_at_init": draw(st.booleans()),
            "transfer_failure_rate": draw(st.sampled_from([0.0, 0.3])),
        },
    }


def load_in_order(doc):
    """The scenario `doc` describes; its workflow comes back in
    (submit_time_s, id) order, whatever order the file lists it in."""
    sc = scenario_from_dict(doc)
    keys = [(t.submit_time_s, t.id) for t in sc.workflow]
    assert keys == sorted(keys)
    return sc


@settings(max_examples=150)
@given(workflow_documents())
def test_a_scenario_that_loads_runs_to_an_end_under_every_scheduler(doc):
    # A document is rejected at load, or each run ends with every task in a
    # terminal state or with a deadlock; any other exception is a fault.
    # Every document has a capacity change, so DHA runs passes: the prefix
    # index's pass makes the moves and CSVs of `reference_pass`.
    try:
        sc = load_in_order(doc)
    except ScenarioError:
        return
    check_index_walk(sc)
    for scheduler in ("capacity", "locality", "dha"):
        sim = BoundedSimulation(sc, scheduler_kind=scheduler, seed=SEED)
        try:
            sim.run()
        except DeadlockError:
            pass
        else:
            assert sim.finished and len(sim.dag.nodes) == len(sc.workflow)
            assert all(node.terminal for node in sim.dag.nodes.values())
        check_refits(sim)


@settings(max_examples=150)
@given(workflow_documents(loadable=True))
def test_the_class_index_pass_walks_as_the_reference_pass(doc):
    # Documents that load, with 10-37 tasks waiting at once, so that passes
    # move tasks; 32 of the 150 runs move one.
    check_index_walk(load_in_order(doc))
