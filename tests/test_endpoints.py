"""Endpoint worker pools, capacity events, and the elasticity policy."""

import pytest
from hypothesis import example, given, strategies as st

from fedflow.endpoints import (
    CapacityEvent,
    EndpointError,
    EndpointModel,
    EndpointSpec,
    scale_decision,
)


def make(workers_per_node=10, max_nodes=4, initial_nodes=1, **kw):
    return EndpointModel(
        EndpointSpec("ep", workers_per_node, max_nodes, initial_nodes, **kw)
    )


class TestSpec:
    def test_max_workers(self):
        assert make(20, 5).spec.max_workers == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            EndpointSpec("x", 0, 1)
        with pytest.raises(ValueError):
            EndpointSpec("x", 1, 1, initial_nodes=2)
        with pytest.raises(ValueError):
            EndpointSpec("x", 1, 1, perf_factor=0.0)


class TestDispatchComplete:
    def test_accept_then_queue(self):
        ep = make(2, 1)
        assert ep.dispatch(0) == "accepted"
        assert ep.dispatch(1) == "accepted"
        assert ep.dispatch(2) == "queued"
        assert ep.busy_workers == 2 and list(ep.queued) == [2]

    def test_complete_pops_fifo(self):
        ep = make(1, 1)
        ep.dispatch(0)
        ep.dispatch(1)
        ep.dispatch(2)
        assert ep.complete(5.0) == [1]
        assert ep.complete(6.0) == [2]
        assert ep.complete(7.0) == []
        assert ep.last_busy_time == 7.0 and ep.busy_workers == 0

    def test_complete_without_running_raises(self):
        with pytest.raises(EndpointError):
            make().complete(0.0)


class TestCapacityEvents:
    def test_grow_and_clamp_to_max(self):
        ep = make(10, 4, 1)
        assert ep.apply_capacity_event(CapacityEvent(0, 15)) == []
        assert ep.active_workers == 25
        assert ep.apply_capacity_event(CapacityEvent(0, 1000)) == []
        assert ep.active_workers == 40

    def test_grow_starts_queued_fifo(self):
        # Added workers start queued tasks at once, oldest first, and no
        # more than the workers added.
        ep = make(2, 4, 1)
        for t in range(6):
            ep.dispatch(t)
        assert list(ep.queued) == [2, 3, 4, 5]
        assert ep.apply_capacity_event(CapacityEvent(0, 3)) == [2, 3, 4]
        assert ep.busy_workers == 5 and list(ep.queued) == [5]
        assert ep.apply_capacity_event(CapacityEvent(0, 1000)) == [5]
        assert ep.busy_workers == 6 and ep.idle_workers == 2

    def test_reduction_clamps_at_busy_and_drains(self):
        ep = make(10, 1, 1)
        for t in range(10):
            ep.dispatch(t)
        ep.dispatch(10)
        assert ep.apply_capacity_event(CapacityEvent(0, -4)) == []
        assert ep.active_workers == 10  # all busy: nothing to take yet
        assert ep.pending_reduction == 4
        # The freed worker goes to the reduction, not to the queued task.
        assert ep.complete(1.0) == []
        assert ep.active_workers == 9 and ep.busy_workers == 9
        assert list(ep.queued) == [10]
        ep.complete(2.0)
        assert ep.active_workers == 8
        ep.complete(3.0)
        assert ep.complete(4.0) == []
        assert ep.active_workers == 6 and ep.pending_reduction == 0
        assert ep.complete(5.0) == [10]
        assert ep.active_workers == 6 and ep.busy_workers == 6
        ep.complete(6.0)
        assert ep.active_workers == 6 and ep.busy_workers == 5

    def test_partial_reduction(self):
        ep = make(10, 1, 1)
        ep.dispatch(0)
        ep.apply_capacity_event(CapacityEvent(0, -5))
        assert ep.active_workers == 5
        assert ep.pending_reduction == 0


class TestGrowRelease:
    def test_grow_caps_at_max_nodes(self):
        # A share beyond max_nodes grows the pool to max_nodes only.
        ep = make(20, 2, 0)
        ep.committed.update(range(500))
        decisions = scale_decision(0.0, [ep], 500)
        assert decisions == [(ep, 40)]
        ep.apply_capacity_event(CapacityEvent(0.0, decisions[0][1]))
        assert ep.active_workers == 40

    def test_release_waits_for_idle(self):
        # Scale-in waits for an idle pool; applied as a capacity event, the
        # decision leaves no workers and no deferred reduction.
        ep = make(10, 1, 1, idle_timeout_s=30.0)
        ep.dispatch(0)
        assert scale_decision(100.0, [ep], 0) == []
        ep.complete(100.0)
        assert scale_decision(129.9, [ep], 0) == []
        decisions = scale_decision(130.0, [ep], 0)
        assert decisions == [(ep, -10)]
        ep.apply_capacity_event(CapacityEvent(130.0, decisions[0][1]))
        assert ep.active_workers == 0 and ep.pending_reduction == 0


class TestScaleDecision:
    def test_burst_grows_to_share(self):
        # 50 pending thirty-second tasks on a 20-per-node endpoint: 3 nodes.
        ep = make(20, 5, 0)
        ep.committed.update(range(50))
        decisions = scale_decision(0.0, [ep], 50)
        assert decisions == [(ep, 60)]

    def test_queued_work_counts_toward_share(self):
        # 25 queued beside 20 busy workers on one node: grow to 2 nodes.
        ep = make(20, 5, 1)
        for t in range(45):
            ep.dispatch(t)
        assert scale_decision(0.0, [ep], 45) == [(ep, 20)]

    def test_no_scale_out_when_workers_cover_pending(self):
        ep = make(20, 5, 2)
        ep.committed.update(range(30))
        assert scale_decision(0.0, [ep], 30) == []

    def test_scale_in_after_idle_timeout(self):
        ep = make(20, 5, 1, idle_timeout_s=30.0)
        ep.last_busy_time = 10.0
        assert scale_decision(39.9, [ep], 0) == []
        assert scale_decision(40.0, [ep], 0) == [(ep, -20)]

    def test_scale_in_blocked_by_share(self):
        ep = make(20, 5, 1, idle_timeout_s=30.0)
        ep.last_busy_time = 0.0
        ep.committed.update(range(5))
        assert scale_decision(100.0, [ep], 5) == []

    def test_per_endpoint_independence(self):
        busy = make(20, 5, 1)
        busy.dispatch(0)
        idle = EndpointModel(EndpointSpec("idle", 20, 5, 1, idle_timeout_s=30.0))
        decisions = scale_decision(50.0, [busy, idle], 0)
        assert decisions == [(idle, -20)]


@given(st.lists(st.sampled_from(["dispatch", "complete", "grow", "shrink"]),
                max_size=60))
# Added workers must start the task queued beside them.
@example(["dispatch"] * 11 + ["grow"])
def test_worker_invariants_hold_under_any_op_sequence(ops):
    ep = make(10, 3, 1)
    tid = 0
    clock = 0.0
    for op in ops:
        clock += 1.0
        if op == "dispatch":
            ep.dispatch(tid)
            tid += 1
        elif op == "complete":
            if ep.busy_workers > 0:
                ep.complete(clock)
        elif op == "grow":
            ep.apply_capacity_event(CapacityEvent(clock, 5))
        else:
            ep.apply_capacity_event(CapacityEvent(clock, -3))
        assert 0 <= ep.busy_workers <= ep.active_workers <= ep.spec.max_workers
        assert ep.pending_reduction >= 0
        assert not ep.queued or ep.idle_workers == 0
