"""Data items, staging transfers, the one open job per item and
destination, the concurrency cap, retries, and the one rule that staging,
its estimate and locality's byte count share."""

import pytest
from hypothesis import given, settings, strategies as st

from fedflow.data_manager import DataError, DataManager, JobState
from fedflow.profilers import TransferProfiler

ORDER = ["a", "b", "c"]


def new_manager(order=ORDER, **kw):
    """A data manager whose transfer profiler prices every link of `order`
    from a distinct (latency, bandwidth) fallback."""
    links = {
        (src, dst): (0.1 * (i + 1), 1e6 * (j + 1))
        for i, src in enumerate(order)
        for j, dst in enumerate(order)
        if src != dst
    }
    return DataManager(order, TransferProfiler(fallback=links), **kw)


def inputs(dm, data_ids) -> list:
    """The registered items of `data_ids`, in order, as a task's
    `file_deps` hold them."""
    return [dm.items[d] for d in data_ids]


def endpoints_of(dm, mask) -> set:
    """The endpoint ids whose bits are set in `mask`, an item's
    `locations` or `inbound`."""
    return {ep for ep, bit in dm.bit.items() if mask & bit}


def manager(**kw):
    dm = new_manager(**kw)
    dm.register_item("x", 100, {"a"})
    dm.register_item("y", 50, {"b"})
    dm.register_item("z", 0, {"a"})
    return dm


class TestItems:
    def test_duplicate_rejected(self):
        dm = manager()
        with pytest.raises(DataError):
            dm.register_item("x", 1)

    def test_a_task_output_name_is_rejected(self):
        """A task's output is named `out:<task id>` and held by its node
        only, so a declared item may not take such a name."""
        dm = new_manager()
        with pytest.raises(DataError, match="^out:3: 'out:<task id>' names a task's output$"):
            dm.register_item("out:3", 1)
        assert "out:3" not in dm.items
        assert dm.register_item("output:3", 1).data_id == "output:3"

    def test_a_location_that_is_not_an_endpoint_is_named(self):
        """A mask has a bit for each endpoint of the federation only."""
        dm = new_manager()
        with pytest.raises(DataError, match="^q: location 'mars' is not an endpoint$"):
            dm.register_item("q", 1, ("a", "mars"))
        assert "q" not in dm.items

    def test_negative_size_rejected(self):
        with pytest.raises(DataError):
            new_manager().register_item("n", -1)

    def test_replicas_only_grow(self):
        dm = manager()
        dm.add_replica(dm.items["x"], "b")
        assert endpoints_of(dm, dm.items["x"].locations) == {"a", "b"}

    def test_choose_source_declaration_order(self):
        dm = manager()
        dm.add_replica(dm.items["y"], "a")
        assert dm.choose_source(dm.items["y"]) == "a"

    def test_choose_source_no_replica(self):
        dm = new_manager()
        item = dm.register_item("q", 1)
        with pytest.raises(DataError):
            dm.choose_source(item)

    def test_an_input_with_no_replica_is_named_not_a_key_error(self):
        dm = new_manager()
        dm.register_item("q", 1)
        with pytest.raises(DataError, match="^q: no replica"):
            dm.staging_estimate(inputs(dm, ["q"]), "b")
        with pytest.raises(DataError, match="^q: no replica"):
            dm.stage(1, inputs(dm, ["q"]), "b", 0.0)


class TestStage:
    def test_resident_and_empty_items_skipped(self):
        dm = manager()
        waited_on, started = dm.stage(1, inputs(dm, ["x", "z"]), "a", 0.0)
        # No jobs: staging of task 1 is already complete.
        assert waited_on == [] and started == []

    def test_nonresident_item_creates_job(self):
        dm = manager()
        jobs, started = dm.stage(1, inputs(dm, ["x", "y"]), "a", 0.0)
        assert len(jobs) == 1 and jobs[0].data_id == "y"
        assert started == jobs
        assert jobs[0].tasks == (1,) and jobs[0].task_id == 1
        assert jobs[0].state == JobState.ACTIVE

    def test_completion_releases_task(self):
        dm = manager()
        jobs, _ = dm.stage(1, inputs(dm, ["y"]), "a", 0.0)
        completed, failed, _ = dm.on_transfer_finished(jobs[0], True, 2.0)
        assert completed == [1] and failed == []
        assert endpoints_of(dm, dm.items["y"].locations) == {"a", "b"}
        assert dm.transfer_bytes_total() == 50

    def test_bytes_counted_only_on_success(self):
        dm = manager()
        jobs, _ = dm.stage(1, inputs(dm, ["y"]), "a", 0.0)
        _, _, started = dm.on_transfer_finished(jobs[0], False, 1.0)
        assert dm.transfer_bytes_total() == 0
        # The retry re-enters the (uncontended) link immediately.
        assert started == jobs
        assert jobs[0].state == JobState.ACTIVE and jobs[0].retries_used == 1


class TestConcurrencyCap:
    def test_cap_enforced_per_pair(self):
        dm = new_manager(concurrency_cap=2)
        for i in range(5):
            dm.register_item(f"d{i}", 10, {"a"})
        all_jobs, all_started = [], []
        for i in range(5):
            jobs, started = dm.stage(i, inputs(dm, [f"d{i}"]), "b", 0.0)
            all_jobs.extend(jobs)
            all_started.extend(started)
        assert len(all_started) == 2
        assert [j.state for j in all_jobs].count(JobState.ACTIVE) == 2

    def test_waiting_jobs_admitted_fifo(self):
        dm = new_manager(concurrency_cap=1)
        for i in range(3):
            dm.register_item(f"d{i}", 10, {"a"})
        jobs = []
        for i in range(3):
            j, started = dm.stage(i, inputs(dm, [f"d{i}"]), "b", 0.0)
            jobs.extend(j)
        _, _, started = dm.on_transfer_finished(jobs[0], True, 1.0)
        assert [j.job_id for j in started] == [jobs[1].job_id]

    def test_independent_pairs_do_not_share_cap(self):
        dm = new_manager(concurrency_cap=1)
        dm.register_item("p", 10, {"a"})
        dm.register_item("q", 10, {"b"})
        _, s1 = dm.stage(0, inputs(dm, ["p"]), "c", 0.0)
        _, s2 = dm.stage(1, inputs(dm, ["q"]), "c", 0.0)
        assert len(s1) == len(s2) == 1

    def test_cap_must_be_positive(self):
        with pytest.raises(DataError):
            new_manager(concurrency_cap=0)


class TestRetries:
    def test_exhaustion_fails_task(self):
        dm = new_manager(max_transfer_retries=2)
        dm.register_item("d", 10, {"a"})
        jobs, _ = dm.stage(7, inputs(dm, ["d"]), "b", 0.0)
        job = jobs[0]
        for _ in range(2):
            completed, failed, _ = dm.on_transfer_finished(job, False, 1.0)
            assert failed == []
        completed, failed, _ = dm.on_transfer_finished(job, False, 1.0)
        assert failed == [7]
        assert job.state == JobState.FAILED and job.retries_used == 2


class TestDuplicateSuppression:
    def test_concurrent_requests_share_one_transfer(self):
        dm = new_manager()
        dm.register_item("d", 10, {"a"})
        j1, s1 = dm.stage(1, inputs(dm, ["d"]), "b", 0.0)
        j2, s2 = dm.stage(2, inputs(dm, ["d"]), "b", 0.0)
        assert len(s1) == 1 and s2 == []
        assert j2 == j1 and j1[0].tasks == (1, 2) and len(dm.jobs) == 1
        completed, _, started = dm.on_transfer_finished(j1[0], True, 1.0)
        assert completed == [1, 2]
        assert started == []  # nothing re-transferred
        assert dm.transfer_bytes_total() == 10

    def test_exhausted_shared_transfer_fails_every_waiting_task(self):
        dm = new_manager(max_transfer_retries=0)
        dm.register_item("d", 10, {"a"})
        j1, _ = dm.stage(1, inputs(dm, ["d"]), "b", 0.0)
        dm.stage(2, inputs(dm, ["d"]), "b", 0.0)
        completed, failed, started = dm.on_transfer_finished(j1[0], False, 1.0)
        assert failed == [1, 2] and completed == [] and started == []
        assert j1[0].state is JobState.FAILED
        # The failed job is closed: the next stage of the item opens a new one.
        j3, s3 = dm.stage(3, inputs(dm, ["d"]), "b", 1.0)
        assert j3 == s3 and j3[0].job_id != j1[0].job_id

    def test_landing_releases_a_task_that_joined_behind_a_queue(self):
        # Cap 1: X is moving, Y waits on the same link, and only then does
        # task 2 ask for X; it waits on X's transfer, not behind Y.
        dm = new_manager(concurrency_cap=1)
        dm.register_item("X", 10, {"a"})
        dm.register_item("Y", 10, {"a"})
        jx, sx = dm.stage(1, inputs(dm, ["X"]), "b", 0.0)
        _, sy = dm.stage(3, inputs(dm, ["Y"]), "b", 0.0)
        dm.stage(2, inputs(dm, ["X"]), "b", 0.5)
        assert sx == jx and sy == []
        completed, failed, started = dm.on_transfer_finished(jx[0], True, 1.0)
        assert completed == [1, 2] and failed == []
        assert [j.data_id for j in started] == ["Y"]

    def test_cancelled_task_stops_waiting_and_the_job_stays_open(self):
        dm = new_manager()
        dm.register_item("d", 10, {"a"})
        jobs, _ = dm.stage(1, inputs(dm, ["d"]), "b", 0.0)
        dm.stage(2, inputs(dm, ["d"]), "b", 0.0)
        dm.cancel_task_jobs(1)
        assert jobs[0].tasks == (2,) and jobs[0].state is JobState.ACTIVE
        completed, _, _ = dm.on_transfer_finished(jobs[0], True, 1.0)
        assert completed == [2]


class TestQueueEstimate:
    """What `staging_estimate` charges for a link's queue and for an input
    already on its way. Link a->b has latency 0.1 s and bandwidth 2e6 B/s."""

    LAT, BW = 0.1, 2e6

    def loaded(self, cap, n_jobs):
        """A manager with `n_jobs` items of 10, 20, ... bytes staged from
        "a" to "b", one task each, and an item "q" of 1,000 bytes on "a"."""
        dm = new_manager(concurrency_cap=cap)
        for i in range(n_jobs):
            dm.register_item(f"d{i}", 10 * (i + 1), {"a"})
            dm.stage(i, inputs(dm, [f"d{i}"]), "b", 0.0)
        dm.register_item("q", 1000, {"a"})
        return dm

    def test_idle_link_adds_no_queue_term(self):
        dm = self.loaded(cap=2, n_jobs=1)
        assert dm.staging_estimate(inputs(dm, ["q"]), "b") == dm.transfer_profiler.predict_transfer(
            "a", "b", 1000
        )

    def test_saturated_link_adds_its_queue_over_the_cap(self):
        dm = self.loaded(cap=2, n_jobs=5)
        n, waiting_bytes = 3, 30 + 40 + 50
        lat, bw = self.LAT, self.BW
        transfer, queue = lat + 1000 / bw, (n * lat + waiting_bytes / bw) / 2
        assert dm.staging_estimate(inputs(dm, ["q"]), "b") == transfer + queue
        # Once per input: a second input on the same link pays it again.
        dm.register_item("r", 1000, {"a"})
        assert dm.staging_estimate(inputs(dm, ["q", "r"]), "b") == transfer + queue + transfer + queue

    def test_full_link_with_an_empty_queue_adds_nothing(self):
        dm = self.loaded(cap=2, n_jobs=2)
        assert dm.staging_estimate(inputs(dm, ["q"]), "b") == self.LAT + 1000 / self.BW

    def test_input_with_an_open_job_adds_nothing(self):
        dm = self.loaded(cap=1, n_jobs=3)
        assert endpoints_of(dm, dm.items["d0"].inbound) == {"b"}
        # d0 is moving and d2 waits behind d1: neither adds anything.
        assert dm.staging_estimate(inputs(dm, ["d0", "d2"]), "b") == 0.0
        assert dm.staging_estimate(inputs(dm, ["d0", "q"]), "b") == dm.staging_estimate(inputs(dm, ["q"]), "b")
        # Elsewhere the item is priced as usual.
        assert dm.staging_estimate(inputs(dm, ["d0"]), "c") == dm.transfer_profiler.predict_transfer(
            "a", "c", 10
        )

    def test_inbound_follows_the_open_jobs(self):
        dm = new_manager(max_transfer_retries=0)
        dm.register_item("d", 10, {"a"})
        done, _ = dm.stage(1, inputs(dm, ["d"]), "b", 0.0)
        failed, _ = dm.stage(2, inputs(dm, ["d"]), "c", 0.0)
        assert endpoints_of(dm, dm.items["d"].inbound) == {"b", "c"}
        dm.on_transfer_finished(done[0], True, 1.0)
        assert endpoints_of(dm, dm.items["d"].inbound) == {"c"}
        dm.on_transfer_finished(failed[0], False, 1.0)
        assert dm.items["d"].inbound == 0
        assert endpoints_of(dm, dm.items["d"].locations) == {"a", "b"}

    def test_retried_job_is_counted_again_while_it_waits(self):
        # Cap 1: X moves and Y waits. X fails and re-enters the queue; it
        # holds the lower job id, so it is admitted again at once.
        dm = new_manager(concurrency_cap=1)
        dm.register_item("X", 10, {"a"})
        dm.register_item("Y", 30, {"a"})
        jx, _ = dm.stage(1, inputs(dm, ["X"]), "b", 0.0)
        dm.stage(2, inputs(dm, ["Y"]), "b", 0.0)
        lane = dm._lanes["b"]["a"]
        assert (lane.active, len(lane.waiting), lane.waiting_bytes) == (1, 1, 30)
        seen = []
        start_waiting = dm._start_waiting

        def spy(lane, clock):
            seen.append((lane.active, len(lane.waiting), lane.waiting_bytes))
            return start_waiting(lane, clock)

        dm._start_waiting = spy
        _, _, started = dm.on_transfer_finished(jx[0], False, 1.0)
        assert seen == [(0, 2, 40)]
        assert started == jx and (lane.active, len(lane.waiting), lane.waiting_bytes) == (1, 1, 30)


class TestCancel:
    def test_active_job_orphaned(self):
        dm = manager()
        jobs, _ = dm.stage(1, inputs(dm, ["y"]), "a", 0.0)
        dm.cancel_task_jobs(1)
        assert jobs[0].task_id is None
        completed, failed, _ = dm.on_transfer_finished(jobs[0], True, 1.0)
        assert completed == [] and failed == []
        assert endpoints_of(dm, dm.items["y"].locations) == {"a", "b"}  # replica still lands


class TestProbe:
    def test_probe_owned_by_no_task(self):
        dm = new_manager()
        started = dm.issue_probes(10**7, 0.0)
        assert [(j.src, j.dst) for j in started] == [
            (a, b) for a in ORDER for b in ORDER if a != b
        ]
        job = started[0]
        assert job.task_id is None and job.state is JobState.ACTIVE
        completed, failed, _ = dm.on_transfer_finished(job, True, 1.0)
        assert completed == [] and failed == []

    def test_observed_links_are_not_probed(self):
        dm = new_manager()
        dm.transfer_profiler.observe("a", "b", 10**7, 1.0)
        started = dm.issue_probes(10**7, 0.0)
        assert ("a", "b") not in {(j.src, j.dst) for j in started}
        assert len(started) == len(ORDER) * (len(ORDER) - 1) - 1


# A placement: per item, its size (0 included) and the endpoints holding a
# replica (one or more), drawn over 2-4 endpoints.
@st.composite
def placements(draw):
    order = [f"e{i}" for i in range(draw(st.integers(2, 4)))]
    n_items = draw(st.integers(0, 6))
    items = [
        (
            f"d{i}",
            draw(st.sampled_from([0, 1, 10**6]) | st.integers(0, 10**9)),
            draw(st.sets(st.sampled_from(order), min_size=1)),
        )
        for i in range(n_items)
    ]
    file_deps = draw(st.permutations([d for d, _, _ in items]))
    target = draw(st.sampled_from(order))
    return order, items, file_deps, target


class TestOneRule:
    @settings(max_examples=300, deadline=None)
    @given(placements())
    def test_stage_moves_what_is_priced(self, placement):
        """`stage` creates exactly the (item, source) jobs that
        `staging_estimate` prices and `bytes_to_move` counts, and the
        estimate is the `file_deps`-ordered sum of `predict_transfer`."""
        order, items, file_deps, target = placement
        dm = new_manager(order)
        for data_id, size, where in items:
            dm.register_item(data_id, size, where)
        estimate = dm.staging_estimate(inputs(dm, file_deps), target)
        moved = dm.bytes_to_move(inputs(dm, file_deps), target)
        jobs, _ = dm.stage(0, inputs(dm, file_deps), target, 0.0)
        expected = [
            (d, next(ep for ep in order if ep in where))
            for d in file_deps
            for data_id, size, where in items
            if d == data_id and size > 0 and target not in where
        ]
        assert [(j.data_id, j.src) for j in jobs] == expected
        assert all(j.dst == target for j in jobs)
        assert moved == sum(j.size for j in jobs)
        predicted = 0.0
        for j in jobs:
            predicted += dm.transfer_profiler.predict_transfer(j.src, target, j.size)
        assert estimate == predicted

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_estimate_prices_the_jobs_stage_opens_on_loaded_links(self, data):
        """Under a cap of 1, with other tasks' jobs already open: some
        items on their way to some endpoints (their `inbound`), and filler
        items that hold links and queue behind them. `staging_estimate` is
        the `file_deps`-ordered sum, over the jobs `stage` then opens, of
        `predict_transfer` plus, where the job's link had its one slot
        busy, that link's queue share. An item with no replica makes both
        raise `DataError`, whether or not a job to the target is open."""
        order, items, file_deps, target = data.draw(placements())
        dm = new_manager(order, concurrency_cap=1)
        for data_id, size, where in items:
            dm.register_item(data_id, size, where)
        task = 100  # the other tasks' ids
        for data_id, size, where in items:
            for dst in sorted(data.draw(st.sets(st.sampled_from(order)))):
                if size and dst not in where:
                    dm.stage(task, inputs(dm, [data_id]), dst, 0.0)
                    task += 1
        links = st.tuples(st.sampled_from(order), st.sampled_from(order))
        fillers = data.draw(st.lists(st.tuples(links, st.integers(1, 10**6)), max_size=6))
        for k, ((src, dst), size) in enumerate(fillers):
            if src != dst:
                dm.register_item(f"f{k}", size, {src})
                dm.stage(task, inputs(dm, [f"f{k}"]), dst, 0.0)
                task += 1
        lost = data.draw(st.sampled_from([None, "plain", "inbound"]))
        if lost:
            dm.register_item("lost", data.draw(st.integers(1, 10**6)))
            if lost == "inbound":
                dm._open_job(dm.items["lost"], order[0], target, 0.0)
            file_deps.insert(data.draw(st.integers(0, len(file_deps))), "lost")
            with pytest.raises(DataError):
                dm.staging_estimate(inputs(dm, file_deps), target)
            with pytest.raises(DataError):
                dm.stage(0, inputs(dm, file_deps), target, 0.0)
            return
        # Each link's (active jobs, waiting jobs, waiting bytes), from the
        # job table, and each item's inbound, before `stage` adds to them.
        queues = {}
        for job in dm.jobs.values():
            active, waiting, waiting_bytes = queues.get((job.src, job.dst), (0, 0, 0))
            if job.state is JobState.ACTIVE:
                active += 1
            elif job.state is JobState.WAITING:
                waiting, waiting_bytes = waiting + 1, waiting_bytes + job.size
            queues[(job.src, job.dst)] = (active, waiting, waiting_bytes)
        inbound = {d: endpoints_of(dm, dm.items[d].inbound) for d in file_deps}
        estimate = dm.staging_estimate(inputs(dm, file_deps), target)
        first_new = dm._next_job_id
        jobs, _ = dm.stage(0, inputs(dm, file_deps), target, 0.0)
        opened = [j for j in jobs if j.job_id >= first_new]
        expected = [
            (d, next(ep for ep in order if ep in where))
            for d in file_deps
            for data_id, size, where in items
            if d == data_id and size > 0 and target not in where | inbound[d]
        ]
        assert [(j.data_id, j.src) for j in opened] == expected
        tp = dm.transfer_profiler
        predicted = 0.0
        for j in opened:
            predicted += tp.predict_transfer(j.src, target, j.size)
            active, waiting, waiting_bytes = queues.get((j.src, target), (0, 0, 0))
            if active >= dm.concurrency_cap:
                latency, bandwidth = tp.link(j.src, target)
                predicted += (waiting * latency + waiting_bytes / bandwidth) / dm.concurrency_cap
        assert estimate == predicted
