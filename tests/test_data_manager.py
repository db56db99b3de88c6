"""Data items, staging transfers, the concurrency cap, and retries."""

import pytest

from fedflow.data_manager import DataError, DataManager, JobState

ORDER = ["a", "b", "c"]


def manager(**kw):
    dm = DataManager(ORDER, **kw)
    dm.register_item("x", 100, {"a"})
    dm.register_item("y", 50, {"b"})
    dm.register_item("z", 0, {"a"})
    return dm


class TestItems:
    def test_duplicate_rejected(self):
        dm = manager()
        with pytest.raises(DataError):
            dm.register_item("x", 1)

    def test_negative_size_rejected(self):
        with pytest.raises(DataError):
            DataManager(ORDER).register_item("n", -1)

    def test_replicas_only_grow(self):
        dm = manager()
        dm.add_replica("x", "b")
        assert dm.items["x"].locations == {"a", "b"}

    def test_choose_source_declaration_order(self):
        dm = manager()
        dm.add_replica("y", "a")
        assert dm.choose_source(dm.items["y"]) == "a"

    def test_choose_source_no_replica(self):
        dm = DataManager(ORDER)
        item = dm.register_item("q", 1)
        with pytest.raises(DataError):
            dm.choose_source(item)


class TestStage:
    def test_resident_and_empty_items_skipped(self):
        dm = manager()
        jobs, started, completed = dm.stage(1, ["x", "z"], "a", 0.0)
        # No jobs: staging of task 1 is already complete.
        assert jobs == [] and started == [] and completed == []

    def test_nonresident_item_creates_job(self):
        dm = manager()
        jobs, started, _ = dm.stage(1, ["x", "y"], "a", 0.0)
        assert len(jobs) == 1 and jobs[0].data_id == "y"
        assert started == jobs
        assert jobs[0].task_id == 1 and jobs[0].state == JobState.ACTIVE

    def test_completion_releases_task(self):
        dm = manager()
        jobs, _, _ = dm.stage(1, ["y"], "a", 0.0)
        completed, failed, _ = dm.on_transfer_finished(jobs[0], True, 2.0)
        assert completed == [1] and failed is None
        assert dm.items["y"].locations == {"a", "b"}
        assert dm.transfer_bytes_total() == 50

    def test_bytes_counted_only_on_success(self):
        dm = manager()
        jobs, _, _ = dm.stage(1, ["y"], "a", 0.0)
        _, _, started = dm.on_transfer_finished(jobs[0], False, 1.0)
        assert dm.transfer_bytes_total() == 0
        # The retry re-enters the (uncontended) link immediately.
        assert started == jobs
        assert jobs[0].state == JobState.ACTIVE and jobs[0].retries_used == 1


class TestConcurrencyCap:
    def test_cap_enforced_per_pair(self):
        dm = DataManager(ORDER, concurrency_cap=2)
        for i in range(5):
            dm.register_item(f"d{i}", 10, {"a"})
        all_jobs, all_started = [], []
        for i in range(5):
            jobs, started, _ = dm.stage(i, [f"d{i}"], "b", 0.0)
            all_jobs.extend(jobs)
            all_started.extend(started)
        assert len(all_started) == 2
        assert [j.state for j in all_jobs].count(JobState.ACTIVE) == 2

    def test_waiting_jobs_admitted_fifo(self):
        dm = DataManager(ORDER, concurrency_cap=1)
        for i in range(3):
            dm.register_item(f"d{i}", 10, {"a"})
        jobs = []
        for i in range(3):
            j, started, _ = dm.stage(i, [f"d{i}"], "b", 0.0)
            jobs.extend(j)
        _, _, started = dm.on_transfer_finished(jobs[0], True, 1.0)
        assert [j.job_id for j in started] == [jobs[1].job_id]

    def test_independent_pairs_do_not_share_cap(self):
        dm = DataManager(ORDER, concurrency_cap=1)
        dm.register_item("p", 10, {"a"})
        dm.register_item("q", 10, {"b"})
        _, s1, _ = dm.stage(0, ["p"], "c", 0.0)
        _, s2, _ = dm.stage(1, ["q"], "c", 0.0)
        assert len(s1) == len(s2) == 1

    def test_cap_must_be_positive(self):
        with pytest.raises(DataError):
            DataManager(ORDER, concurrency_cap=0)


class TestRetries:
    def test_exhaustion_fails_task(self):
        dm = DataManager(ORDER, max_transfer_retries=2)
        dm.register_item("d", 10, {"a"})
        jobs, _, _ = dm.stage(7, ["d"], "b", 0.0)
        job = jobs[0]
        for _ in range(2):
            completed, failed, _ = dm.on_transfer_finished(job, False, 1.0)
            assert failed is None
        completed, failed, _ = dm.on_transfer_finished(job, False, 1.0)
        assert failed == 7
        assert job.state == JobState.FAILED and job.retries_used == 2


class TestDuplicateSuppression:
    def test_concurrent_requests_share_one_transfer(self):
        dm = DataManager(ORDER)
        dm.register_item("d", 10, {"a"})
        j1, s1, _ = dm.stage(1, ["d"], "b", 0.0)
        j2, s2, _ = dm.stage(2, ["d"], "b", 0.0)
        assert len(s1) == 1 and s2 == []  # second parks behind the first
        completed, _, started = dm.on_transfer_finished(j1[0], True, 1.0)
        assert sorted(completed) == [1, 2]
        assert started == []  # nothing re-transferred
        assert dm.transfer_bytes_total() == 10

    def test_parked_job_transfers_if_first_attempt_dies(self):
        dm = DataManager(ORDER, max_transfer_retries=0)
        dm.register_item("d", 10, {"a"})
        j1, _, _ = dm.stage(1, ["d"], "b", 0.0)
        j2, _, _ = dm.stage(2, ["d"], "b", 0.0)
        completed, failed, started = dm.on_transfer_finished(j1[0], False, 1.0)
        assert failed == 1 and completed == []
        assert [j.job_id for j in started] == [j2[0].job_id]


class TestCancel:
    def test_active_job_orphaned(self):
        dm = manager()
        jobs, _, _ = dm.stage(1, ["y"], "a", 0.0)
        dm.cancel_task_jobs(1)
        assert jobs[0].task_id is None
        completed, failed, _ = dm.on_transfer_finished(jobs[0], True, 1.0)
        assert completed == [] and failed is None
        assert dm.items["y"].locations == {"a", "b"}  # replica still lands


class TestProbe:
    def test_probe_owned_by_no_task(self):
        dm = DataManager(ORDER)
        job, started, _ = dm.probe_job("a", "b", 10**7, 0.0)
        assert job.task_id is None and started == [job]
        completed, failed, _ = dm.on_transfer_finished(job, True, 1.0)
        assert completed == [] and failed is None
