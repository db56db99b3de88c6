"""Execution/transfer profiling: fits, fallbacks, and persistence."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fedflow import profilers
from fedflow.dag import CostHint, FunctionDef
from fedflow.endpoints import EndpointSpec
from fedflow.profilers import (
    ExecutionProfiler,
    FunctionTruth,
    ProfilerError,
    TaskRecord,
    TransferProfiler,
    _ols,
    average_costs,
)
from fedflow.scheduling import success_rates_for


def ep(eid, perf=1.0):
    return EndpointSpec(eid, 10, 1, 1, perf_factor=perf)


def rec(function="f", endpoint="a", input_size=100, exec_time=1.0,
        output_size=0, success=True, timestamp=0.0):
    return TaskRecord(function, endpoint, input_size, exec_time,
                      output_size, success, timestamp)


class TestOls:
    def test_exact_line(self):
        intercept, slope = _ols([(0, 2.0), (10, 4.0), (20, 6.0)])
        assert math.isclose(intercept, 2.0) and math.isclose(slope, 0.2)

    def test_single_point(self):
        assert _ols([(5, 3.0)]) == (3.0, 0.0)

    def test_degenerate_x(self):
        intercept, slope = _ols([(5, 2.0), (5, 4.0)])
        assert slope == 0.0 and math.isclose(intercept, 3.0)

    @given(st.floats(-100, 100), st.floats(-1, 1),
           st.lists(st.integers(0, 10**6), min_size=2, max_size=20, unique=True))
    def test_recovers_noiseless_linear_model(self, b, m, xs):
        intercept, slope = _ols([(x, b + m * x) for x in xs])
        assert math.isclose(intercept, b, abs_tol=1e-6 * (1 + abs(b)) + 1e-4)
        assert math.isclose(slope, m, abs_tol=1e-6)


class TestExecutionProfiler:
    def test_exact_fit_preferred(self):
        p = ExecutionProfiler()
        for size, t in ((0, 10.0), (100, 20.0), (200, 30.0)):
            p.record(rec(input_size=size, exec_time=t))
        p.refresh()
        t = p.predict_exec(FunctionDef("f"), ep("a"), 50)
        assert math.isclose(t, 15.0)

    def test_failures_excluded_from_time_fit(self):
        p = ExecutionProfiler()
        p.record(rec(exec_time=10.0))
        p.record(rec(exec_time=0.0, success=False))
        p.refresh()
        t = p.predict_exec(FunctionDef("f"), ep("a"), 100)
        assert math.isclose(t, 10.0)

    def test_donor_endpoint_rescaled_by_perf(self):
        p = ExecutionProfiler()
        p.record(rec(endpoint="a", exec_time=10.0))
        p.refresh()
        t = p.predict_exec(
            FunctionDef("f"), ep("b", perf=3.0), 100, {"a": 1.0, "b": 3.0}
        )
        assert math.isclose(t, 30.0)

    def test_cost_hint_fallback(self):
        p = ExecutionProfiler()
        fn = FunctionDef("f", cost_hint=CostHint(fixed_s=5.0, rate_s_per_b=0.01))
        t = p.predict_exec(fn, ep("a", perf=2.0), 100)
        assert math.isclose(t, 2.0 * (5.0 + 1.0))

    def test_truth_fallback(self):
        p = ExecutionProfiler(truth={"f": FunctionTruth(10.0, 2.0)})
        t = p.predict_exec(FunctionDef("f"), ep("a", perf=1.5), 2_000_000)
        assert math.isclose(t, 1.5 * (10.0 + 4.0))

    def test_no_source_of_estimate_raises(self):
        with pytest.raises(ProfilerError):
            ExecutionProfiler().predict_exec(FunctionDef("f"), ep("a"), 1)

    def test_refresh_idempotent(self):
        p = ExecutionProfiler()
        p.record(rec())
        p.refresh()
        n = p.refit_count
        p.refresh()
        assert p.refit_count == n

    def test_negative_record_rejected(self):
        with pytest.raises(ProfilerError):
            ExecutionProfiler().record(rec(exec_time=-1.0))

    def test_save_load_round_trip(self, tmp_path):
        p = ExecutionProfiler()
        p.record(rec(input_size=123, exec_time=4.5, output_size=9,
                     success=False, timestamp=7.25))
        p.record(rec(function="g", endpoint="b", exec_time=0.1))
        path = tmp_path / "history.csv"
        p.save(path)
        q = ExecutionProfiler()
        q.load(path)
        assert q.history == p.history
        assert path.read_text().splitlines()[0].startswith("f,a,123,4.5,9,0,")


class TestTransferProfiler:
    def test_fit_from_observations(self):
        tp = TransferProfiler()
        for size in (10**6, 10**7, 10**8):
            tp.observe("a", "b", size, 0.5 + size / 1e8)
        latency, bandwidth = tp.link("a", "b")
        assert math.isclose(latency, 0.5, abs_tol=1e-6)
        assert math.isclose(bandwidth, 1e8, rel_tol=1e-6)

    def test_fallback_matrix(self):
        tp = TransferProfiler(fallback={("a", "b"): (1.0, 5e7)})
        assert tp.predict_transfer("a", "b", 5e7) == pytest.approx(2.0)

    def test_missing_pair_raises(self):
        with pytest.raises(ProfilerError):
            TransferProfiler().link("a", "b")

    def test_needs_probe(self):
        tp = TransferProfiler()
        assert tp.needs_probe("a", "b")
        tp.observe("a", "b", 1, 1.0)
        assert not tp.needs_probe("a", "b")

    def test_same_endpoint_rejected(self):
        with pytest.raises(ProfilerError):
            TransferProfiler().predict_transfer("a", "a", 1)


class TestAverageCosts:
    def test_single_endpoint_has_no_staging_term(self):
        p = ExecutionProfiler(truth={"f": FunctionTruth(10.0, 0.0)})
        d, w = average_costs(100, FunctionDef("f"), [ep("a")], p, TransferProfiler())
        assert d == 0.0 and math.isclose(w, 10.0)

    def test_execution_mean_over_endpoints(self):
        p = ExecutionProfiler(truth={"f": FunctionTruth(10.0, 0.0)})
        tp = TransferProfiler(fallback={("a", "b"): (0.0, 1e6), ("b", "a"): (0.0, 1e6)})
        d, w = average_costs(0, FunctionDef("f"), [ep("a"), ep("b", 2.0)], p, tp)
        assert math.isclose(w, 15.0)
        assert d == 0.0  # no bytes to stage

    def test_staging_uses_file_bytes_and_link_means(self):
        p = ExecutionProfiler(truth={"f": FunctionTruth(1.0, 0.0)})
        tp = TransferProfiler(fallback={("a", "b"): (1.0, 1e6), ("b", "a"): (3.0, 1e6)})
        d, _ = average_costs(
            10**6, FunctionDef("f"), [ep("a"), ep("b")], p, tp, staging_bytes=2 * 10**6
        )
        assert math.isclose(d, 2.0 + 2.0)  # 2 MB at 1 MB/s + mean latency 2 s

    def test_empty_endpoint_set_rejected(self):
        with pytest.raises(ProfilerError):
            average_costs(1, FunctionDef("f"), [], ExecutionProfiler(), TransferProfiler())


# -- incremental refits ------------------------------------------------------

FUNCS = ("f", "g")
ENDPOINTS = ("a", "b", "c")
PAIRS = (("a", "b"), ("b", "a"), ("a", "c"))
FALLBACK = {pair: (0.5, 1e7) for pair in PAIRS}

records = st.builds(
    rec,
    function=st.sampled_from(FUNCS),
    endpoint=st.sampled_from(ENDPOINTS),
    input_size=st.integers(0, 10**8),
    exec_time=st.floats(0.0, 1e4, allow_nan=False),
    success=st.booleans(),
)
profiler_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), records),
        st.tuples(
            st.just("observe"),
            st.sampled_from(PAIRS),
            st.integers(1, 10**9),
            st.floats(0.001, 1e4, allow_nan=False),
        ),
        st.tuples(st.just("refresh")),
        st.tuples(st.just("link"), st.sampled_from(PAIRS)),
        st.tuples(st.just("load"), st.lists(records, max_size=4)),
    ),
    max_size=40,
)


def full_exec_fits(history):
    """Every (function, endpoint) fit, refitted from the whole history."""
    points = {}
    for r in history:
        if r.success:
            points.setdefault((r.function, r.endpoint), []).append(
                (r.input_size, r.exec_time)
            )
    return {key: _ols(pts) for key, pts in points.items()}


def full_transfer_fits(observations, fallback):
    """The fits of a new transfer profiler given every observation at once."""
    tp = TransferProfiler(fallback=fallback)
    for (src, dst), obs in observations.items():
        for size, duration in obs:
            tp.observe(src, dst, size, duration)
    tp.refresh()
    return tp._fits


class TestIncrementalRefit:
    @settings(max_examples=150, deadline=None)
    @given(profiler_ops)
    def test_fits_equal_a_full_refit(self, ops):
        p = ExecutionProfiler()
        tp = TransferProfiler(fallback=FALLBACK)
        with tempfile.TemporaryDirectory() as tmp:
            for i, (op, *args) in enumerate(ops):
                if op == "record":
                    p.record(args[0])
                elif op == "observe":
                    tp.observe(*args[0], args[1], args[2])
                elif op == "link":
                    tp.link(*args[0])
                elif op == "load":
                    path = Path(tmp) / f"history-{i}.csv"
                    source = ExecutionProfiler()
                    for r in args[0]:
                        source.record(r)
                    source.save(path)
                    p.load(path)
                else:
                    p.refresh()
                    tp.refresh()
                    assert p._fits == full_exec_fits(p.history)
                    assert tp._fits == full_transfer_fits(tp._observations, FALLBACK)
        p.refresh()
        tp.refresh()
        assert p._fits == full_exec_fits(p.history)
        assert tp._fits == full_transfer_fits(tp._observations, FALLBACK)
        for function in FUNCS:
            assert p.success_rates(function) == success_rates_for(function, p.history)

    def test_refresh_refits_only_recorded_keys(self, monkeypatch):
        p = ExecutionProfiler()
        tp = TransferProfiler()
        p.record(rec(endpoint="a"))
        p.record(rec(endpoint="b"))
        tp.observe("a", "b", 10, 1.0)
        tp.observe("b", "a", 10, 1.0)
        p.refresh()
        tp.refresh()
        fitted = []
        real = profilers._ols

        def spy(points):
            fitted.append(list(points))
            return real(points)

        monkeypatch.setattr(profilers, "_ols", spy)
        p.record(rec(endpoint="a", input_size=200, exec_time=2.0))
        p.record(rec(endpoint="b", success=False))  # no duration signal
        p.refresh()
        assert fitted == [[(100, 1.0), (200, 2.0)]]
        fitted.clear()
        tp.observe("a", "b", 20, 2.0)
        tp.refresh()
        assert fitted == [[(10, 1.0), (20, 2.0)]]
        fitted.clear()
        p.refresh()
        tp.refresh()
        assert fitted == []

    def test_pair_without_fallback_keeps_last_fit(self):
        tp = TransferProfiler()
        tp.observe("a", "b", 10, 1.0)
        tp.observe("a", "b", 20, 2.0)
        fit = tp.link("a", "b")
        tp.observe("a", "b", 30, 0.5)  # the slope turns negative
        assert tp.link("a", "b") == fit

    def test_success_tallies_match_history_walk(self, tmp_path):
        saved = ExecutionProfiler()
        saved.record(rec(endpoint="a"))
        saved.record(rec(endpoint="a", exec_time=0.0, success=False))
        saved.record(rec(function="g", endpoint="b", exec_time=0.0, success=False))
        path = tmp_path / "history.csv"
        saved.save(path)
        p = ExecutionProfiler()
        p.load(path)
        p.record(rec(endpoint="b"))
        p.record(rec(endpoint="a", exec_time=0.0, success=False))
        p.record(rec(function="g", endpoint="b"))
        assert p.success_rates("f") == {"a": 1 / 3, "b": 1.0}
        for function in ("f", "g", "h"):
            assert p.success_rates(function) == success_rates_for(function, p.history)
