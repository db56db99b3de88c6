"""Execution/transfer profiling: fits, fallbacks, and persistence."""

import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fedflow.dag import FunctionDef
from fedflow.endpoints import EndpointSpec
from fedflow.profilers import (
    ExecutionProfiler,
    ProfilerError,
    TaskRecord,
    TransferProfiler,
    _Moments,
    average_costs,
)


def ep(eid, perf=1.0):
    return EndpointSpec(eid, 10, 1, 1, perf_factor=perf)


# A true cost far from every fitted value, so a missed fit shows.
FN = FunctionDef("f", true_fixed_s=1000.0)


def rec(function="f", endpoint="a", input_size=100, exec_time=1.0,
        output_size=0, success=True, timestamp=0.0):
    return TaskRecord(function, endpoint, input_size, exec_time,
                      output_size, success, timestamp)


def _ols(points: list) -> tuple:
    """Two-pass least-squares (intercept, slope) for [(x, y), ...]: the
    reference the profilers' running moments are checked against."""
    n = len(points)
    if n == 1:
        return points[0][1], 0.0
    mx = sum(p[0] for p in points) / n
    my = sum(p[1] for p in points) / n
    sxx = sum((p[0] - mx) ** 2 for p in points)
    if sxx == 0:
        return my, 0.0
    sxy = sum((p[0] - mx) * (p[1] - my) for p in points)
    slope = sxy / sxx
    return my - slope * mx, slope


def success_rates_for(function_name: str, history) -> dict:
    """Fraction of a function's records that succeeded, per endpoint, from
    a walk over the whole history: the reference for the profiler's running
    tallies."""
    totals: dict = {}
    wins: dict = {}
    for rec in history:
        if rec.function != function_name:
            continue
        totals[rec.endpoint] = totals.get(rec.endpoint, 0) + 1
        if rec.success:
            wins[rec.endpoint] = wins.get(rec.endpoint, 0) + 1
    return {ep: wins.get(ep, 0) / n for ep, n in totals.items()}


def moments_fit(points) -> tuple:
    acc = _Moments()
    for x, y in points:
        acc.add(x, y)
    assert len(acc) == len(points)
    return acc.fit()


# One pass and two passes round differently, so fits from running moments
# agree with `_ols` to within this fraction of each coefficient's scale: the
# largest |y| for the intercept, that over the spread of x for the slope.
# A single point matches exactly, and equal x values give a slope of exactly
# 0.0 (the mean of y is then within the tolerance). A scale in the subnormal
# range would make that tolerance 0, so it is never below a few units in the
# last place of 0.0.
FIT_REL_TOL = 1e-9
FIT_ABS_FLOOR = 4 * math.ulp(0.0)


def assert_fit_close(fit, points):
    ref = _ols(points)
    xs = [x for x, _ in points]
    y_scale = max(abs(y) for _, y in points)
    x_spread = max(xs) - min(xs)
    if len(points) == 1:
        assert fit == ref
    if x_spread == 0:
        assert fit[1] == ref[1] == 0.0
        assert math.isclose(fit[0], ref[0], rel_tol=FIT_REL_TOL,
                            abs_tol=max(FIT_REL_TOL * y_scale, FIT_ABS_FLOOR)), (fit, ref)
        return
    slope_scale = y_scale / x_spread
    intercept_scale = y_scale + slope_scale * max(abs(x) for x in xs)
    assert math.isclose(fit[1], ref[1], rel_tol=FIT_REL_TOL,
                        abs_tol=max(FIT_REL_TOL * slope_scale, FIT_ABS_FLOOR)), (fit, ref)
    assert math.isclose(fit[0], ref[0], rel_tol=FIT_REL_TOL,
                        abs_tol=max(FIT_REL_TOL * intercept_scale, FIT_ABS_FLOOR)), (fit, ref)


class TestOls:
    """`_Moments.fit` against the two-pass reference `_ols`."""

    def test_exact_line(self):
        points = [(0, 2.0), (10, 4.0), (20, 6.0)]
        intercept, slope = moments_fit(points)
        assert math.isclose(intercept, 2.0) and math.isclose(slope, 0.2)
        assert_fit_close((intercept, slope), points)

    def test_single_point(self):
        assert moments_fit([(5, 3.0)]) == _ols([(5, 3.0)]) == (3.0, 0.0)
        assert moments_fit([(10**9, 0.1)]) == _ols([(10**9, 0.1)]) == (0.1, 0.0)

    def test_degenerate_x(self):
        points = [(5, 2.0), (5, 4.0)]
        assert moments_fit(points) == _ols(points) == (3.0, 0.0)

    @given(st.floats(-100, 100), st.floats(-1, 1),
           st.lists(st.integers(0, 10**6), min_size=2, max_size=20, unique=True))
    # Subnormal slopes: their scales alone would give each coefficient a
    # tolerance of 0.
    @example(b=0.0, m=5e-324, xs=[3, 0])
    @example(b=0.0, m=5e-324, xs=[0, 1])
    def test_recovers_noiseless_linear_model(self, b, m, xs):
        points = [(x, b + m * x) for x in xs]
        intercept, slope = moments_fit(points)
        assert math.isclose(intercept, b, abs_tol=1e-6 * (1 + abs(b)) + 1e-4)
        assert math.isclose(slope, m, abs_tol=1e-6)
        assert_fit_close((intercept, slope), points)

    @given(st.lists(st.tuples(st.integers(10**8, 10**9),
                              st.floats(0.0, 1e4, allow_nan=False)),
                    min_size=1, max_size=40))
    def test_matches_reference_on_large_inputs(self, points):
        """Input sizes of 1e8-1e9 bytes, as transfers and large tasks have."""
        assert_fit_close(moments_fit(points), points)

    @given(st.integers(0, 10**9),
           st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=20))
    def test_equal_x_gives_exactly_zero_sxx(self, x, ys):
        acc = _Moments()
        for y in ys:
            acc.add(x, y)
        assert acc.sxx == 0.0
        assert_fit_close(acc.fit(), [(x, y) for y in ys])


class TestTaskRecord:
    """What a caller of the exported TaskRecord may rely on: the fields in
    this order, by keyword or by position, read by name, and no field can
    be changed. (It is a named tuple, so it also compares equal to a plain
    tuple of the same values.)"""

    def test_fields(self):
        r = TaskRecord(function="f", endpoint="a", input_size=100, exec_time=1.5,
                       output_size=7, success=False, timestamp=3.0)
        assert TaskRecord._fields == ("function", "endpoint", "input_size", "exec_time",
                                      "output_size", "success", "timestamp")
        assert r == rec(exec_time=1.5, output_size=7, success=False, timestamp=3.0)
        assert (r.function, r.endpoint, r.input_size, r.exec_time,
                r.output_size, r.success, r.timestamp) == ("f", "a", 100, 1.5, 7, False, 3.0)

    @pytest.mark.parametrize("field", TaskRecord._fields)
    def test_immutable(self, field):
        r = rec()
        with pytest.raises(AttributeError):
            setattr(r, field, 0)
        assert r == rec()


class TestExecutionProfiler:
    def test_exact_fit_preferred(self):
        p = ExecutionProfiler((ep("a"),))
        for size, t in ((0, 10.0), (100, 20.0), (200, 30.0)):
            p.record(rec(input_size=size, exec_time=t))
        p.refresh()
        t = p.predict_exec(FN, "a", 50)
        assert math.isclose(t, 15.0)

    def test_failures_excluded_from_time_fit(self):
        p = ExecutionProfiler((ep("a"),))
        p.record(rec(exec_time=10.0))
        p.record(rec(exec_time=0.0, success=False))
        p.refresh()
        t = p.predict_exec(FN, "a", 100)
        assert math.isclose(t, 10.0)

    def test_donor_endpoint_rescaled_by_perf(self):
        p = ExecutionProfiler((ep("a"), ep("b", perf=3.0)))
        p.record(rec(endpoint="a", exec_time=10.0))
        p.refresh()
        t = p.predict_exec(FN, "b", 100)
        assert math.isclose(t, 30.0)

    def test_donor_rule_depends_on_the_federation(self, tmp_path):
        """History of an endpoint outside the federation, as `--history` can
        load, neither donates a fit nor adds a row entry, even with the least
        id; rows list the federation in declaration order."""
        outside = ExecutionProfiler()
        outside.record(rec(endpoint="a", exec_time=10.0))
        path = tmp_path / "history.csv"
        outside.save(path)
        p = ExecutionProfiler((ep("c"), ep("b", perf=2.0)))
        p.load(path)
        row = p.exec_row(FN, 100)
        assert list(row) == ["c", "b"]
        assert row == {"c": 1000.0, "b": 2000.0}
        p.record(rec(endpoint="c", exec_time=7.0))
        p.refresh()
        row = p.exec_row(FN, 100)
        assert list(row) == ["c", "b"]
        assert math.isclose(row["c"], 7.0) and math.isclose(row["b"], 14.0)
        assert p.predict_exec(FN, "b", 100) == row["b"]

    def test_cost_hint_fallback(self):
        p = ExecutionProfiler((ep("a", perf=2.0),))
        fn = FunctionDef(
            "f", true_fixed_s=1000.0, cost_hint_fixed_s=5.0, cost_hint_rate_s_per_B=0.01
        )
        t = p.predict_exec(fn, "a", 100)
        assert math.isclose(t, 2.0 * (5.0 + 1.0))

    def test_truth_fallback(self):
        p = ExecutionProfiler((ep("a", perf=1.5),))
        fn = FunctionDef("f", true_fixed_s=10.0, true_rate_s_per_MB=2.0)
        t = p.predict_exec(fn, "a", 2_000_000)
        assert math.isclose(t, 1.5 * (10.0 + 4.0))

    def test_predictions_change_only_at_refresh(self):
        p = ExecutionProfiler((ep("a"), ep("b", perf=2.0)))
        assert p.predict_exec(FN, "a", 100) == 1000.0
        assert p.predict_exec(FN, "b", 100) == 2000.0
        p.record(rec(endpoint="a", exec_time=10.0))
        assert p.predict_exec(FN, "a", 100) == 1000.0
        assert p.predict_exec(FN, "b", 100) == 2000.0
        p.refresh()
        assert math.isclose(p.predict_exec(FN, "a", 100), 10.0)
        # "b" has no fit of its own and borrows the new one from "a".
        assert math.isclose(p.predict_exec(FN, "b", 100), 20.0)
        p.record(rec(endpoint="b", exec_time=50.0))
        assert math.isclose(p.predict_exec(FN, "b", 100), 20.0)
        p.refresh()
        assert math.isclose(p.predict_exec(FN, "b", 100), 50.0)

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

    @pytest.mark.parametrize("field, value", [
        ("exec_time", -1.0), ("exec_time", -math.inf), ("input_size", -1), ("output_size", -1),
    ])
    def test_each_negative_field_is_named_negative(self, field, value):
        """A negative field is reported as negative, even -inf, which is
        also not finite."""
        p = ExecutionProfiler()
        with pytest.raises(ProfilerError, match="negative field in record for f"):
            p.record(rec(**{field: value}))
        assert p.history == [] and p._moments == {}

    @pytest.mark.parametrize("field", ["exec_time", "timestamp"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_record_rejected(self, field, value):
        p = ExecutionProfiler()
        with pytest.raises(ProfilerError, match="non-finite"):
            p.record(rec(**{field: value}))
        assert p.history == [] and p._moments == {}

    def test_non_finite_history_line_rejected(self, tmp_path):
        path = tmp_path / "history.csv"
        path.write_text("f,a,100,1.0,0,1,0.0\nf,a,100,nan,0,1,0.0\n")
        with pytest.raises(ProfilerError, match=r"history\.csv:2: non-finite"):
            ExecutionProfiler().load(path)

    @pytest.mark.parametrize("line", [
        "f,a,1e3,1.0,0,1,0.0",  # input size not an int
        "f,a,100,slow,0,1,0.0",
        "f,a,100,1.0,0,yes,0.0",
        "f,a,100,1.0,0,1,",
        "f,a,100,1.0,0,7,0.0",  # a success flag is 0 or 1
        "f,a,100,1.0,0,-3,0.0",
        pytest.param("x" * 200_000 + ",a,100,1.0,0,1,0.0", id="name-over-the-csv-field-limit"),
    ])
    def test_unparsable_history_field_names_its_line(self, tmp_path, line):
        path = tmp_path / "history.csv"
        path.write_text(f"f,a,100,1.0,0,1,0.0\n\n{line}\n")
        with pytest.raises(ProfilerError, match=r"history\.csv:3: "):
            ExecutionProfiler().load(path)

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

    @pytest.mark.parametrize("name", ["dock,v2", 'say "hi"', "two\nlines", "cr\rlf", " pad "])
    def test_any_name_round_trips(self, tmp_path, name):
        """A function or endpoint name that holds the separator, a quote or
        a line break is quoted, and loads back as it was; the rows around
        it keep their line numbers' meaning."""
        p = ExecutionProfiler()
        p.record(rec(function=name, endpoint=name, exec_time=2.5))
        p.record(rec(function="g", endpoint="b", exec_time=-0.0, success=False))
        path = tmp_path / "history.csv"
        p.save(path)
        q = ExecutionProfiler()
        q.load(path)
        assert q.history == p.history
        assert path.read_bytes().endswith(b"\ng,b,100,-0.0,0,0,0.0\n")


class TestTransferProfiler:
    def test_fit_from_observations(self):
        tp = TransferProfiler()
        for size in (10**6, 10**7, 10**8):
            tp.observe("a", "b", size, 0.5 + size / 1e8)
        tp.refresh()
        latency, bandwidth = tp.link("a", "b")
        assert math.isclose(latency, 0.5, abs_tol=1e-6)
        assert math.isclose(bandwidth, 1e8, rel_tol=1e-6)

    def test_queries_read_the_last_refresh(self):
        """Observations take effect at the next refresh, never at a query."""
        tp = TransferProfiler(fallback={("a", "b"): (1.0, 5e7)})
        tp.observe("a", "b", 10**6, 0.5 + 10**6 / 1e8)
        tp.observe("a", "b", 10**7, 0.5 + 10**7 / 1e8)
        assert tp.link("a", "b") == (1.0, 5e7)
        assert tp.predict_transfer("a", "b", 5e7) == pytest.approx(2.0)
        tp.refresh()
        fit = tp.link("a", "b")
        assert fit[0] == pytest.approx(0.5) and fit[1] == pytest.approx(1e8)
        tp.observe("a", "b", 10**8, 2.0)
        assert tp.link("a", "b") == fit
        assert tp.predict_transfer("a", "b", 10**8) == fit[0] + 10**8 / fit[1]
        tp.refresh()
        assert tp.link("a", "b") != fit

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
        p = ExecutionProfiler((ep("a"),))
        d, w = average_costs(FunctionDef("f", 10.0), 100, 100, p, TransferProfiler())
        assert d == 0.0 and math.isclose(w, 10.0)

    def test_execution_mean_over_endpoints(self):
        p = ExecutionProfiler((ep("a"), ep("b", 2.0)))
        tp = TransferProfiler(fallback={("a", "b"): (0.0, 1e6), ("b", "a"): (0.0, 1e6)})
        d, w = average_costs(FunctionDef("f", 10.0), 0, 0, p, tp)
        assert math.isclose(w, 15.0)
        assert d == 0.0  # no bytes to stage

    def test_staging_uses_file_bytes_and_link_means(self):
        p = ExecutionProfiler((ep("a"), ep("b")))
        tp = TransferProfiler(fallback={("a", "b"): (1.0, 1e6), ("b", "a"): (3.0, 1e6)})
        d, _ = average_costs(FunctionDef("f", 1.0), 10**6, 2 * 10**6, p, tp)
        assert math.isclose(d, 2.0 + 2.0)  # 2 MB at 1 MB/s + mean latency 2 s

    def test_empty_endpoint_set_rejected(self):
        with pytest.raises(ProfilerError):
            average_costs(FN, 1, 1, ExecutionProfiler(), TransferProfiler())


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


def assert_exec_fits(p, points):
    """Every (function, endpoint) fit is the least-squares line of the
    successful points fed to it."""
    assert p._fits.keys() == points.keys()
    for key, pts in points.items():
        assert len(p._moments[key]) == len(pts)
        assert_fit_close(p._fits[key], pts)


def assert_transfer_fits(tp, points, fallback):
    """Every observed pair's raw fit is the least-squares line of its points,
    and its link is that fit when the slope is positive, else the fallback;
    a pair never observed reads its fallback. The branch is read from the
    moments' own fit, so a slope near 0 cannot take one side in the
    profiler and the other in `_ols`."""
    assert tp._observations.keys() == points.keys()
    assert tp.links.keys() == fallback.keys() | points.keys()
    for pair, link in tp.links.items():
        assert tp.link(*pair) == link
        if pair not in points:
            assert link == fallback[pair]
            continue
        pts = points[pair]
        moments = tp._observations[pair]
        assert len(moments) == len(pts)
        intercept, slope = moments.fit()
        assert_fit_close((intercept, slope), pts)
        if slope > 0:
            assert link == (max(intercept, 0.0), 1.0 / slope)
        else:
            assert link == fallback[pair]


class TestIncrementalRefit:
    @settings(max_examples=150, deadline=None)
    @given(profiler_ops)
    def test_fits_equal_a_full_refit(self, ops):
        p = ExecutionProfiler()
        tp = TransferProfiler(fallback=FALLBACK)
        exec_points = {}  # (function, endpoint) -> successful (size, time)
        transfer_points = {}  # (src, dst) -> observed (size, duration)

        def record(r):
            if r.success:
                key = (r.function, r.endpoint)
                exec_points.setdefault(key, []).append((r.input_size, r.exec_time))

        with tempfile.TemporaryDirectory() as tmp:
            for i, (op, *args) in enumerate(ops):
                if op == "record":
                    p.record(args[0])
                    record(args[0])
                elif op == "observe":
                    tp.observe(*args[0], args[1], args[2])
                    transfer_points.setdefault(args[0], []).append((args[1], args[2]))
                elif op == "link":
                    tp.link(*args[0])
                elif op == "load":
                    path = Path(tmp) / f"history-{i}.csv"
                    source = ExecutionProfiler()
                    for r in args[0]:
                        source.record(r)
                    source.save(path)
                    p.load(path)
                    for r in args[0]:
                        record(r)
                else:
                    p.refresh()
                    tp.refresh()
                    assert_exec_fits(p, exec_points)
                    assert_transfer_fits(tp, transfer_points, FALLBACK)
        p.refresh()
        tp.refresh()
        assert_exec_fits(p, exec_points)
        assert_transfer_fits(tp, transfer_points, FALLBACK)
        for function in FUNCS:
            assert p.success_rates(function) == success_rates_for(function, p.history)

    @settings(max_examples=100)
    @given(st.lists(records, max_size=12), st.lists(records, max_size=12),
           st.lists(st.integers(0, 10**8), min_size=1, max_size=3))
    def test_exec_rows_equal_a_fresh_profiler(self, first, second, sizes):
        """Before and after each refresh, every row is that of a fresh
        profiler fed the records of the last refresh: a refit empties the
        row cache, and records between refreshes leave it alone."""
        # Declared against id order, so the donor (least id) is not first.
        specs = tuple(ep(name, perf=1.0 + i) for i, name in enumerate(reversed(ENDPOINTS)))
        p = ExecutionProfiler(specs)
        functions = [FunctionDef(name, true_fixed_s=1000.0) for name in FUNCS]
        fitted = []  # the records of the last refresh
        for batch in (first, second):
            for r in batch:
                p.record(r)
            for refresh in (False, True):
                if refresh:
                    p.refresh()
                    fitted = list(p.history)
                fresh = ExecutionProfiler(specs)
                for r in fitted:
                    fresh.record(r)
                fresh.refresh()
                for fn in functions:
                    for size in sizes:
                        assert p.exec_row(fn, size) == fresh.exec_row(fn, size)

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
        real = _Moments.fit

        def spy(moments):
            fitted.append(moments)
            return real(moments)

        monkeypatch.setattr(_Moments, "fit", spy)
        p.record(rec(endpoint="a", input_size=200, exec_time=2.0))
        p.record(rec(endpoint="b", success=False))  # no duration signal
        p.refresh()
        assert fitted == [p._moments[("f", "a")]] and len(fitted[0]) == 2
        assert p._fits[("f", "a")] == pytest.approx((0.0, 0.01))
        fitted.clear()
        tp.observe("a", "b", 20, 2.0)
        tp.refresh()
        assert fitted == [tp._observations[("a", "b")]] and len(fitted[0]) == 2
        fitted.clear()
        p.refresh()
        tp.refresh()
        assert fitted == []

    def test_pair_without_fallback_keeps_last_fit(self):
        tp = TransferProfiler()
        tp.observe("a", "b", 10, 1.0)
        tp.observe("a", "b", 20, 2.0)
        tp.refresh()
        fit = tp.link("a", "b")
        tp.observe("a", "b", 30, 0.5)  # the slope turns negative
        tp.refresh()
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
