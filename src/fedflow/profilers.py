"""Execution and transfer profilers: the observe-predict half of the system.

Each observed task record and transfer is folded, as it arrives, into the
running co-moments of its key (`_Moments`); both profilers refit at refresh
boundaries (multiples of `refresh_tick_s`) and only then, so a prediction
between two boundaries reads the fit of the last one. The default execution
model is an ordinary least-squares fit of execution time on input size, per
(function, endpoint); the model family is pluggable behind `exec_row`. A
refresh refits only the keys observed since the last one, and each refit
reads O(1) state, so a refresh costs O(keys changed), whatever the length
of the history.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import defaultdict
from typing import NamedTuple, Optional

from .dag import FunctionDef
from .endpoints import EndpointSpec

logger = logging.getLogger(__name__)

PROBE_SIZE_BYTES = 10 * 1024 * 1024


class ProfilerError(ValueError):
    """Raised on malformed records or history files."""


class TaskRecord(NamedTuple):
    """One attempt of a task. A named tuple, not a frozen dataclass: the
    engine builds one per attempt, and a tuple is built in under half the
    time of a frozen dataclass, which sets each field through
    `object.__setattr__`."""

    function: str
    endpoint: str
    input_size: int
    exec_time: float
    output_size: int
    success: bool
    timestamp: float


class _Moments:
    """Running co-moments of (x, y) points, for a least-squares line.

    Each point is folded in once, with Welford's update (Technometrics 4(3),
    1962); `fit()` reads O(1) state. Equal x values leave `sxx` exactly 0.
    `attempts` is the execution profiler's count of a key's records, of
    which the `n` points are the successes.
    """

    __slots__ = ("n", "mx", "my", "sxx", "sxy", "attempts")

    def __init__(self):
        self.n = self.attempts = 0
        self.mx = self.my = self.sxx = self.sxy = 0.0

    def __len__(self) -> int:
        return self.n

    def add(self, x, y):
        self.n += 1
        dx = x - self.mx
        self.mx += dx / self.n
        self.my += (y - self.my) / self.n
        self.sxx += dx * (x - self.mx)
        self.sxy += dx * (y - self.my)

    def fit(self) -> tuple:
        """Least-squares (intercept, slope); (mean y, 0.0) for a single
        point or equal x values."""
        if self.sxx == 0:
            return self.my, 0.0
        slope = self.sxy / self.sxx
        return self.my - slope * self.mx, slope


class ExecutionProfiler:
    """Predicts execution time per function on each endpoint of a federation.

    Prediction precedence: fitted model for the exact (function, endpoint)
    pair; the fit of the function's donor endpoint rescaled by the
    perf-factor ratio; the function's cost hint; finally the function's
    true cost. The federation's `EndpointSpec`s are given once, at
    construction, in declaration order; the donor is the least endpoint id
    in the federation that has a fit, so history records of any other
    endpoint never donate. The one cache is the cost row (`exec_row`): a
    function's predictions on every endpoint of the federation, computed
    once per (function, input size) between two refits.

    With `keep_history`, every record is also kept, in order, in `history`,
    which `save` writes; without, `history` stays empty and a record is
    only folded into its moments.
    """

    def __init__(self, endpoints: tuple = (), keep_history: bool = True):
        self.endpoints = tuple(endpoints)
        self._perf_factors = {ep.endpoint_id: ep.perf_factor for ep in self.endpoints}
        self.keep_history = keep_history
        self.history: list = []
        # (function, endpoint) -> the moments of its successful records
        # (failures carry no duration signal) and its count of attempts.
        self._moments: dict = defaultdict(_Moments)
        self._dirty: set = set()  # keys with a success since the last refit
        self._fits: dict = {}
        # function -> its donor endpoint. Fits are never dropped, so a donor
        # only ever gives way to a smaller id, set at refresh.
        self._donors: dict = {}
        # (function, input size) -> {endpoint: predicted seconds}. Fits and
        # donors change only at refresh, which empties it.
        self._rows: dict = {}
        self.refit_count = 0
        self._truth_fallback_logged: set = set()

    def record(self, rec: TaskRecord):
        """Fold in one record; a negative field or a non-finite time raises."""
        function, endpoint, input_size, exec_time, output_size, success, timestamp = rec
        if not (0 <= exec_time < math.inf and -math.inf < timestamp < math.inf
                and input_size >= 0 and output_size >= 0):
            # A running sum never washes a non-finite value out again.
            negative = exec_time < 0 or input_size < 0 or output_size < 0
            raise ProfilerError(
                f"{'negative' if negative else 'non-finite'} field in record for {function}")
        if self.keep_history:
            self.history.append(rec)
        key = (function, endpoint)
        moments = self._moments[key]
        moments.attempts += 1
        if success:
            moments.add(input_size, exec_time)
            self._dirty.add(key)

    @property
    def _stale(self) -> bool:
        """Whether a refit is due (read by bench/tracer.py)."""
        return bool(self._dirty)

    def refresh(self):
        """Refit the models of the keys recorded since the last refresh.
        Idempotent."""
        if not self._dirty:
            return
        for key in self._dirty:
            self._fits[key] = self._moments[key].fit()
            name, ep = key
            donor = self._donors.get(name)
            if ep in self._perf_factors and (donor is None or ep < donor):
                self._donors[name] = ep
        self._dirty.clear()
        self._rows.clear()
        self.refit_count += 1

    def success_rates(self, function_name: str) -> dict:
        """Fraction of recorded attempts of a function that succeeded, per
        endpoint that has any. A walk over every key: it is read only after
        a failed attempt."""
        return {ep: m.n / m.attempts
                for (name, ep), m in self._moments.items() if name == function_name}

    def predict_exec(self, function: FunctionDef, endpoint_id: str, input_size: int) -> float:
        """Predicted execution seconds on one endpoint of the federation, read
        from the cost row. Always finite."""
        return self.exec_row(function, input_size)[endpoint_id]

    def exec_row(self, function: FunctionDef, input_size: int) -> dict:
        """The function's predicted execution seconds on every endpoint of
        the federation, by endpoint id in declaration order; computed once
        per (function, input size) between two refits."""
        key = (function.name, input_size)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = {
                ep.endpoint_id: self._predict(function, ep, input_size) for ep in self.endpoints
            }
        return row

    def _predict(self, function: FunctionDef, endpoint: EndpointSpec, input_size: int) -> float:
        name = function.name
        fit = self._fits.get((name, endpoint.endpoint_id))
        if fit:
            time_s = fit[0] + fit[1] * input_size
        elif name in self._donors:
            # Transfer the donor's fit, rescaled by perf factors.
            donor = self._donors[name]
            dfit = self._fits[(name, donor)]
            base = dfit[0] + dfit[1] * input_size
            time_s = base * endpoint.perf_factor / self._perf_factors[donor]
        elif function.cost_hint_fixed_s is not None:
            time_s = endpoint.perf_factor * (
                function.cost_hint_fixed_s + function.cost_hint_rate_s_per_B * input_size
            )
        else:
            if name not in self._truth_fallback_logged:
                logger.info("no profile for %s: falling back to declared true cost", name)
                self._truth_fallback_logged.add(name)
            time_s = endpoint.perf_factor * function.true_seconds(input_size)
        return max(time_s, 0.0)

    def save(self, path):
        """Write the history as CSV, quoting only a name with ',', '"' or a line break."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            # The writer quotes "\r" only where the line terminator has one.
            quoting = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
            for r in self.history:
                (quoting if "\r" in r.function + r.endpoint else writer).writerow((
                    r.function, r.endpoint, r.input_size, repr(r.exec_time),
                    r.output_size, int(r.success), repr(r.timestamp),
                ))

    def load(self, path):
        """Record each row `save` wrote; a bad row raises, naming the line it ends on."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                for parts in reader:
                    if not parts or len(parts) == 1 and parts[0].isspace():
                        continue
                    if len(parts) != 7:
                        raise ValueError("expected 7 fields")
                    success = int(parts[5])
                    if success not in (0, 1):
                        raise ValueError(f"success flag {parts[5]!r} is not 0 or 1")
                    self.record(TaskRecord(
                        parts[0], parts[1], int(parts[2]), float(parts[3]),
                        int(parts[4]), success == 1, float(parts[6]),
                    ))
            except (ValueError, csv.Error) as exc:  # a parse error, a ProfilerError or a bad row
                raise ProfilerError(f"{path}:{reader.line_num}: {exc}") from exc
        self.refresh()


class TransferProfiler:
    """Predicts inter-endpoint transfer times from observed transfers.

    Each ordered endpoint pair gets a latency/bandwidth fit at each
    `refresh()`; a pair not yet fitted falls back to the scenario's bandwidth
    matrix. Queries never refit: observations made since the last refresh
    take effect at the next one.
    """

    def __init__(self, fallback: Optional[dict] = None):
        # fallback: (src, dst) -> (latency_s, bandwidth_Bps)
        self.fallback = fallback or {}
        # (src, dst) -> the moments of its observed (size, duration) points
        self._observations: dict = defaultdict(_Moments)
        self._dirty: set = set()  # pairs observed since the last refit
        # (src, dst) -> (latency_s, bandwidth_Bps) that queries read: the
        # pair's fit as of the last refresh, its fallback until it has one.
        self.links: dict = dict(self.fallback)

    @property
    def _stale(self) -> bool:
        """Whether a refit is due (read by bench/tracer.py)."""
        return bool(self._dirty)

    def observe(self, src: str, dst: str, size: int, duration: float):
        pair = (src, dst)
        self._observations[pair].add(size, duration)
        self._dirty.add(pair)

    def refresh(self):
        """Refit the pairs observed since the last refresh."""
        for pair in self._dirty:
            intercept, slope = self._observations[pair].fit()
            if slope > 0:
                self.links[pair] = (max(intercept, 0.0), 1.0 / slope)
            elif pair in self.fallback:
                self.links[pair] = self.fallback[pair]
        self._dirty.clear()

    def needs_probe(self, src: str, dst: str) -> bool:
        return (src, dst) not in self._observations

    def link(self, src: str, dst: str) -> tuple:
        try:
            return self.links[(src, dst)]
        except KeyError:
            raise ProfilerError(f"no transfer model or fallback for {src}->{dst}") from None

    def predict_transfer(self, src: str, dst: str, size: int) -> float:
        if src == dst:
            raise ProfilerError("predict_transfer called with src == dst")
        latency, bandwidth = self.link(src, dst)
        return latency + size / bandwidth


def average_costs(
    function: FunctionDef,
    input_bytes: int,
    staging_bytes: int,
    exec_profiler: ExecutionProfiler,
    transfer_profiler: TransferProfiler,
) -> tuple:
    """Placement-independent (staging, execution) cost means for one task.

    The execution term is the mean of the task's cost row over the
    federation. The staging term assumes the task's staging bytes cross a
    representative link: those bytes times the mean inverse bandwidth over
    ordered endpoint pairs, plus the mean latency (zero with a single
    endpoint or no bytes to stage).
    """
    row = exec_profiler.exec_row(function, input_bytes)
    if not row:
        raise ProfilerError("endpoint set must be non-empty")
    w_bar = sum(row.values()) / len(row)
    pairs = [(a, b) for a in row for b in row if a != b]
    if not pairs or staging_bytes <= 0:
        return 0.0, w_bar
    inv_bw = 0.0
    lat = 0.0
    for src, dst in pairs:
        latency, bandwidth = transfer_profiler.link(src, dst)
        inv_bw += 1.0 / bandwidth
        lat += latency
    d_bar = staging_bytes * inv_bw / len(pairs) + lat / len(pairs)
    return d_bar, w_bar
