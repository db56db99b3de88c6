"""Execution and transfer profilers: the observe-predict half of the system.

Observed task records are appended to a history store and folded into
per-function regression models at periodic refresh ticks. The default
execution model is an ordinary least-squares fit of execution time on input
size, per (function, endpoint); the model family is pluggable behind
`predict_exec`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .dag import FunctionDef
from .endpoints import EndpointSpec

logger = logging.getLogger(__name__)

PROBE_SIZE_BYTES = 10 * 1024 * 1024


class ProfilerError(ValueError):
    """Raised on malformed records or history files."""


@dataclass(frozen=True)
class TaskRecord:
    function: str
    endpoint: str
    input_size: int
    exec_time: float
    output_size: int
    success: bool
    timestamp: float

    def validate(self):
        if self.exec_time < 0 or self.input_size < 0 or self.output_size < 0:
            raise ProfilerError(f"negative field in record for {self.function}")


@dataclass(frozen=True)
class FunctionTruth:
    """Scenario-declared ground-truth cost of a function (oracle fallback)."""

    fixed_s: float
    rate_s_per_mb: float


def _ols(points: list) -> tuple:
    """Least-squares (intercept, slope) for [(x, y), ...]; slope 0 if degenerate."""
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


class ExecutionProfiler:
    """Predicts execution time per function.

    Prediction precedence: fitted model for the exact (function, endpoint)
    pair; a fit from another endpoint rescaled by the perf-factor ratio; the
    function's cost hint; finally the scenario-declared true mean.
    """

    def __init__(self, truth: Optional[dict] = None):
        self.history: list = []
        self._fits: dict = {}
        self._stale = False
        self.refit_count = 0
        self.truth = truth or {}
        self._truth_fallback_logged: set = set()

    def record(self, rec: TaskRecord):
        rec.validate()
        self.history.append(rec)
        self._stale = True

    def refresh(self):
        """Refit all models from the accumulated history. Idempotent."""
        if not self._stale:
            return
        points: dict = {}
        for rec in self.history:
            if not rec.success:
                continue  # failures carry no duration signal
            points.setdefault((rec.function, rec.endpoint), []).append(
                (rec.input_size, rec.exec_time)
            )
        self._fits = {key: _ols(pts) for key, pts in points.items()}
        self.refit_count += 1
        self._stale = False

    def predict_exec(
        self,
        function: FunctionDef,
        endpoint: EndpointSpec,
        input_size: int,
        perf_factors: Optional[dict] = None,
    ) -> float:
        """Predict execution seconds. Always finite."""
        name = function.name
        time_s = None
        fit = self._fits.get((name, endpoint.endpoint_id))
        if fit:
            time_s = fit[0] + fit[1] * input_size
        else:
            # Transfer a fit from another endpoint, rescaled by perf factors.
            donors = sorted(
                (ep for (f, ep) in self._fits if f == name and perf_factors and ep in perf_factors)
            )
            if donors and perf_factors:
                donor = donors[0]
                dfit = self._fits[(name, donor)]
                base = dfit[0] + dfit[1] * input_size
                time_s = base * endpoint.perf_factor / perf_factors[donor]
        if time_s is None and function.cost_hint is not None:
            hint = function.cost_hint
            time_s = endpoint.perf_factor * (
                hint.fixed_s + hint.rate_s_per_b * input_size
            )
        if time_s is None:
            truth = self.truth.get(name)
            if truth is None:
                raise ProfilerError(f"no history, hint, or truth for {name}")
            if name not in self._truth_fallback_logged:
                logger.info("no profile for %s: falling back to declared true mean", name)
                self._truth_fallback_logged.add(name)
            time_s = endpoint.perf_factor * (
                truth.fixed_s + truth.rate_s_per_mb * input_size / 1e6
            )
        return max(time_s, 0.0)

    def save(self, path):
        with open(path, "w") as fh:
            for r in self.history:
                fh.write(
                    f"{r.function},{r.endpoint},{r.input_size},{r.exec_time!r},"
                    f"{r.output_size},{int(r.success)},{r.timestamp!r}\n"
                )

    def load(self, path):
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 7:
                    raise ProfilerError(f"{path}:{lineno}: expected 7 fields")
                self.record(
                    TaskRecord(
                        function=parts[0],
                        endpoint=parts[1],
                        input_size=int(parts[2]),
                        exec_time=float(parts[3]),
                        output_size=int(parts[4]),
                        success=bool(int(parts[5])),
                        timestamp=float(parts[6]),
                    )
                )
        self.refresh()


class TransferProfiler:
    """Predicts inter-endpoint transfer times from observed transfers.

    Each ordered endpoint pair gets a latency/bandwidth fit; pairs without
    observations fall back to the scenario's bandwidth matrix.
    """

    def __init__(self, fallback: Optional[dict] = None):
        # fallback: (src, dst) -> (latency_s, bandwidth_Bps)
        self.fallback = fallback or {}
        self._observations: dict = {}
        self._fits: dict = {}
        self._stale = False

    def observe(self, src: str, dst: str, size: int, duration: float):
        self._observations.setdefault((src, dst), []).append((size, duration))
        self._stale = True

    def refresh(self):
        if not self._stale:
            return
        for pair, obs in self._observations.items():
            intercept, slope = _ols(obs)
            if slope > 0:
                self._fits[pair] = (max(intercept, 0.0), 1.0 / slope)
            elif pair in self.fallback:
                self._fits[pair] = self.fallback[pair]
        self._stale = False

    def needs_probe(self, src: str, dst: str) -> bool:
        return (src, dst) not in self._observations

    def link(self, src: str, dst: str) -> tuple:
        self.refresh()
        if (src, dst) in self._fits:
            return self._fits[(src, dst)]
        if (src, dst) in self.fallback:
            return self.fallback[(src, dst)]
        raise ProfilerError(f"no transfer model or fallback for {src}->{dst}")

    def predict_transfer(self, src: str, dst: str, size: int) -> float:
        if src == dst:
            raise ProfilerError("predict_transfer called with src == dst")
        latency, bandwidth = self.link(src, dst)
        return latency + size / bandwidth


def average_costs(
    input_bytes: int,
    function: FunctionDef,
    endpoints: list,
    exec_profiler: ExecutionProfiler,
    transfer_profiler: TransferProfiler,
    staging_bytes: Optional[int] = None,
) -> tuple:
    """Placement-independent (staging, execution) cost means for one task.

    The execution term averages predictions over all endpoints. The staging
    term assumes the task's input bytes cross a representative link: total
    bytes times the mean inverse bandwidth over ordered endpoint pairs, plus
    the mean latency (zero with a single endpoint or no input data).
    """
    if not endpoints:
        raise ProfilerError("endpoint set must be non-empty")
    perf = {ep.endpoint_id: ep.perf_factor for ep in endpoints}
    w_bar = sum(
        exec_profiler.predict_exec(function, ep, input_bytes, perf)
        for ep in endpoints
    ) / len(endpoints)
    pairs = [
        (a.endpoint_id, b.endpoint_id)
        for a in endpoints
        for b in endpoints
        if a.endpoint_id != b.endpoint_id
    ]
    if staging_bytes is None:
        staging_bytes = input_bytes
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
