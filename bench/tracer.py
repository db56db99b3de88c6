"""Per-layer tracing of a fedflow run, from outside the package.

`Tracer.install()` replaces public functions and methods of the fedflow
modules with wrappers that time each call and count the work it does;
`restore()` puts every original back. The package source is not changed.

Each timed wrapper is a span. Spans nest on a parent stack, so for every span
name the tracer keeps:

- calls: how many times it was entered;
- incl: wall seconds of its outermost calls (a call nested inside another
  call of the same name is not counted twice);
- self: wall seconds not covered by any child span.

The self times of all span names, plus the top-level remainder, add up to
the traced wall time. Counts come from the same wrappers and repeat exactly
for a given scenario and seed.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter, defaultdict

from fedflow import dag, data_manager, endpoints, engine, profilers, scheduling

_perf = time.perf_counter

PLACE_HOOKS = ("on_batch_submitted", "on_deps_done", "on_staging_complete", "on_worker_free")
RESCHED_HOOKS = ("on_reschedule_tick", "on_capacity_change")
STRATEGY_CLASSES = (
    scheduling.BaseStrategy,
    scheduling.CapacityStrategy,
    scheduling.LocalityStrategy,
    scheduling.DhaStrategy,
)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.samples: dict = {}  # span name -> per-call seconds
        self.events_by_kind: Counter = Counter()
        self.moves_by_task: Counter = Counter()
        self._stack: list = [[0.0]]  # per open span: seconds covered by children
        self._depth: Counter = Counter()
        self._patches: list = []  # (owner, attribute, original)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def _span(self, name: str, fn, before=None, after=None, keep_samples=False):
        """Wrap `fn` as a span. `before(*args)` runs ahead of the timer and
        `after(result, *args)` after it, so their cost lands on the parent."""
        stack, depth = self._stack, self._depth
        calls, incl, self_s = self.calls, self.incl, self.self_s
        samples = self.samples.setdefault(name, []) if keep_samples else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                depth[name] -= 1
                stack.pop()
                stack[-1][0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if not depth[name]:
                    incl[name] += dur
                if samples is not None:
                    samples.append(dur)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _wrap(self, owner, attr: str, name: str, **kw):
        self._patch(owner, attr, self._span(name, vars(owner)[attr], **kw))

    def _wrap_global(self, modules: tuple, attr: str, name: str, **kw):
        """Wrap a module-level function in its home module and in every module
        that imported it by name, so all call sites see the same wrapper."""
        wrapper = self._span(name, vars(modules[0])[attr], **kw)
        for module in modules:
            self._patch(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        counts = self.counts
        Sim = engine.Simulation

        # engine
        self._wrap(Sim, "__init__", "engine.init")
        self._wrap(Sim, "run", "engine.run")
        finished = vars(Sim)["finished"]
        self._patch(Sim, "finished", property(self._span("engine.finished", finished.fget)))
        self._wrap(Sim, "predicted_exec", "engine.predicted_exec")
        self._wrap(Sim, "staging_time_estimate", "engine.staging_estimate")
        self._wrap(Sim, "earliest_idle_estimate", "engine.idle_estimate")
        by_kind = self.events_by_kind
        schedule = vars(Sim)["schedule"]

        def counted_schedule(sim, when, kind, payload=None):
            by_kind[kind] += 1
            return schedule(sim, when, kind, payload)

        self._patch(Sim, "schedule", functools.wraps(schedule)(counted_schedule))
        moves = self.moves_by_task
        move_assignment = vars(Sim)["move_assignment"]

        def counted_move(sim, task_id, endpoint_id):
            moves[task_id] += 1
            return move_assignment(sim, task_id, endpoint_id)

        self._patch(Sim, "move_assignment", functools.wraps(move_assignment)(counted_move))

        # scheduling
        for cls in STRATEGY_CLASSES:
            for hook in PLACE_HOOKS:
                if hook in vars(cls):
                    self._wrap(cls, hook, "scheduling.place")
            for hook in RESCHED_HOOKS:
                if hook in vars(cls):
                    self._wrap(cls, hook, "scheduling.resched")
        Dha = scheduling.DhaStrategy
        self._wrap(Dha, "select_endpoint", "scheduling.select", keep_samples=True)
        self._wrap(Dha, "_recompute_priorities", "scheduling.priorities")
        self._wrap(Dha, "reschedule_pass", "scheduling.reschedule_pass")
        depth = self._depth
        eft = vars(scheduling)["earliest_finish_time"]

        def counted_eft(*args):
            if depth["scheduling.reschedule_pass"]:
                counts["scheduling.resched_eft_evals"] += 1
            return eft(*args)

        self._patch(scheduling, "earliest_finish_time", functools.wraps(eft)(counted_eft))

        # profilers
        EP, TP = profilers.ExecutionProfiler, profilers.TransferProfiler

        def exec_refresh_before(prof):
            if prof._stale:
                counts["profilers.exec_refit_rows"] += len(prof.history)

        def xfer_refresh_before(prof):
            if prof._stale:
                counts["profilers.xfer_refits"] += 1
                counts["profilers.xfer_refit_rows"] += sum(
                    len(obs) for obs in prof._observations.values()
                )

        self._wrap(EP, "refresh", "profilers.exec_refresh", before=exec_refresh_before)
        self._wrap(EP, "predict_exec", "profilers.exec_predict")
        self._wrap(TP, "observe", "profilers.xfer_observe")
        self._wrap(TP, "refresh", "profilers.xfer_refresh", before=xfer_refresh_before)
        self._wrap(TP, "link", "profilers.xfer_link")
        self._wrap(TP, "predict_transfer", "profilers.xfer_predict")
        self._wrap_global((profilers, scheduling), "average_costs", "profilers.avg_costs")

        # data_manager
        DM = data_manager.DataManager

        def stage_after(result, *args, **kwargs):
            counts["data_manager.jobs_created"] += len(result[0])

        def cancel_before(dm, task_id):
            counts["data_manager.cancel_jobs_walked"] += len(dm.jobs)

        self._wrap(DM, "stage", "data_manager.stage", after=stage_after)
        self._wrap(DM, "on_transfer_finished", "data_manager.finish")
        self._wrap(DM, "cancel_task_jobs", "data_manager.cancel", before=cancel_before)

        # endpoints
        def dispatch_after(outcome, *args):
            if outcome == "queued":
                counts["endpoints.dispatch_queued"] += 1

        EM = endpoints.EndpointModel
        self._wrap(EM, "dispatch", "endpoints.dispatch", after=dispatch_after)
        self._wrap(EM, "apply_capacity_event", "endpoints.capacity")

        # dag
        self._wrap(dag.Dag, "submit_task", "dag.submit")
        self._wrap(dag.Dag, "topological_order", "dag.topo")
        self._wrap_global((dag, scheduling), "dfs_order", "dag.topo")

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- results -----------------------------------------------------------

    def spans(self) -> list:
        """(name, calls, incl_s, self_s) for every span name, by self time."""
        rows = [(n, self.calls[n], self.incl[n], self.self_s[n]) for n in self.calls]
        return sorted(rows, key=lambda r: -r[3])


def _percentile(values: list, q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def _utilization(rows: list) -> float:
    """Simulated busy-worker integral over active-worker integral, from
    (time, endpoint, busy, active) rows in time order."""
    if not rows:
        return 0.0
    end = max(r[0] for r in rows)
    last: dict = {}
    busy = active = 0.0
    for t, ep, b, a in rows:
        if ep in last:
            t0, b0, a0 = last[ep]
            busy += b0 * (t - t0)
            active += a0 * (t - t0)
        last[ep] = (t, b, a)
    for t0, b0, a0 in last.values():
        busy += b0 * (end - t0)
        active += a0 * (end - t0)
    return busy / active if active else 0.0


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tr: Tracer, sim, log) -> dict:
    """Per-layer metrics of one finished traced run, in metric units
    (seconds, counts, ratios, GB, microseconds)."""
    c, calls, incl = tr.counts, tr.calls, tr.incl
    out: dict = {}

    for name in (
        "profilers.exec_refresh",
        "profilers.exec_predict",
        "profilers.xfer_refresh",
        "profilers.xfer_predict",
        "profilers.avg_costs",
        "engine.finished",
        "engine.predicted_exec",
        "engine.staging_estimate",
        "engine.idle_estimate",
        "scheduling.place",
        "scheduling.resched",
        "data_manager.stage",
        "data_manager.finish",
        "data_manager.cancel",
        "dag.topo",
    ):
        out[f"{name}_calls"] = calls[name]
        out[f"{name}_s"] = incl[name]
    for name in ("profilers.xfer_observe", "profilers.xfer_link", "endpoints.dispatch"):
        out[f"{name}_calls"] = calls[name]
    out["scheduling.select_calls"] = calls["scheduling.select"]
    out["dag.submit_s"] = incl["dag.submit"]
    out["engine.init_s"] = incl["engine.init"]
    out["scheduling.priorities_s"] = incl["scheduling.priorities"]
    out["profilers.exec_refits"] = sim.exec_profiler.refit_count
    for key in (
        "profilers.exec_refit_rows",
        "profilers.xfer_refits",
        "profilers.xfer_refit_rows",
        "data_manager.jobs_created",
        "data_manager.cancel_jobs_walked",
        "endpoints.dispatch_queued",
    ):
        out[key] = c[key]

    # engine
    out["engine.loop_self_s"] = tr.self_s["engine.run"]
    out["engine.events"] = log.event_count
    for kind in engine.EventKind:
        out[f"engine.events.{kind.name.lower()}"] = tr.events_by_kind[kind]

    # scheduling
    select = tr.samples.get("scheduling.select", [])
    out["scheduling.select_us_p50"] = _percentile(select, 50) * 1e6
    out["scheduling.select_us_p99"] = _percentile(select, 99) * 1e6
    n_endpoints = len(sim.endpoints)
    examined = c["scheduling.resched_eft_evals"] // n_endpoints
    moves = sum(tr.moves_by_task.values())
    out["scheduling.tasks_examined"] = examined
    out["scheduling.moves"] = moves
    out["scheduling.moves_per_examined"] = moves / examined if examined else 0.0
    out["scheduling.max_moves_per_task"] = max(tr.moves_by_task.values(), default=0)

    # data_manager, from the final job table. A job whose task_id was cleared
    # by cancel_task_jobs is an orphan; probe jobs never had a task.
    moved_bytes = orphan_bytes = orphans = dedup = retries = 0
    for job in sim.data.jobs.values():
        moved = job.state is data_manager.JobState.DONE and job.started_at is not None
        retries += job.retries_used
        if job.state is data_manager.JobState.DONE and job.started_at is None:
            dedup += 1
        if moved:
            moved_bytes += job.size
        if job.task_id is None and not job.data_id.startswith("__probe__"):
            orphans += 1
            if moved:
                orphan_bytes += job.size
    out["data_manager.jobs_deduplicated"] = dedup
    out["data_manager.retries"] = retries
    out["data_manager.orphan_jobs"] = orphans
    out["data_manager.orphan_GB"] = orphan_bytes / 1e9
    out["data_manager.useful_bytes_ratio"] = (
        (moved_bytes - orphan_bytes) / moved_bytes if moved_bytes else 1.0
    )

    # endpoints (simulated time)
    out["endpoints.capacity_events"] = calls["endpoints.capacity"]
    out["endpoints.utilization"] = _utilization(log.utilization)
    tasks = log.tasks.values()
    out["endpoints.queue_wait_s_mean"] = _mean(
        [t.start_time - t.dispatch_time for t in tasks
         if t.start_time is not None and t.dispatch_time is not None]
    )
    out["endpoints.dispatch_delay_s_mean"] = _mean(
        [t.dispatch_time - t.staging_end for t in tasks
         if t.dispatch_time is not None and t.staging_end is not None]
    )
    return out
