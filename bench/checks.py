"""Output checks for one benchmark simulation.

Each check returns a list of problems; an empty list means the run is
correct. They read the four CSVs that `MetricsLog.emit` writes, so they hold
the program to what a user of `fedflow run` would see.
"""

from __future__ import annotations

import csv
from collections import defaultdict
from pathlib import Path

# transfers.csv writes started/finished times of a job that never ran as -1.
_NOT_STARTED = -1.0


def _rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_terminal(sim) -> list:
    """Every task of the run reached a terminal state (or was declared
    unrunnable because a dependency failed terminally)."""
    live = [
        tid
        for tid, node in sim.dag.nodes.items()
        if not (node.terminal or tid in sim.unrunnable)
    ]
    problems = []
    if live:
        problems.append(f"{len(live)} tasks not terminal, first {live[:5]}")
    if len(sim.dag.nodes) != len(sim.scenario.workflow):
        problems.append(
            f"{len(sim.dag.nodes)} tasks in the graph, "
            f"{len(sim.scenario.workflow)} in the scenario"
        )
    return problems


def check_utilization(out_dir) -> list:
    """busy <= active on every utilization.csv row."""
    problems = []
    for i, row in enumerate(_rows(Path(out_dir) / "utilization.csv"), 2):
        busy, active = int(row["busy"]), int(row["active"])
        if busy > active or busy < 0:
            problems.append(
                f"utilization.csv line {i}: {row['endpoint']} busy={busy} "
                f"active={active} at t={row['time_s']}"
            )
    return problems


def check_transfers(out_dir, concurrency_cap: int) -> list:
    """Per (src, dst) link, concurrently active transfers never exceed the
    cap; no (data_id, dst) lands twice; moved bytes add up to transfer_GB.

    Only the last attempt of a retried job is in transfers.csv, so the
    concurrency check covers final attempts.
    """
    out = Path(out_dir)
    rows = _rows(out / "transfers.csv")
    summary = _rows(out / "summary.csv")[0]
    problems = []

    edges = defaultdict(list)  # (src, dst) -> [(time, delta)]
    landed = {}
    moved_bytes = 0
    for row in rows:
        start, end = float(row["started_at_s"]), float(row["finished_at_s"])
        if start == _NOT_STARTED:
            continue
        pair = (row["src"], row["dst"])
        # A job ending at t frees its slot before a job starting at t takes it.
        edges[pair].append((start, 1))
        edges[pair].append((end, -1))
        if row["state"] == "done":
            moved_bytes += int(row["size_B"])
            key = (row["data_id"], row["dst"])
            if key in landed:
                problems.append(
                    f"{key[0]} landed on {key[1]} twice "
                    f"(jobs {landed[key]} and {row['job_id']})"
                )
            landed[key] = row["job_id"]

    for pair, events in sorted(edges.items()):
        active = peak = 0
        peak_at = None
        for t, delta in sorted(events, key=lambda e: (e[0], e[1])):
            active += delta
            if active > peak:
                peak, peak_at = active, t
        if peak > concurrency_cap:
            problems.append(
                f"{pair[0]}->{pair[1]}: {peak} concurrent transfers at "
                f"t={peak_at:.6f}, cap {concurrency_cap}"
            )

    expected = summary["transfer_GB"]
    if f"{moved_bytes / 1e9:.6f}" != expected:
        problems.append(
            f"moved jobs sum to {moved_bytes / 1e9:.6f} GB, "
            f"summary says {expected} GB"
        )
    return problems


def check_outputs(out_dir, concurrency_cap: int) -> list:
    return check_utilization(out_dir) + check_transfers(out_dir, concurrency_cap)
