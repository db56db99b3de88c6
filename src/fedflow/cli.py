"""Command-line interface: run a scenario, generate a builtin one, or
compare two result directories.

Exit codes: 0 success, 1 scenario, history-file or command-line usage
error, 2 simulation deadlock, 3 I/O error.
"""

from __future__ import annotations

import csv
import logging
import os
import sys
from pathlib import Path

import click

from .builtins import BUILTIN_NAMES, generate_builtin_scenario
from .dag import WorkflowError
from .engine import DeadlockError, Simulation
from .metrics import SUMMARY_BASE_COLUMNS, MetricsIOError
from .profilers import ProfilerError
from .scenario import ScenarioError, apply_overrides, load_scenario, save_scenario
from .scheduling import STRATEGIES

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_DEADLOCK = 2
EXIT_IO = 3


class _Cli(click.Group):
    """Exits with EXIT_VALIDATION on a usage error of the group or of a
    subcommand; click's own code for those, 2, means a deadlock here."""

    def make_context(self, *args, **kwargs):
        try:
            return super().make_context(*args, **kwargs)
        except click.UsageError as exc:
            exc.exit_code = EXIT_VALIDATION
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_VALIDATION
            raise


@click.group(cls=_Cli)
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def main(verbose: bool):
    """Federated workflow scheduling simulator."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path())
@click.option(
    "--scheduler",
    type=click.Choice(list(STRATEGIES)),
    default=None,
    help="Override the scenario's scheduling algorithm.",
)
@click.option("--seed", type=int, default=None, help="Override the scenario seed.")
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--reschedule-period", type=float, default=None,
              help="Seconds between re-scheduling passes (0 disables).")
@click.option("--max-task-attempts", type=int, default=None)
@click.option("--transfer-concurrency", type=int, default=None)
@click.option("--max-transfer-retries", type=int, default=None)
@click.option("--poll-interval", type=float, default=None,
              help="Override network.client.poll_interval_s.")
@click.option("--history", "history_path", type=click.Path(), default=None,
              help="Execution-profile history: loaded if the file exists, "
                   "written after the CSVs.")
@click.option("--timings", is_flag=True,
              help="Time the scheduler's hooks and print the mean wall time "
                   "per placement decision (decision_ms).")
def run(
    scenario_path,
    scheduler,
    seed,
    out_dir,
    reschedule_period,
    max_task_attempts,
    transfer_concurrency,
    max_transfer_retries,
    poll_interval,
    history_path,
    timings,
):
    """Simulate one scenario and write metrics CSVs to --out."""
    try:
        sc = load_scenario(scenario_path)
        apply_overrides(
            sc,
            poll_interval_s=poll_interval,
            reschedule_period_s=reschedule_period,
            max_task_attempts=max_task_attempts,
            transfer_concurrency=transfer_concurrency,
            max_transfer_retries=max_transfer_retries,
        )
        sim = Simulation(sc, scheduler_kind=scheduler, seed=seed, timings=timings,
                         history=bool(history_path))
        if history_path and os.path.exists(history_path):
            sim.exec_profiler.load(history_path)
        metrics = sim.run()
        metrics.emit(out_dir)
        if history_path:
            sim.exec_profiler.save(history_path)
    except (ScenarioError, WorkflowError, ProfilerError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    except DeadlockError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_DEADLOCK)
    except (MetricsIOError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    click.echo(f"scenario:      {sc.name}")
    click.echo(f"scheduler:     {sim.scheduler_kind}")
    click.echo(f"makespan_s:    {metrics.makespan:.3f}")
    click.echo(f"transfer_GB:   {metrics.transfer_bytes / 1e9:.3f}")
    click.echo(f"tasks_failed:  {metrics.tasks_failed}")
    if timings:
        click.echo(f"decision_ms:   {metrics.mean_decision_seconds * 1e3:.4f}")
    click.echo(f"moves:         {metrics.move_count}")
    click.echo(f"scored:        {metrics.pass_scores}")


@main.command()
@click.option("--name", required=True, type=click.Choice(list(BUILTIN_NAMES)))
@click.option("--scale", type=float, default=1.0)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the scenario JSON here (default: <name>-<scale>.json).")
def gen(name, scale, out_path):
    """Generate a builtin scenario file."""
    try:
        sc = generate_builtin_scenario(name, scale)
    except ScenarioError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_VALIDATION)
    path = Path(out_path) if out_path else Path(f"{name}-{scale:g}.json")
    try:
        save_scenario(sc, path)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    click.echo(f"wrote {path} ({len(sc.workflow)} tasks)")


def _read_summary(out_dir) -> dict:
    """The summary row, with makespan_s and transfer_GB as numbers."""
    path = Path(out_dir) / "summary.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise OSError(f"{path}: empty summary")
    row = rows[0]
    for key in SUMMARY_BASE_COLUMNS:
        if row.get(key) is None:
            raise OSError(f"{path}: no {key} value")
    for key in ("makespan_s", "transfer_GB"):
        try:
            row[key] = float(row[key])
        except ValueError:
            raise OSError(f"{path}: {key} is not a number ({row[key]!r})") from None
    return row


@main.command()
@click.option("--out-a", required=True, type=click.Path())
@click.option("--out-b", required=True, type=click.Path())
def compare(out_a, out_b):
    """Print makespan and transfer-volume deltas between two runs."""
    try:
        a = _read_summary(out_a)
        b = _read_summary(out_b)
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_IO)
    for key in ("makespan_s", "transfer_GB"):
        va, vb = a[key], b[key]
        delta = vb - va
        rel = f" ({delta / va * 100:+.2f}%)" if va else ""
        click.echo(f"{key}: A={va:.3f} B={vb:.3f} delta={delta:+.3f}{rel}")
    click.echo(f"tasks_failed: A={a['tasks_failed']} B={b['tasks_failed']}")


if __name__ == "__main__":
    main()
