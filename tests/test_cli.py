"""Command-line interface: commands, outputs, and exit codes."""

import copy
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from fedflow import cli
from fedflow.builtins import generate_builtin_scenario
from fedflow.cli import main
from fedflow.profilers import ExecutionProfiler
from fedflow.scenario import Defaults, save_scenario, scenario_to_dict

SMALL = {
    "name": "small",
    "endpoints": [
        {"endpoint_id": "a", "workers_per_node": 2, "max_nodes": 1, "initial_nodes": 1},
        {"endpoint_id": "b", "workers_per_node": 2, "max_nodes": 1, "initial_nodes": 1},
    ],
    "network": {"default": {"bandwidth_MBps": 100.0, "latency_s": 0.1}},
    "functions": [{"name": "f", "true_fixed_s": 1.0}],
    "workflow": [
        {
            "id": 0,
            "function": "f",
            "file_deps": [{"data_id": "d", "size_MB": 5.0, "locations": ["a"]}],
        },
        {"id": 1, "function": "f", "deps": [0]},
    ],
}


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return path


class TestRun:
    def test_happy_path_writes_csvs(self, runner, scenario_file, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["run", "--scenario", str(scenario_file), "--scheduler", "dha",
             "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "makespan_s:" in result.output
        for name in ("summary.csv", "utilization.csv", "transfers.csv",
                     "staging.csv"):
            assert (out / name).exists()

    def test_decision_time_only_with_timings(self, runner, scenario_file, tmp_path):
        """Without --timings the summary holds no wall-clock figure, so two
        runs print the same text."""
        outputs = {}
        for options in ((), (), ("--timings",)):
            result = runner.invoke(
                main,
                ["run", "--scenario", str(scenario_file), "--scheduler", "dha",
                 "--seed", "1", "--out", str(tmp_path / "out"), *options],
            )
            assert result.exit_code == 0, result.output
            outputs.setdefault(options, []).append(result.output)
        untimed, timed = outputs[()], outputs[("--timings",)]
        assert untimed[0] == untimed[1]
        assert "decision_ms" not in untimed[0]
        assert re.search(r"^decision_ms: +\d+\.\d{4}$", timed[0], re.M)
        assert [line for line in timed[0].splitlines()
                if not line.startswith("decision_ms")] == untimed[0].splitlines()

    def test_invalid_scenario_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        doc = dict(SMALL, workflow=[{"id": 0, "function": "missing"}])
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert "dangling reference" in result.output

    @pytest.mark.parametrize("did,defaults", [("out:0", {}), ("__probe__a__b", {"probe_at_init": True})])
    def test_reserved_data_id_exits_1(self, runner, tmp_path, did, defaults):
        # Both loaded, then crashed the run with a duplicate-item traceback.
        doc = copy.deepcopy(SMALL)
        doc["functions"][0]["output_ratio"] = 0.5
        doc["workflow"][0]["file_deps"][0]["data_id"] = did
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(doc, defaults=defaults)))
        result = runner.invoke(
            main, ["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"error: workflow[0]: data id '{did}' starts with")

    def test_scheduler_of_another_kind_exits_1(self, runner, tmp_path):
        # A list here escaped as a TypeError traceback.
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(dict(SMALL, defaults={"scheduler": []})))
        result = runner.invoke(
            main, ["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.output.startswith("error: defaults.scheduler")

    def test_deadlock_exits_2(self, runner, tmp_path):
        doc = dict(
            SMALL,
            endpoints=[
                {"endpoint_id": "a", "workers_per_node": 1, "max_nodes": 1,
                 "initial_nodes": 0},
                {"endpoint_id": "b", "workers_per_node": 1, "max_nodes": 1,
                 "initial_nodes": 0},
            ],
        )
        stuck = tmp_path / "stuck.json"
        stuck.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["run", "--scenario", str(stuck), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "deadlock" in result.output

    def test_unwritable_out_exits_3(self, runner, scenario_file):
        result = runner.invoke(
            main,
            ["run", "--scenario", str(scenario_file),
             "--out", "/proc/definitely/not/writable"],
        )
        assert result.exit_code == 3

    def test_missing_scenario_exits_1(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["run", "--scenario", str(tmp_path / "none.json"),
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1

    def test_scenario_not_in_utf8_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff" + json.dumps(SMALL).encode())
        result = runner.invoke(main, ["run", "--scenario", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {bad}: not UTF-8 text")
        assert isinstance(result.exception, SystemExit)

    def test_option_overrides_are_applied(self, runner, tmp_path):
        def summary(file_poll_s, *options):
            client = {"poll_interval_s": file_poll_s}
            doc = dict(SMALL, network=dict(SMALL["network"], client=client))
            name = f"poll{file_poll_s:g}" + "".join(options)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            result = runner.invoke(
                main,
                ["run", "--scenario", str(path), "--scheduler", "capacity",
                 *options, "--out", str(tmp_path / name)],
            )
            assert result.exit_code == 0, result.output
            assert "scheduler:     capacity" in result.output
            return (tmp_path / name / "summary.csv").read_text()

        # --poll-interval replaces the interval the scenario file sets.
        overridden = summary(3.0, "--poll-interval", "5")
        assert overridden != summary(3.0)
        assert overridden == summary(5.0)

    def test_reschedule_period_override(self, runner, tmp_path):
        sc = generate_builtin_scenario("dynamic-drug", 0.01)
        base = scenario_to_dict(sc)
        assert base["defaults"]["reschedule_period_s"] == 10.0

        def summary(file_period_s, *options):
            doc = copy.deepcopy(base)
            doc["defaults"]["reschedule_period_s"] = file_period_s
            name = f"period{file_period_s:g}" + "".join(options)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            result = runner.invoke(
                main,
                ["run", "--scenario", str(path), "--scheduler", "dha",
                 *options, "--out", str(tmp_path / name)],
            )
            assert result.exit_code == 0, result.output
            moves = re.search(r"^moves: +(\d+)$", result.output, re.M)
            scored = re.search(r"^scored: +(\d+)$", result.output, re.M)
            return (tmp_path / name / "summary.csv").read_text(), int(moves[1]), int(scored[1])

        # --reschedule-period replaces the period the scenario file sets.
        disabled = summary(10.0, "--reschedule-period", "0")
        assert disabled == summary(0.0)
        enabled = summary(10.0)
        assert disabled[0] != enabled[0]
        # Re-scheduling moves, and the tasks the passes scored, are reported
        # on their own lines.
        assert disabled[1:] == (0, 0) and 0 < enabled[1] < enabled[2]

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--transfer-concurrency", "0", "'transfer_concurrency'"),
            ("--max-transfer-retries", "-1", "'max_transfer_retries'"),
            ("--max-task-attempts", "-1", "'max_task_attempts'"),
            ("--reschedule-period", "-3", "'reschedule_period_s'"),
            ("--poll-interval", "-5", "'poll_interval_s'"),
        ],
    )
    def test_out_of_range_override_exits_1(
        self, runner, scenario_file, tmp_path, flag, value, field
    ):
        # An override gets the checks of the scenario-file value it replaces.
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["run", "--scenario", str(scenario_file), flag, value, "--out", str(out)]
        )
        assert result.exit_code == 1
        assert result.output.startswith("error:") and field in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_removed_transfer_type_flag_exits_1(self, runner, scenario_file, tmp_path):
        result = runner.invoke(
            main,
            ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
             "--file-transfer-type", "simulated"],
        )
        assert result.exit_code == 1
        assert "No such option" in result.output

    def test_bad_scheduler_choice_exits_1(self, runner, scenario_file, tmp_path):
        result = runner.invoke(
            main,
            ["run", "--scenario", str(scenario_file), "--scheduler", "bogus",
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 1
        assert "Invalid value for '--scheduler'" in result.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "args, message",
        [(["bogus"], "No such command"), (["--bogus", "run"], "No such option")],
    )
    def test_group_usage_errors_exit_1(self, runner, args, message):
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert message in result.output


class TestHistory:
    @staticmethod
    def run(runner, monkeypatch, scenario, out, history):
        """One `fedflow run --history`; returns its Simulation and the fits
        its execution profiler had when the run started."""
        runs = []

        class Recorded(cli.Simulation):
            def run(self):
                runs.append((self, dict(self.exec_profiler._fits)))
                return super().run()

        monkeypatch.setattr(cli, "Simulation", Recorded)
        result = runner.invoke(
            main,
            ["run", "--scenario", str(scenario), "--scheduler", "capacity",
             "--seed", "3", "--out", str(out), "--history", str(history)],
        )
        assert result.exit_code == 0, result.output
        (recorded,) = runs
        return recorded

    def test_first_run_starts_the_file_and_the_next_loads_it(
        self, runner, monkeypatch, tmp_path
    ):
        scenario = tmp_path / "drug.json"
        save_scenario(generate_builtin_scenario("drug-like", 0.01), scenario)
        history = tmp_path / "history.csv"

        first, fits = self.run(runner, monkeypatch, scenario, tmp_path / "o1", history)
        assert fits == {}
        lines = history.read_text().splitlines()
        assert len(lines) == len(first.exec_profiler.history) > 0
        started = tmp_path / "started.csv"
        started.write_text(history.read_text())

        second, fits = self.run(runner, monkeypatch, scenario, tmp_path / "o2", history)
        fresh = ExecutionProfiler()
        fresh.load(started)
        assert fits and fits == fresh._fits  # same records, same fold order
        assert second.exec_profiler.history[: len(lines)] == fresh.history
        assert history.read_text().splitlines()[: len(lines)] == lines
        assert len(history.read_text().splitlines()) == len(second.exec_profiler.history)

    def test_two_runs_write_the_pinned_history_bytes(self, runner, tmp_path):
        # SHA-256 of the history file after each run, pinned when the
        # profiler kept every record whether asked to or not.
        pinned = [
            (241, "fab60ea095ac1fd45950fca6b665f1596d00ead3ae52a965dccb81e2577fbf65"),
            (482, "34d5436708d75e686b8f27920891ebe96b29f44d2838ec7ed1fec2224ae6118b"),
        ]
        scenario = tmp_path / "drug.json"
        save_scenario(generate_builtin_scenario("drug-like", 0.01), scenario)
        history = tmp_path / "history.csv"
        written = []
        for i, scheduler in enumerate(("capacity", "dha")):
            result = runner.invoke(
                main,
                ["run", "--scenario", str(scenario), "--scheduler", scheduler,
                 "--seed", "3", "--out", str(tmp_path / f"o{i}"), "--history", str(history)],
            )
            assert result.exit_code == 0, result.output
            data = history.read_bytes()
            written.append((len(data.splitlines()), hashlib.sha256(data).hexdigest()))
        assert written == pinned

    def test_unwritable_history_keeps_the_csvs(self, runner, scenario_file, tmp_path):
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["run", "--scenario", str(scenario_file), "--out", str(out),
             "--history", str(tmp_path / "nodir" / "h.csv")],
        )
        assert result.exit_code == 3
        assert result.output.startswith("error:")
        assert sorted(p.name for p in out.iterdir()) == [
            "staging.csv", "summary.csv", "transfers.csv", "utilization.csv"
        ]

    @pytest.mark.parametrize("line, message", [
        ("f,a,100", ":1: expected 7 fields"),
        ("f,a,100,nan,0,1,0.0", ":1: non-finite field"),
        ("f,a,100,1.0,0,yes,0.0", ":1: invalid literal"),
    ])
    def test_bad_history_exits_1(self, runner, scenario_file, tmp_path, line, message):
        history = tmp_path / "history.csv"
        history.write_text(line + "\n")
        result = runner.invoke(
            main,
            ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "o"),
             "--history", str(history)],
        )
        assert result.exit_code == 1
        assert result.output.startswith(f"error: {history}:") and message in result.output
        assert "Traceback" not in result.output
        assert history.read_text() == line + "\n"
        assert not (tmp_path / "o").exists()


class TestGen:
    def test_gen_writes_loadable_scenario(self, runner, tmp_path):
        path = tmp_path / "g.json"
        result = runner.invoke(
            main,
            ["gen", "--name", "drug-like", "--scale", "0.01", "--out", str(path)],
        )
        assert result.exit_code == 0, result.output
        from fedflow.scenario import load_scenario

        sc = load_scenario(path)
        assert len(sc.workflow) > 0

    def test_gen_bad_scale_exits_1(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["gen", "--name", "drug-like", "--scale", "0",
             "--out", str(tmp_path / "g.json")],
        )
        assert result.exit_code == 1
        assert result.output.startswith("error:")

    @pytest.mark.parametrize("scale", ["-1", "inf", "nan"])
    def test_gen_scale_not_positive_and_finite_writes_nothing(self, runner, tmp_path, scale):
        result = runner.invoke(
            main,
            ["gen", "--name", "drug-like", "--scale", scale,
             "--out", str(tmp_path / "g.json")],
        )
        assert result.exit_code == 1
        assert result.output.startswith("error:")
        assert not (tmp_path / "g.json").exists()

    def test_gen_scale_above_one(self, runner, tmp_path):
        path = tmp_path / "g.json"
        result = runner.invoke(
            main, ["gen", "--name", "elasticity", "--scale", "2.5", "--out", str(path)],
        )
        assert result.exit_code == 0, result.output
        from fedflow.scenario import load_scenario

        assert len(load_scenario(path).workflow) == 1000  # 400 at scale 1


class TestCompare:
    def test_compare_prints_deltas(self, runner, scenario_file, tmp_path):
        for tag, scheduler in (("a", "capacity"), ("b", "dha")):
            result = runner.invoke(
                main,
                ["run", "--scenario", str(scenario_file), "--scheduler",
                 scheduler, "--out", str(tmp_path / tag)],
            )
            assert result.exit_code == 0
        result = runner.invoke(
            main,
            ["compare", "--out-a", str(tmp_path / "a"),
             "--out-b", str(tmp_path / "b")],
        )
        assert result.exit_code == 0, result.output
        assert "makespan_s:" in result.output
        assert "tasks_failed:" in result.output

    def test_compare_missing_dir_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["compare", "--out-a", str(tmp_path / "nope"),
             "--out-b", str(tmp_path / "nope2")],
        )
        assert result.exit_code == 3


    @pytest.mark.parametrize(
        "summary, message",
        [
            ("transfer_GB,tasks_failed\n1.0,0\n", "no makespan_s value"),
            (
                "makespan_s,transfer_GB,tasks_failed\nabc,1.0,0\n",
                "makespan_s is not a number",
            ),
        ],
        ids=["no-makespan", "not-a-number"],
    )
    def test_compare_bad_summary_exits_3(
        self, runner, scenario_file, tmp_path, summary, message
    ):
        result = runner.invoke(
            main, ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "a")]
        )
        assert result.exit_code == 0
        bad = tmp_path / "b"
        bad.mkdir()
        (bad / "summary.csv").write_text(summary)
        result = runner.invoke(
            main, ["compare", "--out-a", str(tmp_path / "a"), "--out-b", str(bad)]
        )
        assert result.exit_code == 3
        assert result.output.startswith("error:")
        assert str(bad / "summary.csv") in result.output and message in result.output


class TestDeterministicOutputs:
    def test_same_seed_same_bytes(self, runner, scenario_file, tmp_path):
        blobs = []
        for tag in ("x", "y"):
            out = tmp_path / tag
            result = runner.invoke(
                main,
                ["run", "--scenario", str(scenario_file), "--scheduler", "dha",
                 "--seed", "42", "--out", str(out)],
            )
            assert result.exit_code == 0
            blobs.append((out / "summary.csv").read_bytes()
                         + (out / "utilization.csv").read_bytes()
                         + (out / "transfers.csv").read_bytes())
        assert blobs[0] == blobs[1]


def test_schema_doc_maps_each_default_to_its_run_flag():
    """docs/scenario-schema.md names the `fedflow run` flag of every
    `defaults` key that has one and lists the others as file-only."""
    doc = (Path(__file__).parents[1] / "docs" / "scenario-schema.md").read_text()
    table = dict(re.findall(r"^\| `(\w+)` \| `(--[\w-]+)` \|$", doc, re.M))
    flags = {opt for param in main.commands["run"].params for opt in param.opts}
    not_defaults = {"--scenario", "--out", "--poll-interval", "--history", "--timings"}
    assert set(table.values()) == flags - not_defaults
    file_only = doc.split("The rest (", 1)[1].split(")", 1)[0]
    keys = {f.name for f in dataclasses.fields(Defaults)}
    assert set(re.findall(r"`(\w+)`", file_only)) == keys - set(table)
