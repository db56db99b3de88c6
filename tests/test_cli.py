"""Command-line interface: commands, outputs, and exit codes."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from fedflow.cli import main
from fedflow.scenario import Defaults

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

    def test_invalid_scenario_exits_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        doc = dict(SMALL, workflow=[{"id": 0, "function": "missing"}])
        bad.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["run", "--scenario", str(bad), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert "dangling reference" in result.output

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
    not_defaults = {"--scenario", "--out", "--poll-interval", "--history"}
    assert set(table.values()) == flags - not_defaults
    file_only = doc.split("The rest (", 1)[1].split(")", 1)[0]
    keys = {f.name for f in dataclasses.fields(Defaults)}
    assert set(re.findall(r"`(\w+)`", file_only)) == keys - set(table)
