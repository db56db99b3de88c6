"""Scenario parsing, validation diagnostics, and round-tripping."""

import copy
import hashlib
import json
import math
import re
from dataclasses import MISSING, fields

import pytest
from click.testing import CliRunner

from fedflow.builtins import BUILTIN_NAMES, generate_builtin_scenario
from fedflow.cli import main
from fedflow.engine import DeadlockError, Simulation
from fedflow.scenario import (
    MB,
    ScenarioError,
    TaskSpec,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)

BASE = {
    "name": "t",
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
        {"id": 1, "function": "f", "deps": [0], "file_deps": ["d"]},
    ],
    "defaults": {},
}


def doc():
    return copy.deepcopy(BASE)


def doc_with(path, value):
    """`doc()` with the field at `path` set to `value`."""
    d = doc()
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return d


class TestParsing:
    def test_base_parses(self):
        sc = scenario_from_dict(doc())
        assert [e.endpoint_id for e in sc.endpoints] == ["a", "b"]
        assert sc.data["d"].size_MB == 5.0
        assert len(sc.workflow) == 2

    def test_mb_convention(self):
        sc = scenario_from_dict(doc())
        assert MB == 1_000_000

    def test_workflow_ordered_by_submit_time_then_id(self):
        d = doc()
        d["workflow"][0]["submit_time_s"] = 10.0
        d["workflow"][1]["deps"] = []
        sc = scenario_from_dict(d)
        assert [t.id for t in sc.workflow] == [1, 0]

    def test_cost_hint_components_are_both_set_or_neither(self):
        d = doc()
        d["functions"][0]["cost_hint"] = {"fixed_s": 2.0}
        sc = scenario_from_dict(d)
        fn = sc.functions["f"]
        assert (fn.cost_hint_fixed_s, fn.cost_hint_rate_s_per_B) == (2.0, 0.0)
        assert scenario_from_dict(scenario_to_dict(sc)) == sc
        for no_hint in ({}, None):
            d["functions"][0]["cost_hint"] = no_hint
            fn = scenario_from_dict(d).functions["f"]
            assert (fn.cost_hint_fixed_s, fn.cost_hint_rate_s_per_B) == (None, None)

    def test_defaults_at_their_bounds_load(self):
        d = doc()
        d["defaults"] = {
            "seed": "7",
            "transfer_failure_rate": 1.0,  # every transfer fails; retries end
            "reschedule_period_s": 0.0,  # no re-scheduling passes
            "mock_sync_lag_s": 0,
            "refresh_tick_s": 1e-3,
        }
        defaults = scenario_from_dict(d).defaults
        assert defaults.seed == 7
        assert (defaults.transfer_failure_rate, defaults.refresh_tick_s) == (1.0, 1e-3)

    @pytest.mark.parametrize(
        "path, value, loaded",
        [
            (("workflow", 0, "id"), "0", 0),
            (("workflow", 0, "id"), 0.0, 0),
            (("workflow", 1, "deps"), [0.0], (0,)),
            (("workflow", 1, "deps"), ["0"], (0,)),
            (("workflow", 1, "inline_args_B"), "5", 5),
        ],
    )
    def test_integral_forms_load_as_plain_ints(self, path, value, loaded):
        _, index, name = path
        task = scenario_from_dict(doc_with(path, value)).workflow[index]
        # repr tells 0 from 0.0 and from "0".
        assert repr(getattr(task, name)) == repr(loaded)

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("workflow", 0, "id"), True, "workflow[0]: 'id' must be an integer (True)"),
            (("workflow", 1, "deps"), [0.5], "workflow[1]: 'deps' must be an integer (0.5)"),
            (
                ("workflow", 1, "inline_args_B"),
                2.5,
                "workflow[1]: 'inline_args_B' must be an integer (2.5)",
            ),
            (
                ("workflow", 1, "inline_args_B"),
                -1,
                "workflow[1]: negative size/time in 'inline_args_B' (-1)",
            ),
            (
                ("workflow", 1, "submit_time_s"),
                math.nan,
                "workflow[1]: 'submit_time_s' must be a finite number (nan)",
            ),
        ],
    )
    def test_workflow_rejections_keep_their_messages(self, path, value, message):
        with pytest.raises(ScenarioError) as info:
            scenario_from_dict(doc_with(path, value))
        assert str(info.value) == message

    @pytest.mark.parametrize("scheduler", ["capacity", "locality", "dha"])
    def test_run_leaves_the_scenario_as_loaded(self, scheduler, tmp_path):
        # The spec records are not frozen, so this checks that no run sets
        # a field of one.
        path = tmp_path / "s.json"
        save_scenario(generate_builtin_scenario("dynamic-drug", 0.05), path)
        sc = load_scenario(path)
        Simulation(sc, scheduler_kind=scheduler, seed=3).run()
        assert sc == load_scenario(path)


class TestDiagnostics:
    def named(self, d, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            scenario_from_dict(d)

    def test_self_cycle(self):
        d = doc()
        d["workflow"][1]["deps"] = [1]
        self.named(d, re.escape("workflow[1]: task 1 depends on task 1, which is not submitted"))

    def test_forward_cycle(self):
        d = doc()
        d["workflow"][0]["deps"] = [1]
        self.named(d, re.escape("workflow[0]: task 0 depends on task 1, which is not submitted"))

    def test_dangling_task(self):
        d = doc()
        d["workflow"][1]["deps"] = [99]
        self.named(d, "dangling reference to task 99")

    def test_dangling_function(self):
        d = doc()
        d["workflow"][1]["function"] = "nope"
        self.named(d, "dangling reference to function 'nope'")

    def test_dangling_data(self):
        d = doc()
        d["workflow"][1]["file_deps"] = ["ghost"]
        self.named(d, "dangling reference to data 'ghost'")

    def test_dangling_endpoint_in_data(self):
        d = doc()
        d["workflow"][0]["file_deps"][0]["locations"] = ["mars"]
        self.named(d, "dangling reference to endpoint 'mars'")

    def test_negative_size(self):
        d = doc()
        d["workflow"][0]["file_deps"][0]["size_MB"] = -1
        self.named(d, "negative size/time")

    def test_negative_time(self):
        d = doc()
        d["functions"][0]["true_fixed_s"] = -5
        self.named(d, "negative size/time")

    def test_missing_network_pair(self):
        d = doc()
        d["network"] = {
            "pairs": [
                {"src": "a", "dst": "b", "bandwidth_MBps": 10.0},
            ]
        }
        self.named(d, "missing network pair b->a")

    @pytest.mark.parametrize("did", ["out:0", "__probe__a__b"])
    def test_reserved_data_prefix(self, did):
        """Ids the engine makes for task outputs and link probes cannot be
        declared: the run would register the item twice."""
        d = doc_with(("workflow", 0, "file_deps", 0, "data_id"), did)
        d["workflow"][1]["file_deps"] = [did]
        self.named(d, re.escape(f"workflow[0]: data id '{did}' starts with a reserved prefix"))

    def test_duplicate_task_id(self):
        d = doc()
        d["workflow"][1]["id"] = 0
        self.named(d, "duplicate task id")

    def test_duplicate_endpoint(self):
        d = doc()
        d["endpoints"].append(d["endpoints"][0])
        self.named(d, "duplicate endpoint_id")

    def test_inline_args_limit(self):
        d = doc()
        d["workflow"][1]["inline_args_B"] = 11 * 1024 * 1024
        self.named(d, "10 MB limit")

    def test_unknown_defaults_field(self):
        d = doc()
        d["defaults"] = {"banana": 1}
        self.named(d, "unknown fields")

    def test_unknown_scheduler(self):
        d = doc()
        d["defaults"] = {"scheduler": "magic"}
        self.named(d, "unknown scheduler")

    def test_no_endpoints(self):
        d = doc()
        d["endpoints"] = []
        self.named(d, "at least one endpoint")

    def test_deps_in_submission_order_load_in_any_file_order(self):
        d = doc()
        d["workflow"] = [
            {"id": 5, "function": "f", "submit_time_s": 3.0},
            {"id": 2, "function": "f"},
            {"id": 9, "function": "f", "deps": [5, 2], "submit_time_s": 3.0},
        ]
        assert [t.id for t in scenario_from_dict(d).workflow] == [2, 5, 9]

    def test_equal_submit_times_load_in_id_order(self):
        # Listed with ids descending at one submit time, after an earlier
        # task: sorted on the id alone.
        d = doc()
        d["workflow"] = [
            {"id": 1, "function": "f"},
            *({"id": k, "function": "f", "submit_time_s": 4.0} for k in (8, 6, 3)),
        ]
        assert [t.id for t in scenario_from_dict(d).workflow] == [1, 3, 6, 8]

    def test_a_dep_listed_after_its_task_loads_when_submitted_first(self, tmp_path):
        # Each task depends on the two listed after it, which have greater
        # ids and are submitted earlier; each declares its own input.
        listed = [
            {
                "id": k,
                "function": "f",
                "deps": [j for j in (k + 1, k + 2) if j < 6],
                "file_deps": [
                    {"data_id": f"d{k}", "size_MB": 10.0 * k, "locations": ["ab"[k % 2]]}
                ],
                "submit_time_s": 2.0 * (5 - k),
            }
            for k in range(6)
        ]
        d = doc_with(("workflow",), listed)
        twin = doc_with(
            ("workflow",), sorted(listed, key=lambda t: (t["submit_time_s"], t["id"]))
        )
        sc = scenario_from_dict(d)
        assert sc == scenario_from_dict(twin)
        for scheduler in ("capacity", "locality", "dha"):
            csvs = []
            for n, scenario in enumerate((sc, scenario_from_dict(twin))):
                out = tmp_path / f"{scheduler}-{n}"
                Simulation(scenario, scheduler_kind=scheduler, seed=3).run().emit(out)
                csvs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
            assert csvs[0] == csvs[1]

    def test_repeated_declaration_loads(self):
        d = doc()
        d["workflow"][0]["file_deps"][0]["locations"] = ["a", "b"]
        d["workflow"][1]["file_deps"] = [{"data_id": "d", "size_MB": 5, "locations": ["b", "a"]}]
        data = scenario_from_dict(d).data
        assert list(data) == ["d"] and data["d"].locations == ("a", "b")

    def test_equal_locations_share_one_tuple(self):
        d = doc()
        d["workflow"][1]["file_deps"] = [{"data_id": "e", "size_MB": 1.0, "locations": ["a"]}]
        data = scenario_from_dict(d).data
        assert data["d"].locations is data["e"].locations

    def test_a_task_holds_its_functions_own_name(self):
        # json.loads makes a new string for each entry's "function" of more
        # than one character.
        text = json.dumps(scenario_to_dict(generate_builtin_scenario("drug-like", 0.02)))
        sc = scenario_from_dict(json.loads(text))
        assert sc.workflow
        assert all(t.function is sc.functions[t.function].name for t in sc.workflow)

    def test_undeclared_data_without_locations(self):
        d = doc()
        d["workflow"][0]["file_deps"][0].pop("locations")
        self.named(d, "no initial locations")


# (path into the document, value, the field the error must name). Each one
# used to escape as a TypeError, ValueError or OverflowError, or to load a
# value no run can use.
BAD_NUMBERS = [
    (("functions", 0, "cost_hint"), {"fixed_s": "abc"}, "'fixed_s'"),
    (("functions", 0, "cost_hint"), {"rate_s_per_B": -1.0}, "'rate_s_per_B'"),
    (("functions", 0, "noise"), "abc", "'noise'"),
    (("functions", 0, "true_fixed_s"), math.nan, "'true_fixed_s'"),
    (("workflow", 0, "id"), "x", "'id'"),
    (("workflow", 1, "deps"), ["x"], "'deps'"),
    (("workflow", 1, "inline_args_B"), "x", "'inline_args_B'"),
    (("workflow", 0, "file_deps", 0, "size_MB"), math.inf, "'size_MB'"),
    (
        ("endpoints", 0, "capacity_trace"),
        [{"time_s": 1.0, "delta_workers": "x"}],
        "'delta_workers'",
    ),
    (("endpoints", 0, "workers_per_node"), None, "'workers_per_node'"),
    (("endpoints", 0, "max_nodes"), "x", "'max_nodes'"),
    (("endpoints", 1, "initial_nodes"), [1], "'initial_nodes'"),
    (("endpoints", 0, "perf_factor"), math.nan, "'perf_factor'"),
    (("endpoints", 1, "idle_timeout_s"), None, "'idle_timeout_s'"),
    # A tick re-armed at `clock + 0` would keep the clock at 0 for ever.
    (("defaults", "refresh_tick_s"), 0.0, "'refresh_tick_s'"),
    (("defaults", "refresh_tick_s"), "abc", "'refresh_tick_s'"),
    (("defaults", "scale_tick_s"), 0, "'scale_tick_s'"),
    (("defaults", "scale_tick_s"), math.inf, "'scale_tick_s'"),
    (("defaults", "reschedule_period_s"), -1.0, "'reschedule_period_s'"),
    (("defaults", "mock_sync_lag_s"), math.nan, "'mock_sync_lag_s'"),
    (("defaults", "transfer_failure_rate"), 1.5, "'transfer_failure_rate'"),
    (("defaults", "transfer_failure_rate"), -0.1, "'transfer_failure_rate'"),
    (("defaults", "seed"), "abc", "'seed'"),
    (("defaults", "max_transfer_retries"), None, "'max_transfer_retries'"),
    (("defaults", "max_task_attempts"), math.inf, "'max_task_attempts'"),
    (("defaults", "transfer_concurrency"), "x", "'transfer_concurrency'"),
    # These three loaded as 2, 1 and 1.
    (("defaults", "transfer_concurrency"), 2.5, "'transfer_concurrency'"),
    (("defaults", "max_task_attempts"), 1.9, "'max_task_attempts'"),
    (("defaults", "seed"), True, "'seed'"),
    # A DataError traceback at run time; the next two ran as 0 and as one
    # attempt per endpoint.
    (("defaults", "transfer_concurrency"), 0, "'transfer_concurrency'"),
    (("defaults", "max_transfer_retries"), -1, "'max_transfer_retries'"),
    (("defaults", "max_task_attempts"), -1, "'max_task_attempts'"),
    # These three loaded as True, 1 MB and True.
    (("workflow", 0, "submit_time_s"), True, "'submit_time_s'"),
    (("workflow", 0, "file_deps", 0, "size_MB"), True, "'size_MB'"),
    (("functions", 0, "true_fixed_s"), True, "'true_fixed_s'"),
]

# The same for a list field given a string or a number, and for an entry
# that is not an object. The first three loaded as (0,), ("d",) and
# ("a", "b"), and the fourth failed as a missing 'endpoint_id'; the rest
# escaped as a TypeError, ValueError or AttributeError.
BAD_SHAPES = [
    (("workflow", 1, "deps"), "0", "'deps'"),
    (("workflow", 1, "file_deps"), "d", "'file_deps'"),
    (("workflow", 0, "file_deps", 0, "locations"), "ab", "'locations'"),
    (("endpoints",), "ab", "'endpoints'"),
    (("workflow", 1, "deps"), 0, "'deps'"),
    (("workflow", 1, "file_deps"), [5], "'file_deps'"),
    (("workflow", 1), 5, "workflow[1]:"),
    (("functions", 0), 5, "functions[0]:"),
    (("endpoints", 0, "capacity_trace"), [5], "capacity_trace[0]:"),
    (("network",), 5, "network:"),
    (("defaults",), "x", "defaults:"),
    # An id is a dict or set key, so one that cannot be hashed is named
    # before it is used as one.
    (("workflow", 0, "function"), ["f"], "'function'"),
    (("workflow", 0, "file_deps", 0, "data_id"), ["d"], "'data_id'"),
    (("workflow", 0, "file_deps", 0, "locations"), [["a"]], "'locations'"),
    (("endpoints", 0, "endpoint_id"), ["a"], "'endpoint_id'"),
    (("functions", 0, "name"), ["f"], "'name'"),
    (("network", "pairs"), [{"src": ["a"], "dst": "b", "bandwidth_MBps": 1.0}], "'src'"),
    # This one loaded as given, and `fedflow run` printed it as a list.
    (("name",), ["x"], "'name'"),
    # Only a missing key, null or {} means no hint.
    (("functions", 0, "cost_hint"), 0, "functions[0].cost_hint: must be an object"),
    (("functions", 0, "cost_hint"), False, "functions[0].cost_hint: must be an object"),
    (("functions", 0, "cost_hint"), "", "functions[0].cost_hint: must be an object"),
    (("functions", 0, "cost_hint"), [], "functions[0].cost_hint: must be an object"),
    # A `defaults` value takes the kind its field declares. The first four
    # loaded as given, so "no" turned elasticity on; the two schedulers
    # after them escaped as a TypeError. The last keeps its message.
    (("defaults", "elastic"), "no", "'elastic'"),
    (("defaults", "elastic"), 0, "'elastic'"),
    (("defaults", "elastic"), None, "'elastic'"),
    (("defaults", "probe_at_init"), "false", "'probe_at_init'"),
    (("defaults", "scheduler"), [], "defaults.scheduler"),
    (("defaults", "scheduler"), {}, "defaults.scheduler"),
    (("defaults", "scheduler"), 7, "defaults.scheduler: unknown scheduler '7'"),
]


# The same for a dep that is not submitted before its task, which loaded
# and then crashed every run with a KeyError, and for a data item declared
# again with another size or other locations, which loaded as declared first.
# A dangling dep is named whether or not the file is in submission order.
BAD_REFERENCES = [
    (("workflow", 1, "deps"), [0, 99], "workflow[1]: dangling reference to task 99"),
    (
        ("workflow",),
        [{"id": 7, "function": "f"}, {"id": 5, "function": "f", "deps": [9]}],
        "workflow[1]: dangling reference to task 9",
    ),
    (("workflow", 0, "submit_time_s"), 10.0, "workflow[1]: task 1 depends on task 0"),
    (
        ("workflow",),
        [{"id": 7, "function": "f"}, {"id": 5, "function": "f", "deps": [7]}],
        "workflow[1]: task 5 depends on task 7",
    ),
    (
        ("workflow", 1, "file_deps"),
        [{"data_id": "d", "size_MB": 500.0, "locations": ["a"]}],
        "workflow[1]: data 'd' declared again",
    ),
    (
        ("workflow", 1, "file_deps"),
        [{"data_id": "d", "size_MB": 5.0, "locations": ["b"]}],
        "workflow[1]: data 'd' declared again",
    ),
    (
        ("workflow", 1, "file_deps"),
        [{"data_id": "d", "size_MB": 5.0, "locations": ["a", "b"]}],
        "workflow[1]: data 'd' declared again",
    ),
    (
        ("workflow", 1, "file_deps"),
        [{"data_id": "d", "size_MB": 5.0, "locations": ["zz"]}],
        "dangling reference to endpoint 'zz'",
    ),
    (
        ("workflow", 1, "file_deps"),
        [{"data_id": "d", "size_MB": -3.0, "locations": ["a"]}],
        "'size_MB'",
    ),
]


@pytest.mark.parametrize(
    "path, value, field",
    BAD_NUMBERS + BAD_SHAPES + BAD_REFERENCES,
    ids=[f"{p[-1]}={v!r}" for p, v, _ in BAD_NUMBERS + BAD_SHAPES + BAD_REFERENCES],
)
def test_bad_number_is_rejected_at_load(path, value, field, tmp_path):
    d = doc_with(path, value)
    with pytest.raises(ScenarioError, match=re.escape(field)):
        scenario_from_dict(d)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps(d))
    result = CliRunner().invoke(
        main, ["run", "--scenario", str(scenario), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == 1
    assert result.output.startswith("error:") and field in result.output
    # The runner keeps an uncaught exception here, not in the output.
    assert isinstance(result.exception, SystemExit)


class TestRoundTrip:
    def test_dict_round_trip_preserves_scenario(self):
        sc = scenario_from_dict(doc())
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again == sc

    def test_file_round_trip(self, tmp_path):
        sc = scenario_from_dict(doc())
        path = tmp_path / "s.json"
        save_scenario(sc, path)
        assert load_scenario(path) == sc

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            load_scenario("/nonexistent/file.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    def test_file_not_in_utf8_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff" + json.dumps(doc()).encode())
        with pytest.raises(ScenarioError, match=f"{re.escape(str(path))}: not UTF-8 text"):
            load_scenario(path)



# A workflow entry's optional fields and `TaskSpec`'s defaults for them, as
# JSON reads them back.
TASK_DEFAULTS = {
    f.name: json.loads(json.dumps(f.default)) for f in fields(TaskSpec) if f.default is not MISSING
}


def verbose_text(sc) -> str:
    """`sc` in the verbose form that `save_scenario` once wrote: the whole
    document indented, and every workflow entry with all six fields."""
    d = scenario_to_dict(sc)
    every_field = {"id": None, "function": None, **TASK_DEFAULTS}  # in `TaskSpec`'s order
    d["workflow"] = [{k: e.get(k, v) for k, v in every_field.items()} for e in d["workflow"]]
    return json.dumps(d, indent=2) + "\n"


def outcome(sc, scheduler, out):
    """The CSVs of a run of `sc` at seed 3, or its deadlock message."""
    try:
        Simulation(sc, scheduler_kind=scheduler, seed=3).run().emit(out)
    except DeadlockError as exc:
        return str(exc)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestWriter:
    """`save_scenario` writes a task's non-default fields only, one task per
    line; files in the verbose form load and run the same."""

    # Non-default `deps`, `file_deps`, `inline_args_B` and `submit_time_s`,
    # and an item declared with two locations.
    HAND = dict(
        BASE,
        workflow=[
            *BASE["workflow"],
            {
                "id": 2,
                "function": "f",
                "deps": [0],
                "file_deps": [{"data_id": "e", "size_MB": 2.5, "locations": ["b", "a"]}, "d"],
                "inline_args_B": 4096,
                "submit_time_s": 30.0,
            },
            {"id": 3, "function": "f", "inline_args_B": 100, "submit_time_s": 12.5},
        ],
    )

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin_saves_one_lean_task_per_line(self, name, tmp_path):
        sc = generate_builtin_scenario(name, 0.1)
        path = tmp_path / "s.json"
        save_scenario(sc, path)
        text = path.read_text()
        d = scenario_to_dict(sc)
        assert json.loads(text) == d
        for entry in d["workflow"]:
            for key, default in TASK_DEFAULTS.items():
                assert key not in entry or entry[key] != default, (entry["id"], key)
        lines = text.split("\n")
        start = lines.index('  "workflow": [') + 1
        end = lines.index("  ],", start)
        assert len(lines[start:end]) == len(sc.workflow)
        for line, entry in zip(lines[start:end], d["workflow"]):
            assert line.startswith("    {") and json.loads(line.rstrip(",")) == entry
        # Everything else is indented as `json.dumps(..., indent=2)` has it.
        rest = lines[: start - 1] + ['  "workflow": [],'] + lines[end + 1 :]
        assert "\n".join(rest) == json.dumps(dict(d, workflow=[]), indent=2) + "\n"

    def test_empty_workflow_saves_and_loads(self, tmp_path):
        sc = scenario_from_dict(dict(BASE, workflow=[]))
        path = tmp_path / "s.json"
        save_scenario(sc, path)
        assert path.read_text() == json.dumps(scenario_to_dict(sc), indent=2) + "\n"
        assert load_scenario(path) == sc

    @pytest.mark.parametrize("source", ["elasticity", "hand"])
    def test_verbose_and_lean_files_load_and_run_the_same(self, source, tmp_path):
        if source == "hand":
            sc = scenario_from_dict(self.HAND)
        else:  # two batches, at 10 s and 70 s
            sc = generate_builtin_scenario("elasticity", 0.1)
        lean, verbose = tmp_path / "lean.json", tmp_path / "verbose.json"
        save_scenario(sc, lean)
        verbose.write_text(verbose_text(sc))
        assert lean.stat().st_size < verbose.stat().st_size
        sc_lean, sc_verbose = load_scenario(lean), load_scenario(verbose)
        assert sc_lean == sc_verbose == sc
        for scheduler in ("capacity", "locality", "dha"):
            assert outcome(sc_lean, scheduler, tmp_path / f"lean-{scheduler}") == outcome(
                sc_verbose, scheduler, tmp_path / f"verbose-{scheduler}"
            ), scheduler


# `defaults` keys that older files carry, each with a value it had there.
REMOVED_DEFAULTS = {
    "batch_size": 5,
    "file_transfer_type": "local-copy",
    "poll_interval_s": 7.0,
    "sched_time_factor": 5.0,
}


class TestRemovedFields:
    """A removed `defaults` key is an unknown key; the extra endpoint and
    function fields of older files still load and change nothing."""

    @pytest.mark.parametrize("key", sorted(REMOVED_DEFAULTS))
    def test_removed_defaults_key_is_rejected(self, key, tmp_path):
        d = doc_with(("defaults", key), REMOVED_DEFAULTS[key])
        with pytest.raises(ScenarioError, match=re.escape(f"defaults: unknown fields ['{key}']")):
            scenario_from_dict(d)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(d))
        result = CliRunner().invoke(
            main, ["run", "--scenario", str(path), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1
        assert result.output.startswith("error: defaults: unknown fields")
        assert key in result.output

    def test_extra_endpoint_and_function_fields_load_and_run_the_same(self, tmp_path):
        new = scenario_to_dict(generate_builtin_scenario("montage-like", 0.02))
        old = copy.deepcopy(new)
        for ep in old["endpoints"]:
            ep.update(cores_per_worker=4, cpu_freq_ghz=3.1, ram_gb=128.0)
        for fn in old["functions"]:
            fn["resource_kind"] = "gpu"
        sc_old, sc_new = scenario_from_dict(old), scenario_from_dict(new)
        assert sc_old == sc_new
        csvs = {}
        for name, sc in (("old", sc_old), ("new", sc_new)):
            out = tmp_path / name
            Simulation(sc, scheduler_kind="dha", seed=3).run().emit(out)
            csvs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert csvs["old"] == csvs["new"]


class TestBuiltins:
    @pytest.mark.parametrize("scale", [1.0, 0.1, 0.01])
    @pytest.mark.parametrize(
        "name",
        ["drug-like", "montage-like", "dynamic-drug", "dynamic-montage", "elasticity"],
    )
    def test_builtins_validate_at_standard_scales(self, name, scale):
        from fedflow.builtins import generate_builtin_scenario

        sc = generate_builtin_scenario(name, scale)
        # Validates again after serialization.
        assert scenario_from_dict(scenario_to_dict(sc)).name == sc.name

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_load_without_the_full_dep_check(self, name, monkeypatch):
        # A builtin, and a file `fedflow gen` writes, lists its tasks in
        # submission order, so its load pays nothing for the dep rule.
        def full_check(workflow):
            raise AssertionError("_check_deps called")

        monkeypatch.setattr("fedflow.scenario._check_deps", full_check)
        scenario_from_dict(scenario_to_dict(generate_builtin_scenario(name, 1.0)))

    def test_reference_task_counts(self):
        from fedflow.builtins import generate_builtin_scenario

        assert len(generate_builtin_scenario("drug-like", 1.0).workflow) == 24001
        assert len(generate_builtin_scenario("montage-like", 1.0).workflow) == 11340
        n = len(generate_builtin_scenario("drug-like", 0.01).workflow)
        assert 230 <= n <= 250  # stage ratios preserved

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_a_scale_above_one_grows_the_task_count_in_proportion(self, name):
        base = len(generate_builtin_scenario(name, 0.3).workflow)
        n = len(generate_builtin_scenario(name, 1.5).workflow)
        # Each stage's count is rounded on its own.
        assert n == pytest.approx(5 * base, rel=1e-3)

    # SHA-256 of the file `fedflow gen` writes for each builtin at each of
    # GEN_SCALES. `setup_s` in the benchmark parses exactly these files, so
    # a refactor of the generators must leave every byte as it is.
    GEN_SCALES = (0.02, 0.37, 1.0)
    GEN_SHA256 = {
        "drug-like": (
            "a0a976315e71dfb5322116908e098b59c806b3a311ab376221a856edbe371bad",
            "708392a5834a2cf2e3eca00244e56b90f72576672111be37995f4aee8936e0db",
            "e3044640bc73f33f88fa51713bf2943d20d415f6afb16756a8341e9dd7c5d8eb",
        ),
        "montage-like": (
            "0abbb8ea3d6f8e0b0eaf7672de5f4f18478af9aa0222989a071e5e14ad4d7ddd",
            "d87e494b1c4814f875ae6f89701af6c7deb9b8b1004cde775117051f21ea2e7e",
            "78168a3d3d91da37d3b5a15786046995eb9011ef4dd319f767b0869482852974",
        ),
        "dynamic-drug": (
            "2428f081123f3a2be47a066c3534dd508865f0bf9a6027ae8a938759e21edf4f",
            "e81446eeec212178f1f5cfd17c6715b0b9c8e6da71bb2766e0c6c094a6725f10",
            "3643e8e4a58d0e2aa6c3f2fa60effa7d384b48d7b93ac4ac5b43ebfc906cd187",
        ),
        "dynamic-montage": (
            "db88dc3b9f8aeac5b20781fbf732ed436b41e4e06e2a752184e263fa205ed965",
            "1a6e52dd4dedcdf8368048dc48d3a22534df05d3e1249de204653725430e6d07",
            "d309a4e028d0874327b3a3d27a1112901de68288ed980ba57f832b18007d7ad0",
        ),
        "elasticity": (
            "23ccacf98023457c74986c4eeb4ce87426a664bac16b998a6b760d9404f4566c",
            "7f68de3b3534cfcde0d7b2d4a9e0859daa2df5beebb6b7e41a6ffce93dd89a64",
            "905ffafe65710bb888a7ee8c025a2acb92d0aaf470d9fa8ca0310e764c93f0d3",
        ),
    }

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    @pytest.mark.parametrize("scale", GEN_SCALES)
    def test_generated_file_bytes_are_pinned(self, name, scale, tmp_path):
        path = tmp_path / "sc.json"
        save_scenario(generate_builtin_scenario(name, scale), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.GEN_SHA256[name][self.GEN_SCALES.index(scale)]

    def test_builtin_names_keep_their_order(self):
        # `fedflow gen --help` and the unknown-name error list them in this order.
        assert BUILTIN_NAMES == tuple(self.GEN_SHA256)

    def test_unknown_name_and_bad_scale(self):
        from fedflow.builtins import generate_builtin_scenario

        with pytest.raises(ScenarioError):
            generate_builtin_scenario("nope", 1.0)
        with pytest.raises(ScenarioError):
            generate_builtin_scenario("drug-like", 0.0)
