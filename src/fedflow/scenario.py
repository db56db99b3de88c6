"""Scenario files: declarative description of endpoints, network, functions,
data, and workflow, with strict validation.

The on-disk format is JSON with the field names documented in
docs/scenario-schema.md. Sizes are given in MB (1 MB = 1e6 bytes) and times
in seconds.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from operator import attrgetter
from pathlib import Path
from typing import Optional

from .dag import INLINE_ARGS_LIMIT, FunctionDef
from .endpoints import CapacityEvent, EndpointSpec
from .scheduling import STRATEGIES

MB = 1_000_000

_INT_ONLY = {int}
# The engine names a task's output item OUTPUT_PREFIX + task id, and a link
# probe PROBE_PREFIX + "<src>__<dst>"; a declared item may start with neither.
OUTPUT_PREFIX, PROBE_PREFIX = "out:", "__probe__"


class ScenarioError(ValueError):
    """Validation failure; the message names the offending field and entry."""


# A scenario holds one TaskSpec per task and one DataSpec per declared item,
# so both are slotted records. Nothing sets a field after the load.
@dataclass(slots=True)
class DataSpec:
    data_id: str
    size_MB: float
    locations: tuple


@dataclass(slots=True)
class TaskSpec:
    id: int
    function: str
    deps: tuple = ()
    file_deps: tuple = ()  # data ids
    inline_args_B: int = 0
    submit_time_s: float = 0.0


@dataclass(frozen=True)
class LinkSpec:
    bandwidth_MBps: float
    latency_s: float


@dataclass(frozen=True)
class NetworkSpec:
    default: Optional[LinkSpec] = None
    pairs: dict = field(default_factory=dict)  # (src, dst) -> LinkSpec
    dispatch_latency_s: float = 0.0
    poll_interval_s: float = 0.0

    def link(self, src: str, dst: str) -> LinkSpec:
        if (src, dst) in self.pairs:
            return self.pairs[(src, dst)]
        if self.default is not None:
            return self.default
        raise ScenarioError(f"network: missing network pair {src}->{dst}")


# Each value is checked at load by the kind its field declares
# (`_checked_defaults`); an int field's "least" metadata is the least value
# it may take.
@dataclass(frozen=True)
class Defaults:
    scheduler: str = "dha"
    seed: int = 0
    max_transfer_retries: int = field(default=3, metadata={"least": 0})
    max_task_attempts: int = field(default=0, metadata={"least": 0})  # 0: one attempt per endpoint
    transfer_concurrency: int = field(default=4, metadata={"least": 1})
    transfer_failure_rate: float = 0.0
    elastic: bool = False
    scale_tick_s: float = 1.0
    refresh_tick_s: float = 5.0
    reschedule_period_s: float = 10.0
    probe_at_init: bool = False
    mock_sync_lag_s: float = 0.0


@dataclass
class Scenario:
    name: str
    endpoints: list  # EndpointSpec
    capacity_traces: dict  # endpoint_id -> [CapacityEvent]
    network: NetworkSpec
    functions: dict  # name -> FunctionDef
    data: dict  # data_id -> DataSpec
    # TaskSpec; a loaded scenario lists them in (submit_time_s, id) order,
    # but `Simulation` does not rely on it.
    workflow: list
    defaults: Defaults = field(default_factory=Defaults)


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioError(f"{where}: missing field '{key}'")
    return obj[key]


def _object(value, where: str) -> dict:
    """`value`, if it is a JSON object."""
    if not isinstance(value, dict):
        raise ScenarioError(f"{where}: must be an object ({value!r})")
    return value


def _list(value, name: str, where: str) -> list:
    """`value`, if it is a JSON list."""
    if not isinstance(value, list):
        raise ScenarioError(f"{where}: '{name}' must be a list ({value!r})")
    return value


def _id(value, name: str, where: str) -> str:
    """`value`, if it is a string: ids are dict and set keys."""
    if type(value) is not str:
        raise ScenarioError(f"{where}: '{name}' must be a string ({value!r})")
    return value


def _nonneg(value, name: str, where: str):
    """`value` unchanged, if it is a finite, non-negative number; never a
    bool."""
    if not isinstance(value, bool):
        try:
            if 0 <= value < math.inf:
                return value
        except TypeError:  # not a number
            pass
        else:
            if value < 0:
                raise ScenarioError(f"{where}: negative size/time in '{name}' ({value})")
    raise ScenarioError(f"{where}: '{name}' must be a finite number ({value!r})")


def _int(value, name: str, where: str) -> int:
    """`value` as an int, if it is an integral number or a string of one;
    never a bool, and never a truncated fraction."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            number = int(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if isinstance(value, str) or number == value:
                return number
    raise ScenarioError(f"{where}: '{name}' must be an integer ({value!r})")


def _data_from_declaration(fd: dict, did, m: int, seen_eps: set, shared: dict) -> DataSpec:
    """The item that the `file_deps` entry `fd` of `workflow[m]` declares.
    Its `locations` is the tuple in `shared` equal to the entry's list, which
    is added there if new: items declared alike share one tuple."""
    if did.startswith((OUTPUT_PREFIX, PROBE_PREFIX)):
        raise ScenarioError(f"workflow[{m}]: data id '{did}' starts with a reserved prefix")
    size = fd.get("size_MB")
    if type(size) is not float or not 0.0 <= size < math.inf:
        size = _nonneg(size, "size_MB", f"workflow[{m}].file_deps")
    locations = fd.get("locations", [])
    if type(locations) is not list:
        _list(locations, "locations", f"workflow[{m}].file_deps")
    if not locations:
        raise ScenarioError(f"workflow[{m}]: data '{did}' has no initial locations")
    try:
        known = seen_eps.issuperset(locations)
    except TypeError:  # an unhashable location, which the loop names
        known = False
    if not known:
        for loc in locations:
            if _id(loc, "locations", f"workflow[{m}].file_deps") not in seen_eps:
                raise ScenarioError(
                    f"workflow[{m}]: dangling reference to endpoint '{loc}' in data '{did}'"
                )
    locations = tuple(locations)
    try:  # not `setdefault`: set-up's calls per task are pinned (test_call_budget.py)
        locations = shared[locations]
    except KeyError:
        shared[locations] = locations
    return DataSpec(did, size, locations)


def _check_deps(workflow: list):
    """Raise the error for the first task of `workflow`, in file order, with
    a dep that is not a task submitted before it, if there is one. Tasks are
    submitted in (submit_time_s, id) order, so this one rule keeps every
    accepted workflow acyclic."""
    order = {t.id: (t.submit_time_s, t.id) for t in workflow}
    for m, t in enumerate(workflow):
        for d in t.deps:
            if d not in order:
                raise ScenarioError(f"workflow[{m}]: dangling reference to task {d}")
            if order[d] >= order[t.id]:
                raise ScenarioError(
                    f"workflow[{m}]: task {t.id} depends on task {d}, which is not"
                    " submitted before it (tasks are submitted in (submit_time_s, id) order)"
                )


def _link(obj: dict, where: str) -> LinkSpec:
    """The link that `obj`, `network.default` or a `network.pairs` entry,
    declares."""
    bandwidth = _nonneg(obj.get("bandwidth_MBps"), "bandwidth_MBps", where)
    if bandwidth == 0:
        raise ScenarioError(f"{where}: bandwidth must be positive")
    return LinkSpec(bandwidth, _nonneg(obj.get("latency_s", 0.0), "latency_s", where))


def scenario_from_dict(doc: dict) -> Scenario:
    name = _id(_object(doc, "scenario").get("name", "scenario"), "name", "scenario")

    endpoints = []
    traces: dict = {}
    seen_eps: set = set()
    for i, entry in enumerate(_list(doc.get("endpoints", []), "endpoints", "scenario")):
        where = f"endpoints[{i}]"
        ep_id = _id(_require(_object(entry, where), "endpoint_id", where), "endpoint_id", where)
        if ep_id in seen_eps:
            raise ScenarioError(f"{where}: duplicate endpoint_id '{ep_id}'")
        seen_eps.add(ep_id)
        numbers = {
            "workers_per_node": _int(
                _require(entry, "workers_per_node", where), "workers_per_node", where
            ),
            "max_nodes": _int(_require(entry, "max_nodes", where), "max_nodes", where),
            "initial_nodes": _int(entry.get("initial_nodes", 0), "initial_nodes", where),
            "idle_timeout_s": float(
                _nonneg(entry.get("idle_timeout_s", 30.0), "idle_timeout_s", where)
            ),
            "perf_factor": float(_nonneg(entry.get("perf_factor", 1.0), "perf_factor", where)),
        }
        try:
            spec = EndpointSpec(endpoint_id=ep_id, **numbers)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        endpoints.append(spec)
        trace_where = f"{where}.capacity_trace"
        events = traces[ep_id] = []
        for n, ev in enumerate(
            _list(entry.get("capacity_trace", []), "capacity_trace", where)
        ):
            _object(ev, f"{trace_where}[{n}]")
            events.append(
                CapacityEvent(
                    time_s=_nonneg(ev.get("time_s"), "time_s", trace_where),
                    delta_workers=_int(
                        _require(ev, "delta_workers", trace_where), "delta_workers", trace_where
                    ),
                )
            )
    if not endpoints:
        raise ScenarioError("endpoints: at least one endpoint is required")

    net = _object(doc.get("network", {}), "network")
    default = None
    if "default" in net:
        default = _link(_object(net["default"], "network.default"), "network.default")
    pairs = {}
    for j, p in enumerate(_list(net.get("pairs", []), "pairs", "network")):
        where = f"network.pairs[{j}]"
        src = _id(_require(_object(p, where), "src", where), "src", where)
        dst = _id(_require(p, "dst", where), "dst", where)
        for ep in (src, dst):
            if ep not in seen_eps:
                raise ScenarioError(f"{where}: dangling reference to endpoint '{ep}'")
        pairs[(src, dst)] = _link(p, where)
    client = _object(net.get("client", {}), "network.client")
    network = NetworkSpec(
        default=default,
        pairs=pairs,
        dispatch_latency_s=_nonneg(
            client.get("dispatch_latency_s", 0.0), "dispatch_latency_s", "network.client"
        ),
        poll_interval_s=_nonneg(
            client.get("poll_interval_s", 0.0), "poll_interval_s", "network.client"
        ),
    )
    if default is None:
        for a in seen_eps:
            for b in seen_eps:
                if a != b and (a, b) not in pairs:
                    raise ScenarioError(f"network: missing network pair {a}->{b}")

    functions: dict = {}
    # Each function's name by itself: a task holds its FunctionDef's name
    # object, not the copy the JSON decoder makes for every entry.
    names: dict = {}
    for k, entry in enumerate(_list(doc.get("functions", []), "functions", "scenario")):
        where = f"functions[{k}]"
        fname = _id(_require(_object(entry, where), "name", where), "name", where)
        if fname in functions:
            raise ScenarioError(f"{where}: duplicate function name '{fname}'")
        # A hint with one component declared gets 0 for the other.
        hint = entry.get("cost_hint")
        hint = {} if hint is None else _object(hint, f"{where}.cost_hint")
        hint_fixed = hint_rate = None
        if "fixed_s" in hint or "rate_s_per_B" in hint:
            hint_where = f"{where}.cost_hint"
            hint_fixed = _nonneg(hint.get("fixed_s", 0.0), "fixed_s", hint_where)
            hint_rate = _nonneg(hint.get("rate_s_per_B", 0.0), "rate_s_per_B", hint_where)
        noise = entry.get("noise", 0.0)
        if _nonneg(noise, "noise", where) >= 1.0:
            raise ScenarioError(f"{where}: noise must be in [0, 1)")
        functions[fname] = FunctionDef(
            name=fname,
            true_fixed_s=_nonneg(entry.get("true_fixed_s"), "true_fixed_s", where),
            true_rate_s_per_MB=_nonneg(
                entry.get("true_rate_s_per_MB", 0.0), "true_rate_s_per_MB", where
            ),
            output_ratio=_nonneg(entry.get("output_ratio", 0.0), "output_ratio", where),
            noise=noise,
            cost_hint_fixed_s=hint_fixed,
            cost_hint_rate_s_per_B=hint_rate,
        )
        names[fname] = fname

    data: dict = {}
    location_tuples: dict = {}
    workflow: list = []
    seen_tasks: set = set()
    # Whether the entries so far are in (submit_time_s, id) order and each
    # of their deps is an earlier entry, and so submitted earlier; if not,
    # `_check_deps` checks every dep after the loop and the workflow is
    # sorted. If so, it is already in strictly ascending order: ids are
    # unique.
    in_order = True
    last_submit = last_tid = -1
    # A scenario has one entry per task, so each check tests the common
    # valid form inline and hands anything else to the helper that coerces
    # it or raises the field's error; the location text is formatted only
    # then.
    for m, entry in enumerate(_list(doc.get("workflow", []), "workflow", "scenario")):
        if type(entry) is not dict:
            entry = _object(entry, f"workflow[{m}]")
        tid = entry.get("id")
        if type(tid) is not int:
            where = f"workflow[{m}]"
            tid = _int(_require(entry, "id", where), "id", where)
        if tid in seen_tasks:
            raise ScenarioError(f"workflow[{m}]: duplicate task id {tid}")
        try:
            fname = names[entry.get("function")]
        except (KeyError, TypeError):  # missing, not a string, unhashable or unknown
            fname = entry.get("function")
            where = f"workflow[{m}]"
            _id(_require(entry, "function", where), "function", where)
            raise ScenarioError(f"{where}: dangling reference to function '{fname}'") from None
        deps = entry.get("deps", ())
        if type(deps) is not list and deps != ():
            _list(deps, "deps", f"workflow[{m}]")
        if deps:
            if not _INT_ONLY.issuperset(map(type, deps)):
                deps = [_int(d, "deps", f"workflow[{m}]") for d in deps]
            if not seen_tasks.issuperset(deps):
                in_order = False
        deps = tuple(deps)
        fds = entry.get("file_deps", ())
        if type(fds) is not list and fds != ():
            _list(fds, "file_deps", f"workflow[{m}]")
        file_deps = [] if fds else ()
        for fd in fds:
            if isinstance(fd, str):
                if fd not in data:
                    raise ScenarioError(f"workflow[{m}]: dangling reference to data '{fd}'")
                file_deps.append(fd)
                continue
            if not isinstance(fd, dict):
                raise ScenarioError(
                    f"workflow[{m}]: 'file_deps' entries must be data ids or objects ({fd!r})"
                )
            did = fd.get("data_id")
            if type(did) is not str:
                _id(_require(fd, "data_id", f"workflow[{m}]"), "data_id", f"workflow[{m}]")
            if did not in data:
                data[did] = _data_from_declaration(fd, did, m, seen_eps, location_tuples)
            else:
                again = _data_from_declaration(fd, did, m, seen_eps, location_tuples)
                first = data[did]
                if again.size_MB != first.size_MB or {*again.locations} != {*first.locations}:
                    raise ScenarioError(
                        f"workflow[{m}]: data '{did}' declared again with another size"
                        " or other locations"
                    )
            file_deps.append(did)
        inline = entry.get("inline_args_B", 0)
        if type(inline) is not int or not 0 <= inline <= INLINE_ARGS_LIMIT:
            where = f"workflow[{m}]"
            inline = _nonneg(_int(inline, "inline_args_B", where), "inline_args_B", where)
            if inline > INLINE_ARGS_LIMIT:
                raise ScenarioError(
                    f"{where}: inline_args_B exceeds the 10 MB limit ({INLINE_ARGS_LIMIT} B)"
                )
        submit = entry.get("submit_time_s", 0.0)
        if type(submit) is not float or not 0.0 <= submit < math.inf:
            submit = _nonneg(submit, "submit_time_s", f"workflow[{m}]")
        if submit < last_submit or submit == last_submit and tid < last_tid:
            in_order = False
        last_submit, last_tid = submit, tid
        workflow.append(TaskSpec(tid, fname, deps, tuple(file_deps), inline, submit))
        seen_tasks.add(tid)
    if not in_order:
        _check_deps(workflow)
        workflow.sort(key=attrgetter("submit_time_s", "id"))

    defaults_doc = _object(doc.get("defaults", {}), "defaults")
    unknown = set(defaults_doc) - set(Defaults.__dataclass_fields__)
    if unknown:
        raise ScenarioError(f"defaults: unknown fields {sorted(unknown)}")
    defaults = _checked_defaults(Defaults(**defaults_doc))
    return Scenario(
        name=name,
        endpoints=endpoints,
        capacity_traces=traces,
        network=network,
        functions=functions,
        data=data,
        workflow=workflow,
        defaults=defaults,
    )


def _checked_defaults(defaults: Defaults) -> Defaults:
    """`defaults` with its integer keys as ints, if every value has the kind
    its field declares and is in bounds."""
    ints = {}
    for f in fields(Defaults):
        key = f.name
        value = getattr(defaults, key)
        if f.type == "str":
            if type(value) is not str or value not in STRATEGIES:
                raise ScenarioError(f"defaults.{key}: unknown scheduler '{value}'")
        elif f.type == "bool":
            if type(value) is not bool:
                raise ScenarioError(f"defaults: '{key}' must be true or false ({value!r})")
        elif f.type == "int":
            value = ints[key] = _int(value, key, "defaults")
            least = f.metadata.get("least")
            if least is not None and value < least:
                raise ScenarioError(f"defaults: '{key}' must be at least {least} ({value})")
        else:
            _nonneg(value, key, "defaults")
    # A scale tick re-arms itself one period on, and a refresh boundary
    # advances one period at a time, so a period of 0 never advances either.
    for key in ("scale_tick_s", "refresh_tick_s"):
        if getattr(defaults, key) == 0:
            raise ScenarioError(f"defaults: '{key}' must be positive")
    if defaults.transfer_failure_rate > 1:
        raise ScenarioError("defaults: 'transfer_failure_rate' must be in [0, 1]")
    return replace(defaults, **ints)


def apply_overrides(sc: Scenario, poll_interval_s=None, **defaults):
    """Set the given `defaults` keys and the client poll interval of `sc`,
    each under the checks of a scenario file; None leaves a value as it is."""
    changes = {k: v for k, v in defaults.items() if v is not None}
    if changes:
        sc.defaults = _checked_defaults(replace(sc.defaults, **changes))
    if poll_interval_s is not None:
        poll = _nonneg(poll_interval_s, "poll_interval_s", "network.client")
        sc.network = replace(sc.network, poll_interval_s=poll)


# `TaskSpec`'s default for each optional field. A workflow entry leaves out a
# field that holds its default, and the loader reads a missing field as it.
_TASK_DEFAULTS = {f.name: f.default for f in fields(TaskSpec) if f.default is not MISSING}


def scenario_to_dict(sc: Scenario) -> dict:
    declared: set = set()

    def file_dep(did: str):
        """The item's declaration at its first use, its id after that."""
        if did in declared:
            return did
        declared.add(did)
        d = sc.data[did]
        return {"data_id": did, "size_MB": d.size_MB, "locations": list(d.locations)}

    def task_entry(t: TaskSpec) -> dict:
        entry = {"id": t.id, "function": t.function}
        for key, default in _TASK_DEFAULTS.items():
            value = getattr(t, key)
            if value != default:
                entry[key] = value
        if "deps" in entry:
            entry["deps"] = list(t.deps)
        if "file_deps" in entry:
            entry["file_deps"] = [file_dep(did) for did in t.file_deps]
        return entry

    def func_entry(f: FunctionDef) -> dict:
        entry = asdict(f)
        fixed, rate = entry.pop("cost_hint_fixed_s"), entry.pop("cost_hint_rate_s_per_B")
        if fixed is not None:
            entry["cost_hint"] = {"fixed_s": fixed, "rate_s_per_B": rate}
        return entry

    network = sc.network
    return {
        "name": sc.name,
        "endpoints": [
            {
                **asdict(ep),
                "capacity_trace": [
                    asdict(ev) for ev in sc.capacity_traces.get(ep.endpoint_id, [])
                ],
            }
            for ep in sc.endpoints
        ],
        "network": {
            **({"default": asdict(network.default)} if network.default else {}),
            "pairs": [
                {"src": src, "dst": dst, **asdict(link)}
                for (src, dst), link in sorted(network.pairs.items())
            ],
            "client": {
                "dispatch_latency_s": network.dispatch_latency_s,
                "poll_interval_s": network.poll_interval_s,
            },
        },
        "functions": [func_entry(f) for f in sc.functions.values()],
        "workflow": [task_entry(t) for t in sc.workflow],
        "defaults": asdict(sc.defaults),
    }


def load_scenario(path) -> Scenario:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:  # JSON text is UTF-8 (RFC 8259), whatever the locale.
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc})") from exc
    # A load makes no reference cycles (tests/test_collector.py), so the
    # collector is paused for it and left as the caller had it, as in `run()`.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return scenario_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    finally:
        if collecting:
            gc.enable()


def save_scenario(sc: Scenario, path):
    """Write `scenario_to_dict(sc)` as indented JSON, but each workflow entry
    as one compact object on a line of its own: a workflow holds one entry
    per task, and indenting their fields would about double the file."""
    doc = scenario_to_dict(sc)
    tasks = [json.dumps(entry, separators=(",", ":")) for entry in doc["workflow"]]
    doc["workflow"] = []
    text = json.dumps(doc, indent=2)
    if tasks:
        # Only the top-level key starts a line at this indent: JSON escapes
        # any newline or quote within a string.
        head, tail = text.split('\n  "workflow": []', 1)
        text = head + '\n  "workflow": [\n    ' + ",\n    ".join(tasks) + "\n  ]" + tail
    Path(path).write_text(text + "\n")
