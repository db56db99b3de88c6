"""Built-in benchmark scenarios.

Two synthetic workflows — a compute-heavy screening pipeline with long tasks
and a data-heavy mosaicking pipeline with short tasks — plus dynamic-capacity
variants and a three-endpoint elasticity exercise. Stage ratios approximate
the published workflow shapes; they are not claimed to be exact.
"""

from __future__ import annotations

import math

from .scenario import Scenario, ScenarioError, scenario_from_dict, scenario_to_dict


def _count(base: int, scale: float) -> int:
    """`base` workers or tasks at `scale`: rounded, at least 1 in magnitude,
    and of the sign of `base`."""
    n = max(1, round(abs(base) * scale))
    return n if base > 0 else -n


def _task(workflow: list, function: str, **fields) -> int:
    """Append a task entry, whose id is its index, to `workflow` and return
    that id."""
    tid = len(workflow)
    workflow.append({"id": tid, "function": function, **fields})
    return tid


def _item(data_id: str, size_MB: float, location: str) -> dict:
    """The declaration of an item resident at `location`."""
    return {"data_id": data_id, "size_MB": size_MB, "locations": [location]}


def _screening_workflow(scale: float, stage_a: int) -> dict:
    """Four-stage screening pipeline: A -> 2xB -> C (fan-in 4) -> D -> final.

    Returns its functions and workflow entries. Stage bases at scale 1 follow the
    ratio 6000:12000:3000:3000 (+1 aggregate).
    """
    a = _count(stage_a, scale)
    c = max(1, a // 2)
    functions = [
        {"name": "prepare", "true_fixed_s": 180.0, "noise": 0.05, "output_ratio": 0.5},
        {"name": "dock", "true_fixed_s": 300.0, "noise": 0.05, "output_ratio": 0.5},
        {"name": "score", "true_fixed_s": 120.0, "noise": 0.05, "output_ratio": 0.5},
        {"name": "refine", "true_fixed_s": 60.0, "noise": 0.05, "output_ratio": 0.2},
        {"name": "aggregate", "true_fixed_s": 30.0, "noise": 0.0, "output_ratio": 0.0},
    ]
    workflow: list = []
    a_ids = [
        _task(workflow, "prepare", file_deps=[_item(f"ligand-{i}", 20.0, "taiyi")])
        for i in range(a)
    ]
    b_ids = [_task(workflow, "dock", deps=[a_ids[i // 2]]) for i in range(2 * a)]
    c_ids = [_task(workflow, "score", deps=b_ids[4 * j : 4 * j + 4]) for j in range(c)]
    d_ids = [_task(workflow, "refine", deps=[cid]) for cid in c_ids]
    _task(workflow, "aggregate", deps=d_ids + b_ids[4 * c :])
    return {"functions": functions, "workflow": workflow}


def _mosaic_workflow(scale: float) -> dict:
    """Five-stage mosaicking pipeline with overlapping-pair fan-in.

    Stage bases at scale 1: 4000 project, 4000 fit (pairing neighbors),
    3000 background, 300 collect, 39 combine, 1 final = 11340 tasks.
    """
    p = _count(4000, scale)
    bg = _count(3000, scale)
    ag = _count(300, scale)
    cm = _count(39, scale)
    functions = [
        {"name": "project", "true_fixed_s": 6.0, "noise": 0.05, "output_ratio": 1.0},
        {"name": "fit", "true_fixed_s": 4.0, "noise": 0.05, "output_ratio": 0.3},
        {"name": "background", "true_fixed_s": 6.0, "noise": 0.05, "output_ratio": 0.5},
        {"name": "collect", "true_fixed_s": 30.0, "noise": 0.05, "output_ratio": 0.5},
        {"name": "combine", "true_fixed_s": 60.0, "noise": 0.05, "output_ratio": 0.2},
        {"name": "publish", "true_fixed_s": 10.0, "noise": 0.0, "output_ratio": 0.0},
    ]

    def pair(ids: list, i: int) -> list:
        """Entry `i` of `ids` and its neighbor, wrapping around."""
        return sorted({ids[i], ids[(i + 1) % len(ids)]})

    def chunk(ids: list, k: int, n: int) -> list:
        """Part `k` of `ids` cut into `n` parts, or its last entry if empty."""
        return ids[k * len(ids) // n : (k + 1) * len(ids) // n] or [ids[-1]]

    workflow: list = []
    p_ids = [
        _task(workflow, "project", file_deps=[_item(f"tile-{i}", 25.0, "qiming")])
        for i in range(p)
    ]
    f_ids = [_task(workflow, "fit", deps=pair(p_ids, i)) for i in range(p)]
    bg_ids = [_task(workflow, "background", deps=pair(f_ids, j * p // bg)) for j in range(bg)]
    ag_ids = [_task(workflow, "collect", deps=chunk(bg_ids, k, ag)) for k in range(ag)]
    cm_ids = [_task(workflow, "combine", deps=chunk(ag_ids, m, cm)) for m in range(cm)]
    _task(workflow, "publish", deps=cm_ids)
    return {"functions": functions, "workflow": workflow}


# The federations the paper's workflows run on, one row per endpoint: its
# id, its workers at scale 1, its perf factor and its capacity trace as
# (time_s, delta_workers at scale 1) steps. A trace of None marks a static
# endpoint of one node; an endpoint with a trace, even an empty one, gets
# max_nodes 4, which leaves headroom for the trace's grow events.
_FEDERATIONS = {
    "drug-like": (
        ("taiyi", 2000, 1.0, None),
        ("qiming", 384, 1.5, None),
        ("dept", 48, 1.2, None),
        ("lab", 52, 1.4, None),
    ),
    "montage-like": (
        ("taiyi", 120, 1.2, None),
        ("qiming", 240, 1.0, None),
        ("dept", 48, 1.4, None),
        ("lab", 52, 1.3, None),
    ),
    # The second endpoint doubles early, the first loses most of its
    # workers mid-run.
    "dynamic-drug": (
        ("taiyi", 400, 1.0, ((540.0, -280),)),
        ("qiming", 600, 1.5, ((120.0, 600),)),
        ("dept", 48, 1.2, ()),
        ("lab", 52, 1.4, ()),
    ),
    "dynamic-montage": (
        ("taiyi", 40, 1.2, ((120.0, 80),)),
        ("qiming", 240, 1.0, ((300.0, -168),)),
        ("dept", 48, 1.4, ()),
        ("lab", 52, 1.3, ()),
    ),
}


def _federation(name: str, scale: float) -> list:
    """The endpoint entries of federation `name` at `scale`."""
    endpoints = []
    for ep_id, workers, perf, trace in _FEDERATIONS[name]:
        entry = {
            "endpoint_id": ep_id,
            "workers_per_node": _count(workers, scale),
            "max_nodes": 1 if trace is None else 4,
            "initial_nodes": 1,
            "perf_factor": perf,
        }
        if trace is not None:
            entry["capacity_trace"] = [
                {"time_s": t, "delta_workers": _count(d, scale)} for t, d in trace
            ]
        endpoints.append(entry)
    return endpoints


def _elasticity(scale: float) -> dict:
    """Three elastic endpoints exercised by two submission bursts.

    Each task family carries a huge endpoint-resident input, which pins it to
    its home endpoint under finish-time selection without any explicit
    placement directive.
    """
    endpoints = [
        {
            "endpoint_id": f"ep{i + 1}",
            "workers_per_node": 20,
            "max_nodes": nodes,
            "initial_nodes": 0,
            "idle_timeout_s": 30.0,
            "perf_factor": 1.0,
        }
        for i, nodes in enumerate((5, 2, 1))
    ]
    functions = [
        {"name": "task1", "true_fixed_s": 30.0, "noise": 0.0},
        {"name": "task2", "true_fixed_s": 30.0, "noise": 0.0},
        {"name": "task3", "true_fixed_s": 10.0, "noise": 0.0},
    ]
    # The first reference to each pin item declares it inline; later ones
    # name it.
    pins = {f"ep{i}": _item(f"pin-ep{i}", 100000.0, f"ep{i}") for i in (1, 2, 3)}
    workflow: list = []
    for when, counts in ((10.0, (50, 20, 10)), (70.0, (200, 80, 40))):
        for fam, n in enumerate(counts):
            home = f"ep{fam + 1}"
            for _ in range(_count(n, scale)):
                pin = pins.pop(home, f"pin-{home}")
                _task(workflow, f"task{fam + 1}", file_deps=[pin], submit_time_s=when)
    return {
        "endpoints": endpoints,
        "functions": functions,
        "workflow": workflow,
        "defaults": {"elastic": True, "scale_tick_s": 1.0},
    }


# Each builtin's generator: the functions and workflow entries of its
# scenario at a given scale. A builtin that runs on no federation of
# `_FEDERATIONS` gives its endpoints as well, and any defaults beyond the
# common ones.
_GENERATORS = {
    "drug-like": lambda scale: _screening_workflow(scale, 6000),
    "montage-like": _mosaic_workflow,
    # A half-size screening run under a capacity trace.
    "dynamic-drug": lambda scale: _screening_workflow(scale, 3000),
    "dynamic-montage": _mosaic_workflow,
    "elasticity": _elasticity,
}

BUILTIN_NAMES = tuple(_GENERATORS)

_NETWORK = {
    "default": {"bandwidth_MBps": 100.0, "latency_s": 0.5},
    "client": {"dispatch_latency_s": 0.0, "poll_interval_s": 0.0},
}


def generate_builtin_scenario(name: str, scale: float = 1.0) -> Scenario:
    if name not in _GENERATORS:
        raise ScenarioError(
            f"unknown builtin scenario '{name}' (choose from {', '.join(BUILTIN_NAMES)})"
        )
    if not 0.0 < scale < math.inf:
        raise ScenarioError(f"scale must be positive and finite, got {scale}")
    doc = {"name": f"{name}@{scale:g}", "network": _NETWORK, **_GENERATORS[name](scale)}
    if name in _FEDERATIONS:
        doc["endpoints"] = _federation(name, scale)
    doc["defaults"] = {"scheduler": "dha", "seed": 7, **doc.get("defaults", {})}
    return scenario_from_dict(doc)


def single_endpoint_variant(sc: Scenario, endpoint_id: str) -> Scenario:
    """The same workload restricted to one endpoint (federation baseline).

    Requires every initial data item to be resident on that endpoint.
    """
    doc = scenario_to_dict(sc)
    doc["name"] = f"{doc['name']}+only-{endpoint_id}"
    kept = [e for e in doc["endpoints"] if e["endpoint_id"] == endpoint_id]
    if not kept:
        raise ScenarioError(f"no endpoint '{endpoint_id}' in scenario")
    doc["endpoints"] = kept
    doc["network"]["pairs"] = [
        p
        for p in doc["network"].get("pairs", [])
        if p["src"] == endpoint_id and p["dst"] == endpoint_id
    ]
    for entry in doc["workflow"]:
        for fd in entry.get("file_deps", []):
            if isinstance(fd, dict) and endpoint_id not in fd["locations"]:
                raise ScenarioError(
                    f"data '{fd['data_id']}' is not resident on {endpoint_id}"
                )
            if isinstance(fd, dict):
                fd["locations"] = [endpoint_id]
    return scenario_from_dict(doc)
