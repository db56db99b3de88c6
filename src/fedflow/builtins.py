"""Built-in benchmark scenarios.

Two synthetic workflows — a compute-heavy screening pipeline with long tasks
and a data-heavy mosaicking pipeline with short tasks — plus dynamic-capacity
variants and a three-endpoint elasticity exercise. Stage ratios approximate
the published workflow shapes; they are not claimed to be exact.
"""

from __future__ import annotations

import logging
import math

from .scenario import Scenario, ScenarioError, scenario_from_dict, scenario_to_dict

logger = logging.getLogger(__name__)

BUILTIN_NAMES = (
    "drug-like",
    "montage-like",
    "dynamic-drug",
    "dynamic-montage",
    "elasticity",
)


def _count(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def _screening_workflow(scale: float, stage_a: int, in_mb: float) -> tuple:
    """Four-stage screening pipeline: A -> 2xB -> C (fan-in 4) -> D -> final.

    Returns (functions, workflow) entries. Stage bases at scale 1 follow the
    ratio 6000:12000:3000:3000 (+1 aggregate).
    """
    a = _count(stage_a, scale)
    b = 2 * a
    c = max(1, a // 2)
    d = c
    functions = [
        {"name": "prepare", "true_fixed_s": 180.0, "noise": 0.05, "output_ratio": 0.5},
        {"name": "dock", "true_fixed_s": 300.0, "noise": 0.05, "output_ratio": 0.5},
        {"name": "score", "true_fixed_s": 120.0, "noise": 0.05, "output_ratio": 0.5},
        {"name": "refine", "true_fixed_s": 60.0, "noise": 0.05, "output_ratio": 0.2},
        {"name": "aggregate", "true_fixed_s": 30.0, "noise": 0.0, "output_ratio": 0.0},
    ]
    workflow = []
    nid = 0
    a_ids, b_ids, c_ids, d_ids = [], [], [], []
    for i in range(a):
        workflow.append(
            {
                "id": nid,
                "function": "prepare",
                "file_deps": [
                    {
                        "data_id": f"ligand-{i}",
                        "size_MB": in_mb,
                        "locations": ["taiyi"],
                    }
                ],
            }
        )
        a_ids.append(nid)
        nid += 1
    for i in range(b):
        workflow.append({"id": nid, "function": "dock", "deps": [a_ids[i // 2]]})
        b_ids.append(nid)
        nid += 1
    for j in range(c):
        deps = b_ids[4 * j : 4 * j + 4]
        workflow.append({"id": nid, "function": "score", "deps": deps})
        c_ids.append(nid)
        nid += 1
    for k in range(d):
        workflow.append({"id": nid, "function": "refine", "deps": [c_ids[k]]})
        d_ids.append(nid)
        nid += 1
    leftover_b = b_ids[4 * c :]
    workflow.append(
        {"id": nid, "function": "aggregate", "deps": d_ids + leftover_b}
    )
    return functions, workflow


def _mosaic_workflow(scale: float) -> tuple:
    """Five-stage mosaicking pipeline with overlapping-pair fan-in.

    Stage bases at scale 1: 4000 project, 4000 fit (pairing neighbors),
    3000 background, 300 collect, 39 combine, 1 final = 11340 tasks.
    """
    p = _count(4000, scale)
    f = p
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
    workflow = []
    nid = 0
    p_ids, f_ids, bg_ids, ag_ids, cm_ids = [], [], [], [], []
    for i in range(p):
        workflow.append(
            {
                "id": nid,
                "function": "project",
                "file_deps": [
                    {
                        "data_id": f"tile-{i}",
                        "size_MB": 25.0,
                        "locations": ["qiming"],
                    }
                ],
            }
        )
        p_ids.append(nid)
        nid += 1
    for i in range(f):
        deps = sorted({p_ids[i], p_ids[(i + 1) % p]})
        workflow.append({"id": nid, "function": "fit", "deps": deps})
        f_ids.append(nid)
        nid += 1
    for j in range(bg):
        lo = j * f // bg
        deps = sorted({f_ids[lo], f_ids[(lo + 1) % f]})
        workflow.append({"id": nid, "function": "background", "deps": deps})
        bg_ids.append(nid)
        nid += 1
    for k in range(ag):
        deps = bg_ids[k * bg // ag : (k + 1) * bg // ag] or [bg_ids[-1]]
        workflow.append({"id": nid, "function": "collect", "deps": deps})
        ag_ids.append(nid)
        nid += 1
    for m in range(cm):
        deps = ag_ids[m * ag // cm : (m + 1) * ag // cm] or [ag_ids[-1]]
        workflow.append({"id": nid, "function": "combine", "deps": deps})
        cm_ids.append(nid)
        nid += 1
    workflow.append({"id": nid, "function": "publish", "deps": cm_ids})
    return functions, workflow


def _static_endpoint(ep_id: str, workers: int, perf: float) -> dict:
    return {
        "endpoint_id": ep_id,
        "workers_per_node": workers,
        "max_nodes": 1,
        "initial_nodes": 1,
        "perf_factor": perf,
    }


def _dynamic_endpoint(ep_id: str, workers: int, perf: float, trace: list) -> dict:
    # max_nodes 4 leaves headroom for the grow events in the trace.
    return {
        "endpoint_id": ep_id,
        "workers_per_node": workers,
        "max_nodes": 4,
        "initial_nodes": 1,
        "perf_factor": perf,
        "capacity_trace": trace,
    }


_NETWORK = {
    "default": {"bandwidth_MBps": 100.0, "latency_s": 0.5},
    "client": {"dispatch_latency_s": 0.0, "poll_interval_s": 0.0},
}


def _drug_like(scale: float) -> dict:
    functions, workflow = _screening_workflow(scale, 6000, in_mb=20.0)
    return {
        "name": f"drug-like@{scale:g}",
        "endpoints": [
            _static_endpoint("taiyi", _count(2000, scale), 1.0),
            _static_endpoint("qiming", _count(384, scale), 1.5),
            _static_endpoint("dept", _count(48, scale), 1.2),
            _static_endpoint("lab", _count(52, scale), 1.4),
        ],
        "network": _NETWORK,
        "functions": functions,
        "workflow": workflow,
        "defaults": {"scheduler": "dha", "seed": 7},
    }


def _montage_like(scale: float) -> dict:
    functions, workflow = _mosaic_workflow(scale)
    return {
        "name": f"montage-like@{scale:g}",
        "endpoints": [
            _static_endpoint("taiyi", _count(120, scale), 1.2),
            _static_endpoint("qiming", _count(240, scale), 1.0),
            _static_endpoint("dept", _count(48, scale), 1.4),
            _static_endpoint("lab", _count(52, scale), 1.3),
        ],
        "network": _NETWORK,
        "functions": functions,
        "workflow": workflow,
        "defaults": {"scheduler": "dha", "seed": 7},
    }


def _dynamic_drug(scale: float) -> dict:
    # Half-size screening run under a capacity trace: the second endpoint
    # doubles early, the first loses most of its workers mid-run.
    functions, workflow = _screening_workflow(scale, 3000, in_mb=20.0)
    return {
        "name": f"dynamic-drug@{scale:g}",
        "endpoints": [
            _dynamic_endpoint(
                "taiyi",
                _count(400, scale),
                1.0,
                [{"time_s": 540.0, "delta_workers": -_count(280, scale)}],
            ),
            _dynamic_endpoint(
                "qiming",
                _count(600, scale),
                1.5,
                [{"time_s": 120.0, "delta_workers": _count(600, scale)}],
            ),
            _dynamic_endpoint("dept", _count(48, scale), 1.2, []),
            _dynamic_endpoint("lab", _count(52, scale), 1.4, []),
        ],
        "network": _NETWORK,
        "functions": functions,
        "workflow": workflow,
        "defaults": {"scheduler": "dha", "seed": 7},
    }


def _dynamic_montage(scale: float) -> dict:
    functions, workflow = _mosaic_workflow(scale)
    return {
        "name": f"dynamic-montage@{scale:g}",
        "endpoints": [
            _dynamic_endpoint(
                "taiyi",
                _count(40, scale),
                1.2,
                [{"time_s": 120.0, "delta_workers": _count(80, scale)}],
            ),
            _dynamic_endpoint(
                "qiming",
                _count(240, scale),
                1.0,
                [{"time_s": 300.0, "delta_workers": -_count(168, scale)}],
            ),
            _dynamic_endpoint("dept", _count(48, scale), 1.4, []),
            _dynamic_endpoint("lab", _count(52, scale), 1.3, []),
        ],
        "network": _NETWORK,
        "functions": functions,
        "workflow": workflow,
        "defaults": {"scheduler": "dha", "seed": 7},
    }


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
    pin = {
        f"task{i + 1}": {
            "data_id": f"pin-ep{i + 1}",
            "size_MB": 100000.0,
            "locations": [f"ep{i + 1}"],
        }
        for i in range(3)
    }
    workflow = []
    nid = 0
    for when, counts in ((10.0, (50, 20, 10)), (70.0, (200, 80, 40))):
        for fam, n in enumerate(counts):
            fname = f"task{fam + 1}"
            for _ in range(_count(n, scale)):
                workflow.append(
                    {
                        "id": nid,
                        "function": fname,
                        "file_deps": [pin[fname]["data_id"]],
                        "submit_time_s": when,
                    }
                )
                nid += 1
    # The first reference to each pin item must declare it inline.
    declared: set = set()
    for entry in workflow:
        did = entry["file_deps"][0]
        if did not in declared:
            declared.add(did)
            entry["file_deps"] = [pin[entry["function"]]]
    return {
        "name": f"elasticity@{scale:g}",
        "endpoints": endpoints,
        "network": _NETWORK,
        "functions": functions,
        "workflow": workflow,
        "defaults": {
            "scheduler": "dha",
            "seed": 7,
            "elastic": True,
            "scale_tick_s": 1.0,
        },
    }


_GENERATORS = {
    "drug-like": _drug_like,
    "montage-like": _montage_like,
    "dynamic-drug": _dynamic_drug,
    "dynamic-montage": _dynamic_montage,
    "elasticity": _elasticity,
}


def generate_builtin_scenario(name: str, scale: float = 1.0) -> Scenario:
    if name not in _GENERATORS:
        raise ScenarioError(
            f"unknown builtin scenario '{name}' (choose from {', '.join(BUILTIN_NAMES)})"
        )
    if not 0.0 < scale < math.inf:
        raise ScenarioError(f"scale must be positive and finite, got {scale}")
    return scenario_from_dict(_GENERATORS[name](scale))


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
