"""`Simulation.run()` and `load_scenario` pause CPython's cyclic garbage
collector.

The pause is safe because a run makes no reference cycles: every object it
frees goes by reference count alone, so a collector pass during the run
would find nothing. The first tests pin that over every builtin ×
scheduler and the variants that take the failure, probe, poll and sync-lag
paths. The others pin the pause itself: no collection runs inside `run()`,
and the caller's setting is back however the run ends. The last pin the
same for a load.
"""

import gc

import pytest

import test_termination
from fedflow.builtins import BUILTIN_NAMES, generate_builtin_scenario
from fedflow.engine import DeadlockError, Simulation
from fedflow.scenario import ScenarioError, load_scenario, save_scenario
from test_golden import _scenario
from test_termination import BoundedSimulation, lossy, quiet  # noqa: F401 (quiet is a fixture)

SEED = 7


@pytest.fixture
def collector():
    """Leaves the collector on after the test, whatever the test set."""
    yield
    gc.enable()


def assert_no_cyclic_garbage(sim, raises=None):
    """Run `sim` and check that a full collection, with the simulation
    still referenced, finds nothing to free."""
    gc.collect()  # what building the scenario and the simulation left
    if raises:
        with pytest.raises(raises):
            sim.run()
    else:
        sim.run()
    assert gc.collect() == 0


@pytest.mark.parametrize("scheduler", ["capacity", "locality", "dha"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_a_run_makes_no_cyclic_garbage(name, scheduler):
    sim = Simulation(generate_builtin_scenario(name, 0.01), scheduler_kind=scheduler, seed=SEED)
    # See tests/test_termination.py::test_elastic_locality_deadlocks_instead_of_spinning.
    deadlocks = (name, scheduler) == ("elasticity", "locality")
    assert_no_cyclic_garbage(sim, DeadlockError if deadlocks else None)


@pytest.mark.parametrize(
    "name,scheduler",
    [("montage-like", s) for s in ("capacity", "locality", "dha")] + [("dynamic-drug", "dha")],
)
def test_a_lossy_run_makes_no_cyclic_garbage(name, scheduler, quiet):
    # Three transfer attempts in ten fail and none is retried, so tasks are
    # retried elsewhere, fail for good and leave unrunnable successors.
    sc = lossy(name, 0.02, transfer_failure_rate=0.3, max_transfer_retries=0)
    sim = Simulation(sc, scheduler_kind=scheduler, seed=SEED)
    assert_no_cyclic_garbage(sim)
    assert sim.metrics.tasks_failed > 0


@pytest.mark.parametrize(
    "name,scheduler,variant",
    [
        ("dynamic-drug", "dha", "probe-retry-poll"),
        ("montage-like", "locality", "probe-retry-poll"),
        ("dynamic-drug", "dha", "sync-lag"),
    ],
)
def test_a_variant_run_makes_no_cyclic_garbage(name, scheduler, variant, quiet):
    sim = Simulation(_scenario(name, 0.02, variant), scheduler_kind=scheduler, seed=SEED)
    assert_no_cyclic_garbage(sim)


def count_collections(run) -> int:
    """Collector passes that start while `run()` runs."""
    passes = []

    def on_pass(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(on_pass)
    try:
        run()
    finally:
        gc.callbacks.remove(on_pass)
    return len(passes)


@pytest.mark.parametrize(
    "name,scale,scheduler",
    [("drug-like", 0.05, "capacity"), ("montage-like", 0.1, "dha"), ("dynamic-drug", 0.1, "dha")],
)
def test_no_collection_runs_inside_a_run(name, scale, scheduler, collector):
    # With the collector on, the run would otherwise collect: each task
    # allocates several tracked objects that live to the end of the run.
    gc.enable()
    sim = Simulation(generate_builtin_scenario(name, scale), scheduler_kind=scheduler, seed=SEED)
    gc.collect()
    assert count_collections(sim.run) == 0
    assert gc.isenabled()


@pytest.mark.parametrize(
    "name,scale,scheduler", [("drug-like", 0.05, "capacity"), ("montage-like", 0.1, "dha")]
)
def test_task_deps_are_untracked_after_one_young_pass(name, scale, scheduler):
    # A deps tuple holds only ints, so the first collection that sees it
    # stops tracking it; a set of ids would stay tracked for good.
    sim = Simulation(generate_builtin_scenario(name, scale), scheduler_kind=scheduler, seed=SEED)
    sim.run()
    gc.collect(0)
    nodes = sim.dag.nodes.values()
    assert any(node.deps for node in nodes)
    assert not any(gc.is_tracked(node.deps) for node in nodes)


class TestCollectorSetting:
    """`run()` leaves the collector on or off, as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_a_normal_return(self, enabled, collector):
        sim = Simulation(generate_builtin_scenario("drug-like", 0.01), seed=SEED)
        gc.enable() if enabled else gc.disable()
        sim.run()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_a_deadlock(self, enabled, collector):
        sc = generate_builtin_scenario("elasticity", 0.01)
        sim = Simulation(sc, scheduler_kind="locality", seed=SEED)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(DeadlockError):
            sim.run()
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_after_an_exception_inside_the_loop(self, enabled, collector, monkeypatch):
        # The event cap fails the run from inside an event handler.
        monkeypatch.setattr(test_termination, "MAX_EVENTS", 10)
        sim = BoundedSimulation(generate_builtin_scenario("drug-like", 0.01), seed=SEED)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(pytest.fail.Exception, match="no end after 10 events"):
            sim.run()
        assert gc.isenabled() is enabled


# The builtins of the three benchmark workloads.
@pytest.mark.parametrize("name", ["drug-like", "montage-like", "dynamic-drug"])
def test_a_load_makes_no_cyclic_garbage_and_no_collection(name, tmp_path, collector):
    path = tmp_path / "scenario.json"
    save_scenario(generate_builtin_scenario(name, 0.1), path)
    gc.enable()
    gc.collect()
    assert count_collections(lambda: load_scenario(path)) == 0
    assert gc.isenabled()
    assert gc.collect() == 0  # the loaded scenario is already dropped


class TestCollectorSettingAfterALoad:
    """`load_scenario` leaves the collector on or off, as the caller had it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "text, raises",
        [(None, None), ("{", "not valid JSON"), ("{}", "at least one endpoint")],
        ids=["loads", "invalid-json", "scenario-error"],
    )
    def test_however_the_load_ends(self, text, raises, enabled, tmp_path, collector):
        path = tmp_path / "scenario.json"
        if text is None:
            save_scenario(generate_builtin_scenario("drug-like", 0.01), path)
        else:
            path.write_text(text)
        gc.enable() if enabled else gc.disable()
        if raises is None:
            load_scenario(path)
        else:
            with pytest.raises(ScenarioError, match=raises):
                load_scenario(path)
        assert gc.isenabled() is enabled
