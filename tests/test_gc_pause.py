"""The kernel run loop pauses the cyclic collector; these tests guard that.

Two halves.  The *mechanics*: ``Simulator.run``/``run_until`` switch the
collector off for the loop and put it back exactly as the caller had it,
also when a callback raises — and the two fleet worlds do the same
around their install loops (``collector_paused``).  The *licence*: the
pause is only sound while a run's garbage is acyclic (freed by
reference counting alone), so whole worlds — a fleet's build, observed
fleet, chaos scenarios with faults, retries, dead letters and
cross-shard mailboxes — are run with the collector off and must leave
nothing for ``gc.collect()`` to find.  A change that makes the event
path build reference cycles fails here before it can leak through a
paused run (docs/PERFORMANCE.md, "Collector policy").
"""

import gc

import pytest

from repro.engine.engine import IftttEngine
from repro.simcore import Simulator
from repro.testbed.chaos import CHAOS_SCENARIOS, ChaosWorld, ShardedChaosWorld, chaos_scenario
from repro.testbed.workload import FleetWorld, ShardedFleetWorld


@pytest.fixture(autouse=True)
def collector_restored():
    """Whatever a test does to the collector, the suite gets it back on."""
    yield
    gc.enable()


#: Both public entry points into the kernel loop.
both_entry_points = pytest.mark.parametrize(
    "drive", [Simulator.run, lambda sim: sim.run_until(5.0)], ids=["run", "run_until"]
)


class TestCollectorStateRestored:
    def seen_inside(self, sim):
        seen = []
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        return seen

    @both_entry_points
    def test_paused_inside_restored_after(self, drive):
        sim = Simulator()
        seen = self.seen_inside(sim)
        gc.enable()
        drive(sim)
        assert seen == [False]
        assert gc.isenabled()

    @both_entry_points
    def test_stays_off_when_the_caller_had_it_off(self, drive):
        sim = Simulator()
        seen = self.seen_inside(sim)
        gc.disable()
        drive(sim)
        assert seen == [False]
        assert not gc.isenabled()

    @both_entry_points
    def test_restored_when_a_callback_raises(self, drive):
        sim = Simulator()

        def boom():
            raise RuntimeError("callback failed")

        sim.schedule(1.0, boom)
        gc.enable()
        with pytest.raises(RuntimeError, match="callback failed"):
            drive(sim)
        assert gc.isenabled()

    def test_nested_run_leaves_the_outer_pause_in_place(self):
        outer, inner = Simulator(), Simulator()
        seen = []
        inner.schedule(1.0, lambda: None)

        def nested():
            inner.run()
            seen.append(gc.isenabled())

        outer.schedule(1.0, nested)
        gc.enable()
        outer.run()
        assert seen == [False]
        assert gc.isenabled()


#: Both worlds whose constructors install a whole fleet, built lean.
both_fleet_worlds = pytest.mark.parametrize(
    "build",
    [
        lambda: FleetWorld(
            40, with_trace=False, with_metrics=False, shared_user=True, warmup=False
        ),
        lambda: ShardedFleetWorld(40, num_shards=4, with_metrics=False, warmup=False),
    ],
    ids=["fleet", "sharded"],
)


class TestFleetBuildPausesTheCollector:
    """Set-up is the other long allocation burst: everything an install
    allocates stays, so a collector pass during it frees nothing."""

    @pytest.fixture
    def seen_inside(self, monkeypatch):
        """Collector state at every ``install_applet`` of a build."""
        seen = []
        install = IftttEngine.install_applet

        def watched(engine, *args, **kwargs):
            seen.append(gc.isenabled())
            return install(engine, *args, **kwargs)

        monkeypatch.setattr(IftttEngine, "install_applet", watched)
        return seen

    @both_fleet_worlds
    def test_paused_inside_restored_after(self, build, seen_inside):
        gc.enable()
        build()
        assert seen_inside == [False] * 40
        assert gc.isenabled()

    @both_fleet_worlds
    def test_stays_off_when_the_caller_had_it_off(self, build, seen_inside):
        gc.disable()
        build()
        assert seen_inside == [False] * 40
        assert not gc.isenabled()

    @both_fleet_worlds
    def test_restored_when_the_build_raises(self, build, monkeypatch):
        install = IftttEngine.install_applet
        installed = []

        def full_after_ten(engine, *args, **kwargs):
            if len(installed) == 10:
                raise RuntimeError("install failed")
            installed.append(install(engine, *args, **kwargs))
            return installed[-1]

        monkeypatch.setattr(IftttEngine, "install_applet", full_after_ten)
        gc.enable()
        with pytest.raises(RuntimeError, match="install failed"):
            build()
        assert len(installed) == 10
        assert gc.isenabled()


def unreachable_after(run) -> int:
    """Cyclic garbage ``run()`` leaves behind with the collector off."""
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        gc.enable()


class TestRunGarbageIsAcyclic:
    """Build the world first and keep it referenced: a dropped world is
    itself one big cycle, which is not what a paused *run* leaks."""

    @both_fleet_worlds
    def test_fleet_build(self, build):
        worlds = []
        assert unreachable_after(lambda: worlds.append(build())) == 0
        assert worlds[0].n_applets == 40

    def test_observed_fleet(self):
        world = FleetWorld(200, seed=7)  # trace + metrics on, warmed up
        assert unreachable_after(lambda: world.run_publications(2, 300.0)) == 0
        assert world.actions_executed > 0

    @pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
    def test_chaos_world(self, name):
        world = ChaosWorld(7)
        scenario = chaos_scenario(name)
        assert unreachable_after(lambda: world.run(scenario)) == 0
        assert world.delivered

    @pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
    def test_sharded_chaos_world(self, name):
        world = ShardedChaosWorld(7, num_shards=4)
        scenario = chaos_scenario(name)
        assert unreachable_after(lambda: world.run(scenario)) == 0
        assert world.fleet.stats()["actions_delivered"] > 0
