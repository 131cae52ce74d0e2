"""Worlds in flight are plain data: a pickle round trip changes nothing.

Each case runs a world to a cut, pickles and unpickles it there, then
runs the original and the copy on to the same end.  The oracle is the
original: the same world, cut at the same instant, never pickled.  (An
uninterrupted run is not the oracle: slicing a run changes the
``sim.runs`` bookkeeping counter whether or not the world is pickled.)
Summaries, snapshot JSON lines and, for the testbed, trace tuples must
be equal.

The cut is drawn per case from a generator seeded by the case's name,
so every run of the suite checks the same instants.
"""

import pickle
import random
from dataclasses import astuple

import pytest

from repro.obs.metrics import deterministic_snapshot, snapshot_to_json_lines
from repro.testbed import DailyScenario, Testbed, TestbedConfig, TestController
from repro.testbed.chaos import (
    CHAOS_SCENARIOS,
    DRAIN_SECONDS,
    ChaosWorld,
)
from repro.testbed.scenario_gen import DAY, HOUR
from repro.testbed.workload import FleetWorld, ShardedFleetWorld

MODES = ("poll", "hint", "push")


def _draw_cut(case: str, low: float, high: float) -> float:
    return random.Random(case).uniform(low, high)


def _round_trip(obj):
    return pickle.loads(pickle.dumps(obj))


def _lines(snapshot) -> str:
    return snapshot_to_json_lines(deterministic_snapshot(snapshot))


def _trace_tuples(trace):
    return [(rec.time, rec.source, rec.kind, rec.detail) for rec in trace]


# -- chaos worlds -------------------------------------------------------------


def _arm_chaos(world, scenario):
    """``run``'s set-up, without the run: returns ``(finish, until)``.

    ``finish(world)`` builds the result, as ``run`` does after its
    ``run_until``.
    """
    until = scenario.horizon + DRAIN_SECONDS
    plan = world.retarget(scenario.plan)
    for cell, subplan in enumerate(world._split_plan(plan)):
        if subplan.specs:
            world.injectors[cell].apply(subplan)
            world.watchers[cell].watch(subplan)
    world.schedule_events(scenario.event_times)
    return (lambda w: w._result(scenario, plan, until)), until


def _build_chaos(sharded: bool, mode: str):
    shards, pairs = (4, 3) if sharded else (1, 1)
    return ChaosWorld(seed=7, num_shards=shards, pairs=pairs, delivery_mode=mode)


def _advance(world, time: float) -> None:
    world.stepper.run_until(time)


@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
def test_arming_mirrors_run(sharded):
    """The set-up the round trips use is ``run``'s own."""
    scenario = CHAOS_SCENARIOS["outage"]
    expected = _build_chaos(sharded, "poll").run(scenario)
    world = _build_chaos(sharded, "poll")
    finish, until = _arm_chaos(world, scenario)
    _advance(world, until)
    got = finish(world)
    assert got.summary() == expected.summary()
    assert _lines(got.snapshot) == _lines(expected.snapshot)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(CHAOS_SCENARIOS))
@pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
def test_chaos_world_round_trip(sharded, name, mode):
    scenario = CHAOS_SCENARIOS[name]
    world = _build_chaos(sharded, mode)
    finish, until = _arm_chaos(world, scenario)
    _advance(world, _draw_cut(f"{sharded}/{name}/{mode}", 1.0, until - 1.0))
    copy = _round_trip(world)
    results = []
    for run in (world, copy):
        _advance(run, until)
        results.append(finish(run))
    split, pickled = results
    assert pickled.summary() == split.summary()
    assert _lines(pickled.snapshot) == _lines(split.snapshot)
    assert copy.delivered == world.delivered


# -- fleets -------------------------------------------------------------------


def test_fleet_world_round_trip_across_publication():
    world = FleetWorld(40, seed=7)
    start = world.sim.now
    world.publish("photo-0")
    world.sim.run_until(start + _draw_cut("fleet", 1.0, 60.0))
    copy = _round_trip(world)
    for run in (world, copy):
        run.publish("photo-1")
        run.sim.run_until(start + 120.0)
    assert copy.action_times == world.action_times
    assert copy.engine.stats() == world.engine.stats()
    assert _lines(copy.metrics) == _lines(world.metrics)
    assert _trace_tuples(copy.trace) == _trace_tuples(world.trace)


def test_sharded_fleet_world_round_trip_across_publication():
    world = ShardedFleetWorld(40, num_shards=4, seed=7)
    start = world.stepper.now
    world.publish("photo-0")
    world.run_until(start + _draw_cut("sharded-fleet", 1.0, 60.0))
    copy = _round_trip(world)
    for run in (world, copy):
        run.publish("photo-1")
        run.run_until(start + 120.0)
    assert copy.result(publications=2) == world.result(publications=2)
    for ours, theirs in zip(copy.registries, world.registries):
        assert _lines(ours) == _lines(theirs)


# -- the testbed --------------------------------------------------------------


def _scenario_testbed():
    testbed = Testbed(TestbedConfig(seed=123)).build()
    controller = TestController(testbed)
    for key in ("A1", "A3", "A4"):
        controller.install(key)
    return testbed, DailyScenario(testbed, seed=9).start()


def test_testbed_with_scenario_round_trip_mid_day():
    testbed, scenario = _scenario_testbed()
    testbed.run_for(_draw_cut("testbed", HOUR, 4 * HOUR))
    # One pickle, so the copy's scenario drives the copy's testbed.
    copy, copy_scenario = _round_trip((testbed, scenario))
    for run in (testbed, copy):
        run.run_for(5 * HOUR - run.sim.now)
    assert copy_scenario.stats == scenario.stats
    assert copy.sim.fired_count == testbed.sim.fired_count
    assert _trace_tuples(copy.trace) == _trace_tuples(testbed.trace)
    assert _lines(copy.metrics) == _lines(testbed.metrics)


def test_scenario_stop_cancels_every_driver():
    # Slow web-app poll loops keep an idle day cheap; settling one loop
    # period after stop() lets in-flight consequences land first.
    period = 600.0
    testbed = Testbed(TestbedConfig(
        seed=5, gmail_poll_interval=period, sheets_poll_interval=period,
        weather_poll_interval=period,
    )).build()
    scenario = DailyScenario(testbed, seed=3).start(weather_dwell_hours=0.5)
    testbed.run_for(2 * HOUR)
    scenario.stop()
    testbed.run_for(period + 60.0)
    stats = astuple(scenario.stats)
    recorded = len(testbed.trace)
    assert scenario.stats.temperature_updates and scenario.stats.weather_changes
    testbed.run_for(DAY)
    assert astuple(scenario.stats) == stats
    assert len(testbed.trace) == recorded


def test_a_second_start_is_refused_before_it_draws():
    # A second start() used to arm a second set of drivers over the first,
    # which stop() then left firing: a day after stop(), 104 temperature
    # updates where there had been 8.
    period = 600.0
    testbed = Testbed(TestbedConfig(
        seed=5, gmail_poll_interval=period, sheets_poll_interval=period,
        weather_poll_interval=period,
    )).build()
    scenario = DailyScenario(testbed, seed=3).start(weather_dwell_hours=0.5)
    rng = pickle.dumps(scenario.rng)
    with pytest.raises(RuntimeError, match="already started"):
        scenario.start(weather_dwell_hours=0.5)
    assert pickle.dumps(scenario.rng) == rng
    testbed.run_for(2 * HOUR)
    scenario.stop()
    testbed.run_for(period + 60.0)
    stats = astuple(scenario.stats)
    testbed.run_for(DAY)
    assert astuple(scenario.stats) == stats
    assert scenario.start() is scenario  # stopped, so it may start again
