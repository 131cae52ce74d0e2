"""End-to-end shard-isolation tests (docs/SHARDING.md).

The claim sharding exists to back up: a fault that lands on one shard —
a sink outage, an uplink partition, a flapping sensor — opens *that*
shard's breaker and inflates *that* shard's T2A, while every other
shard keeps delivering at baseline latency and the fleet-wide
conservation invariant (``dispatched == delivered + in_retry +
dead_lettered``) holds per shard and in the merged snapshot.

Shared runs (``sharded_outage_result`` and the fault-free baselines)
live in ``tests/conftest.py``; ``scenario_results`` below adds one run
of each other built-in scenario.
"""

import pytest

from repro.engine.sharding import merged_fleet_snapshot
from repro.faults import FaultPlan, link_down, service_outage
from repro.obs.metrics import snapshot_to_json_lines
from repro.testbed.chaos import (
    CHAOS_SCENARIOS,
    ENGINE_HOST,
    SENSOR_SLUG,
    SHARD_HOST_PATTERN,
    SINK_SLUG,
    ShardedChaosWorld,
    retarget_plan_for_shards,
    run_chaos_scenario,
)


@pytest.fixture(scope="module")
def scenario_results(sharded_outage_result):
    """Built-in scenario name -> its seed-7, four-shard run."""
    return {
        name: sharded_outage_result if name == "outage"
        else run_chaos_scenario(name, seed=7, shards=4)
        for name in CHAOS_SCENARIOS
    }


def p95(values):
    ordered = sorted(values)
    assert ordered, "no T2A samples"
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


class TestOutageIsolation:
    def test_breaker_opens_only_on_victim_shard(self, sharded_outage_result):
        r = sharded_outage_result
        assert set(r.breaker_transitions_by_shard) == {r.victim_shard}

    def test_victim_breaker_recovers_through_half_open(self, sharded_outage_result):
        r = sharded_outage_result
        arcs = [(old, new) for _, _, old, new
                in r.breaker_transitions_by_shard[r.victim_shard]]
        assert ("closed", "open") in arcs
        assert ("open", "half_open") in arcs
        assert arcs[-1] == ("half_open", "closed")   # healed by the end

    def test_healthy_shards_match_unsharded_baseline(
        self, sharded_outage_result, nofault_result
    ):
        # The acceptance bar: while one shard takes a 60 s outage, the
        # other shards' T2A p95 stays within 5% of what a fault-free
        # single-engine world delivers.
        r = sharded_outage_result
        healthy = r.t2a_values(r.healthy_shards)
        baseline = nofault_result.t2a_values([0])
        assert p95(healthy) <= p95(baseline) * 1.05

    def test_healthy_shards_match_sharded_nofault_run(
        self, sharded_outage_result, sharded_nofault_result
    ):
        r = sharded_outage_result
        healthy = r.t2a_values(r.healthy_shards)
        baseline = sharded_nofault_result.t2a_values(r.healthy_shards)
        assert p95(healthy) <= p95(baseline) * 1.05

    def test_damage_confined_to_victim(self, sharded_outage_result):
        r = sharded_outage_result
        victim = r.shard_stats[r.victim_shard]
        assert victim["dead_letters"] > 0
        assert victim["actions_shed"] > 0
        for shard in r.healthy_shards:
            stats = r.shard_stats[shard]
            assert stats["dead_letters"] == 0
            assert stats["actions_shed"] == 0
            assert stats["action_retries"] == 0

    def test_conservation_per_shard_and_fleet(self, sharded_outage_result):
        r = sharded_outage_result
        assert r.shard_silently_lost == [0] * r.num_shards
        assert r.actions_silently_lost == 0
        assert r.fleet_stats["actions_in_retry"] == 0

    def test_conservation_in_merged_snapshot(self, sharded_outage_result):
        # The merged engine.* counters must state the same invariant the
        # per-shard stats do — merging may not invent or lose actions.
        merged = merged_fleet_snapshot(sharded_outage_result.snapshot)["metrics"]

        def total(name):
            return sum(e["value"] for e in merged if e["name"] == name)

        assert total("engine.actions_dispatched") == (
            total("engine.actions_delivered") + total("engine.dead_letters")
        )
        assert (total("engine.actions_dispatched")
                == sharded_outage_result.fleet_stats["actions_dispatched"])

    def test_every_event_observed(self, sharded_outage_result):
        r = sharded_outage_result
        assert r.events_injected == len(CHAOS_SCENARIOS["outage"].event_times) * 6
        assert r.events_observed == r.events_injected

    def test_summary_reports_fleet_and_victim(self, sharded_outage_result):
        text = sharded_outage_result.summary()
        assert "(victim)" in text
        assert "silently-lost=0" in text
        assert "shards=4" in text
        assert "breaker" in text


class TestPartitionIsolation:
    @pytest.fixture(scope="class")
    def partition_result(self, scenario_results):
        return scenario_results["partition"]

    def test_victim_latency_inflates_healthy_does_not(
        self, partition_result, sharded_nofault_result
    ):
        r = partition_result
        victim = r.t2a_values([r.victim_shard])
        healthy = r.t2a_values(r.healthy_shards)
        assert p95(victim) >= 2 * p95(healthy)
        baseline = sharded_nofault_result.t2a_values(r.healthy_shards)
        assert p95(healthy) <= p95(baseline) * 1.05

    def test_partitioned_shard_catches_up_after_heal(self, partition_result):
        # Events buffer at the (healthy) sensors during the partition
        # and drain afterwards: everything is eventually delivered.
        r = partition_result
        assert r.actions_silently_lost == 0
        assert r.fleet_stats["actions_delivered"] == r.events_injected

    def test_breakers_open_only_on_victim(self, partition_result):
        r = partition_result
        assert set(r.breaker_transitions_by_shard) <= {r.victim_shard}
        assert r.shard_stats[r.victim_shard]["poll_failures"] > 0
        for shard in r.healthy_shards:
            assert r.shard_stats[shard]["poll_failures"] == 0


class TestFlappyIsolation:
    def test_flappy_soak_conserves_fleet_wide(self, scenario_results):
        r = scenario_results["flappy"]
        assert r.actions_silently_lost == 0
        assert r.faults_activated == 1
        assert r.shard_stats[r.victim_shard]["poll_retries"] > 0
        healthy = r.t2a_values(r.healthy_shards)
        victim = r.t2a_values([r.victim_shard])
        assert p95(victim) > p95(healthy)
        for shard in r.healthy_shards:
            assert r.shard_stats[shard]["poll_retries"] == 0


class TestOtherStrategiesEndToEnd:
    @pytest.mark.parametrize("strategy", ["round_robin", "popularity_balanced"])
    def test_outage_conserves_under_strategy(self, strategy):
        r = run_chaos_scenario(
            "outage", seed=7, shards=4, shard_strategy=strategy)
        assert r.strategy == strategy
        assert r.actions_silently_lost == 0
        assert r.events_observed == r.events_injected
        assert set(r.breaker_transitions_by_shard) <= {r.victim_shard}


class TestPlanRetargeting:
    def test_service_refs_rewritten_to_victim_pair(self):
        plan = CHAOS_SCENARIOS["outage"].plan
        retargeted = retarget_plan_for_shards(
            plan, sensor_slug=f"{SENSOR_SLUG}0", sink_slug=f"{SINK_SLUG}0",
            engine_host=SHARD_HOST_PATTERN.format(shard=2))
        assert retargeted.services() == [f"{SINK_SLUG}0"]
        # Timing is untouched.
        assert [s.at for s in retargeted] == [s.at for s in plan]

    def test_engine_host_rewritten_to_victim_shard(self):
        plan = FaultPlan((link_down(ENGINE_HOST, "core.internet",
                                    at=10.0, duration=5.0),))
        retargeted = retarget_plan_for_shards(
            plan, sensor_slug=f"{SENSOR_SLUG}0", sink_slug=f"{SINK_SLUG}0",
            engine_host=SHARD_HOST_PATTERN.format(shard=1))
        spec = retargeted.specs[0]
        assert {spec.a, spec.b} == {"engine1.ifttt.cloud", "core.internet"}

    def test_unrelated_specs_pass_through(self):
        plan = FaultPlan((service_outage("weather", at=5.0, duration=5.0),))
        retargeted = retarget_plan_for_shards(
            plan, sensor_slug="x", sink_slug="y", engine_host="z")
        assert retargeted == plan

    def test_custom_unsharded_plan_drives_sharded_run(self):
        # A plan written in the single-engine vocabulary (e.g. from
        # --faults PLAN.json) must work unchanged against a fleet.
        plan = FaultPlan((service_outage(SINK_SLUG, at=20.0, duration=10.0),))
        r = run_chaos_scenario("outage", seed=7, shards=4, plan=plan)
        assert r.faults_activated == 1
        assert r.actions_silently_lost == 0
        assert set(r.breaker_transitions_by_shard) <= {r.victim_shard}

    def test_world_exposes_victim_shard(self):
        world = ShardedChaosWorld(seed=7, num_shards=4)
        assert 0 <= world.victim_shard < 4
        assert world.victim_shard == world.fleet.shard_for_trigger_service(
            f"{SENSOR_SLUG}0")

    def test_world_not_collected_by_pytest(self):
        assert ShardedChaosWorld.__test__ is False


class TestShardedDeterminism:
    def test_same_seed_same_snapshot_bytes(self):
        a = run_chaos_scenario("outage", seed=13, shards=4)
        b = run_chaos_scenario("outage", seed=13, shards=4)
        assert snapshot_to_json_lines(a.snapshot) == snapshot_to_json_lines(b.snapshot)
        assert a.t2a_by_shard == b.t2a_by_shard
        assert a.breaker_transitions_by_shard == b.breaker_transitions_by_shard
        assert a.shard_loads == b.shard_loads

    @pytest.mark.parametrize("scenario", sorted(CHAOS_SCENARIOS))
    def test_default_world_is_epoch_stepped(self, scenario, scenario_results):
        # The one sharded world needs no opt-in for per-shard simulators,
        # and the isolation claims above are not vacuous: in every
        # built-in scenario barriers ran, real cross-shard traffic was in
        # flight, and each cell still conserved its actions.
        r = scenario_results[scenario]
        assert r.epochs > 0
        assert r.cross_shard_messages > 0
        assert r.mailbox_messages >= r.cross_shard_messages
        assert r.shard_silently_lost == [0] * r.num_shards

    def test_shard_count_changes_snapshot(self):
        a = run_chaos_scenario("outage", seed=13, shards=2)
        b = run_chaos_scenario("outage", seed=13, shards=4)
        assert snapshot_to_json_lines(a.snapshot) != snapshot_to_json_lines(b.snapshot)

    def test_wallclock_gauges_filtered(self, sharded_outage_result):
        names = {e["name"] for e in sharded_outage_result.snapshot["metrics"]}
        assert "sim.events_per_wallsec" not in names

    def test_events_spread_across_all_shards(self, sharded_outage_result):
        # Six sensor slugs hash onto all four shards — "the other
        # shards" is never vacuous in the isolation assertions above.
        r = sharded_outage_result
        assert len(r.shard_loads) == 4
        assert all(load > 0 for load in r.shard_loads)
