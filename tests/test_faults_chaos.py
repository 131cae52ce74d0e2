"""Acceptance tests for the chaos scenarios (ISSUE: fault injection)."""

import pytest

from repro.faults import FaultPlan, service_outage
from repro.obs.metrics import snapshot_to_json_lines
from repro.testbed.chaos import (
    CHAOS_SCENARIOS,
    SINK_SLUG,
    ChaosWorld,
    ShardedChaosWorld,
    chaos_scenario,
    run_chaos_scenario,
)

# The shared `outage_result` run lives in tests/conftest.py so the
# sharded chaos suite can reuse it as its unsharded reference.


class TestOutageScenario:
    def test_no_action_silently_lost(self, outage_result):
        r = outage_result
        assert r.actions_dispatched > 0
        assert r.actions_silently_lost == 0
        assert r.actions_in_retry == 0
        assert r.actions_dispatched == r.actions_delivered + r.actions_dead_lettered

    def test_outage_produces_dead_letters_and_retries(self, outage_result):
        r = outage_result
        assert r.actions_dead_lettered > 0
        assert r.engine_stats["action_retries"] > 0
        assert r.engine_stats["actions_shed"] > 0

    def test_every_event_observed(self, outage_result):
        # The sensor stays healthy; nothing is lost on the trigger side.
        r = outage_result
        assert r.events_injected > 0
        assert r.events_observed == r.events_injected

    def test_breaker_transitions_recorded(self, outage_result):
        r = outage_result
        arcs = [(old, new) for _, _, old, new in r.breaker_transitions]
        assert ("closed", "open") in arcs
        assert arcs[-1] == ("half_open", "closed")      # healed by the end

    def test_breaker_transitions_visible_in_metrics(self, outage_result):
        entries = outage_result.snapshot["metrics"]
        transitions = [e for e in entries
                       if e["name"] == "engine.breaker_transitions"]
        assert transitions, "no engine.breaker_transitions in the snapshot"
        assert any(e["labels"].get("to_state") == "open" for e in transitions)
        assert any(e["labels"].get("to_state") == "closed" for e in transitions)

    def test_t2a_recovers_after_heal(self, outage_result):
        r = outage_result
        assert r.t2a_by_phase.get("before"), "no baseline deliveries"
        assert r.t2a_by_phase.get("after"), "no deliveries after the heal"
        # Post-heal latency returns to the polling-bound baseline.  Events
        # injected *during* the 60 s outage exhaust the 4-attempt retry
        # budget long before the heal and are all accounted as dead
        # letters — none deliver, and none vanish.
        assert r.t2a_max("after") <= r.t2a_max("before") + 5.0
        during = len(r.t2a_by_phase.get("during", []))
        in_window = sum(
            1 for at in CHAOS_SCENARIOS["outage"].event_times if 60.0 <= at < 120.0
        )
        # Every in-window event is accounted (delivered or dead-lettered);
        # at most a couple of straddlers from just before/after join them.
        assert in_window - 2 <= during + r.actions_dead_lettered <= in_window + 2

    def test_fault_windows_opened_and_closed(self, outage_result):
        assert outage_result.faults_activated == 1
        assert outage_result.faults_deactivated == 1


class TestOtherScenarios:
    def test_partition_conserves_and_catches_up(self):
        r = run_chaos_scenario("partition", seed=7)
        assert r.actions_silently_lost == 0
        assert r.events_observed == r.events_injected
        # Polls during the partition fail fast as refusals, not timeouts.
        refused = [e for e in r.snapshot["metrics"]
                   if e["name"] == "net.connection_refused"]
        assert refused and sum(e["value"] for e in refused) > 0
        assert r.engine_stats["poll_failures"] > 0
        # Buffered events drain after the heal.
        assert r.actions_delivered == r.events_injected

    def test_flappy_soak_conserves(self):
        r = run_chaos_scenario("flappy", seed=7)
        assert r.actions_silently_lost == 0
        assert r.actions_delivered + r.actions_dead_lettered == r.actions_dispatched
        assert r.faults_activated == 1         # one flap window...
        assert r.engine_stats["poll_retries"] > 0   # ...many down half-periods

    def test_custom_plan_overrides_scenario(self):
        plan = FaultPlan((service_outage(SINK_SLUG, at=20.0, duration=10.0),))
        r = run_chaos_scenario("outage", seed=7, plan=plan)
        assert r.faults_activated == 1
        assert r.actions_silently_lost == 0


class TestDeterminism:
    def test_same_seed_same_snapshot_bytes(self):
        a = run_chaos_scenario("outage", seed=13)
        b = run_chaos_scenario("outage", seed=13)
        assert snapshot_to_json_lines(a.snapshot) == snapshot_to_json_lines(b.snapshot)
        assert a.t2a_by_phase == b.t2a_by_phase
        assert a.breaker_transitions == b.breaker_transitions

    def test_different_seed_differs(self):
        a = run_chaos_scenario("outage", seed=13)
        b = run_chaos_scenario("outage", seed=14)
        assert snapshot_to_json_lines(a.snapshot) != snapshot_to_json_lines(b.snapshot)

    def test_back_to_back_worlds_mint_the_same_event_ids(self):
        # a world mints from its own simulator, not a process-global counter
        def traced_ids():
            world = ChaosWorld(seed=7)
            world.run(CHAOS_SCENARIOS["outage"])
            return [(r.time, r.kind, r.detail["event_id"])
                    for r in world.trace if "event_id" in r.detail]

        first = traced_ids()
        assert first and min(event_id for *_, event_id in first) == 1
        assert traced_ids() == first

    def test_sharded_world_mints_from_one_source(self):
        def buffered_ids():
            world = ShardedChaosWorld(seed=7, num_shards=4)
            world.run(CHAOS_SCENARIOS["outage"])
            return sorted(
                event.event_id
                for sensor in world.sensors
                for identity in sensor.known_identities
                for event in sensor.buffer_for(identity).fetch(limit=sensor.buffer_capacity)
            )

        first = buffered_ids()
        # one counter across the shards: no id minted twice, none skipped
        assert first == list(range(1, len(first) + 1))
        assert buffered_ids() == first

    def test_wallclock_gauges_filtered_from_snapshot(self, outage_result):
        names = {e["name"] for e in outage_result.snapshot["metrics"]}
        assert "sim.events_per_wallsec" not in names


class TestScenarioRegistry:
    def test_builtin_scenarios_well_formed(self):
        assert set(CHAOS_SCENARIOS) == {"outage", "partition", "flappy", "brownout"}
        for scenario in CHAOS_SCENARIOS.values():
            assert scenario.event_times
            assert scenario.plan.specs
            assert scenario.horizon > 0

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            chaos_scenario("nope")

    def test_summary_mentions_the_invariant_numbers(self, outage_result):
        text = outage_result.summary()
        assert "silently-lost=0" in text
        assert "dead-lettered=" in text
        assert "breaker" in text

    def test_world_not_collected_by_pytest(self):
        assert ChaosWorld.__test__ is False
