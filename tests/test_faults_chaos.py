"""Acceptance tests for the chaos scenarios (ISSUE: fault injection)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, service_brownout, service_outage
from repro.obs.metrics import snapshot_to_json_lines
from repro.testbed import chaos
from repro.testbed.chaos import (
    CHAOS_SCENARIOS,
    PHASES,
    SHARDED_PAIRS,
    SINK_SLUG,
    ChaosWorld,
    _phase_classifier,
    chaos_scenario,
    run_chaos_scenario,
)

# The shared `outage_result` run lives in tests/conftest.py so the
# sharded chaos suite can reuse it as its unsharded reference.


class TestOutageScenario:
    def test_no_action_silently_lost(self, outage_result):
        r, stats = outage_result, outage_result.fleet_stats
        assert stats["actions_dispatched"] > 0
        assert r.actions_silently_lost == 0
        assert stats["actions_in_retry"] == 0
        assert stats["actions_dispatched"] == stats["actions_delivered"] + stats["dead_letters"]

    def test_outage_produces_dead_letters_and_retries(self, outage_result):
        stats = outage_result.fleet_stats
        assert stats["dead_letters"] > 0
        assert stats["action_retries"] > 0
        assert stats["actions_shed"] > 0

    def test_every_event_observed(self, outage_result):
        # The sensor stays healthy; nothing is lost on the trigger side.
        r = outage_result
        assert r.events_injected > 0
        assert r.events_observed == r.events_injected

    def test_breaker_transitions_recorded(self, outage_result):
        r = outage_result
        arcs = [(old, new) for _, _, old, new in r.breaker_transitions_by_shard[0]]
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
        assert r.t2a_values([0], "before"), "no baseline deliveries"
        assert r.t2a_values([0], "after"), "no deliveries after the heal"
        # Post-heal latency returns to the polling-bound baseline.  Events
        # injected *during* the 60 s outage exhaust the 4-attempt retry
        # budget long before the heal and are all accounted as dead
        # letters — none deliver, and none vanish.
        assert r.t2a_max("after") <= r.t2a_max("before") + 5.0
        during = len(r.t2a_values([0], "during"))
        in_window = sum(
            1 for at in CHAOS_SCENARIOS["outage"].event_times if 60.0 <= at < 120.0
        )
        # Every in-window event is accounted (delivered or dead-lettered);
        # at most a couple of straddlers from just before/after join them.
        assert in_window - 2 <= during + r.fleet_stats["dead_letters"] <= in_window + 2

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
        assert r.fleet_stats["poll_failures"] > 0
        # Buffered events drain after the heal.
        assert r.fleet_stats["actions_delivered"] == r.events_injected

    def test_flappy_soak_conserves(self):
        r = run_chaos_scenario("flappy", seed=7)
        assert r.actions_silently_lost == 0
        stats = r.fleet_stats
        assert stats["actions_delivered"] + stats["dead_letters"] == stats["actions_dispatched"]
        assert r.faults_activated == 1         # one flap window...
        assert stats["poll_retries"] > 0       # ...many down half-periods

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
        assert a.t2a_by_shard == b.t2a_by_shard
        assert a.breaker_transitions_by_shard == b.breaker_transitions_by_shard

    def test_different_seed_differs(self):
        a = run_chaos_scenario("outage", seed=13)
        b = run_chaos_scenario("outage", seed=14)
        assert snapshot_to_json_lines(a.snapshot) != snapshot_to_json_lines(b.snapshot)

    @pytest.mark.parametrize("shards, pairs", [(1, 1), (4, 6)])
    def test_back_to_back_worlds_mint_from_one_counter(self, shards, pairs):
        # a world mints from its own simulators' one counter, not a
        # process-global one
        def buffered_ids():
            world = ChaosWorld(seed=7, num_shards=shards, pairs=pairs)
            world.run(CHAOS_SCENARIOS["outage"])
            return sorted(
                event.event_id
                for sensor in world.sensors
                for identity in sensor.known_identities
                for event in sensor.buffer_for(identity).fetch(limit=sensor.buffer_capacity)
            )

        first = buffered_ids()
        # one counter across the shards: no id minted twice, none skipped
        assert first and first == list(range(1, len(first) + 1))
        assert buffered_ids() == first

    def test_wallclock_gauges_filtered_from_snapshot(self, outage_result):
        names = {e["name"] for e in outage_result.snapshot["metrics"]}
        assert "sim.events_per_wallsec" not in names


class TestOneEntryPoint:
    """``run_chaos_scenario`` alone picks the world; both report one record."""

    @pytest.mark.parametrize("shards, pairs, strategy, num_shards, applets", [
        (1, None, None, 1, 1),
        (1, 3, "service_hash", 1, 3),
        (2, 1, "service_hash", 2, 1),
        (4, None, "service_hash", 4, SHARDED_PAIRS),
    ])
    def test_shape_picks_the_world(self, shards, pairs, strategy, num_shards, applets):
        r = run_chaos_scenario("outage", seed=7, plan=FaultPlan(()), shards=shards,
                               pairs=pairs, drain=0.0)
        assert r.strategy == strategy            # None: the one-engine world
        assert r.num_shards == len(r.shard_stats) == num_shards
        assert sum(r.shard_loads) == applets
        assert r.actions_silently_lost == 0
        # the naming rule: one engine keeps the unsuffixed names, every
        # other shape suffixes the slugs with the pair and the engine
        # namespace with the shard
        polled = {(e["name"], e["labels"]["service"]) for e in r.snapshot["metrics"]
                  if e["name"].endswith(".polls_sent")}
        if strategy is None:
            assert polled == {("engine.polls_sent", "chaos_sensor")}
        else:
            assert {slug for _, slug in polled} == {
                f"chaos_sensor{pair}" for pair in range(applets)
            }
            assert {name for name, _ in polled} <= {
                f"engine.shard{shard}.polls_sent" for shard in range(num_shards)
            }

    def test_one_engine_reads_as_a_fleet_of_one(self):
        world = ChaosWorld(seed=7)
        r = world.run(CHAOS_SCENARIOS["outage"])
        phase_of = _phase_classifier(r.plan)
        expected = [
            at - float(fields["injected_at"])
            for phase in PHASES
            for at, pair, fields in world.delivered
            if phase_of(float(fields["injected_at"])) == phase
        ]
        assert expected and r.t2a_values(range(1)) == expected
        assert r.shard_silently_lost == [0]
        assert r.fleet_stats == r.shard_stats[0] == world.engines[0].stats()
        assert r.victim_shard == 0 and r.healthy_shards == []
        assert r.plan == CHAOS_SCENARIOS["outage"].plan
        # one uncoupled cell: one epoch for the run's one run_until
        assert r.epochs == world.stepper.epochs == 1
        assert r.mailbox_messages == r.cross_shard_messages == 0

    def test_a_sharded_result_carries_the_retargeted_plan(self):
        r = run_chaos_scenario("brownout", seed=7, shards=4, drain=0.0)
        assert [spec.service for spec in r.plan] == ["chaos_sensor0"]

    @pytest.mark.parametrize("shards", [1, 2])
    def test_an_unknown_strategy_is_refused_on_one_shard_too(self, shards):
        with pytest.raises(ValueError, match="shard strategy 'nope'"):
            run_chaos_scenario("outage", seed=7, shards=shards, shard_strategy="nope")

    @pytest.mark.parametrize("shards, pairs", [(2, 0), (2, -2), (1, 0)])
    def test_pairs_below_one_are_refused_before_any_node(self, monkeypatch, shards, pairs):
        def no_cells(*args, **kwargs):
            raise AssertionError("a cell was built before pairs was checked")

        monkeypatch.setattr(chaos, "ShardedSimulator", no_cells)
        with pytest.raises(ValueError, match="pairs"):
            ChaosWorld(7, num_shards=shards, pairs=pairs)
        with pytest.raises(ValueError, match="pairs"):
            run_chaos_scenario("outage", seed=7, shards=shards, pairs=pairs)


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


def _reference_phase_of(plan: FaultPlan, t: float) -> str:
    """Phase classification as it read the plan for every delivered action."""
    if not plan.specs:
        return "before"
    if any(spec.at <= t < spec.end for spec in plan):
        return "during"
    if t >= plan.end_time:
        return "after"
    return "before"


_windows = st.lists(
    st.tuples(st.floats(0.0, 300.0), st.floats(0.001, 200.0), st.booleans()), max_size=5,
)


class TestPhaseWindows:
    """Result assembly reads a plan's fault windows once per result; the
    phase of each injection time must be what reading the plan gave."""

    @settings(max_examples=150, deadline=None)
    @given(windows=_windows, extra=st.lists(st.floats(-10.0, 600.0), max_size=5))
    def test_equals_reading_the_plan_per_time(self, windows, extra):
        plan = FaultPlan(tuple(
            service_brownout(f"s{i}", at=at, duration=duration) if brownout
            else service_outage(f"s{i}", at=at, duration=duration)
            for i, (at, duration, brownout) in enumerate(windows)
        ))
        phase_of = _phase_classifier(plan)
        # exactly at each window's edges, and just around them
        edges = [t for spec in plan for t in (spec.at, spec.end)] + [plan.end_time]
        times = edges + [t - 1e-9 for t in edges] + [t + 1e-9 for t in edges] + extra
        for t in times:
            assert phase_of(t) == _reference_phase_of(plan, t), t

    def test_edges(self):
        plan = FaultPlan((service_outage("s", at=60.0, duration=60.0),))
        phase_of = _phase_classifier(plan)
        assert [phase_of(t) for t in (59.9, 60.0, 119.9, 120.0)] == [
            "before", "during", "during", "after",
        ]
        assert _phase_classifier(FaultPlan(()))(1e9) == "before"
