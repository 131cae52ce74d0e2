"""Tests for dead-letter replay with batched action dispatch.

Covers the full loop ``docs/ROBUSTNESS.md`` ("Replay & batching")
describes: a service fails, actions dead-letter, the service heals, its
letters drain back into pending actions and re-dispatch — coalesced
into ``POST /ifttt/v1/actions/batch`` requests of up to
``REPLAY_BATCH_LIMIT`` actions — and the extended conservation invariant

    dispatched == delivered + in_retry + dead_lettered + in_replay

holds at every step, per shard and in the merged fleet snapshot.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import BreakerState, FixedPollingPolicy, ReplayPolicy
from repro.engine.resilience import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_RECOVERY_TIMEOUT,
    REPLAY_BATCH_LIMIT,
)
from repro.engine.sharding import merged_fleet_snapshot
from repro.net.http import HttpError
from repro.services.partner import BatchActionRequest
from repro.testbed.chaos import run_chaos_scenario

from tests.helpers import build_engine_world, default_engine_config, install_ping_applet


class TestReplayPolicy:
    def test_defaults_match_paper_limit(self):
        assert REPLAY_BATCH_LIMIT == 50
        assert ReplayPolicy().batching


class TestBatchActionRequest:
    def test_body_round_trip(self):
        batch = BatchActionRequest(entries=(
            {"action_slug": "record", "actionFields": {"n": "1"}, "user": "alice"},
            {"action_slug": "record", "actionFields": {"n": "2"}, "user": "alice"},
        ))
        assert BatchActionRequest.from_body(batch.to_body()) == batch

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            BatchActionRequest.from_body({"actions": []})

    def test_rejects_missing_action_slug(self):
        with pytest.raises(ValueError):
            BatchActionRequest.from_body(
                {"actions": [{"actionFields": {}, "user": "alice"}]}
            )


def build_replay_world(replay=ReplayPolicy(), seed=11, **config_overrides):
    """The resilience suite's world plus a replay policy."""
    world = build_engine_world(
        config=default_engine_config(
            request_timeout=5.0, replay_policy=replay, **config_overrides,
        ),
        net_seed=seed,
        engine_seed=seed + 1,
        with_trace=False,
    )
    applet = install_ping_applet(world.engine, {"n": "{{n}}"}, name="ping->record")
    world.sim.run_until(2.0)   # registration poll, so the identity exists
    return world, applet


def fill_dead_letters(world, count, start_at=3.0, spacing=11.0):
    """Drive ``count`` events into a permanently failing action executor
    until each has exhausted its retries into the dead-letter sink.

    One letter's four failed attempts stay under the breaker's failure
    threshold, and the poll between letters succeeds, so the breaker
    stays closed: an explicit drain goes straight out."""
    def exploding(fields):
        raise HttpError(500, "busted")

    healthy = world.service._actions["record"].executor
    world.service._actions["record"].executor = exploding
    for n in range(count):
        world.sim.schedule(
            start_at + n * spacing - world.sim.now,
            world.service.ingest_event, "ping", {"n": n},
        )
    world.sim.run_until(start_at + count * spacing + 60.0)
    world.service._actions["record"].executor = healthy
    assert len(world.engine.dead_letters) == count
    assert world.engine.breaker_states() == {"svc": "closed"}
    return healthy


def assert_conserved(engine):
    stats = engine.stats()
    assert stats["actions_dispatched"] == (
        stats["actions_delivered"]
        + stats["actions_in_retry"]
        + stats["dead_letters"]
        + stats["actions_in_replay"]
    )


class TestExplicitReplay:
    def test_replay_disabled_raises(self):
        world = build_engine_world(config=default_engine_config())
        assert world.engine.replay is None
        with pytest.raises(RuntimeError):
            world.engine.replay_dead_letters()

    def test_drain_delivers_and_batches_into_one_request(self):
        world, _ = build_replay_world()
        fill_dead_letters(world, 3)
        assert world.engine.actions_delivered == 0
        world.engine.replay_dead_letters()
        world.sim.run_until(world.sim.now + 30.0)
        assert world.engine.dead_letters == []
        assert [f["n"] for f in world.executed] == ["0", "1", "2"]
        stats = world.engine.stats()
        assert stats["replay_drains"] == 1
        assert stats["dead_letters_replayed"] == 3
        assert stats["replay_requests_sent"] == 1        # one batch
        assert stats["replay_actions_delivered"] == 3
        assert stats["actions_in_replay"] == 0
        assert_conserved(world.engine)

    def test_unbatched_sends_one_request_per_letter(self):
        world, _ = build_replay_world(replay=ReplayPolicy(batching=False))
        fill_dead_letters(world, 3)
        world.engine.replay_dead_letters()
        world.sim.run_until(world.sim.now + 30.0)
        stats = world.engine.stats()
        assert stats["replay_requests_sent"] == 3
        assert stats["replay_actions_delivered"] == 3
        assert_conserved(world.engine)

    def test_batch_limit_chunks_the_drain(self):
        world, _ = build_replay_world()
        fill_dead_letters(world, REPLAY_BATCH_LIMIT + 1)
        world.engine.replay_dead_letters("svc")
        world.sim.run_until(world.sim.now + 30.0)
        stats = world.engine.stats()
        assert stats["replay_requests_sent"] == 2        # 50 + 1
        assert stats["replay_actions_delivered"] == REPLAY_BATCH_LIMIT + 1
        assert_conserved(world.engine)

    def test_replayed_records_keep_original_created_at(self):
        world, _ = build_replay_world()
        fill_dead_letters(world, 1)
        created = world.engine.dead_letters[0].created_at
        world.engine.replay_dead_letters()
        world.sim.run_until(world.sim.now + 30.0)
        (at, record), = world.engine.replay.deliveries
        assert record.created_at == created              # true T2A, not reset
        assert at > created

    def test_uninstalled_applet_letters_stay_sealed(self):
        world, applet_a = build_replay_world()
        fill_dead_letters(world, 2)
        world.engine.uninstall_applet(applet_a.applet_id)
        world.engine.replay_dead_letters()
        world.sim.run_until(world.sim.now + 30.0)
        # Replaying for a removed applet would resurrect the bug
        # uninstall_applet closes; both letters stay in the sink.
        assert len(world.engine.dead_letters) == 2
        assert world.engine.stats()["dead_letters_replayed"] == 0
        assert world.executed == []

    def test_refailed_entries_go_back_through_retry_pipeline(self):
        world, _ = build_replay_world()
        healthy = fill_dead_letters(world, 2)

        # First replay attempt fails per entry; retries then succeed.
        failures = [2]

        def flaky(fields):
            if failures[0] > 0:
                failures[0] -= 1
                raise HttpError(500, "still warming up")
            healthy(fields)

        world.service._actions["record"].executor = flaky
        world.engine.replay_dead_letters()
        world.sim.run_until(world.sim.now + 60.0)
        stats = world.engine.stats()
        assert stats["replay_actions_failed"] == 2
        assert stats["actions_delivered"] == 2           # via ordinary retries
        assert stats["actions_in_retry"] == 0
        assert_conserved(world.engine)


def heal_breaker(world):
    """Walk the service's breaker through OPEN -> HALF_OPEN -> CLOSED,
    firing the engine's heal hook exactly as a probe success would."""
    sim, engine = world.sim, world.engine
    breaker = engine.breaker_for("svc")
    for _ in range(BREAKER_FAILURE_THRESHOLD):
        breaker.record_failure(sim.now)
    assert breaker.state is BreakerState.OPEN
    sim.run_until(sim.now + BREAKER_RECOVERY_TIMEOUT)
    assert breaker.allow(sim.now)                        # the probe slot
    breaker.record_success(sim.now)
    assert breaker.state is BreakerState.CLOSED
    return breaker


class TestHealTriggeredReplay:
    def test_breaker_close_drains_dead_letters(self):
        world, _ = build_replay_world(seed=11)
        sim, engine = world.sim, world.engine
        fill_dead_letters(world, 3)
        dead = len(engine.dead_letters)
        assert dead == 3
        heal_breaker(world)
        sim.run_until(sim.now + 60.0)
        # The heal hook drained the sink without any explicit trigger.
        assert engine.dead_letters == []
        stats = engine.stats()
        assert stats["dead_letters_replayed"] == dead
        assert stats["replay_drains"] == 1
        assert stats["replay_actions_delivered"] == dead
        assert stats["actions_in_replay"] == 0
        assert_conserved(engine)


class TestRealtimeHintFallback:
    def build(self, seed=11):
        world = build_engine_world(
            config=default_engine_config(
                poll_policy=FixedPollingPolicy(300.0),
                request_timeout=5.0,
                realtime_allowlist=frozenset({"svc"}),
                replay_policy=ReplayPolicy(),
            ),
            net_seed=seed, engine_seed=seed + 1,
            with_trace=False, realtime_service=True,
        )
        install_ping_applet(world.engine, {"n": "{{n}}"}, name="ping->record")
        world.sim.run_until(2.0)
        return world

    def open_breaker(self, world):
        breaker = world.engine.breaker_for("svc")
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(world.sim.now)
        assert breaker.state is BreakerState.OPEN
        return breaker

    def test_hint_suppressed_while_breaker_open(self):
        world = self.build()
        self.open_breaker(world)
        world.service.ingest_event("ping", {"n": 1})
        world.sim.run_until(world.sim.now + 5.0)
        engine = world.engine
        assert engine.realtime_hints_suppressed == 1
        assert engine.realtime_hints_honoured == 0
        assert world.executed == []                      # no fast poll fired

    def test_suppressed_hint_resumes_on_heal(self):
        world = self.build()
        engine, sim, service = world.engine, world.sim, world.service
        breaker = self.open_breaker(world)
        service.ingest_event("ping", {"n": 1})
        sim.run_until(sim.now + 5.0)
        assert engine.realtime_hints_suppressed == 1
        # Half-open probe succeeds: the breaker closes and the parked
        # hint fires its fast poll, long before the 300 s cadence.
        healed_at = sim.now + BREAKER_RECOVERY_TIMEOUT
        sim.run_until(healed_at)
        breaker.allow(sim.now)                           # the probe slot
        breaker.record_success(sim.now)
        assert breaker.state is BreakerState.CLOSED
        sim.run_until(sim.now + 10.0)
        assert engine.realtime_hints_resumed == 1
        assert [f["n"] for f in world.executed] == ["1"]

    def test_hint_honoured_normally_when_breaker_closed(self):
        world = self.build()
        world.service.ingest_event("ping", {"n": 1})
        world.sim.run_until(world.sim.now + 10.0)
        engine = world.engine
        assert engine.realtime_hints_honoured == 1
        assert engine.realtime_hints_suppressed == 0
        assert [f["n"] for f in world.executed] == ["1"]


class TestChaosReplayReport:
    def test_batching_reduces_catchup_requests(self):
        batched = run_chaos_scenario(
            "outage", seed=7, replay=ReplayPolicy(batching=True))
        single = run_chaos_scenario(
            "outage", seed=7, replay=ReplayPolicy(batching=False))
        assert batched.replay is not None and single.replay is not None
        assert batched.replay.replayed == single.replay.replayed > 0
        assert batched.replay.requests_sent < single.replay.requests_sent
        # At the paper's k=50 the whole burst fits in one request.
        assert batched.replay.requests_sent == 1
        assert batched.actions_silently_lost == 0
        assert single.actions_silently_lost == 0
        assert batched.fleet_stats["dead_letters"] == 0  # sink fully drained

    def test_replay_report_burst_metrics(self):
        result = run_chaos_scenario("outage", seed=7, replay=ReplayPolicy())
        report = result.replay
        assert report.duration >= 0.0
        assert report.requests_per_second > 0
        assert report.burst_ratio > 1.0                  # bursty by nature
        assert len(report.t2a) == report.delivered
        assert report.t2a_max() >= report.t2a_mean() > 0.0
        assert any("replay" in line for line in result.summary().splitlines())

    def test_no_replay_means_no_report(self):
        result = run_chaos_scenario("outage", seed=7)
        assert result.replay is None
        assert result.fleet_stats["actions_in_replay"] == 0


SHARD_STRATEGY = st.sampled_from(
    ["service_hash", "round_robin", "popularity_balanced"])


@settings(max_examples=6, deadline=None)
@given(strategy=SHARD_STRATEGY, seed=st.integers(min_value=1, max_value=40))
def test_conservation_through_outage_heal_replay(strategy, seed):
    """The extended invariant survives a full outage→heal→replay cycle,
    per shard and in the merged fleet snapshot, under every strategy."""
    result = run_chaos_scenario(
        "outage", seed=seed, shards=3, shard_strategy=strategy,
        replay=ReplayPolicy(),
    )
    # Per shard: dispatched == delivered + in_retry + dead + in_replay.
    assert result.shard_silently_lost == [0] * result.num_shards
    assert result.actions_silently_lost == 0
    # Everything settled by the end of the drain window.
    assert result.fleet_stats["actions_in_retry"] == 0
    assert result.fleet_stats["actions_in_replay"] == 0
    # The victim's sink was drained by the heal-triggered replay.
    assert result.fleet_stats["dead_letters"] == 0
    assert result.fleet_stats["dead_letters_replayed"] > 0
    # The merged fleet snapshot states the same conservation in counter
    # space: the dead_letters counter only ever increments, so the
    # drained letters reappear as replay.dead_letters_replayed.
    merged = merged_fleet_snapshot(result.snapshot)["metrics"]

    def total(name):
        return sum(e["value"] for e in merged if e["name"] == name)

    assert total("engine.actions_dispatched") == (
        total("engine.actions_delivered")
        + total("engine.dead_letters")
        - total("engine.replay.dead_letters_replayed")
    )
    assert (total("engine.replay.actions_delivered")
            == result.fleet_stats["replay_actions_delivered"])
