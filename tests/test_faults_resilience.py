"""Tests for engine resilience: retry policy, breakers, dead letters."""

import pytest

from repro.engine import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    RetryPolicy,
)
from repro.net.http import HttpError
from repro.simcore import Rng

from tests.helpers import build_engine_world, default_engine_config, install_ping_applet


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, max_delay=5.0, jitter=0.0)
        assert [policy.backoff(n) for n in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 5.0]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay=10.0, jitter=0.1)
        rng = Rng(3)
        for _ in range(50):
            assert 9.0 <= policy.backoff(1, rng) <= 11.0

    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy()
        a = [policy.backoff(1, Rng(9)) for _ in range(1)]
        b = [policy.backoff(1, Rng(9)) for _ in range(1)]
        assert a == b

    def test_exhausted(self):
        policy = RetryPolicy(max_attempts=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            BreakerPolicy(failure_threshold=0)


class TestCircuitBreaker:
    def test_state_levels_are_the_gauge_mapping(self):
        # ``level`` is looked up once per member now; the gauge values
        # must be the mapping the property built on every read.
        mapping = {"closed": 0, "half_open": 1, "open": 2}
        assert [(state.value, state.level) for state in BreakerState] == list(mapping.items())
        for state in BreakerState:
            assert state.level == mapping[state.value]
            assert BreakerState(state.value).level == state.level

    def test_opens_after_threshold(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        for t in (1.0, 2.0):
            breaker.record_failure(t)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(3.0)
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        breaker.record_success(3.0)
        breaker.record_failure(4.0)
        breaker.record_failure(5.0)
        assert breaker.state is BreakerState.CLOSED

    def test_sheds_while_open(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, recovery_timeout=10.0))
        breaker.record_failure(0.0)
        assert not breaker.allow(5.0)
        assert breaker.shed_count == 1

    def test_half_open_after_recovery_timeout(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, recovery_timeout=10.0))
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)           # the probe
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_limits_probes(self):
        breaker = CircuitBreaker(BreakerPolicy(
            failure_threshold=1, recovery_timeout=10.0, half_open_probes=1))
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)
        assert not breaker.allow(10.5)       # only one probe in flight

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, recovery_timeout=10.0))
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        breaker.record_failure(10.5)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(15.0)       # timer restarted from 10.5
        assert breaker.allow(20.5)

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, recovery_timeout=10.0))
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        breaker.record_success(10.5)
        assert breaker.state is BreakerState.CLOSED

    def test_reopen_half_open_cycle_restarts_each_window(self):
        # Regression: the recovery window after HALF_OPEN -> OPEN must be
        # measured from the *re-open*, not the original trip — and again
        # on every subsequent cycle.
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, recovery_timeout=10.0))
        breaker.record_failure(0.0)                      # cycle 1: open at 0
        assert breaker.allow(10.0)                       # probe 1
        breaker.record_failure(12.0)                     # re-open at 12
        assert breaker._opened_at == 12.0
        assert not breaker.allow(21.9)                   # 10 s from 12, not 0
        assert breaker.allow(22.0)                       # probe 2
        breaker.record_failure(25.0)                     # re-open again at 25
        assert breaker._opened_at == 25.0
        assert not breaker.allow(34.9)
        assert breaker.allow(35.0)                       # probe 3
        breaker.record_success(35.5)
        assert breaker.state is BreakerState.CLOSED

    def test_opened_at_cleared_on_close(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, recovery_timeout=10.0))
        breaker.record_failure(0.0)
        assert breaker._opened_at == 0.0
        breaker.allow(10.0)
        breaker.record_success(10.5)
        assert breaker._opened_at is None                # no stale clock

    def test_stale_failures_ignored_while_open(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1, recovery_timeout=10.0))
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)          # in-flight straggler
        assert breaker.allow(10.0)           # timer was NOT restarted

    def test_transition_log_and_hook(self):
        seen = []
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, recovery_timeout=10.0),
            on_transition=lambda old, new, at: seen.append((old.value, new.value, at)),
        )
        breaker.record_failure(1.0)
        breaker.allow(11.0)
        breaker.record_success(11.5)
        assert [s[:2] for s in seen] == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed")]
        assert breaker.transitions[0][0] == 1.0


def build_world(retry_policy=RetryPolicy(), breaker_policy=BreakerPolicy(),
                seed=11):
    """Thin wrapper over :func:`tests.helpers.build_engine_world`.

    Pins this suite's historical seeds (network ``seed``, engine
    ``seed + 1``) and tight 5 s timeouts — the exact retry/shed counts
    asserted below depend on both.
    """
    world = build_engine_world(
        config=default_engine_config(
            poll_timeout=5.0, action_timeout=5.0,
            retry_policy=retry_policy, breaker_policy=breaker_policy,
        ),
        net_seed=seed,
        engine_seed=seed + 1,
        with_trace=False,
    )
    install_ping_applet(world.engine, {"n": "{{n}}"}, name="ping->record")
    # Let the registration poll run so the trigger identity exists —
    # events ingested before registration are invisible, per protocol.
    world.sim.run_until(2.0)
    return world.sim, world.net, world.engine, world.service, world.executed


class TestPollRetries:
    def test_failed_poll_retried_on_backoff(self):
        sim, _, engine, service, _ = build_world()
        service.set_outage(True)
        # The poll at ~10.5 fails; retries at ~+1, +2, +4 s exhaust the
        # 4-attempt budget well before the 10 s regular cadence.
        sim.run_until(20.0)
        assert engine.poll_failures == 4
        assert engine.poll_retries == 3

    def test_retries_disabled_when_policy_none(self):
        sim, _, engine, service, _ = build_world(retry_policy=None)
        service.set_outage(True)
        sim.run_until(20.0)
        assert engine.poll_failures == 1     # only the regular poll
        assert engine.poll_retries == 0

    def test_breaker_opens_and_sheds_polls(self):
        sim, _, engine, service, _ = build_world()
        service.set_outage(True)
        sim.run_until(55.0)
        breaker = engine.breaker_for("svc")
        assert breaker.state is BreakerState.OPEN
        assert engine.polls_shed > 0
        assert engine.breaker_states() == {"svc": "open"}

    def test_breakers_disabled_when_policy_none(self):
        sim, _, engine, service, _ = build_world(breaker_policy=None)
        service.set_outage(True)
        sim.run_until(60.0)
        assert engine.breaker_for("svc") is None
        assert engine.polls_shed == 0
        assert engine.poll_failures > 5      # nothing shed, every poll fails


class TestActionRetries:
    def test_transient_action_failure_retried_to_success(self):
        sim, _, engine, service, executed = build_world()
        failures = [2]                       # fail the first two attempts

        def flaky(fields):
            if failures[0] > 0:
                failures[0] -= 1
                raise HttpError(500, "hiccup")
            executed.append(dict(fields))

        service._actions["record"].executor = flaky
        service.ingest_event("ping", {"n": 1})
        sim.run_until(30.0)
        assert [f["n"] for f in executed] == ["1"]
        assert engine.action_retries == 2
        assert engine.actions_delivered == 1
        assert engine.dead_letters == []
        assert engine.actions_in_retry == 0

    def test_persistent_failure_dead_letters(self):
        sim, _, engine, service, executed = build_world()

        def exploding(fields):
            raise HttpError(500, "busted")

        service._actions["record"].executor = exploding
        service.ingest_event("ping", {"n": 2})
        sim.run_until(60.0)
        assert executed == []
        assert len(engine.dead_letters) == 1
        letter = engine.dead_letters[0]
        assert letter.service_slug == "svc"
        assert letter.attempts == 4          # initial + 3 retries
        assert letter.last_status == 500
        assert letter.reason == "max_attempts_exhausted"
        assert engine.actions_in_retry == 0
        assert engine.stats()["dead_letters"] == 1

    def test_no_retries_means_immediate_dead_letter(self):
        sim, _, engine, service, executed = build_world(retry_policy=None)

        def exploding(fields):
            raise HttpError(500, "busted")

        service._actions["record"].executor = exploding
        service.ingest_event("ping", {"n": 3})
        sim.run_until(30.0)
        assert len(engine.dead_letters) == 1
        assert engine.dead_letters[0].attempts == 1
        assert engine.dead_letters[0].reason == "retries_disabled"

    def test_open_breaker_sheds_action_attempts(self):
        sim, _, engine, service, executed = build_world()
        service.set_outage(True)
        sim.run_until(55.0)                  # breaker open by now
        assert engine.breaker_for("svc").state is BreakerState.OPEN
        # An event polled... cannot arrive while the trigger service is
        # down; dispatch directly against the open breaker instead.
        from repro.engine.resilience import PendingAction
        record = PendingAction(
            applet_id=1, service_slug="svc", action_slug="record",
            fields={"n": "4"}, user="alice", event_id=999, created_at=sim.now,
        )
        engine._send_action(record)
        sim.run_until(90.0)
        assert engine.actions_shed >= 1
        # attempts burned through shed + retries; never delivered silently
        assert len(engine.dead_letters) == 1 or engine.actions_delivered == 1

    def test_uninstall_cancels_outstanding_retries(self):
        # Regression: uninstall_applet cancelled the pending poll but
        # left action-retry timers armed — a retry firing later would
        # deliver for a removed applet and corrupt actions_in_retry.
        sim, _, engine, service, executed = build_world()

        def exploding(fields):
            raise HttpError(500, "busted")

        service._actions["record"].executor = exploding
        service.ingest_event("ping", {"n": 9})
        sim.run_until(11.0)                  # first attempt failed, retry armed
        assert engine.actions_in_retry == 1
        applet_id = engine.applets[0].applet_id
        engine.uninstall_applet(applet_id)
        assert engine.actions_in_retry == 0
        assert len(engine.dead_letters) == 1
        assert engine.dead_letters[0].reason == "applet_removed"
        sim.run_until(120.0)                 # the cancelled timer never fires
        assert executed == []
        assert engine.actions_in_retry == 0
        assert len(engine.dead_letters) == 1
        stats = engine.stats()
        assert stats["actions_dispatched"] == (
            stats["actions_delivered"] + stats["dead_letters"]
        )

    def test_conservation_no_silent_loss(self):
        sim, _, engine, service, executed = build_world()
        toggles = [0]

        def sometimes(fields):
            toggles[0] += 1
            if toggles[0] % 3 == 0:
                raise HttpError(500, "every third fails")
            executed.append(dict(fields))

        service._actions["record"].executor = sometimes
        for n in range(12):
            sim.schedule(n * 7.0, service.ingest_event, "ping", {"n": n})
        sim.run_until(300.0)
        stats = engine.stats()
        assert stats["actions_dispatched"] == (
            stats["actions_delivered"] + stats["dead_letters"]
        )
        assert stats["actions_in_retry"] == 0


class TestHealthyRunsUnchanged:
    def test_resilience_config_is_inert_when_healthy(self):
        """With no failures, retries/breakers must not alter behaviour."""
        def run(retry_policy, breaker_policy):
            sim, _, engine, service, executed = build_world(
                retry_policy=retry_policy, breaker_policy=breaker_policy)
            for n in range(5):
                sim.schedule(n * 13.0, service.ingest_event, "ping", {"n": n})
            sim.run_until(120.0)
            return [f["n"] for f in executed], engine.polls_sent, sim.now

        with_resilience = run(RetryPolicy(), BreakerPolicy())
        without = run(None, None)
        assert with_resilience == without
