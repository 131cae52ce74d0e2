"""Tests for engine resilience: retry backoff, breakers, dead letters."""

import math

import pytest

from repro.engine import (
    BreakerState,
    CircuitBreaker,
    EngineConfig,
    PushPolicy,
    ReplayPolicy,
    RuntimeLoopDetector,
    engine as engine_module,
    loops,
    push,
    resilience,
)
from repro.engine.resilience import backoff, exhausted
from repro.net.http import HttpError
from repro.simcore import Rng

from tests.helpers import build_engine_world, default_engine_config, install_ping_applet


#: Every former tunable, by the call that once took it: each is a module
#: constant now, so passing one is a ``TypeError``.
FORMER_KNOBS = [
    (ReplayPolicy, {"batch_limit": 50}),
    (ReplayPolicy, {"replay_on_heal": True}),
    (ReplayPolicy, {"drain_delay": 0.0}),
    (EngineConfig, {"runtime_loop_threshold": 4}),
    (EngineConfig, {"runtime_loop_window": 1800.0}),
    (RuntimeLoopDetector, {"threshold": 4}),
    (RuntimeLoopDetector, {"window": 1800.0}),
    (CircuitBreaker, {"policy": None}),
    (EngineConfig, {"retry_policy": None}),
    (EngineConfig, {"breaker_policy": None}),
    (EngineConfig, {"batch_limit": 50}),
    (EngineConfig, {"dedupe_window": 2000}),
    (EngineConfig, {"poll_timeout": 30.0}),
    (EngineConfig, {"action_timeout": 30.0}),
    (PushPolicy, {"batch_window": 0.05}),
    (PushPolicy, {"safety_net_interval": 600.0}),
]


@pytest.mark.parametrize(
    "owner,knob", FORMER_KNOBS, ids=[f"{o.__name__}.{next(iter(k))}" for o, k in FORMER_KNOBS]
)
def test_former_knobs_are_refused(owner, knob):
    """No caller can believe it set a value that is a constant now."""
    with pytest.raises(TypeError):
        owner(**knob)


def test_constants_meet_the_bounds_the_policies_once_checked():
    assert resilience.RETRY_MAX_ATTEMPTS >= 1
    assert 0 < resilience.RETRY_BASE_DELAY <= resilience.RETRY_MAX_DELAY
    assert resilience.RETRY_MULTIPLIER >= 1.0
    assert 0.0 <= resilience.RETRY_JITTER < 1.0
    assert resilience.BREAKER_FAILURE_THRESHOLD >= 1
    assert resilience.BREAKER_RECOVERY_TIMEOUT > 0
    assert resilience.REPLAY_BATCH_LIMIT >= 1
    assert loops.LOOP_THRESHOLD > 0 and loops.LOOP_WINDOW > 0
    assert engine_module.POLL_LIMIT >= 1
    # A window past the list size: only the set branch of the dedupe
    # window ever evicts.
    assert engine_module.DEDUPE_WINDOW > engine_module.WINDOW_LIST_MAX
    assert push.PUSH_BATCH_WINDOW >= 0
    assert push.SAFETY_NET_INTERVAL > 0


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        assert [backoff(n) for n in range(1, 8)] == [1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]

    def test_jitter_stays_within_fraction(self):
        rng = Rng(3)
        for _ in range(50):
            assert 0.9 <= backoff(1, rng) <= 1.1
            assert 27.0 <= backoff(6, rng) <= 33.0

    def test_jitter_is_deterministic_per_seed(self):
        assert backoff(1, Rng(9)) == backoff(1, Rng(9))

    def test_exhausted(self):
        assert not exhausted(3)
        assert exhausted(4)


def tripped(at=0.0, on_transition=None):
    """A breaker that ``BREAKER_FAILURE_THRESHOLD`` failures at ``at`` opened."""
    breaker = CircuitBreaker(on_transition=on_transition)
    for _ in range(resilience.BREAKER_FAILURE_THRESHOLD):
        breaker.record_failure(at)
    return breaker


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
        breaker = CircuitBreaker()
        for t in (1.0, 2.0, 3.0, 4.0):
            breaker.record_failure(t)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(5.0)
        assert breaker.state is BreakerState.OPEN

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker()
        for t in (1.0, 2.0, 3.0, 4.0):
            breaker.record_failure(t)
        breaker.record_success(5.0)
        for t in (6.0, 7.0, 8.0, 9.0):
            breaker.record_failure(t)
        assert breaker.state is BreakerState.CLOSED

    def test_sheds_while_open(self):
        breaker = tripped()
        assert not breaker.allow(5.0)
        assert not breaker.allow(29.9)
        assert breaker.state is BreakerState.OPEN

    def test_half_open_after_recovery_timeout(self):
        breaker = tripped()
        assert breaker.allow(30.0)           # the probe
        assert breaker.state is BreakerState.HALF_OPEN

    @pytest.mark.parametrize("opened_at", [0.0, 495.43508709194094])
    def test_probe_at_is_the_first_instant_allow_lets_through(self, opened_at):
        # 495.435... + 30 rounds down: the sum minus the trip is under 30.
        assert CircuitBreaker().probe_at() is None
        breaker = tripped(opened_at)
        at = breaker.probe_at()
        assert at >= opened_at + 30.0
        assert not breaker.allow(math.nextafter(at, 0.0))
        assert breaker.allow(at)
        assert breaker.probe_at() is None    # half-open

    def test_half_open_limits_probes(self):
        breaker = tripped()
        assert breaker.allow(30.0)
        assert not breaker.allow(30.5)       # only one probe in flight

    def test_half_open_failure_reopens(self):
        breaker = tripped()
        breaker.allow(30.0)
        breaker.record_failure(30.5)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(45.0)       # timer restarted from 30.5
        assert breaker.allow(60.5)

    def test_half_open_success_closes(self):
        breaker = tripped()
        breaker.allow(30.0)
        breaker.record_success(30.5)
        assert breaker.state is BreakerState.CLOSED

    def test_reopen_half_open_cycle_restarts_each_window(self):
        # Regression: the recovery window after HALF_OPEN -> OPEN must be
        # measured from the *re-open*, not the original trip — and again
        # on every subsequent cycle.
        breaker = tripped()                              # cycle 1: open at 0
        assert breaker.allow(30.0)                       # probe 1
        breaker.record_failure(32.0)                     # re-open at 32
        assert breaker._opened_at == 32.0
        assert not breaker.allow(61.9)                   # 30 s from 32, not 0
        assert breaker.allow(62.0)                       # probe 2
        breaker.record_failure(65.0)                     # re-open again at 65
        assert breaker._opened_at == 65.0
        assert not breaker.allow(94.9)
        assert breaker.allow(95.0)                       # probe 3
        assert not breaker.allow(95.0)                   # one probe per half-open
        breaker.record_success(95.5)
        assert breaker.state is BreakerState.CLOSED

    def test_opened_at_cleared_on_close(self):
        breaker = tripped()
        assert breaker._opened_at == 0.0
        breaker.allow(30.0)
        breaker.record_success(30.5)
        assert breaker._opened_at is None                # no stale clock

    def test_stale_failures_ignored_while_open(self):
        breaker = tripped()
        breaker.record_failure(1.0)          # in-flight straggler
        assert breaker.allow(30.0)           # timer was NOT restarted

    def test_transition_log_and_hook(self):
        seen = []
        breaker = tripped(
            1.0, on_transition=lambda old, new, at: seen.append((old.value, new.value, at))
        )
        breaker.allow(31.0)
        breaker.record_success(31.5)
        assert [s[:2] for s in seen] == [
            ("closed", "open"), ("open", "half_open"), ("half_open", "closed")]
        assert breaker.transitions[0][0] == 1.0


def build_world(seed=11):
    """Thin wrapper over :func:`tests.helpers.build_engine_world`.

    Pins this suite's historical seeds (network ``seed``, engine
    ``seed + 1``) and tight 5 s timeouts — the exact retry/shed counts
    asserted below depend on both.
    """
    world = build_engine_world(
        config=default_engine_config(request_timeout=5.0),
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

    def test_breaker_opens_and_sheds_polls(self):
        sim, _, engine, service, _ = build_world()
        service.set_outage(True)
        sim.run_until(55.0)
        breaker = engine.breaker_for("svc")
        assert breaker.state is BreakerState.OPEN
        assert engine.polls_shed > 0
        assert engine.breaker_states() == {"svc": "open"}


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

