"""What the one-record-per-service engine relies on.

``ServiceRegistration`` is the per-(service, engine) record that holds
the breaker, health and ladder level, parked hints, admission depths,
push queue and rung, and bound metric handles, and ``IftttEngine._interval`` is the one cadence
decision that replaced the nested ``PollingPolicy`` wrappers.  Pinned
here:

(i)   ``_interval`` returns the value — and consumes the RNG draws — of
      the wrapper nesting it replaced, kept below as a reference;
(ii)  the record's lazily-born members are observable (each gauge goes
      live at its birth), so an untouched service leaves no series and
      each gauge appears at its documented instant;
(iii) inbound webhooks are authenticated against the record before any
      counter moves, and a malformed push body is rejected whole, 400,
      before anything is admitted;
(iv)  ROADMAP 3(c)'s acceptance: a Zapier-shaped engine is a pure
      ``EngineConfig`` — no fourth ``PollingPolicy`` wrapper.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine
from repro.engine import (
    ActionRef,
    AdaptivePollingPolicy,
    EngineConfig,
    FixedPollingPolicy,
    PollingPolicy,
    ProductionPollingPolicy,
    TriggerRef,
)
from repro.engine.delivery import STRETCH_JITTER, DeliveryPolicy
from repro.engine.push import RUNG_HINT, RUNG_POLL, RUNG_PUSH, SAFETY_NET_INTERVAL, PushPolicy
from repro.engine.resilience import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_RECOVERY_TIMEOUT,
    BreakerState,
    ReplayPolicy,
)
from repro.net import Address, FixedLatency, HttpNode
from repro.obs.metrics import MetricsRegistry, deterministic_snapshot
from repro.services import ActionEndpoint, PartnerService, TriggerEvent
from repro.services.partner import PUSH_NOTIFY_PATH, REALTIME_NOTIFY_PATH
from repro.simcore import Rng
from repro.testbed.chaos import CHAOS_SCENARIOS, ChaosWorld

from tests.helpers import build_engine_world, default_engine_config, install_ping_applet

# -- (i) the cadence decision vs the nesting it replaced --------------------------


def reference_interval(base, stretch, breaker, rung, rng):
    """``PushDeliveryPolicy(AdaptiveDeliveryPolicy(base))`` as it was:
    ``rung``/``stretch`` are ``None`` where that wrapper was not applied,
    and ``breaker`` is the service breaker's state."""
    if rung is not None and rung != RUNG_POLL:
        return SAFETY_NET_INTERVAL
    interval = base.next_interval(rng)
    if stretch is None:
        return interval
    if stretch <= 1.0 or breaker is not BreakerState.CLOSED:
        factor = 1.0
    else:
        factor = stretch * (1.0 + rng.uniform(-STRETCH_JITTER, STRETCH_JITTER))
        factor = factor if factor > 1.0 else 1.0
    return interval if factor == 1.0 else interval * factor


def drive_breaker(engine, slug, state):
    """Walk a service's breaker to ``state`` through its own API."""
    breaker = engine.breaker_for(slug)
    if state is not BreakerState.CLOSED:
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(0.0)
    if state is BreakerState.HALF_OPEN:
        breaker.allow(BREAKER_RECOVERY_TIMEOUT)
    assert breaker.state is state


BASE_POLICIES = {
    "fixed": lambda: FixedPollingPolicy(60),
    "production": ProductionPollingPolicy,
    "adaptive": lambda: AdaptivePollingPolicy(fast=5.0, slow=120.0),
}


@settings(max_examples=60, deadline=None)
@given(
    rung=st.sampled_from([None, RUNG_PUSH, RUNG_HINT, RUNG_POLL]),
    stretch=st.one_of(st.none(), st.floats(min_value=1.0, max_value=8.0)),
    breaker=st.sampled_from(list(BreakerState)),
    base=st.sampled_from(sorted(BASE_POLICIES)),
    seed=st.integers(min_value=0, max_value=2 ** 16),
)
def test_interval_matches_the_wrapper_nesting(rung, stretch, breaker, base, seed):
    world = build_engine_world(default_engine_config(
        delivery_policy=DeliveryPolicy() if stretch is not None else None,
        push_policy=PushPolicy() if rung is not None else None,
    ))
    engine = world.engine
    link = engine.service_registration("svc")
    drive_breaker(engine, "svc", breaker)
    if stretch is not None:
        link.stretch = stretch
    if rung is not None:
        link.push = True        # the contract the wrapper's presence stood for
        engine.push.track(link)
        link.rung = rung
    ours, theirs = BASE_POLICIES[base](), BASE_POLICIES[base]()
    rng, reference_rng = Rng(seed), Rng(seed)
    for _ in range(5):
        got = engine._interval(link, ours, rng)
        want = reference_interval(theirs, stretch, breaker, rung, reference_rng)
        assert got == want and type(got) is type(want)
        # identical draws consumed: the streams stay in lockstep
        assert rng._random.getstate() == reference_rng._random.getstate()


# -- (ii) lazy instants ------------------------------------------------------------


def _families(metrics):
    return {
        (entry["name"], entry["labels"].get("service"))
        for entry in deterministic_snapshot(metrics)["metrics"]
        if entry["name"].startswith("engine.")
    }


def _observed_world(**config):
    world = build_engine_world(default_engine_config(**config), slug="sensor")
    world.engine.metrics = MetricsRegistry()
    return world


def test_untouched_published_service_leaves_no_series():
    world = _observed_world(delivery_policy=DeliveryPolicy(), push_policy=PushPolicy())
    assert world.engine.published_slugs == ["sensor"]
    world.sim.run_until(60.0)
    link = world.engine.service_registration("sensor")
    assert (link.breaker, link.level, link.push_pending) == (None, None, None)
    assert _families(world.engine.metrics) == set()


def test_gauges_go_live_at_their_documented_instants():
    world = _observed_world(delivery_policy=DeliveryPolicy(), push_policy=PushPolicy())
    engine, metrics = world.engine, world.engine.metrics
    link = engine.service_registration("sensor")
    link.push = True        # as if published under the push contract
    install_ping_applet(engine, slug="sensor")
    # install: the ladder level and push queue are born (delivery policy / contract);
    # the breaker is not — nothing has been sent yet
    assert _families(metrics) == {
        ("engine.degradation_level", "sensor"),
        ("engine.push.rung", "sensor"),
    }
    assert link.breaker is None
    # first guarded request (the registration poll at t=0.5): the breaker
    world.sim.run_until(0.5)
    assert ("engine.breaker_state", "sensor") in _families(metrics)
    assert link.breaker.state is BreakerState.CLOSED


def test_health_without_an_install_is_born_at_the_first_outcome():
    # a pure action service has no applet triggered by it: its health
    # (and gauge) appears with the first action outcome, its breaker
    # with the first action send
    world = _observed_world(delivery_policy=DeliveryPolicy())
    sink = world.net.add_node(PartnerService(Address("sink.cloud"), slug="sink"))
    sink.add_action(ActionEndpoint(slug="record", name="Record", executor=lambda f: None))
    world.net.connect(world.engine.address, sink.address, FixedLatency(0.01))
    world.engine.publish_service(sink)
    world.engine.install_applet(
        user=world.user, name="ping -> sink",
        trigger=TriggerRef("sensor", "ping"), action=ActionRef("sink", "record", {}),
    )
    world.sim.run_until(5.0)
    record = world.engine.service_registration("sink")
    assert (record.breaker, record.level) == (None, None)
    world.service.ingest_event("ping", {"n": 1})
    world.sim.run_until(15.0)           # next poll at t=10.5 fires the action
    assert record.breaker is not None and record.level is not None
    assert {
        ("engine.breaker_state", "sink"), ("engine.degradation_level", "sink"),
    } <= _families(world.engine.metrics)


# -- (iii) unauthenticated webhooks ------------------------------------------------


def _webhook_world():
    world = build_engine_world(
        default_engine_config(realtime_allowlist=None, push_policy=PushPolicy()),
        realtime_service=True,
    )
    world.engine.metrics = MetricsRegistry()
    applet = install_ping_applet(world.engine)
    world.sim.run_until(5.0)            # registration poll done
    rogue = world.net.add_node(HttpNode(Address("rogue.test")))
    world.net.connect(rogue.address, world.engine.address, FixedLatency(0.01))
    return world, applet, rogue


def _post_webhook(world, rogue, path, headers, applet, body=None):
    if body is None:
        body = {"data": [{
            "trigger_identity": applet.trigger_identity,
            "events": [TriggerEvent(999, 0.0, {"n": 1})],
        }]}
    got = []
    rogue.post(world.engine.address, path, headers=headers, on_response=got.append, body=body)
    world.sim.run_until(world.sim.now + 1.0)
    return got[0]


@pytest.mark.parametrize("path", [REALTIME_NOTIFY_PATH, PUSH_NOTIFY_PATH])
@pytest.mark.parametrize("headers, status, message", [
    ({"service_slug": "no-such-service", "IFTTT-Service-Key": "k"}, 404, "unknown service"),
    ({"service_slug": "svc", "IFTTT-Service-Key": "wrong"}, 401, "bad service key"),
    ({"service_slug": "svc"}, 401, "bad service key"),
], ids=["unknown-slug", "wrong-key", "no-key"])
def test_webhook_rejects_unauthenticated_sender(path, headers, status, message):
    world, applet, rogue = _webhook_world()
    engine = world.engine
    before = (_families(engine.metrics), engine.stats(), engine.poll_count(applet.applet_id))
    response = _post_webhook(world, rogue, path, headers, applet)
    assert response.status == status
    assert response.body == {"error": message}
    # nothing moved: no counter, no minted series, no push queue, no fast poll
    assert (
        _families(engine.metrics), engine.stats(), engine.poll_count(applet.applet_id)
    ) == before
    assert engine.service_registration("svc").push_pending is None
    assert world.executed == []


@pytest.mark.parametrize("path, counter", [
    (REALTIME_NOTIFY_PATH, "realtime_hints_received"),
    (PUSH_NOTIFY_PATH, "push_notifications_received"),
])
def test_webhook_accepts_the_issued_key(path, counter):
    world, applet, rogue = _webhook_world()
    key = world.engine.service_registration("svc").service_key
    response = _post_webhook(
        world, rogue, path, {"service_slug": "svc", "IFTTT-Service-Key": key}, applet
    )
    assert response.status == 200 and response.body == {"status": "received"}
    assert world.engine.stats()[counter] == 1


def malformed_push_bodies(identity):
    """Push bodies an authenticated sender might get wrong, each with the
    field the 400 names."""
    return {
        "event-without-meta": (
            {"data": [{"trigger_identity": identity, "events": [{"ingredients": {"n": 1}}]}]},
            "data[0].events must be a list of TriggerEvent",
        ),
        "events-not-a-list": (
            {"data": [{"trigger_identity": identity, "events": 5}]},
            "data[0].events must be a list of TriggerEvent",
        ),
        "entry-without-identity": (
            {"data": [{"trigger_identity": identity, "events": []},
                      {"events": [TriggerEvent(999, 0.0, {"n": 1})]}]},
            "data[1].trigger_identity must be a str",
        ),
    }


@pytest.mark.parametrize(
    "case", ["event-without-meta", "events-not-a-list", "entry-without-identity"]
)
def test_malformed_push_fails_at_the_boundary(case):
    world, applet, rogue = _webhook_world()
    engine = world.engine
    key = engine.service_registration("svc").service_key
    body, field = malformed_push_bodies(applet.trigger_identity)[case]
    before = (engine.stats(), engine.poll_count(applet.applet_id))
    response = _post_webhook(
        world, rogue, PUSH_NOTIFY_PATH, {"service_slug": "svc", "IFTTT-Service-Key": key},
        applet, body=body,
    )
    assert response.status == 400
    assert response.body == {"error": f"malformed push notification: {field}"}
    # nothing admitted: no stats key moved, no push queue, no fast poll
    assert (engine.stats(), engine.poll_count(applet.applet_id)) == before
    assert engine.service_registration("svc").push_pending is None
    assert engine.metrics.value("engine.push.malformed", service="svc") == 1
    # the run goes on, polling as before, and no action ever fires
    world.sim.run_until(world.sim.now + 30.0)
    assert engine.poll_count(applet.applet_id) > before[1]
    assert engine.stats()["push_events_ingested"] == 0
    assert world.executed == []


# -- (iv) Zapier's execution model is a configuration ------------------------------


def test_zapier_shaped_engine_is_pure_config():
    """"IFTTT vs. Zapier" (PAPERS.md): near-realtime polling — a fixed
    one-minute cadence with every hint honoured — and per-step replay on
    heal, under adaptive delivery.  Expressible as an ``EngineConfig``;
    the cadence machinery has exactly the three base policies."""
    zapier = EngineConfig(
        poll_policy=FixedPollingPolicy(60.0),
        realtime_allowlist=None,                        # every hint honoured
        replay_policy=ReplayPolicy(batching=False),     # per-action replay on heal
        delivery_policy=DeliveryPolicy(),
        initial_poll_delay=0.5, request_timeout=10.0,
    )
    result = ChaosWorld(seed=7, engine_config=zapier, delivery_mode="hint").run(
        CHAOS_SCENARIOS["outage"]
    )
    assert result.actions_silently_lost == 0
    stats = result.fleet_stats
    assert stats["dead_letters"] == 0 and stats["actions_in_replay"] == 0
    assert result.events_observed == result.events_injected == stats["actions_delivered"]
    # hints, not the 60 s cadence, carry delivery: sub-second before the
    # outage, and after it never a full poll interval even while the
    # sink's breaker is still finding its way closed
    assert result.t2a_max("before") < 1.0 and result.t2a_max("after") < 60.0
    # the outage's dead letters came back one request per action
    assert result.replay.replayed > 0
    assert result.replay.requests_sent == result.replay.replayed == result.replay.delivered
    # ... and the service healed: no stretch left, ladder back at healthy
    assert set(result.post_heal_stretch.values()) == {1.0}
    assert set(result.degradation_levels.values()) == {0}
    exported = {
        name for name in dir(repro.engine)
        if isinstance(getattr(repro.engine, name), type)
        and issubclass(getattr(repro.engine, name), PollingPolicy)
    }
    assert exported == {
        "PollingPolicy", "ProductionPollingPolicy", "FixedPollingPolicy",
        "AdaptivePollingPolicy",
    }

    def in_package(cls):
        for sub in cls.__subclasses__():
            if sub.__module__.startswith("repro."):
                yield sub.__name__
                yield from in_package(sub)

    assert set(in_package(PollingPolicy)) == exported - {"PollingPolicy"}
