"""Property-based tests of engine execution invariants.

The paper's measurements rely on several implicit correctness properties
of the engine; hypothesis drives randomized event/poll schedules to pin
them:

* **exactly-once**: every buffered trigger event (visible within the
  batch limit) dispatches its action exactly once, no matter how polls
  and events interleave;
* **ordering**: actions for one applet dispatch in event order;
* **isolation**: events never leak across trigger identities.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ActionRef, EngineConfig, FixedPollingPolicy, IftttEngine, TriggerRef
from repro.engine.engine import POLL_LIMIT
from repro.engine.oauth import OAuthAuthority
from repro.net import Address, FixedLatency, Network
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator


def build_world(poll_interval=7.0):
    sim = Simulator()
    net = Network(sim, Rng(13))
    engine = net.add_node(IftttEngine(
        Address("engine.cloud"),
        config=EngineConfig(poll_policy=FixedPollingPolicy(poll_interval),
                            initial_poll_delay=0.5),
        rng=Rng(3), service_time=0.0,
    ))
    service = net.add_node(PartnerService(Address("svc.cloud"), slug="svc", service_time=0.0))
    net.connect(engine.address, service.address, FixedLatency(0.01))
    executed = []
    service.add_trigger(TriggerEndpoint(
        slug="tick", name="Tick",
        matcher=lambda event, fields: not fields.get("stream")
        or fields["stream"] == event.get("stream"),
        ingredients=lambda event: {"n": event.get("n"), "stream": event.get("stream", "")},
    ))
    service.add_action(ActionEndpoint(
        slug="record", name="Record",
        executor=lambda fields: executed.append((fields.get("stream", ""), fields.get("n")))))
    engine.publish_service(service)
    authority = OAuthAuthority("svc")
    authority.register_user("u", "pw")
    engine.connect_service("u", service, authority, "pw")
    return sim, engine, service, executed


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=25))
def test_every_event_executes_exactly_once(gaps):
    """Events arriving at arbitrary times each dispatch exactly once."""
    sim, engine, service, executed = build_world()
    engine.install_applet(
        user="u", name="p",
        trigger=TriggerRef("svc", "tick"),
        action=ActionRef("svc", "record", {"n": "{{n}}", "stream": "{{stream}}"}),
    )
    sim.run_until(2.0)
    for index, gap in enumerate(gaps):
        sim.run_until(sim.now + gap)
        service.ingest_event("tick", {"n": index})
    sim.run_until(sim.now + 60.0)
    observed = sorted(int(n) for _, n in executed)
    assert observed == list(range(len(gaps)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8))
def test_actions_dispatch_in_event_order(burst):
    """A burst delivered in one poll dispatches chronologically."""
    sim, engine, service, executed = build_world()
    engine.install_applet(
        user="u", name="p",
        trigger=TriggerRef("svc", "tick"),
        action=ActionRef("svc", "record", {"n": "{{n}}"}),
    )
    sim.run_until(2.0)
    for index in range(burst):
        service.ingest_event("tick", {"n": index})
    sim.run_until(sim.now + 30.0)
    observed = [int(n) for _, n in executed]
    assert observed == list(range(burst))


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "c"]), min_size=1, max_size=20))
def test_identities_are_isolated(streams):
    """Field-filtered identities only see their own stream's events."""
    sim, engine, service, executed = build_world()
    for stream in ("a", "b", "c"):
        engine.install_applet(
            user="u", name=f"p-{stream}",
            trigger=TriggerRef("svc", "tick", {"stream": stream}),
            action=ActionRef("svc", "record", {"n": "{{n}}", "stream": "{{stream}}"}),
        )
    sim.run_until(2.0)
    for index, stream in enumerate(streams):
        service.ingest_event("tick", {"n": index, "stream": stream})
        sim.run_until(sim.now + 1.0)
    sim.run_until(sim.now + 60.0)
    # each execution's stream tag matches what was ingested for that n
    expected = {(stream, str(index)) for index, stream in enumerate(streams)}
    assert set(executed) == expected


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=2 * POLL_LIMIT))
@example(POLL_LIMIT + 1)
def test_batch_limit_caps_delivery_per_poll(n_events):
    """One poll delivers at most ``limit`` events (the newest ones)."""
    sim, engine, service, executed = build_world(poll_interval=1000.0)
    engine.install_applet(
        user="u", name="p",
        trigger=TriggerRef("svc", "tick"),
        action=ActionRef("svc", "record", {"n": "{{n}}"}),
    )
    sim.run_until(2.0)  # registration poll done; next poll far away
    for index in range(n_events):
        service.ingest_event("tick", {"n": index})
    # force one poll now by re-enabling (schedules an immediate-ish poll)
    engine.disable_applet(engine.applets[0].applet_id)
    engine.enable_applet(engine.applets[0].applet_id)
    sim.run_until(sim.now + 5.0)
    assert executed == [("", str(n)) for n in range(max(0, n_events - POLL_LIMIT), n_events)]
