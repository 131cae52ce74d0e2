"""Failure-injection tests: outages, timeouts, and engine resilience.

The paper never measures IFTTT under failures, but a production-credible
engine must survive them; these tests pin the recovery semantics the
implementation provides (buffered events delivered after recovery,
deduplication intact, counters faithful).
"""

import pytest

from repro.engine import ActionRef, EngineConfig, FixedPollingPolicy, IftttEngine, TriggerRef
from repro.engine.oauth import OAuthAuthority
from repro.engine.resilience import BREAKER_RECOVERY_TIMEOUT
from repro.net import Address, FixedLatency, Network
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator, Trace


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, Rng(91))
    trace = Trace()
    engine = net.add_node(IftttEngine(
        Address("engine.cloud"),
        config=EngineConfig(poll_policy=FixedPollingPolicy(10.0), initial_poll_delay=0.5,
                            request_timeout=5.0),
        rng=Rng(8), trace=trace, service_time=0.0,
    ))
    service = net.add_node(PartnerService(Address("svc.cloud"), slug="svc",
                                          trace=trace, service_time=0.0))
    net.connect(engine.address, service.address, FixedLatency(0.01))
    executed = []
    service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
    service.add_action(ActionEndpoint(slug="record", name="Record",
                                      executor=lambda fields: executed.append(dict(fields))))
    engine.publish_service(service)
    authority = OAuthAuthority("svc")
    authority.register_user("alice", "pw")
    engine.connect_service("alice", service, authority, "pw")
    applet = engine.install_applet(
        user="alice", name="ping->record",
        trigger=TriggerRef("svc", "ping"), action=ActionRef("svc", "record", {"n": "{{n}}"}),
    )
    sim.run_until(2.0)
    return sim, net, engine, service, applet, executed


class TestServiceOutage:
    def test_polls_fail_during_outage(self, world):
        sim, _, engine, service, _, executed = world
        service.set_outage(True)
        service.ingest_event("ping", {"n": 1})
        sim.run_until(60.0)
        assert executed == []
        assert engine.poll_failures > 0
        assert service.requests_rejected_during_outage > 0

    def test_buffered_events_delivered_after_recovery(self, world):
        sim, _, engine, service, _, executed = world
        service.set_outage(True)
        for n in range(3):
            service.ingest_event("ping", {"n": n})
        sim.run_until(60.0)
        service.set_outage(False)
        sim.run_until(120.0)
        assert [f["n"] for f in executed] == ["0", "1", "2"]

    def test_no_duplicates_after_recovery(self, world):
        sim, _, engine, service, _, executed = world
        service.ingest_event("ping", {"n": 0})
        sim.run_until(30.0)
        count_before = len(executed)
        service.set_outage(True)
        sim.run_until(60.0)
        service.set_outage(False)
        sim.run_until(120.0)
        assert len(executed) == count_before  # old event not re-executed

    def test_engine_keeps_polling_through_outage(self, world):
        sim, _, engine, service, applet, _ = world
        polls_before = engine.poll_count(applet.applet_id)
        service.set_outage(True)
        sim.run_until(60.0)
        assert engine.poll_count(applet.applet_id) > polls_before

    def test_status_endpoint_reflects_outage(self, world):
        sim, net, engine, service, _, _ = world
        got = []
        engine.get(service.address, "/ifttt/v1/status", on_response=got.append)
        sim.run_until(sim.now + 1.0)
        assert got[0].ok
        service.set_outage(True)
        engine.get(service.address, "/ifttt/v1/status", on_response=got.append)
        sim.run_until(sim.now + 1.0)
        assert got[1].status == 503


class TestNetworkPartition:
    def test_partition_fails_fast_and_recovers(self, world):
        sim, net, engine, service, _, executed = world
        net.set_link_state(engine.address, service.address, up=False)
        service.ingest_event("ping", {"n": 7})
        sim.run_until(60.0)
        assert executed == []
        # The network reports the missing route synchronously, so polls
        # fail as immediate connection-refused 503s instead of burning
        # the full HTTP timeout per attempt.
        assert engine.connection_refused > 0
        assert engine.timeouts == 0
        assert engine.poll_failures > 0      # counted as failed polls
        net.set_link_state(engine.address, service.address, up=True)
        sim.run_until(150.0)
        assert [f["n"] for f in executed] == ["7"]

    def test_action_failure_counted(self, world):
        sim, net, engine, service, _, executed = world

        def exploding(fields):
            from repro.net.http import HttpError
            raise HttpError(500, "backend exploded")

        service._actions["record"].executor = exploding
        service.ingest_event("ping", {"n": 1})
        sim.run_until(60.0)
        assert engine.action_failures > 0
        assert executed == []


class TestBreakerThroughOutage:
    """End-to-end ``set_outage`` coverage: polls keep flowing, the
    breaker opens, and T2A recovers once the outage lifts."""

    def test_breaker_opens_sheds_and_recovers(self, world):
        from repro.engine import BreakerState

        sim, _, engine, service, applet, executed = world
        polls_before = engine.poll_count(applet.applet_id)
        service.set_outage(True)
        sim.run_until(62.0)
        # Polling continued through the outage (attempts, incl. shed ones).
        assert engine.poll_count(applet.applet_id) > polls_before
        breaker = engine.breaker_for("svc")
        assert any(new is BreakerState.OPEN for _, _, new in breaker.transitions)
        assert engine.polls_shed > 0         # open breaker shed real sends
        assert service.requests_rejected_during_outage > 0

        heal_at = sim.now
        service.set_outage(False)
        service.ingest_event("ping", {"n": 9})
        # Worst-case recovery: wait out the breaker's recovery timeout,
        # then one regular polling interval lands the half-open probe.
        recovery = BREAKER_RECOVERY_TIMEOUT
        interval = 10.0  # the fixture's FixedPollingPolicy period
        deadline = heal_at + recovery + 2 * interval
        while not executed and sim.now < deadline:
            sim.run_until(sim.now + 1.0)
        assert [f["n"] for f in executed] == ["9"]
        assert sim.now - heal_at <= recovery + 2 * interval
        assert breaker.state is BreakerState.CLOSED


class TestDeviceOutageViaTestbed:
    def test_hue_service_outage_delays_but_not_loses_a2(self):
        from repro.engine import EngineConfig, FixedPollingPolicy
        from repro.testbed import Testbed, TestbedConfig, TestController
        from repro.testbed.applets import applet_spec

        config = TestbedConfig(
            seed=37,
            engine_config=EngineConfig(poll_policy=FixedPollingPolicy(5.0), initial_poll_delay=0.5),
        )
        testbed = Testbed(config).build()
        controller = TestController(testbed, timeout=300.0)
        controller.install("A2")
        testbed.run_for(5.0)
        # trigger-side (wemo) service goes down before the press
        testbed.wemo_service.set_outage(True)
        spec = applet_spec("A2")
        spec.reset(testbed)
        testbed.run_for(10.0)
        t0 = testbed.sim.now
        spec.activate(testbed)
        testbed.run_for(60.0)
        assert spec.observe(testbed, t0) is None  # stuck behind the outage
        testbed.wemo_service.set_outage(False)
        testbed.run_for(60.0)
        observed = spec.observe(testbed, t0)
        assert observed is not None  # delivered after recovery
