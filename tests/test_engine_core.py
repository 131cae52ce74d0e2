"""Integration tests for the IFTTT engine against a live partner service."""

import pytest

from repro.engine import ActionRef, EngineConfig, FixedPollingPolicy, TriggerRef
from repro.engine.engine import POLL_LIMIT
from repro.engine.oauth import OAuthAuthority
from repro.net import Address
from repro.services import PartnerService

from tests.helpers import build_engine_world, install_ping_applet


def build_world(config=None, realtime_service=False):
    """One engine + one service with a trigger and a recording action.

    Thin wrapper over :func:`tests.helpers.build_engine_world`, pinning
    this suite's historical seeds (network 55, engine 7) and its
    timestamped delivery log.
    """
    world = build_engine_world(
        config=config,
        net_seed=55,
        engine_seed=7,
        realtime_service=realtime_service,
        record_times=True,
    )
    return world.sim, world.engine, world.service, world.executed, world.trace


class TestPublication:
    def test_publish_issues_key(self):
        sim, engine, service, _, _ = build_world()
        assert service.service_key is not None
        assert engine.service_registration("svc").service_key == service.service_key

    def test_double_publish_rejected(self):
        sim, engine, service, _, _ = build_world()
        with pytest.raises(ValueError):
            engine.publish_service(service)

    def test_connect_unpublished_service_rejected(self):
        sim, engine, _, _, _ = build_world()
        stranger = PartnerService(Address("other.cloud"), slug="other")
        with pytest.raises(KeyError):
            engine.connect_service("alice", stranger, OAuthAuthority("other"), "pw")

    def test_connect_caches_token_and_grants(self):
        sim, engine, service, _, _ = build_world()
        token = engine.tokens.get(("alice", "svc"))
        assert token is not None
        assert engine.permissions.granted("alice")


class TestAppletLifecycle:
    def test_install_requires_published_services(self):
        sim, engine, _, _, _ = build_world()
        with pytest.raises(KeyError):
            engine.install_applet(
                user="alice", name="bad",
                trigger=TriggerRef("ghost", "t"), action=ActionRef("svc", "record"),
            )

    def test_install_assigns_six_digit_ids(self):
        sim, engine, _, _, _ = build_world()
        applet = install_ping_applet(engine)
        assert 100000 <= applet.applet_id <= 999999

    def test_initial_poll_registers_identity(self):
        sim, engine, service, _, _ = build_world()
        applet = install_ping_applet(engine)
        sim.run_until(5.0)
        assert applet.trigger_identity in service.known_identities

    def test_end_to_end_execution(self):
        sim, engine, service, executed, _ = build_world()
        install_ping_applet(engine)
        sim.run_until(5.0)
        service.ingest_event("ping", {"n": 42})
        sim.run_until(30.0)
        assert executed
        assert executed[0][1] == {"note": "42"}

    def test_dedupe_across_polls(self):
        sim, engine, service, executed, _ = build_world()
        install_ping_applet(engine)
        sim.run_until(5.0)
        service.ingest_event("ping", {"n": 1})
        sim.run_until(60.0)  # several polls see the same buffered event
        assert len(executed) == 1

    def test_multiple_events_in_one_poll_all_execute(self):
        sim, engine, service, executed, _ = build_world()
        install_ping_applet(engine)
        sim.run_until(5.0)
        for n in range(5):
            service.ingest_event("ping", {"n": n})
        sim.run_until(30.0)
        assert len(executed) == 5
        # chronological dispatch order
        notes = [fields["note"] for _, fields in executed]
        assert notes == ["0", "1", "2", "3", "4"]

    def test_batch_limit_respected(self):
        config = EngineConfig(poll_policy=FixedPollingPolicy(10.0), initial_poll_delay=0.5)
        sim, engine, service, executed, _ = build_world(config=config)
        install_ping_applet(engine)
        sim.run_until(5.0)
        for n in range(POLL_LIMIT + 10):
            service.ingest_event("ping", {"n": n})
        sim.run_until(14.0)  # one poll
        # only the newest k = POLL_LIMIT delivered, oldest first
        assert [fields["note"] for _, fields in executed] == [
            str(n) for n in range(10, POLL_LIMIT + 10)]

    def test_disable_stops_polling(self):
        sim, engine, service, executed, _ = build_world()
        applet = install_ping_applet(engine)
        sim.run_until(5.0)
        polls_before = engine.polls_sent
        engine.disable_applet(applet.applet_id)
        service.ingest_event("ping", {"n": 1})
        sim.run_until(120.0)
        assert engine.polls_sent == polls_before
        assert executed == []

    def test_enable_resumes(self):
        sim, engine, service, executed, _ = build_world()
        applet = install_ping_applet(engine)
        sim.run_until(5.0)
        engine.disable_applet(applet.applet_id)
        sim.run_until(10.0)
        engine.enable_applet(applet.applet_id)
        service.ingest_event("ping", {"n": 9})
        sim.run_until(60.0)
        assert executed

    def test_enable_when_already_enabled_is_noop(self):
        sim, engine, service, _, _ = build_world()
        applet = install_ping_applet(engine)
        engine.enable_applet(applet.applet_id)
        assert applet.enabled

    def test_poll_count_tracked(self):
        sim, engine, service, _, _ = build_world()
        applet = install_ping_applet(engine)
        sim.run_until(35.0)
        assert engine.poll_count(applet.applet_id) >= 3

    def test_applets_listing(self):
        sim, engine, _, _, _ = build_world()
        a = install_ping_applet(engine)
        b = install_ping_applet(engine)
        assert {x.applet_id for x in engine.applets} == {a.applet_id, b.applet_id}
        assert engine.applet(a.applet_id) is a


class TestRealtimeHints:
    def test_allowlisted_service_hint_causes_immediate_poll(self):
        config = EngineConfig(
            poll_policy=FixedPollingPolicy(300.0),
            initial_poll_delay=0.5,
            realtime_allowlist=frozenset({"svc"}),
        )
        sim, engine, service, executed, _ = build_world(config=config, realtime_service=True)
        install_ping_applet(engine)
        sim.run_until(5.0)
        service.ingest_event("ping", {"n": 1})
        sim.run_until(10.0)  # far below the 300 s poll interval
        assert executed
        assert engine.realtime_hints_honoured >= 1

    def test_non_allowlisted_hint_ignored(self):
        config = EngineConfig(
            poll_policy=FixedPollingPolicy(300.0),
            initial_poll_delay=0.5,
            realtime_allowlist=frozenset(),
        )
        sim, engine, service, executed, _ = build_world(config=config, realtime_service=True)
        install_ping_applet(engine)
        sim.run_until(5.0)
        service.ingest_event("ping", {"n": 1})
        sim.run_until(10.0)
        assert executed == []  # hint received but not honoured
        assert engine.realtime_hints_received >= 1
        assert engine.realtime_hints_honoured == 0

    def test_none_allowlist_honours_everyone(self):
        config = EngineConfig(
            poll_policy=FixedPollingPolicy(300.0),
            initial_poll_delay=0.5,
            realtime_allowlist=None,
        )
        assert config.honours_realtime_for("anything")
        sim, engine, service, executed, _ = build_world(config=config, realtime_service=True)
        install_ping_applet(engine)
        sim.run_until(5.0)
        service.ingest_event("ping", {"n": 1})
        sim.run_until(10.0)
        assert executed


class TestEngineTrace:
    def test_poll_and_action_records(self):
        sim, engine, service, _, trace = build_world()
        install_ping_applet(engine)
        sim.run_until(5.0)
        service.ingest_event("ping", {"n": 1})
        sim.run_until(30.0)
        assert trace.query(kind="engine_poll_sent")
        assert trace.query(kind="engine_poll_response")
        assert trace.query(kind="engine_action_sent")
        assert trace.query(kind="engine_action_ack")


class TestConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("request_timeout", 0.0),     # every request would time out
        ("request_timeout", -1.0),    # would fail only at the first send
        ("request_timeout", float("nan")),
        ("initial_poll_jitter", -5.0),  # would be read as no jitter
        ("initial_poll_delay", -1.0),   # would fail only at install
    ])
    def test_bad_value_fails_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            EngineConfig(**{field: value})
