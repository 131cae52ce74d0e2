"""Tests for the partner-service framework: buffers, endpoints, protocol."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net import Address, FixedLatency, HttpNode, Network
from repro.services import (
    ActionEndpoint,
    PartnerService,
    TriggerBuffer,
    TriggerEndpoint,
    TriggerEvent,
)
from repro.services.endpoints import field_channel, static_channels, when
from repro.services.partner import ACTION_PATH, TRIGGER_PATH
from repro.simcore import Rng, Simulator


class TestTriggerEvent:
    def test_ids_unique_and_increasing(self, wired_service):
        _, _, service, _, _ = wired_service
        service.register_identity("thing_happened", "id-1", {})
        service.register_identity("thing_happened", "id-2", {})
        service.ingest_event("thing_happened", {})
        service.ingest_event("thing_happened", {})
        ids = [event.event_id for event in service.buffer_for("id-1").fetch()[::-1]]
        ids += [event.event_id for event in service.buffer_for("id-2").fetch()[::-1]]
        # minted per identity per publication from the world's one source
        assert sorted(ids) == [1, 2, 3, 4] and ids[0] < ids[1]

    def test_wire_format(self, wired_service):
        # the record is the wire form: meta.id, meta.timestamp, ingredients
        _, _, service, _, _ = wired_service
        service.register_identity("thing_happened", "id-1", {})
        service.ingest_event("thing_happened", {"subject": "hi"})
        event = service.buffer_for("id-1").fetch(1)[0]
        assert event.event_id == 1
        assert event.created_at == service.now
        assert event.ingredients == {"subject": "hi"}
        with pytest.raises(TypeError):
            event.ingredients["subject"] = "rewritten"
        with pytest.raises(AttributeError):
            event.event_id = 8


class TestTriggerBuffer:
    def test_fetch_newest_first(self):
        buffer = TriggerBuffer()
        events = [TriggerEvent(t, float(t)) for t in range(5)]
        for event in events:
            buffer.append(event)
        fetched = buffer.fetch(limit=3)
        assert [e.created_at for e in fetched] == [4.0, 3.0, 2.0]

    def test_fetch_does_not_consume(self):
        buffer = TriggerBuffer()
        buffer.append(TriggerEvent(1, 1.0))
        assert len(buffer.fetch()) == 1
        assert len(buffer.fetch()) == 1

    def test_capacity_drops_oldest(self):
        buffer = TriggerBuffer(capacity=3)
        for t in range(5):
            buffer.append(TriggerEvent(t, float(t)))
        assert len(buffer) == 3
        assert buffer.dropped == 2
        assert buffer.fetch(1)[0].created_at == 4.0

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            TriggerBuffer(capacity=0)
        with pytest.raises(ValueError):
            TriggerBuffer().fetch(limit=-1)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=0, max_size=60),
           st.integers(min_value=0, max_value=80))
    def test_fetch_never_exceeds_limit_or_contents(self, times, limit):
        buffer = TriggerBuffer(capacity=50)
        for event_id, t in enumerate(times):
            buffer.append(TriggerEvent(event_id, t))
        fetched = buffer.fetch(limit=limit)
        assert len(fetched) <= min(limit, len(buffer))
        # newest-appended first (insertion order, not timestamp order)
        assert all(a.event_id > b.event_id for a, b in zip(fetched, fetched[1:]))


class TestEndpointDeclarations:
    def test_bad_slug_rejected(self):
        with pytest.raises(ValueError):
            TriggerEndpoint(slug="has/slash", name="x")
        with pytest.raises(ValueError):
            ActionEndpoint(slug="", name="x")

    def test_static_channels(self):
        fn = static_channels(("hue", "lamp1"), ("hue", "lamp2"))
        assert fn({}) == frozenset({("hue", "lamp1"), ("hue", "lamp2")})

    def test_field_channel(self):
        fn = field_channel("sheets", "sheet")
        assert fn({"sheet": "songs"}) == frozenset({("sheets", "songs")})
        assert fn({}) == frozenset({("sheets", "*")})


@pytest.fixture
def wired_service():
    sim = Simulator()
    net = Network(sim, Rng(31))
    service = net.add_node(PartnerService(Address("svc.cloud"), slug="testsvc", service_time=0.0))
    engine = net.add_node(HttpNode(Address("engine.cloud")))
    net.connect(engine.address, service.address, FixedLatency(0.01))
    executed = []
    service.add_trigger(TriggerEndpoint(slug="thing_happened", name="Thing happened"))
    service.add_trigger(
        TriggerEndpoint(
            slug="exact_phrase",
            name="Exact phrase",
            matcher=when(narrow_by="phrase"),
        )
    )
    service.add_action(
        ActionEndpoint(slug="do_thing", name="Do thing", executor=lambda fields: executed.append(fields) or "done")
    )
    return sim, net, service, engine, executed


class TestPartnerService:
    def test_duplicate_endpoint_rejected(self, wired_service):
        _, _, service, _, _ = wired_service
        with pytest.raises(ValueError):
            service.add_trigger(TriggerEndpoint(slug="thing_happened", name="dup"))
        with pytest.raises(ValueError):
            service.add_action(ActionEndpoint(slug="do_thing", name="dup"))

    def test_ingest_requires_known_slug(self, wired_service):
        _, _, service, _, _ = wired_service
        with pytest.raises(KeyError):
            service.ingest_event("nope", {})

    def test_register_identity_requires_known_trigger(self, wired_service):
        _, _, service, _, _ = wired_service
        with pytest.raises(KeyError):
            service.register_identity("nope", "id1", {})

    def test_ingest_routes_to_matching_identities(self, wired_service):
        _, _, service, _, _ = wired_service
        service.register_identity("exact_phrase", "id-a", {"phrase": "hello"})
        service.register_identity("exact_phrase", "id-b", {"phrase": "other"})
        hit = service.ingest_event("exact_phrase", {"phrase": "hello"})
        assert hit == 1
        assert len(service.buffer_for("id-a")) == 1
        assert len(service.buffer_for("id-b")) == 0

    @pytest.mark.parametrize(
        "event", [{"created_at": "yesterday"}, {1: "one", "n": 2}], ids=["created_at", "int-key"]
    )
    def test_ingest_accepts_any_ingredient_key(self, wired_service, event):
        _, _, service, _, _ = wired_service
        service.register_identity("thing_happened", "id-1", {})
        assert service.ingest_event("thing_happened", event) == 1
        buffered = service.buffer_for("id-1").fetch(1)[0]
        assert buffered.created_at == service.now
        assert dict(buffered.ingredients) == event

    def test_poll_registers_identity_and_returns_events(self, wired_service):
        sim, _, service, engine, _ = wired_service
        responses = []
        engine.post(
            service.address,
            TRIGGER_PATH + "thing_happened",
            body={"trigger_identity": "id-1", "triggerFields": {}, "limit": 50},
            on_response=responses.append,
        )
        sim.run()
        assert responses[0].ok
        assert responses[0].body == {"data": []}
        service.ingest_event("thing_happened", {"n": 1})
        service.ingest_event("thing_happened", {"n": 2})
        responses.clear()
        engine.post(
            service.address,
            TRIGGER_PATH + "thing_happened",
            body={"trigger_identity": "id-1", "triggerFields": {}, "limit": 1},
            on_response=responses.append,
        )
        sim.run()
        data = responses[0].body["data"]
        assert len(data) == 1  # limit respected
        assert data[0].ingredients["n"] == 2  # newest first
        assert data[0] is service.buffer_for("id-1").fetch(1)[0]  # the record, not a copy

    def test_poll_unknown_trigger_404(self, wired_service):
        sim, _, service, engine, _ = wired_service
        responses = []
        engine.post(service.address, TRIGGER_PATH + "ghost",
                    body={"trigger_identity": "x"}, on_response=responses.append)
        sim.run()
        assert responses[0].status == 404

    def test_poll_missing_identity_400(self, wired_service):
        sim, _, service, engine, _ = wired_service
        responses = []
        engine.post(service.address, TRIGGER_PATH + "thing_happened",
                    body={}, on_response=responses.append)
        sim.run()
        assert responses[0].status == 400

    def test_action_executes(self, wired_service):
        sim, _, service, engine, executed = wired_service
        responses = []
        engine.post(service.address, ACTION_PATH + "do_thing",
                    body={"actionFields": {"color": "blue"}}, on_response=responses.append)
        sim.run()
        assert responses[0].ok
        assert executed == [{"color": "blue"}]
        assert service.actions_executed == 1

    def test_action_unknown_404(self, wired_service):
        sim, _, service, engine, _ = wired_service
        responses = []
        engine.post(service.address, ACTION_PATH + "ghost",
                    body={"actionFields": {}}, on_response=responses.append)
        sim.run()
        assert responses[0].status == 404

    def test_service_key_authentication(self, wired_service):
        sim, _, service, engine, _ = wired_service
        service.published(engine.address, "key-123")
        responses = []
        engine.post(service.address, TRIGGER_PATH + "thing_happened",
                    body={"trigger_identity": "x"}, on_response=responses.append)
        sim.run()
        assert responses[0].status == 401
        assert service.auth_failures == 1
        responses.clear()
        engine.post(service.address, TRIGGER_PATH + "thing_happened",
                    body={"trigger_identity": "x"},
                    headers={"IFTTT-Service-Key": "key-123"},
                    on_response=responses.append)
        sim.run()
        assert responses[0].ok

    def test_bearer_token_authentication(self, wired_service):
        sim, _, service, engine, _ = wired_service
        service.grant_token("tok-abc")
        responses = []
        engine.post(service.address, TRIGGER_PATH + "thing_happened",
                    body={"trigger_identity": "x"},
                    headers={"Authorization": "Bearer wrong"},
                    on_response=responses.append)
        sim.run()
        assert responses[0].status == 401
        responses.clear()
        engine.post(service.address, TRIGGER_PATH + "thing_happened",
                    body={"trigger_identity": "x"},
                    headers={"Authorization": "Bearer tok-abc"},
                    on_response=responses.append)
        sim.run()
        assert responses[0].ok

    def test_realtime_hint_sent_on_ingest(self, wired_service):
        sim, net, service, engine, _ = wired_service
        service.realtime = True
        service.published(engine.address, "key-1")
        hints = []
        engine.add_route("POST", "/ifttt/v1/webhooks/service/notify",
                         lambda req: hints.append(req.body) or {"status": "ok"})
        service.register_identity("thing_happened", "id-1", {})
        service.ingest_event("thing_happened", {"n": 1})
        sim.run()
        assert hints and hints[0]["data"][0]["trigger_identity"] == "id-1"
        assert service.realtime_hints_sent == 1

    def test_no_hint_when_not_realtime(self, wired_service):
        sim, _, service, engine, _ = wired_service
        service.published(engine.address, "key-1")
        service.register_identity("thing_happened", "id-1", {})
        service.ingest_event("thing_happened", {"n": 1})
        sim.run()
        assert service.realtime_hints_sent == 0

    def test_status_endpoint(self, wired_service):
        sim, _, service, engine, _ = wired_service
        responses = []
        engine.get(service.address, "/ifttt/v1/status", on_response=responses.append)
        sim.run()
        assert responses[0].body["service"] == "testsvc"
