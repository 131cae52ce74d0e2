"""Tests for the device models (Hue, WeMo, Echo/Alexa, SmartThings, Nest)."""

import pytest

from repro.iot import (
    AlexaCloud,
    DeviceError,
    EchoDevice,
    GenericDevice,
    HueHub,
    HueLamp,
    NestThermostat,
    SmartThingsHub,
    WemoSwitch,
)
from repro.iot.registry import DEVICE_CATALOG
from repro.net import Address, FixedLatency, HttpNode, Network
from repro.simcore import Rng, Simulator, Trace


@pytest.fixture
def home():
    """A tiny home LAN: hub + lamp + switch + fixed 10 ms links."""
    sim = Simulator()
    net = Network(sim, Rng(11))
    trace = Trace()
    lamp = net.add_node(HueLamp(Address("lamp.home"), "lamp1", trace=trace))
    hub = net.add_node(HueHub(Address("hub.home"), trace=trace))
    switch = net.add_node(WemoSwitch(Address("wemo.home"), "wemo1", trace=trace))
    net.connect(lamp.address, hub.address, FixedLatency(0.01))
    net.connect(hub.address, switch.address, FixedLatency(0.01))
    hub.pair_lamp(lamp)
    return sim, net, trace, lamp, hub, switch


class TestHueLamp:
    def test_initial_state(self, home):
        _, _, _, lamp, _, _ = home
        assert lamp.get_state("on") is False
        assert lamp.get_state("color") == "white"

    def test_apply_command_changes_state(self, home):
        _, _, _, lamp, _, _ = home
        changed = lamp.apply_command({"on": True, "color": "blue"})
        assert changed == {"on": True, "color": "blue"}
        assert lamp.get_state("on") is True

    def test_idempotent_command_reports_no_change(self, home):
        _, _, _, lamp, _, _ = home
        lamp.apply_command({"on": True})
        assert lamp.apply_command({"on": True}) == {}
        assert lamp.actuations == 2  # commands counted even when state unchanged

    def test_invalid_color_rejected(self, home):
        _, _, _, lamp, _, _ = home
        with pytest.raises(DeviceError):
            lamp.apply_command({"color": "octarine"})

    def test_invalid_brightness_rejected(self, home):
        _, _, _, lamp, _, _ = home
        with pytest.raises(DeviceError):
            lamp.apply_command({"brightness": 300})

    def test_unknown_key_rejected(self, home):
        _, _, _, lamp, _, _ = home
        with pytest.raises(DeviceError):
            lamp.apply_command({"volume": 11})

    def test_event_log_and_trace(self, home):
        _, _, trace, lamp, _, _ = home
        lamp.apply_command({"on": True})
        assert len(lamp.events("state_changed")) == 1
        assert trace.query(kind="device_state_changed", source="lamp1")


class TestHueHub:
    def test_pairing_registers_lamp(self, home):
        _, _, _, _, hub, _ = home
        assert sorted(hub._lamps) == ["lamp1"]

    def test_zigbee_command_path(self, home):
        sim, _, _, lamp, hub, _ = home
        hub.command_lamp("lamp1", {"on": True})
        sim.run()
        assert lamp.get_state("on") is True

    def test_unknown_lamp_rejected(self, home):
        _, _, _, _, hub, _ = home
        with pytest.raises(DeviceError):
            hub.command_lamp("ghost", {"on": True})

    def test_rest_state_change(self, home):
        sim, net, _, lamp, hub, switch = home
        client = net.add_node(HttpNode(Address("client.home")))
        net.connect(client.address, hub.address, FixedLatency(0.01))
        got = []
        client.request(hub.address, "PUT", "/api/lights/lamp1/state",
                       body={"on": True}, on_response=got.append)
        sim.run()
        assert got[0].ok
        assert lamp.get_state("on") is True

    def test_rest_unknown_lamp_404(self, home):
        sim, net, _, _, hub, _ = home
        client = net.add_node(HttpNode(Address("client.home")))
        net.connect(client.address, hub.address, FixedLatency(0.01))
        got = []
        client.request(hub.address, "PUT", "/api/lights/ghost/state",
                       body={"on": True}, on_response=got.append)
        sim.run()
        assert got[0].status == 404

    def test_state_mirror_updates_on_event(self, home):
        sim, net, _, lamp, hub, _ = home
        hub.command_lamp("lamp1", {"on": True})
        sim.run()
        client = net.add_node(HttpNode(Address("c2.home")))
        net.connect(client.address, hub.address, FixedLatency(0.01))
        got = []
        client.get(hub.address, "/api/lights", on_response=got.append)
        sim.run()
        assert got[0].body["lights"]["lamp1"]["on"] is True

    def test_subscription_pushes_events(self, home):
        sim, net, _, lamp, hub, _ = home
        subscriber = net.add_node(HttpNode(Address("sub.home")))
        net.connect(subscriber.address, hub.address, FixedLatency(0.01))
        events = []
        subscriber.add_route("POST", "/events/hue", lambda req: events.append(req.body) or "ok")
        subscriber.post(hub.address, "/api/subscribe", body={"callback": "sub.home"})
        sim.run()
        hub.command_lamp("lamp1", {"on": True})
        sim.run()
        assert events and events[0]["device_id"] == "lamp1"


class TestWemoSwitch:
    def test_press_toggles(self, home):
        _, _, _, _, _, switch = home
        assert switch.press() is True
        assert switch.press() is False

    def test_set_binary_state_validates(self, home):
        _, _, _, _, _, switch = home
        with pytest.raises(DeviceError):
            switch.set_binary_state("on")

    def test_upnp_subscribe_and_notify(self, home):
        sim, net, _, _, hub, switch = home

        # the hub plays the subscriber role here via raw upnp messages
        class UpnpListener(HttpNode):
            def __init__(self, address):
                super().__init__(address)
                self.notifications = []

            def on_non_http_message(self, message):
                if message.payload.get("event"):
                    self.notifications.append(message.payload)

        listener = net.add_node(UpnpListener(Address("listener.home")))
        net.connect(listener.address, switch.address, FixedLatency(0.01))
        listener.send(switch.address, "upnp", {"type": "subscribe", "callback": "listener.home"})
        sim.run()
        switch.press()
        sim.run()
        assert listener.notifications
        assert listener.notifications[0]["state"]["on"] is True

    def test_upnp_set_and_get(self, home):
        sim, net, _, _, _, switch = home

        class Controller(HttpNode):
            def __init__(self, address):
                super().__init__(address)
                self.states = []

            def on_non_http_message(self, message):
                if message.payload.get("type") == "binary_state":
                    self.states.append(message.payload["on"])

        controller = net.add_node(Controller(Address("ctl.home")))
        net.connect(controller.address, switch.address, FixedLatency(0.01))
        controller.send(switch.address, "upnp", {"type": "set_binary_state", "on": True})
        sim.run()
        controller.send(switch.address, "upnp", {"type": "get_binary_state"})
        sim.run()
        assert controller.states == [True]


class TestAlexa:
    @pytest.fixture
    def alexa(self):
        sim = Simulator()
        net = Network(sim, Rng(12))
        cloud = net.add_node(AlexaCloud(Address("alexa.cloud")))
        echo = net.add_node(EchoDevice(Address("echo.home"), "echo1", cloud=cloud.address))
        net.connect(echo.address, cloud.address, FixedLatency(0.05))
        return sim, net, cloud, echo

    def test_trigger_phrase_parsing(self, alexa):
        sim, _, cloud, echo = alexa
        echo.hear("Alexa, trigger party time")
        sim.run()
        assert cloud.intent_log[0]["intent"] == "say_phrase"
        assert cloud.intent_log[0]["phrase"] == "party time"

    def test_todo_and_shopping_lists(self, alexa):
        sim, _, cloud, echo = alexa
        echo.hear("Alexa, add milk to my shopping list")
        echo.hear("Alexa, add taxes to my to-do list")
        sim.run()
        assert cloud.shopping_list == ["milk"]
        assert cloud.todo_list == ["taxes"]

    def test_song_intent(self, alexa):
        sim, _, cloud, echo = alexa
        echo.hear("Alexa, play bohemian rhapsody")
        sim.run()
        assert cloud.intent_log[0] ["intent"] == "song_played"

    def test_unrecognized_utterance(self, alexa):
        sim, _, cloud, echo = alexa
        echo.hear("Alexa, fold my laundry")
        sim.run()
        assert cloud.intent_log[0]["intent"] == "unrecognized"

    def test_consumer_push(self, alexa):
        sim, net, cloud, echo = alexa
        consumer = net.add_node(HttpNode(Address("svc.cloud")))
        net.connect(consumer.address, cloud.address, FixedLatency(0.01))
        intents = []
        consumer.add_route("POST", "/events/alexa", lambda req: intents.append(req.body) or "ok")
        consumer.post(cloud.address, "/v1/consumers", body={"callback": "svc.cloud"})
        sim.run()
        echo.hear("Alexa, trigger lights")
        sim.run()
        assert intents and intents[0]["intent"] == "say_phrase"

    def test_duplicate_consumer_registration(self, alexa):
        sim, net, cloud, _ = alexa
        consumer = net.add_node(HttpNode(Address("svc.cloud")))
        net.connect(consumer.address, cloud.address, FixedLatency(0.01))
        consumer.post(cloud.address, "/v1/consumers", body={"callback": "svc.cloud"})
        consumer.post(cloud.address, "/v1/consumers", body={"callback": "svc.cloud"})
        sim.run()
        assert len(cloud._consumers) == 1


class TestSmartThings:
    @pytest.fixture
    def st(self):
        sim = Simulator()
        net = Network(sim, Rng(13))
        hub = net.add_node(SmartThingsHub(Address("st.home")))
        lock = net.add_node(GenericDevice(Address("lock.home"), "lock1", "lock"))
        net.connect(lock.address, hub.address, FixedLatency(0.01))
        hub.pair_device(lock)
        return sim, net, hub, lock

    def test_unknown_capability_rejected(self):
        with pytest.raises(DeviceError):
            GenericDevice(Address("x.home"), "x", "teleport")

    def test_actuation_via_hub(self, st):
        sim, _, hub, lock = st
        hub.command_device("lock1", True)
        sim.run()
        assert lock.get_state("locked") is True

    def test_actuate_validates_type(self, st):
        _, _, _, lock = st
        with pytest.raises(DeviceError):
            lock.actuate("locked")

    def test_temperature_capability_coerces_float(self):
        sensor = GenericDevice(Address("t.home"), "t1", "temperature")
        sensor.network = None
        sensor.actuate(21)
        assert sensor.get_state("temperature") == 21.0

    def test_hub_rest_and_subscription(self, st):
        sim, net, hub, lock = st
        subscriber = net.add_node(HttpNode(Address("sub.home")))
        net.connect(subscriber.address, hub.address, FixedLatency(0.01))
        events = []
        subscriber.add_route("POST", "/events/smartthings", lambda req: events.append(req.body) or "ok")
        subscriber.post(hub.address, "/api/subscribe", body={"callback": "sub.home"})
        subscriber.post(hub.address, "/api/devices/lock1/command", body={"value": True})
        sim.run()
        assert lock.get_state("locked") is True
        assert events and events[0]["device_id"] == "lock1"


class TestNest:
    def test_target_clamping(self):
        nest = NestThermostat(Address("nest.home"), "nest1")
        with pytest.raises(DeviceError):
            nest.set_target(50.0)
        with pytest.raises(DeviceError):
            nest.set_target(0.0)

    def test_cloud_push_on_sense(self):
        sim = Simulator()
        net = Network(sim, Rng(14))
        nest = net.add_node(NestThermostat(Address("nest.home"), "nest1"))

        class CloudStub(HttpNode):
            def __init__(self, address):
                super().__init__(address)
                self.events = []

            def on_non_http_message(self, message):
                if message.payload.get("event"):
                    self.events.append(message.payload)

        cloud = net.add_node(CloudStub(Address("nest.cloud")))
        net.connect(nest.address, cloud.address, FixedLatency(0.05))
        nest.subscribe(cloud.address)
        nest.sense_ambient(25.0)
        sim.run()
        assert cloud.events[0]["data"]["key"] == "ambient_c"


class TestDeviceCatalog:
    def test_more_than_twenty_smarthome_types(self):
        smarthome = [d for d in DEVICE_CATALOG if d.category == 1]
        assert len(smarthome) > 20  # §1: "more than 20 types"

    def test_paper_examples_present(self):
        slugs = {d.slug for d in DEVICE_CATALOG}
        for expected in ("light", "camera", "thermostat", "lock", "garage_door",
                         "fridge", "sprinkler", "doorbell", "egg_tray", "washer"):
            assert expected in slugs

    def test_all_categories_iot(self):
        assert {d.category for d in DEVICE_CATALOG} <= {1, 2, 3, 4}
