"""Direct tests for the official vendor services (trigger ingestion and
action execution against real device/web-app nodes)."""

import pytest

from repro.iot import AlexaCloud, EchoDevice, GenericDevice, HueHub, HueLamp, NestThermostat, SmartThingsHub, WemoSwitch
from repro.net import Address, FixedLatency, Network
from repro.services import (
    OfficialAlexaService,
    OfficialDriveService,
    OfficialGmailService,
    OfficialHueService,
    OfficialNestService,
    OfficialSheetsService,
    OfficialSmartThingsService,
    OfficialWeatherService,
    OfficialWemoService,
)
from repro.simcore import Rng, Simulator
from repro.webapps import Gmail, GoogleDrive, GoogleSheets, WeatherService


@pytest.fixture
def world():
    sim = Simulator()
    net = Network(sim, Rng(41))
    return sim, net


def link(net, a, b):
    net.connect(a.address, b.address, FixedLatency(0.01))


class TestOfficialHue:
    @pytest.fixture
    def hue(self, world):
        sim, net = world
        lamp = net.add_node(HueLamp(Address("lamp.home"), "lamp1"))
        hub = net.add_node(HueHub(Address("hub.home")))
        service = net.add_node(OfficialHueService(Address("hue.cloud"), hub=hub.address))
        link(net, lamp, hub)
        link(net, hub, service)
        hub.pair_lamp(lamp)
        service.connect()
        sim.run()
        return sim, lamp, hub, service

    def test_turn_on_action(self, hue):
        sim, lamp, _, service = hue
        service.action("turn_on_lights").executor({"lamp_id": "lamp1"})
        sim.run()
        assert lamp.get_state("on") is True

    def test_change_color_action(self, hue):
        sim, lamp, _, service = hue
        service.action("change_color").executor({"lamp_id": "lamp1", "color": "blue"})
        sim.run()
        assert lamp.get_state("color") == "blue"
        assert lamp.get_state("on") is True

    def test_color_loop_action(self, hue):
        sim, lamp, _, service = hue
        service.action("turn_on_color_loop").executor({"lamp_id": "lamp1"})
        sim.run()
        assert lamp.get_state("effect") == "colorloop"

    def test_missing_lamp_id_rejected(self, hue):
        _, _, _, service = hue
        with pytest.raises(ValueError):
            service.action("turn_on_lights").executor({})

    def test_hub_event_feeds_triggers(self, hue):
        sim, lamp, hub, service = hue
        service.register_identity("light_turned_on", "id-on", {"lamp_id": "lamp1"})
        service.register_identity("light_turned_off", "id-off", {})
        hub.command_lamp("lamp1", {"on": True})
        sim.run()
        assert len(service.buffer_for("id-on")) == 1
        assert len(service.buffer_for("id-off")) == 0

    def test_lamp_filter_respected(self, hue):
        sim, lamp, hub, service = hue
        service.register_identity("light_turned_on", "id-other", {"lamp_id": "lamp9"})
        hub.command_lamp("lamp1", {"on": True})
        sim.run()
        assert len(service.buffer_for("id-other")) == 0


class TestOfficialWemo:
    @pytest.fixture
    def wemo(self, world):
        sim, net = world
        switch = net.add_node(WemoSwitch(Address("wemo.home"), "wemo1"))
        service = net.add_node(OfficialWemoService(Address("wemo.cloud")))
        link(net, switch, service)
        service.connect_switch("wemo1", switch.address)
        sim.run()
        return sim, switch, service

    def test_activate_action(self, wemo):
        sim, switch, service = wemo
        service.action("activate_switch").executor({"device_id": "wemo1"})
        sim.run()
        assert switch.get_state("on") is True

    def test_unknown_switch_rejected(self, wemo):
        _, _, service = wemo
        with pytest.raises(ValueError):
            service.action("activate_switch").executor({"device_id": "ghost"})

    def test_physical_press_feeds_trigger(self, wemo):
        sim, switch, service = wemo
        service.register_identity("switch_activated", "id-1", {"device_id": "wemo1"})
        switch.press()
        sim.run()
        assert len(service.buffer_for("id-1")) == 1
        switch.press()  # off: not a switch_activated event
        sim.run()
        assert len(service.buffer_for("id-1")) == 1


class TestOfficialAlexa:
    def test_intents_feed_triggers_and_hints(self, world):
        sim, net = world
        cloud = net.add_node(AlexaCloud(Address("alexa.cloud")))
        echo = net.add_node(EchoDevice(Address("echo.home"), "echo1", cloud=cloud.address))
        service = net.add_node(OfficialAlexaService(Address("svc.cloud"), alexa_cloud=cloud.address))
        link(net, echo, cloud)
        link(net, cloud, service)
        service.connect()
        sim.run()
        assert service.realtime  # Alexa is realtime-capable
        service.register_identity("say_phrase", "id-p", {"phrase": "party"})
        service.register_identity("song_played", "id-s", {})
        echo.hear("Alexa, trigger party")
        echo.hear("Alexa, play a song")
        sim.run()
        assert len(service.buffer_for("id-p")) == 1
        assert len(service.buffer_for("id-s")) == 1

    def test_phrase_field_filters(self, world):
        sim, net = world
        cloud = net.add_node(AlexaCloud(Address("alexa.cloud")))
        service = net.add_node(OfficialAlexaService(Address("svc.cloud"), alexa_cloud=cloud.address))
        link(net, cloud, service)
        service.connect()
        sim.run()
        service.register_identity("say_phrase", "id-x", {"phrase": "other"})
        service.ingest_event("say_phrase", {"intent": "say_phrase", "phrase": "party"})
        assert len(service.buffer_for("id-x")) == 0


class TestOfficialGmail:
    @pytest.fixture
    def gm(self, world):
        sim, net = world
        gmail = net.add_node(Gmail(Address("gmail.cloud"), service_time=0.0))
        service = net.add_node(OfficialGmailService(
            Address("svc.cloud"), gmail=gmail.address, user_email="me@g", poll_interval=5.0))
        link(net, gmail, service)
        service.start_polling()
        sim.run_until(1.0)
        return sim, gmail, service

    def test_mailbox_polling_feeds_triggers(self, gm):
        sim, gmail, service = gm
        service.register_identity("new_email", "id-m", {})
        service.register_identity("new_attachment", "id-a", {})
        gmail.deliver_email("me@g", "s@x", "plain mail")
        gmail.deliver_email("me@g", "s@x", "with file", attachments=("f.txt",))
        sim.run_until(12.0)
        assert len(service.buffer_for("id-m")) == 2
        assert len(service.buffer_for("id-a")) == 1
        attachment_event = service.buffer_for("id-a").fetch(1)[0]
        assert attachment_event.ingredients["attachment"] == "f.txt"

    def test_start_polling_idempotent(self, gm):
        sim, gmail, service = gm
        service.start_polling()
        sim.run_until(21.0)
        # One loop: mailbox GETs at t = 0, 5, 10, 15, 20.
        assert gmail.requests_served == 5

    def test_send_email_action(self, gm):
        sim, gmail, service = gm
        service.action("send_email").executor({"to": "you@g", "subject": "hi"})
        sim.run_until(sim.now + 1.0)
        assert gmail.inbox("you@g")[0].subject == "hi"


class TestOfficialSheetsAndDrive:
    def test_add_row_and_new_row_trigger(self, world):
        sim, net = world
        sheets = net.add_node(GoogleSheets(Address("sheets.cloud"), service_time=0.0))
        service = net.add_node(OfficialSheetsService(
            Address("svc.cloud"), sheets=sheets.address, poll_interval=5.0))
        link(net, sheets, service)
        service.start_polling()
        sim.run_until(1.0)
        service.register_identity("new_row", "id-r", {"sheet": "log"})
        service.action("add_row").executor({"sheet": "log", "row": "hello"})
        sim.run_until(12.0)
        assert sheets.rows("log") == [["hello"]]
        assert len(service.buffer_for("id-r")) == 1

    def test_row_count_query(self, world):
        sim, net = world
        sheets = net.add_node(GoogleSheets(Address("sheets.cloud"), service_time=0.0))
        service = net.add_node(OfficialSheetsService(
            Address("svc.cloud"), sheets=sheets.address, poll_interval=5.0))
        link(net, sheets, service)
        service.start_polling()
        sim.run_until(1.0)
        sheets.append_row("log", ["a"])
        sheets.append_row("log", ["b"])
        sim.run_until(12.0)
        row_count = service._queries["row_count"].executor
        assert row_count({"sheet": "log"}) == [{"sheet": "log", "rows": 2}]
        assert row_count({"sheet": "empty"}) == [{"sheet": "empty", "rows": 0}]

    def test_drive_upload_action(self, world):
        sim, net = world
        drive = net.add_node(GoogleDrive(Address("drive.cloud"), service_time=0.0))
        service = net.add_node(OfficialDriveService(Address("svc.cloud"), drive=drive.address))
        link(net, drive, service)
        service.action("upload_file").executor({"user": "me", "name": "x.pdf"})
        sim.run()
        assert drive.files("me")[0].name == "x.pdf"


class TestOfficialNest:
    @pytest.fixture
    def nest_world(self, world):
        sim, net = world
        service = net.add_node(OfficialNestService(Address("svc.cloud")))
        nest = net.add_node(NestThermostat(Address("nest.home"), "nest1", cloud=service.address))
        link(net, nest, service)
        service.connect_thermostat("nest1", nest.address)
        return sim, nest, service

    def test_set_temperature_action(self, nest_world):
        sim, nest, service = nest_world
        service.action("set_temperature").executor({"device_id": "nest1", "target_c": 25.0})
        sim.run()
        assert nest.get_state("target_c") == 25.0

    def test_unknown_thermostat_rejected(self, nest_world):
        _, _, service = nest_world
        with pytest.raises(ValueError):
            service.action("set_temperature").executor({"device_id": "ghost"})

    def test_temperature_threshold_triggers(self, nest_world):
        sim, nest, service = nest_world
        service.register_identity("temperature_rises_above", "id-hot", {"threshold_c": 26.0})
        service.register_identity("temperature_drops_below", "id-cold", {"threshold_c": 15.0})
        nest.sense_ambient(30.0)
        sim.run()
        assert len(service.buffer_for("id-hot")) == 1
        assert len(service.buffer_for("id-cold")) == 0
        nest.sense_ambient(10.0)
        sim.run()
        assert len(service.buffer_for("id-cold")) == 1


class TestOfficialSmartThings:
    def test_hub_roundtrip(self, world):
        sim, net = world
        hub = net.add_node(SmartThingsHub(Address("hub.home")))
        lock = net.add_node(GenericDevice(Address("lock.home"), "lock1", "lock"))
        service = net.add_node(OfficialSmartThingsService(Address("svc.cloud"), hub=hub.address))
        link(net, lock, hub)
        link(net, hub, service)
        hub.pair_device(lock)
        service.connect()
        sim.run()
        service.register_identity("device_state_changed", "id-d", {"device_id": "lock1"})
        service.action("control_device").executor({"device_id": "lock1", "value": True})
        sim.run()
        assert lock.get_state("locked") is True
        assert len(service.buffer_for("id-d")) == 1


class TestOfficialWeather:
    def test_rain_trigger_and_conditions_query(self, world):
        sim, net = world
        weather = net.add_node(WeatherService(Address("weather.cloud"), service_time=0.0))
        service = net.add_node(OfficialWeatherService(
            Address("svc.cloud"), weather=weather.address, poll_interval=5.0))
        link(net, weather, service)
        service.start_polling()
        sim.run_until(1.0)
        service.register_identity("rain_starts", "id-rain", {})
        service.register_identity("condition_changes", "id-any", {})
        weather.set_conditions("home", "clear")
        sim.run_until(8.0)
        weather.set_conditions("home", "rain")
        sim.run_until(15.0)
        assert len(service.buffer_for("id-rain")) == 1
        assert len(service.buffer_for("id-any")) == 2
        rows = service._queries["current_conditions"].executor({"location": "home"})
        assert rows == [{"location": "home", "condition": "rain"}]
