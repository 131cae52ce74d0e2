"""Direct tests for "Our Service" (the custom partner service)."""

import pytest

from repro.iot import AlexaCloud, HueHub, HueLamp, LocalProxy, WemoSwitch
from repro.net import Address, FixedLatency, Network
from repro.services import CustomService
from repro.simcore import Rng, Simulator, Trace
from repro.webapps import Gmail, GoogleDrive, GoogleSheets


@pytest.fixture
def home():
    """Custom service + proxy + devices + web apps on one network."""
    sim = Simulator()
    net = Network(sim, Rng(47))
    trace = Trace()
    lamp = net.add_node(HueLamp(Address("lamp.home"), "lamp1", trace=trace))
    hub = net.add_node(HueHub(Address("hub.home"), trace=trace))
    switch = net.add_node(WemoSwitch(Address("wemo.home"), "wemo1", trace=trace))
    service = net.add_node(CustomService(Address("our.cloud"), trace=trace))
    proxy = net.add_node(LocalProxy(Address("proxy.home"),
                                    service_server=service.address, trace=trace))
    gmail = net.add_node(Gmail(Address("gmail.cloud"), service_time=0.0))
    sheets = net.add_node(GoogleSheets(Address("sheets.cloud"), service_time=0.0))
    drive = net.add_node(GoogleDrive(Address("drive.cloud"), service_time=0.0))
    for a, b in ((lamp, hub), (hub, proxy), (switch, proxy), (proxy, service),
                 (service, gmail), (service, sheets), (service, drive)):
        net.connect(a.address, b.address, FixedLatency(0.01))
    hub.pair_lamp(lamp)
    proxy.bridge_hue_hub(hub.address)
    proxy.bridge_wemo("wemo1", switch.address)
    service.proxy = proxy.address
    service.connect_gmail(gmail.address, "me@g", poll_interval=5.0)
    service.connect_sheets(sheets.address)
    service.connect_drive(drive.address)
    # the gmail poll loop runs forever: always advance by bounded time
    sim.run_until(1.0)
    return sim, trace, lamp, hub, switch, proxy, service, gmail, sheets, drive


class TestProxyEventPath:
    def test_wemo_press_reaches_service(self, home):
        sim, _, _, _, switch, proxy, service, _, _, _ = home
        service.register_identity("wemo_activated", "id-w", {})
        switch.press()
        sim.run_until(sim.now + 5.0)
        assert proxy.events_forwarded >= 1
        assert len(service.buffer_for("id-w")) == 1

    def test_proxy_confirmation_traced(self, home):
        sim, trace, _, _, switch, _, service, _, _, _ = home
        switch.press()
        sim.run_until(sim.now + 5.0)
        assert trace.query(kind="proxy_observed_event")
        assert trace.query(kind="proxy_confirmed")

    def test_hue_event_via_proxy(self, home):
        sim, _, lamp, hub, _, _, service, _, _, _ = home
        service.register_identity("hue_light_on", "id-h", {})
        hub.command_lamp("lamp1", {"on": True})
        sim.run_until(sim.now + 5.0)
        assert len(service.buffer_for("id-h")) == 1


class TestProxyActionPath:
    def test_turn_on_hue_via_proxy(self, home):
        sim, _, lamp, _, _, _, service, _, _, _ = home
        service.action("turn_on_hue").executor({"lamp_id": "lamp1"})
        sim.run_until(sim.now + 5.0)
        assert lamp.get_state("on") is True

    def test_blink_with_color_field(self, home):
        sim, _, lamp, _, _, _, service, _, _, _ = home
        service.action("blink_hue").executor({"lamp_id": "lamp1", "color": "red"})
        sim.run_until(sim.now + 5.0)
        assert lamp.get_state("effect") == "blink"
        assert lamp.get_state("color") == "red"

    def test_activate_wemo_via_proxy(self, home):
        sim, _, _, _, switch, _, service, _, _, _ = home
        service.action("activate_wemo").executor({"device_id": "wemo1"})
        sim.run_until(sim.now + 5.0)
        assert switch.get_state("on") is True

    def test_missing_proxy_raises(self):
        service = CustomService(Address("lonely.cloud"))
        with pytest.raises(RuntimeError):
            service.action("turn_on_hue").executor({"lamp_id": "l"})


class TestWebAppPaths:
    def test_gmail_polling(self, home):
        sim, _, _, _, _, _, service, gmail, _, _ = home
        service.register_identity("gmail_new_email", "id-m", {})
        gmail.deliver_email("me@g", "s@x", "subject one")
        sim.run_until(sim.now + 10.0)
        assert len(service.buffer_for("id-m")) == 1

    def test_add_row_action(self, home):
        sim, _, _, _, _, _, service, _, sheets, _ = home
        service.action("add_row").executor({"sheet": "s", "row": "data"})
        sim.run_until(sim.now + 5.0)
        assert sheets.rows("s") == [["data"]]

    def test_upload_action(self, home):
        sim, _, _, _, _, _, service, _, _, drive = home
        service.action("upload_file").executor({"user": "me", "name": "f.bin"})
        sim.run_until(sim.now + 5.0)
        assert drive.files("me")[0].name == "f.bin"

    def test_send_email_action(self, home):
        sim, _, _, _, _, _, service, gmail, _, _ = home
        service.action("send_email").executor({"to": "you@g", "subject": "yo"})
        sim.run_until(sim.now + 5.0)
        assert gmail.inbox("you@g")[0].subject == "yo"

    def test_unwired_webapp_actions_raise(self):
        # A web-app action is declared by its connect_* call, not before.
        service = CustomService(Address("lonely.cloud"))
        for slug in ("add_row", "upload_file", "send_email"):
            assert slug not in service.action_slugs
            with pytest.raises(KeyError):
                service.action(slug)


class TestHostedAlexa:
    def test_hosted_alexa_intents(self, home):
        sim, _, _, _, _, _, service, _, _, _ = home
        net = service.network
        cloud = net.add_node(AlexaCloud(Address("alexa.cloud")))
        net.connect(cloud.address, service.address, FixedLatency(0.01))
        service.host_alexa(cloud.address)
        sim.run_until(sim.now + 5.0)
        service.register_identity("alexa_phrase", "id-p", {})
        service.register_identity("alexa_song_played", "id-s", {})
        # simulate a parsed intent push
        service.ingest_event("alexa_phrase", {"intent": "say_phrase", "phrase": "x"})
        service.ingest_event("alexa_song_played", {"intent": "song_played", "song": "y"})
        assert len(service.buffer_for("id-p")) == 1
        assert len(service.buffer_for("id-s")) == 1
