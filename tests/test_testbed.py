"""Integration tests for the Figure 1 testbed and the test controller."""

import pytest

from repro.engine import EngineConfig, FixedPollingPolicy
from repro.testbed import Testbed, TestbedConfig, TestController
from repro.testbed.applets import APPLET_SUITE, E2, OFFICIAL, applet_spec
from repro.testbed.testbed import TEST_USER


@pytest.fixture
def fast_testbed():
    """Testbed with a 2 s fixed poller so experiments complete quickly."""
    config = TestbedConfig(
        seed=77,
        engine_config=EngineConfig(poll_policy=FixedPollingPolicy(2.0), initial_poll_delay=0.5),
    )
    return Testbed(config).build()


class TestBuild:
    def test_build_is_idempotent(self, fast_testbed):
        before = len(fast_testbed.network._nodes)
        fast_testbed.build()
        assert len(fast_testbed.network._nodes) == before

    def test_all_services_published(self, fast_testbed):
        slugs = set(fast_testbed.engine.published_slugs)
        assert {"philips_hue", "wemo", "amazon_alexa", "gmail", "google_sheets",
                "google_drive", "nest_thermostat", "smartthings", "weather",
                "our_service"} <= slugs

    def test_user_connected_to_every_service(self, fast_testbed):
        for service in fast_testbed.all_services():
            assert fast_testbed.engine.tokens.get((TEST_USER, service.slug))

    def test_topology_reaches_devices(self, fast_testbed):
        net = fast_testbed.network
        path = net.route(fast_testbed.engine.address, fast_testbed.hue_hub.address)
        assert len(path) >= 3  # engine - internet - gateway - hub


class TestAppletSuite:
    def test_seven_applets_defined(self):
        assert sorted(APPLET_SUITE) == ["A1", "A2", "A3", "A4", "A5", "A6", "A7"]

    def test_groups_match_paper(self):
        assert {APPLET_SUITE[k].group for k in ("A1", "A2", "A3", "A4")} == {"A1-A4"}
        assert {APPLET_SUITE[k].group for k in ("A5", "A6", "A7")} == {"A5-A7"}

    def test_flows_match_table4(self):
        assert APPLET_SUITE["A1"].flow == "IoT -> WebApp"
        assert APPLET_SUITE["A2"].flow == "IoT -> IoT"
        assert APPLET_SUITE["A3"].flow == "WebApp -> IoT"
        assert APPLET_SUITE["A4"].flow == "WebApp -> WebApp"

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            applet_spec("A9")

    def test_missing_variant_rejected(self):
        with pytest.raises(KeyError):
            applet_spec("A5").refs(E2)


@pytest.mark.parametrize("key", ["A1", "A2", "A3", "A4", "A5", "A6", "A7"])
def test_each_applet_executes_end_to_end(fast_testbed, key):
    """Every Table 4 applet completes trigger -> action on official services."""
    controller = TestController(fast_testbed, timeout=120.0)
    controller.install(key, variant=OFFICIAL)
    fast_testbed.run_for(5.0)
    measurement = controller.run_once(applet_spec(key))
    assert measurement.completed, f"{key} never executed its action"
    assert measurement.latency is not None and measurement.latency > 0


class TestControllerMeasurement:
    def test_measure_t2a_returns_latencies(self, fast_testbed):
        controller = TestController(fast_testbed, timeout=120.0)
        latencies = controller.measure_t2a("A2", runs=3, spacing=10.0)
        assert len(latencies) == 3
        assert all(lat > 0 for lat in latencies)
        assert all(m.completed for m in controller.measurements)

    def test_e2_variant_uses_custom_service(self, fast_testbed):
        controller = TestController(fast_testbed, timeout=120.0)
        controller.install("A2", variant=E2)
        fast_testbed.run_for(5.0)
        measurement = controller.run_once(applet_spec("A2"))
        assert measurement.completed
        assert fast_testbed.custom_service.polls_served > 0
        assert fast_testbed.custom_service.actions_executed > 0

    def test_a2_action_goes_through_proxy_in_e2(self, fast_testbed):
        controller = TestController(fast_testbed, timeout=120.0)
        controller.install("A2", variant=E2)
        fast_testbed.run_for(5.0)
        controller.run_once(applet_spec("A2"))
        assert fast_testbed.proxy.commands_executed >= 1

    def test_a4_saves_attachment_name(self, fast_testbed):
        controller = TestController(fast_testbed, timeout=120.0)
        controller.install("A4", variant=OFFICIAL)
        fast_testbed.run_for(5.0)
        measurement = controller.run_once(applet_spec("A4"))
        assert measurement.completed
        names = [f.name for f in fast_testbed.gdrive.files("me")]
        assert "report.pdf" in names

    def test_a7_logs_song_title(self, fast_testbed):
        controller = TestController(fast_testbed, timeout=120.0)
        controller.install("A7", variant=OFFICIAL)
        fast_testbed.run_for(5.0)
        controller.run_once(applet_spec("A7"))
        rows = fast_testbed.sheets.rows("songs")
        assert rows and "experiment song" in rows[0][0]
