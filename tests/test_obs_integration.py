"""End-to-end checks of the metrics pipeline on a real testbed run.

One §4-style measurement run must light up the poll, RTT, action, and
simulator metrics — and the live instrumentation must agree with the
:func:`~repro.obs.bridge.bridge_trace` fold of the very same run's
trace, record for record.
"""

import pytest

from repro.obs import bridge_trace
from repro.testbed.controller import TestController
from repro.testbed.testbed import Testbed, TestbedConfig


@pytest.fixture(scope="module")
def measured_testbed():
    """One A2 measurement run shared by every test in the module."""
    testbed = Testbed(TestbedConfig(seed=11)).build()
    controller = TestController(testbed)
    controller.install("A2")
    latencies = controller.measure_t2a("A2", runs=3, spacing=150.0)
    return testbed, latencies


class TestLiveMetrics:
    def test_run_produces_nonzero_poll_metrics(self, measured_testbed):
        testbed, _ = measured_testbed
        registry = testbed.metrics
        assert registry.total("engine.polls_sent") > 0
        assert registry.get("engine.poll_rtt_seconds").count > 0
        assert registry.get("engine.poll_batch_new").count > 0

    def test_actions_and_t2a_light_up(self, measured_testbed):
        testbed, latencies = measured_testbed
        registry = testbed.metrics
        dispatched = registry.total("engine.actions_dispatched")
        assert dispatched >= len(latencies) > 0
        t2a = registry.get("engine.t2a_seconds", service="philips_hue")
        assert t2a is not None and t2a.count == dispatched
        # T2A through the engine's clock must bracket the controller's
        # device-observed latencies (engine sees a slice of the full path).
        assert 0 < t2a.min <= max(latencies)

    def test_network_and_http_layers_observe_traffic(self, measured_testbed):
        testbed, _ = measured_testbed
        registry = testbed.metrics
        assert registry.total("net.messages_delivered") > 0
        assert registry.total("http.requests_issued") > 0
        delivery = registry.get("net.delivery_seconds")
        assert delivery is not None and delivery.count > 0

    def test_services_count_their_polls(self, measured_testbed):
        testbed, _ = measured_testbed
        registry = testbed.metrics
        assert registry.total("service.polls_served") == registry.total(
            "engine.polls_sent"
        )
        assert registry.get("service.poll_batch_size", service="wemo").count > 0

    def test_simulator_reports_progress(self, measured_testbed):
        testbed, _ = measured_testbed
        registry = testbed.metrics
        assert registry.value("sim.events_fired") > 0
        assert registry.value("sim.runs") > 0
        # The gauge is stamped at the end of the last run segment that
        # fired events, so it can trail sim.now by an idle tail.
        assert 0 < registry.value("sim.time_seconds") <= testbed.sim.now


class TestBridgeCrossCheck:
    def test_bridge_counters_match_live_and_trace(self, measured_testbed):
        testbed, _ = measured_testbed
        bridged = bridge_trace(testbed.trace)
        polls = len(testbed.trace.query(kind="engine_poll_sent"))
        assert polls > 0
        assert bridged.total("trace.records") == len(testbed.trace)
        assert (
            bridged.value("trace.records", kind="engine_poll_sent", source="engine")
            == polls
            == testbed.metrics.total("engine.polls_sent")
        )

    def test_bridge_rtts_equal_live_rtts(self, measured_testbed):
        # Both sides time the same send/response pairs off the same
        # simulated clock, so they must agree to the float bit.
        testbed, _ = measured_testbed
        bridged = bridge_trace(testbed.trace)
        for live_name, bridged_name in (
            ("engine.poll_rtt_seconds", "trace.poll_rtt_seconds"),
            ("engine.action_rtt_seconds", "trace.action_rtt_seconds"),
        ):
            live = testbed.metrics.get(live_name)
            folded = bridged.get(bridged_name)
            assert live.count == folded.count > 0
            assert live.total == pytest.approx(folded.total)


class TestDisabledMetrics:
    def test_testbed_runs_without_a_registry(self):
        testbed = Testbed(TestbedConfig(seed=11, metrics_enabled=False)).build()
        controller = TestController(testbed)
        controller.install("A2")
        testbed.run_for(600.0)
        assert testbed.metrics is None
        assert len(testbed.trace) > 0  # tracing is independent of metrics
