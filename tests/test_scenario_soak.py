"""Soak test: a realistic household day against a loaded engine.

Ten applets, a full simulated day of diurnal device/webapp activity, and
a pile of global invariants — the closest thing to running the platform
"in production" that a deterministic simulation can offer.
"""

import pytest

from repro.engine import ActionRef, TriggerRef
from repro.testbed import Testbed, TestbedConfig, TestController
from repro.testbed.scenario_gen import DAY, HOUR, DailyScenario, diurnal_rate
from repro.testbed.testbed import TEST_USER


class TestDiurnalRate:
    def test_evening_peak_beats_night(self):
        night = diurnal_rate(3 * HOUR, base_per_hour=2.0)
        evening = diurnal_rate(19.5 * HOUR, base_per_hour=2.0)
        assert evening > 3 * night

    def test_rate_periodic_over_days(self):
        assert diurnal_rate(10 * HOUR, 2.0) == pytest.approx(
            diurnal_rate(10 * HOUR + DAY, 2.0)
        )

    def test_rate_positive_everywhere(self):
        assert all(diurnal_rate(h * HOUR, 1.0) > 0 for h in range(24))


@pytest.fixture(scope="module")
def soaked():
    """A testbed after one simulated day of scenario-driven activity."""
    testbed = Testbed(TestbedConfig(seed=123)).build()
    controller = TestController(testbed)
    engine = testbed.engine
    for key in ("A1", "A2", "A3", "A4", "A5", "A6", "A7"):
        controller.install(key)
    engine.install_applet(
        user=TEST_USER, name="rain -> blue light",
        trigger=TriggerRef("weather", "rain_starts"),
        action=ActionRef("philips_hue", "change_color", {"lamp_id": "lamp1", "color": "blue"}),
    )
    engine.install_applet(
        user=TEST_USER, name="boss email -> notify sheet",
        trigger=TriggerRef("gmail", "new_email"),
        action=ActionRef("google_sheets", "add_row", {"sheet": "mail_log", "row": "{{from}}: {{subject}}"}),
        filter_code="trigger.from contains 'boss'",
    )
    engine.install_applet(
        user=TEST_USER, name="hot -> cool down",
        trigger=TriggerRef("nest_thermostat", "temperature_rises_above", {"threshold_c": 23.5}),
        action=ActionRef("nest_thermostat", "set_temperature", {"device_id": "nest1", "target_c": 20.5}),
    )
    scenario = DailyScenario(testbed, seed=9).start()
    testbed.run_for(DAY)
    scenario.stop()
    return testbed, scenario, engine


class TestSoak:
    def test_scenario_produced_activity(self, soaked):
        _, scenario, _ = soaked
        stats = scenario.stats
        assert stats.switch_presses > 5
        assert stats.voice_commands > 10
        assert stats.emails > 20
        assert stats.temperature_updates > 80

    def test_engine_executed_many_actions(self, soaked):
        _, _, engine = soaked
        assert engine.actions_dispatched > 50
        assert engine.polls_sent > 1000

    def test_counter_coherence(self, soaked):
        testbed, _, engine = soaked
        sent = len(testbed.trace.query(kind="engine_action_sent"))
        assert sent == engine.actions_dispatched
        polls = len(testbed.trace.query(kind="engine_poll_sent"))
        assert polls == engine.polls_sent
        # every poll response corresponds to a poll (minus in-flight at cutoff)
        responses = len(testbed.trace.query(kind="engine_poll_response"))
        assert 0 <= polls - responses <= len(engine.applets)

    def test_filter_gated_the_mail_log(self, soaked):
        testbed, scenario, engine = soaked
        rows = testbed.sheets.rows("mail_log")
        assert engine.filter_skips > 0
        assert all(cells[0].startswith("boss@corp") for cells in rows)
        # some boss emails must have arrived over a whole day
        assert rows

    def test_thermostat_feedback_applet_regulates(self, soaked):
        testbed, _, _ = soaked
        # the cool-down applet must have fired at least once on a warm
        # afternoon and pushed the target down
        set_points = [
            rec for rec in testbed.trace.query(kind="device_state_changed", source="nest1")
            if rec.get("key") == "target_c" and rec.get("value") == 20.5
        ]
        assert set_points

    def test_no_action_failures(self, soaked):
        _, _, engine = soaked
        assert engine.action_failures == 0
        assert engine.poll_failures == 0

    def test_alexa_usage_fast_all_day(self, soaked):
        testbed, _, _ = soaked
        # every honoured realtime hint led to a prompt poll; spot-check
        # that hints were flowing all day
        hints = testbed.trace.query(kind="engine_realtime_hint", honoured=True)
        assert len(hints) > 10
        spread = hints[-1].time - hints[0].time
        assert spread > 12 * HOUR


def _scenario_run(duration: float, trace_max_records=None) -> Testbed:
    """A fixed-seed scenario run, optionally with a bounded trace."""
    testbed = Testbed(
        TestbedConfig(seed=123, trace_max_records=trace_max_records)
    ).build()
    controller = TestController(testbed)
    for key in ("A1", "A2", "A3"):
        controller.install(key)
    scenario = DailyScenario(testbed, seed=9).start()
    testbed.run_for(duration)
    scenario.stop()
    return testbed


class TestBoundedTrace:
    """Regression: soak runs must be able to cap trace memory without
    perturbing the §4 statistics computed over the retained window."""

    DURATION = 6 * HOUR
    CAP = 400

    @pytest.fixture(scope="class")
    def runs(self):
        unbounded = _scenario_run(self.DURATION)
        bounded = _scenario_run(self.DURATION, trace_max_records=self.CAP)
        assert len(unbounded.trace) > self.CAP  # the cap must actually bite
        return unbounded, bounded

    def test_cap_validation(self):
        from repro.simcore.trace import Trace

        with pytest.raises(ValueError):
            Trace(max_records=0)

    @staticmethod
    def _key(rec):
        # event ids included: each world mints its own from 1
        return (rec.time, rec.source, rec.kind, rec.detail)

    def test_bounded_trace_is_exact_suffix_of_unbounded(self, runs):
        unbounded, bounded = runs
        assert len(bounded.trace) == self.CAP
        tail = list(unbounded.trace)[-self.CAP:]
        assert [self._key(r) for r in bounded.trace] == [self._key(r) for r in tail]

    def test_eviction_accounting(self, runs):
        unbounded, bounded = runs
        assert bounded.trace.total_recorded == unbounded.trace.total_recorded
        assert bounded.trace.dropped == bounded.trace.total_recorded - self.CAP
        assert unbounded.trace.dropped == 0

    def test_windowed_latency_stats_preserved(self, runs):
        # §4 poll statistics over the retained window must match what the
        # unbounded trace reports for the same window.
        from repro.obs import bridge_trace

        unbounded, bounded = runs
        window_start = bounded.trace[0].time
        full = bridge_trace(unbounded.trace)
        windowed = bridge_trace(bounded.trace)
        # Poll counts over the window agree exactly.
        assert windowed.value(
            "trace.records", kind="engine_poll_sent", source="engine"
        ) == len(unbounded.trace.query(kind="engine_poll_sent", since=window_start))
        # And the RTT landmarks from the window are drawn from the same
        # population as the full run's (identical simulated machinery).
        full_rtt = full.get("trace.poll_rtt_seconds")
        window_rtt = windowed.get("trace.poll_rtt_seconds")
        assert window_rtt.count > 0
        assert full_rtt.min <= window_rtt.min
        assert window_rtt.max <= full_rtt.max
