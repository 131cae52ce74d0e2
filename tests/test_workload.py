"""Tests for the fleet workload substrate."""

import pytest

from repro.testbed.workload import FleetResult, run_fleet_experiment


class TestFleetResult:
    def _result(self, poll_times):
        return FleetResult(n_applets=1, publications=1, actions_executed=0,
                           latencies=[], poll_times=poll_times)

    def test_peak_window_counting(self):
        result = self._result([0.0, 0.2, 0.9, 5.0, 5.1])
        assert result.peak_polls_per_second(window=1.0) == 3

    def test_peak_empty(self):
        assert self._result([]).peak_polls_per_second() == 0

    def test_mean_rate(self):
        result = self._result([0.0, 1.0, 2.0, 3.0, 4.0])
        assert result.mean_polls_per_second() == pytest.approx(1.25)

    def test_burstiness_zero_when_no_polls(self):
        assert self._result([]).burstiness() == 0.0

    def test_median_latency(self):
        result = FleetResult(1, 1, 3, latencies=[5.0, 1.0, 9.0], poll_times=[])
        assert result.median_latency() == 5.0


class TestFleetWorld:
    def test_small_fleet_executes_every_applet(self):
        result = run_fleet_experiment(n_applets=20, publications=2, seed=3)
        assert result.actions_executed == 40
        assert len(result.latencies) == 40

    def test_push_faster_than_poll(self):
        poll = run_fleet_experiment(n_applets=20, publications=2, seed=3)
        hint = run_fleet_experiment(n_applets=20, publications=2, seed=3, delivery_mode="hint")
        assert hint.median_latency() < poll.median_latency() / 20

    def test_push_spike_scales_with_fleet(self):
        hint = run_fleet_experiment(n_applets=30, publications=1, seed=4, delivery_mode="hint")
        assert hint.peak_polls_per_second() >= 25  # near the whole fleet

    def test_poll_spreads_load(self):
        poll = run_fleet_experiment(n_applets=30, publications=2, seed=4)
        assert poll.peak_polls_per_second() < 15

    def test_world_is_deterministic(self):
        a = run_fleet_experiment(n_applets=10, publications=1, seed=9)
        b = run_fleet_experiment(n_applets=10, publications=1, seed=9)
        assert a.latencies == b.latencies
