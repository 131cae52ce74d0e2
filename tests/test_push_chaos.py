"""Chaos regressions for push-first delivery (ISSUE 8, satellite 3).

``brownout`` and ``outage`` under ``--delivery push`` must uphold the
same bars the adaptive-delivery chaos suite pins for polling:

* **zero retry storms** — a trigger-side brownout produces *zero* poll
  retries under push (the engine barely polls a push-contract service),
  and no healthy service ever dead-letters with reason ``overload``;
* **fault isolation** — on a sharded fleet the healthy shards' T2A p95
  stays within 5% between the adaptive-push and plain-push runs;
* **restoration** — after heal the victim's (would-be) poll-interval
  quartiles sit within ``MAX_QUARTILE_DRIFT`` of the base policy's,
  probing the poll-rung draw: the applet's policy times the live
  stretch factor;
* **determinism** — same ``(scenario, seed, mode)`` serializes
  byte-identical snapshots, plain and sharded (``make push-check``).

A push-specific bonus is pinned too: a *sensor* brownout leaves push
T2A flat — payloads ride notifications, so degrading the sensor's
request-serving path cannot stall delivery the way it stalls polling.
"""

from statistics import mean

import pytest

from repro.engine.delivery import DeliveryPolicy
from repro.engine.sharding import SHARD_STRATEGIES
from repro.reporting.adaptive_report import MAX_QUARTILE_DRIFT
from repro.simcore.rng import quantiles
from repro.testbed.chaos import (
    SENSOR_SLUG,
    run_chaos_scenario,
)

SEED = 7


def _p95(values):
    assert values, "phase produced no T2A samples"
    return quantiles(values, (0.95,))[0]


@pytest.fixture(scope="module")
def push_brownout():
    return run_chaos_scenario("brownout", seed=SEED, delivery_mode="push")


@pytest.fixture(scope="module")
def push_outage():
    return run_chaos_scenario("outage", seed=SEED, delivery_mode="push")


class TestPushBrownout:
    def test_conservation(self, push_brownout):
        assert push_brownout.actions_silently_lost == 0
        assert push_brownout.fleet_stats["dead_letters"] == 0

    def test_zero_poll_retry_storm(self, push_brownout):
        # Polling mode fights the browning sensor with poll retries;
        # push mode barely polls it, so the storm never starts.
        assert push_brownout.fleet_stats["poll_retries"] == 0
        assert push_brownout.fleet_stats["action_retries"] == 0

    def test_t2a_flat_through_the_fault(self, push_brownout):
        # Payloads ride notifications: the sensor's degraded *serving*
        # path (polls) is off the delivery path entirely.
        during = push_brownout.t2a_values([0], "during")
        assert during, "fault window delivered nothing"
        assert mean(during) < 1.0
        assert push_brownout.t2a_max("during") < 2.0

    def test_every_injection_observed(self, push_brownout):
        assert push_brownout.events_observed == push_brownout.events_injected


class TestPushOutage:
    """A sink outage exercises the action path under push: retries,
    breaker shedding, and dead letters behave exactly as under polling —
    push changes the trigger side only."""

    def test_conservation_with_dead_letters(self, push_outage):
        assert push_outage.actions_silently_lost == 0
        assert push_outage.fleet_stats["dead_letters"] > 0
        assert push_outage.fleet_stats["action_retries"] > 0

    def test_breaker_cycled(self, push_outage):
        states = [(old, new) for _, _, old, new in push_outage.breaker_transitions_by_shard[0]]
        assert ("closed", "open") in states
        assert ("half_open", "closed") in states

    def test_t2a_recovers_after_heal(self, push_outage):
        after = push_outage.t2a_values([0], "after")
        assert after
        assert mean(after) < 5.0


@pytest.fixture(scope="module", params=sorted(SHARD_STRATEGIES))
def sharded_push_runs(request):
    strategy = request.param
    adaptive = run_chaos_scenario(
        "brownout", seed=SEED, shards=4, shard_strategy=strategy,
        delivery=DeliveryPolicy(), delivery_mode="push",
    )
    baseline = run_chaos_scenario(
        "brownout", seed=SEED, shards=4, shard_strategy=strategy, delivery_mode="push",
    )
    return strategy, adaptive, baseline


class TestShardedPushBrownout:
    def test_same_victim_shard(self, sharded_push_runs):
        _, adaptive, baseline = sharded_push_runs
        assert adaptive.victim_shard == baseline.victim_shard

    def test_healthy_shard_t2a_p95_within_5_percent(self, sharded_push_runs):
        _, adaptive, baseline = sharded_push_runs
        adaptive_p95 = _p95(adaptive.t2a_values(adaptive.healthy_shards))
        baseline_p95 = _p95(baseline.t2a_values(baseline.healthy_shards))
        assert adaptive_p95 == pytest.approx(baseline_p95, rel=0.05)

    def test_no_overload_dead_letters_on_healthy_services(self, sharded_push_runs):
        _, adaptive, _ = sharded_push_runs
        victim = f"{SENSOR_SLUG}0"
        for slug, count in adaptive.overload_dead_letters_by_service.items():
            if slug != victim:
                assert count == 0, f"healthy service {slug} dead-lettered overload"

    def test_conservation_per_shard_and_merged(self, sharded_push_runs):
        _, adaptive, baseline = sharded_push_runs
        for run in (adaptive, baseline):
            assert run.shard_silently_lost == [0] * run.num_shards
            assert run.actions_silently_lost == 0

    def test_post_heal_quartiles_restored(self, sharded_push_runs):
        # The probe draws what the victim WOULD poll at on the poll
        # rung (the applet's policy times the live stretch factor): it
        # must match the base distribution once the stretch has decayed.
        _, adaptive, _ = sharded_push_runs
        assert adaptive.post_heal_quartiles is not None
        assert adaptive.baseline_quartiles is not None
        assert adaptive.post_heal_quartile_drift <= MAX_QUARTILE_DRIFT
        assert all(s == 1.0 for s in adaptive.post_heal_stretch.values())

    def test_push_counters_present_fleet_wide(self, sharded_push_runs):
        _, adaptive, _ = sharded_push_runs
        assert adaptive.fleet_stats["push_notifications_received"] > 0
        assert adaptive.fleet_stats["push_events_ingested"] > 0


class TestPushDeterminism:
    def test_plain_push_snapshots_identical(self):
        first = run_chaos_scenario("brownout", seed=SEED, delivery_mode="push")
        second = run_chaos_scenario("brownout", seed=SEED, delivery_mode="push")
        assert first.snapshot == second.snapshot

    def test_sharded_push_snapshots_identical(self):
        first = run_chaos_scenario("outage", seed=SEED, shards=4, delivery_mode="push")
        second = run_chaos_scenario("outage", seed=SEED, shards=4, delivery_mode="push")
        assert first.snapshot == second.snapshot

    def test_push_off_leaves_no_push_metrics(self):
        result = run_chaos_scenario("brownout", seed=SEED)
        families = {key.split("{", 1)[0] for key in result.snapshot}
        assert not any(".push." in family for family in families)
        assert result.fleet_stats["push_notifications_received"] == 0
