"""Unit and property tests for health-aware adaptive delivery.

Covers the three layers of ``repro.engine.delivery`` in isolation:

* :class:`ServiceHealth` — EWMA dynamics, capped-exponential stretch
  growth, EWMA-gated decay, breaker suspension, and the no-RNG-draw
  contract while healthy;
* the engine's cadence decision (``IftttEngine._interval``) under a
  live :class:`ServiceHealth` — byte-equivalence to the applet's own
  policy whenever the service is healthy, for every polling-policy
  family the engine ships;
* :class:`DeliveryController` — watermarked hint/retry admission, the
  4-level degradation ladder, and its gauge/counter families.

The hypothesis property at the bottom is the §4 restoration theorem:
after *any* brownout→heal outcome schedule, the adaptive policy's
sampled interval distribution converges back to the seed lognormal
(the :class:`~repro.engine.poller.ProductionPollingPolicy` calibrated
to the paper's 58/84/122 s T2A quartiles).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.delivery import (
    BROWNOUT_MESSAGE,
    DEGRADATION_BREAKER_OPEN,
    DEGRADATION_HEALTHY,
    DEGRADATION_SHEDDING,
    DEGRADATION_STRETCHED,
    DeliveryPolicy,
    HINT_ALLOW,
    HINT_DEFER,
    HINT_SHED,
    ServiceHealth,
    T2A_BASELINE_QUARTILES,
    response_is_brownout,
    sampled_interval_quartiles,
)
from repro.engine.poller import (
    AdaptivePollingPolicy,
    FixedPollingPolicy,
    ProductionPollingPolicy,
)
from repro.engine.resilience import BreakerState
from repro.obs.metrics import MetricsRegistry
from repro.simcore import Rng

from tests.helpers import build_engine_world, default_engine_config, install_ping_applet


class _CountingRng(Rng):
    """An Rng that counts uniform draws (the stretch-jitter source)."""

    def __init__(self, seed=5, name="spy"):
        super().__init__(seed=seed, name=name)
        self.uniform_draws = 0

    def uniform(self, low=0.0, high=1.0):
        self.uniform_draws += 1
        return super().uniform(low, high)


class _FakeResponse:
    def __init__(self, status, body):
        self.status = status
        self.body = body


# -- DeliveryPolicy validation ----------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"ewma_alpha": 0.0},
    {"ewma_alpha": 1.5},
    {"degrade_threshold": 0.0},
    {"recovery_successes": 0},
    {"stretch_multiplier": 1.0},
    {"max_stretch": 1.5},  # < stretch_multiplier
    {"stretch_decay": 1.0},
    {"stretch_jitter": 1.0},
    {"hint_low_watermark": 10, "hint_high_watermark": 5},
    {"retry_low_watermark": -1},
    {"hint_defer_delay": -1.0},
])
def test_delivery_policy_validates(overrides):
    with pytest.raises(ValueError):
        DeliveryPolicy(**overrides)


def test_delivery_policy_defaults_valid():
    policy = DeliveryPolicy()
    assert policy.stretch_multiplier > 1.0
    assert policy.max_stretch >= policy.stretch_multiplier


# -- ServiceHealth dynamics -------------------------------------------------------


def test_stretch_grows_capped_exponentially():
    policy = DeliveryPolicy(ewma_alpha=0.3, degrade_threshold=0.3,
                            stretch_multiplier=3.0, max_stretch=8.0)
    health = ServiceHealth(policy, "svc")
    assert health.stretch == 1.0 and not health.degraded
    health.record_failure(brownout=True)     # ewma 0.3 >= threshold
    assert health.stretch == 3.0
    health.record_failure()                  # growth capped at max_stretch
    assert health.stretch == 8.0
    health.record_failure()
    assert health.stretch == 8.0
    assert health.failures == 3 and health.brownouts_observed == 1


def test_single_successes_mid_brownout_do_not_unstretch():
    """Alternating 50%-style outcomes never reach the recovery streak,
    so the stretch ratchets to the cap and stays there."""
    health = ServiceHealth(DeliveryPolicy(), "svc")
    for _ in range(6):
        health.record_failure(brownout=True)
        health.record_success()
    assert health.degraded
    assert health.stretch == DeliveryPolicy().max_stretch


def test_decay_requires_cool_ewma_and_streak():
    policy = DeliveryPolicy(recovery_successes=2)
    health = ServiceHealth(policy, "svc")
    for _ in range(4):
        health.record_failure()
    stretched = health.stretch
    assert stretched == policy.max_stretch
    # One success: streak too short, no decay regardless of EWMA.
    health.record_success()
    assert health.stretch == stretched
    # Feed successes until fully healed; decay must end at exactly 1.0.
    for _ in range(32):
        health.record_success()
    assert health.stretch == 1.0
    assert not health.degraded
    assert health.error_ewma < policy.degrade_threshold


def test_decay_waits_for_ewma_below_threshold():
    """With a hot EWMA, even a qualifying success streak keeps the
    stretch in place (the EWMA gate of record_success)."""
    policy = DeliveryPolicy(ewma_alpha=0.3, degrade_threshold=0.3,
                            recovery_successes=2)
    health = ServiceHealth(policy, "svc")
    for _ in range(6):
        health.record_failure()
    assert health.error_ewma > 0.8
    health.record_success()
    health.record_success()          # streak == 2 but ewma ~0.43 still hot
    assert health.error_ewma >= policy.degrade_threshold
    assert health.stretch == policy.max_stretch


def test_stretch_factor_no_rng_draw_when_healthy():
    health = ServiceHealth(DeliveryPolicy(), "svc")
    rng = _CountingRng()
    assert health.stretch_factor(rng) == 1.0
    assert rng.uniform_draws == 0
    assert health.stretched_samples == 0


def test_stretch_factor_jitters_when_degraded():
    policy = DeliveryPolicy(stretch_jitter=0.1)
    health = ServiceHealth(policy, "svc")
    health.record_failure()
    health.record_failure()
    rng = _CountingRng()
    factor = health.stretch_factor(rng)
    assert rng.uniform_draws == 1
    assert health.stretched_samples == 1
    low = health.stretch * (1.0 - policy.stretch_jitter)
    high = health.stretch * (1.0 + policy.stretch_jitter)
    assert low <= factor <= high


def test_breaker_open_suspends_stretch():
    health = ServiceHealth(DeliveryPolicy(), "svc")
    health.record_failure()
    health.record_failure()
    assert health.degraded
    rng = _CountingRng()
    health.on_breaker_transition(BreakerState.OPEN)
    assert health.stretch_factor(rng) == 1.0
    assert rng.uniform_draws == 0
    health.on_breaker_transition(BreakerState.HALF_OPEN)
    assert health.stretch_factor(rng) == 1.0
    health.on_breaker_transition(BreakerState.CLOSED)
    assert health.stretch_factor(rng) > 1.0


# -- the cadence decision under a live ServiceHealth ------------------------------
# (there is no policy wrapper: IftttEngine._interval multiplies the
# applet's own draw by the service's shared stretch factor)


def _adaptive_draw(policy, **policy_overrides):
    """``(draw, health)``: an adaptive engine's cadence decision for
    ``policy`` on its published service, and that service's live health."""
    world, controller = _controller_world(**policy_overrides)
    link = _link(world)
    health = controller.health_for(link)
    return (lambda rng: world.engine._interval(link, policy, rng)), health


@pytest.mark.parametrize("base_factory", [
    lambda: FixedPollingPolicy(10.0),
    lambda: ProductionPollingPolicy(),
    lambda: AdaptivePollingPolicy(fast=5.0, slow=120.0),
], ids=["fixed", "production", "adaptive-poller"])
def test_wrapper_byte_equivalent_to_base_when_healthy(base_factory):
    draw, _ = _adaptive_draw(base_factory())
    assert sampled_interval_quartiles(draw) == sampled_interval_quartiles(
        base_factory().next_interval
    )


def test_wrapper_stretches_when_degraded_and_restores_after_heal():
    draw, health = _adaptive_draw(FixedPollingPolicy(10.0), stretch_jitter=0.0)
    rng = Rng(1)
    assert draw(rng) == 10.0
    health.record_failure()
    health.record_failure()
    assert draw(rng) == 10.0 * health.stretch
    for _ in range(16):
        health.record_success()
    assert draw(rng) == 10.0


def test_response_is_brownout_sniffs_marker():
    assert response_is_brownout(
        _FakeResponse(503, {"errors": [{"message": BROWNOUT_MESSAGE}]}))
    assert not response_is_brownout(
        _FakeResponse(503, {"errors": [{"message": "service unavailable"}]}))
    assert not response_is_brownout(
        _FakeResponse(200, {"errors": [{"message": BROWNOUT_MESSAGE}]}))
    assert not response_is_brownout(_FakeResponse(503, None))


# -- DeliveryController: admission + ladder ---------------------------------------


def _controller_world(**policy_overrides):
    policy = DeliveryPolicy(**policy_overrides)
    world = build_engine_world(default_engine_config(delivery_policy=policy))
    return world, world.engine.delivery


def _link(world):
    """The engine's record of the world's one published service — what
    every controller method takes."""
    return world.engine.service_registration("svc")


def test_engine_without_policy_has_no_controller():
    world = build_engine_world()
    assert world.engine.delivery is None
    stats = world.engine.stats()
    assert stats["delivery_hints_deferred"] == 0
    assert stats["delivery_overload_dead_letters"] == 0


def test_hint_admission_watermarks():
    world, controller = _controller_world(hint_low_watermark=2, hint_high_watermark=4)
    link = _link(world)
    for _ in range(2):
        assert controller.admit_hint(link) == HINT_ALLOW
        controller.note_fast_poll_scheduled(link)
    # backlog == low watermark -> defer
    assert controller.admit_hint(link) == HINT_DEFER
    controller.note_fast_poll_scheduled(link)
    controller.note_fast_poll_scheduled(link)
    # backlog == high watermark -> shed to polling
    assert controller.admit_hint(link) == HINT_SHED
    stats = controller.stats()
    assert stats["delivery_hints_deferred"] == 1
    assert stats["delivery_hints_shed"] == 1
    # Draining the backlog re-admits.
    for _ in range(4):
        controller.note_fast_poll_done(link)
    assert controller.admit_hint(link) == HINT_ALLOW


def test_retry_admission_watermarks_and_overload():
    world, controller = _controller_world(retry_low_watermark=1, retry_high_watermark=2)
    link = _link(world)
    rng = Rng(2)
    assert controller.admit_retry(link)
    controller.note_retry_enqueued(link)
    # depth >= low watermark: backoff is multiplied (deferred).
    delay = controller.stretch_retry_delay(link, 1.0, rng)
    assert delay > 1.0
    controller.note_retry_enqueued(link)
    # depth >= high watermark: refused -> caller dead-letters as overload.
    assert not controller.admit_retry(link)
    stats = controller.stats()
    assert stats["delivery_retries_deferred"] == 1
    assert stats["delivery_overload_dead_letters"] == 1
    controller.note_retry_dequeued(link)
    assert controller.admit_retry(link)


def test_replay_headroom_respects_retry_watermark():
    world, controller = _controller_world(retry_low_watermark=2, retry_high_watermark=4)
    link = _link(world)
    assert controller.replay_headroom(link) == 4
    controller.note_retry_enqueued(link)
    link.replay_depth += 2      # what a replay drain of two letters does
    assert controller.replay_headroom(link) == 1
    link.replay_depth -= 1      # one of them delivered
    assert controller.replay_headroom(link) == 2


def test_degradation_ladder_levels():
    world, controller = _controller_world(hint_low_watermark=1, hint_high_watermark=2)
    world.engine.metrics = MetricsRegistry()
    link = _link(world)
    assert link.level == DEGRADATION_HEALTHY
    health = controller.health_for(link)
    controller.note_result(link, ok=False, brownout=True)
    controller.note_result(link, ok=False, brownout=True)
    assert health.degraded
    assert link.level == DEGRADATION_STRETCHED
    controller.note_fast_poll_scheduled(link)
    controller.note_fast_poll_scheduled(link)
    assert link.level == DEGRADATION_SHEDDING
    controller.on_breaker_transition(link, BreakerState.OPEN)
    assert link.level == DEGRADATION_BREAKER_OPEN
    controller.on_breaker_transition(link, BreakerState.CLOSED)
    controller.note_fast_poll_done(link)
    controller.note_fast_poll_done(link)
    for _ in range(16):
        controller.note_result(link, ok=True)
    assert link.level == DEGRADATION_HEALTHY
    assert controller.tracked() == [link]
    # The gauge tracked every transition.
    gauge = world.engine.metrics.gauge("engine.degradation_level", service="svc")
    assert gauge.value == DEGRADATION_HEALTHY


def test_breaker_state_gauge_live_from_creation():
    world = build_engine_world(default_engine_config(delivery_policy=DeliveryPolicy()))
    world.engine.metrics = MetricsRegistry()
    install_ping_applet(world.engine)
    breaker = world.engine.breaker_for("svc")
    gauge = world.engine.metrics.gauge("engine.breaker_state", service="svc")
    assert gauge.value == BreakerState.CLOSED.level
    assert world.engine.breaker_levels() == {"svc": 0}
    for _ in range(10):
        breaker.record_failure(world.sim.now)
    assert gauge.value == BreakerState.OPEN.level
    assert world.engine.breaker_levels() == {"svc": 2}


# -- batch endpoint under brownout (per-entry draws) ------------------------------


def test_batch_endpoint_brownout_rejects_per_entry():
    """A browning-out service 503s batch entries *individually* with the
    brownout marker — one poisoned draw cannot fail its batchmates, and
    a full-rate brownout rejects every entry."""
    from repro.faults import FaultInjector, FaultPlan, service_brownout
    from repro.net import Address, FixedLatency, HttpNode, Network
    from repro.services import ActionEndpoint, PartnerService
    from repro.services.partner import BATCH_ACTION_PATH, BatchActionRequest
    from repro.simcore import Simulator

    sim = Simulator()
    net = Network(sim, Rng(5))
    client = net.add_node(HttpNode(Address("client.test")))
    service = net.add_node(PartnerService(Address("svc.test"), slug="svc",
                                          service_time=0.0))
    service.add_action(ActionEndpoint(slug="a", name="A", executor=lambda f: None))
    net.connect(client.address, service.address, FixedLatency(0.01))
    injector = FaultInjector(sim, net, services=(service,), rng=Rng(6, name="faults"))
    injector.apply(FaultPlan((
        service_brownout("svc", at=0.0, duration=100.0, error_rate=1.0),
    )))
    body = BatchActionRequest(entries=(
        {"action_slug": "a"}, {"action_slug": "a"}, {"action_slug": "a"},
    )).to_body()
    got = []
    sim.schedule(1.0, lambda: client.post(
        service.address, BATCH_ACTION_PATH, body=body, on_response=got.append))
    sim.run_until(5.0)
    response = got[0]
    assert response.status == 200            # the batch request itself lands
    results = response.body["data"]
    assert len(results) == 3
    assert all(entry["status"] == 503 for entry in results)
    assert all(response_is_brownout(_FakeResponse(entry["status"], entry))
               for entry in results)
    assert service.requests_rejected_by_faults == 3   # one draw per entry
    assert service.actions_executed == 0


def test_batch_endpoint_healthy_draws_nothing():
    """With no active fault state the batch path consumes no fault RNG
    and executes every entry."""
    from repro.net import Address, FixedLatency, HttpNode, Network
    from repro.services import ActionEndpoint, PartnerService
    from repro.services.partner import BATCH_ACTION_PATH, BatchActionRequest
    from repro.simcore import Simulator

    sim = Simulator()
    net = Network(sim, Rng(5))
    client = net.add_node(HttpNode(Address("client.test")))
    service = net.add_node(PartnerService(Address("svc.test"), slug="svc",
                                          service_time=0.0))
    service.add_action(ActionEndpoint(slug="a", name="A", executor=lambda f: None))
    net.connect(client.address, service.address, FixedLatency(0.01))
    assert service.faults is None
    body = BatchActionRequest(entries=(
        {"action_slug": "a"}, {"action_slug": "a"},
    )).to_body()
    got = []
    sim.schedule(1.0, lambda: client.post(
        service.address, BATCH_ACTION_PATH, body=body, on_response=got.append))
    sim.run_until(5.0)
    assert all(entry["status"] == 200 for entry in got[0].body["data"])
    assert service.batch_actions_executed == 2
    assert service.requests_rejected_by_faults == 0


# -- the §4 restoration property --------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    outcomes=st.lists(st.booleans(), min_size=1, max_size=120),
    probe_seed=st.integers(min_value=1, max_value=2 ** 16),
)
def test_interval_distribution_restored_after_any_brownout_schedule(
    outcomes, probe_seed
):
    """After any brownout→heal outcome schedule, the adaptive policy's
    sampled interval distribution equals the seed lognormal's.

    ``ProductionPollingPolicy`` is the seed distribution calibrated so
    poll-bound T2A matches the paper's 58/84/122 s quartiles
    (:data:`T2A_BASELINE_QUARTILES`, pinned by test_paper_fidelity) — so
    restoring this distribution *is* restoring the §4 baseline.
    """
    draw, health = _adaptive_draw(ProductionPollingPolicy())
    for failed in outcomes:
        if failed:
            health.record_failure(brownout=True)
        else:
            health.record_success()
    # Heal: the service recovers and successes accumulate.
    for _ in range(64):
        if not health.degraded:
            break
        health.record_success()
    assert health.stretch == 1.0
    assert not health.degraded
    healed = sampled_interval_quartiles(draw, seed=probe_seed, samples=500)
    baseline = sampled_interval_quartiles(
        ProductionPollingPolicy().next_interval, seed=probe_seed, samples=500
    )
    assert healed == baseline
    assert len(T2A_BASELINE_QUARTILES) == 3  # the anchor the baseline encodes
