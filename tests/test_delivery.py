"""Unit and property tests for health-aware adaptive delivery.

Covers the layers of ``repro.engine.delivery`` on a real engine's
service record (``link``), where all per-service delivery state lives:

* service health — EWMA dynamics, capped-exponential stretch growth,
  EWMA-gated decay, breaker suspension, and the no-RNG-draw contract of
  :func:`stretch_factor` while healthy;
* the engine's cadence decision (``IftttEngine._interval``) under live
  health — byte-equivalence to the applet's own policy whenever the
  service is healthy, for every polling-policy family the engine ships;
* :class:`DeliveryController` — watermarked hint/retry admission, the
  4-level degradation ladder, and its gauge/counter families;
* :class:`DeliveryPolicy` — fieldless: the tunables are constants.

The hypothesis property at the bottom is the §4 restoration theorem:
after *any* brownout→heal outcome schedule, the adaptive policy's
sampled interval distribution converges back to the seed lognormal
(the :class:`~repro.engine.poller.ProductionPollingPolicy` calibrated
to the paper's 58/84/122 s T2A quartiles).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import delivery
from repro.engine.delivery import (
    BROWNOUT_MESSAGE,
    DEGRADATION_BREAKER_OPEN,
    DEGRADATION_HEALTHY,
    DEGRADATION_SHEDDING,
    DEGRADATION_STRETCHED,
    DELIVERY_STATS_KEYS,
    HINT_ALLOW,
    HINT_DEFER,
    HINT_HIGH_WATERMARK,
    HINT_LOW_WATERMARK,
    HINT_SHED,
    MAX_STRETCH,
    RETRY_HIGH_WATERMARK,
    RETRY_LOW_WATERMARK,
    STRETCH_JITTER,
    DeliveryPolicy,
    T2A_BASELINE_QUARTILES,
    response_is_brownout,
    sampled_interval_quartiles,
    stretch_factor,
)
from repro.engine.poller import (
    AdaptivePollingPolicy,
    FixedPollingPolicy,
    ProductionPollingPolicy,
)
from repro.engine.push import PUSH_STATS_KEYS, PushPolicy
from repro.engine.replay import REPLAY_STATS_KEYS
from repro.engine.resilience import (
    BREAKER_FAILURE_THRESHOLD,
    BREAKER_RECOVERY_TIMEOUT,
    BreakerState,
    ReplayPolicy,
)
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


# -- DeliveryPolicy is an on-switch ------------------------------------------------


@pytest.mark.parametrize("overrides", [
    {"ewma_alpha": 0.0},
    {"ewma_alpha": 1.5},
    {"degrade_threshold": 0.0},
    {"recovery_successes": 0},
    {"stretch_multiplier": 1.0},
    {"max_stretch": 1.5},
    {"stretch_decay": 1.0},
    {"stretch_jitter": 1.0},
    {"hint_low_watermark": 10, "hint_high_watermark": 5},
    {"retry_low_watermark": -1},
    {"hint_defer_delay": -1.0},
])
def test_delivery_policy_validates(overrides):
    """Each former tunable is refused at construction: the values are
    module constants now, so no caller can believe it set one."""
    with pytest.raises(TypeError):
        DeliveryPolicy(**overrides)


def test_delivery_policy_defaults_valid():
    """The constants satisfy every bound the policy's fields once
    checked."""
    assert DeliveryPolicy() == DeliveryPolicy()
    assert 0.0 < delivery.EWMA_ALPHA <= 1.0
    assert 0.0 < delivery.DEGRADE_THRESHOLD <= 1.0
    assert delivery.RECOVERY_SUCCESSES >= 1
    assert delivery.STRETCH_MULTIPLIER > 1.0
    assert MAX_STRETCH >= delivery.STRETCH_MULTIPLIER
    assert 0.0 < delivery.STRETCH_DECAY < 1.0
    assert 0.0 <= STRETCH_JITTER < 1.0
    assert 0 <= HINT_LOW_WATERMARK <= HINT_HIGH_WATERMARK
    assert 0 <= RETRY_LOW_WATERMARK <= RETRY_HIGH_WATERMARK
    assert delivery.HINT_DEFER_DELAY >= 0 and delivery.REPLAY_DRAIN_BACKOFF >= 0


# -- service health dynamics --------------------------------------------------------


def _controller_world(metrics=False):
    world = build_engine_world(default_engine_config(delivery_policy=DeliveryPolicy()))
    if metrics:
        world.engine.metrics = MetricsRegistry()
    return world, world.engine.delivery


def _link(world):
    """The engine's record of the world's one published service — what
    every controller method takes."""
    return world.engine.service_registration("svc")


def _health(metrics=False):
    """``(world, controller, link)`` with the service tracked."""
    world, controller = _controller_world(metrics)
    link = _link(world)
    controller.track(link)
    return world, controller, link


def _fail(controller, link, times=1, brownout=False):
    for _ in range(times):
        controller.note_result(link, ok=False, brownout=brownout)


def _succeed(controller, link, times=1):
    for _ in range(times):
        controller.note_result(link, ok=True)


def test_stretch_grows_capped_exponentially():
    world, controller, link = _health(metrics=True)
    assert link.stretch == 1.0
    _fail(controller, link, brownout=True)     # ewma 0.3 >= threshold
    assert link.stretch == 3.0
    _fail(controller, link)                    # growth capped at MAX_STRETCH
    assert link.stretch == MAX_STRETCH == 8.0
    _fail(controller, link)
    assert link.stretch == 8.0
    assert link.consecutive_successes == 0
    assert world.engine.metrics.value(
        "engine.delivery.brownouts_observed", service="svc"
    ) == 1


def test_single_successes_mid_brownout_do_not_unstretch():
    """Alternating 50%-style outcomes never reach the recovery streak,
    so the stretch ratchets to the cap and stays there."""
    _, controller, link = _health()
    for _ in range(6):
        _fail(controller, link, brownout=True)
        _succeed(controller, link)
    assert link.stretch == MAX_STRETCH


def test_decay_requires_cool_ewma_and_streak():
    _, controller, link = _health()
    _fail(controller, link, 4)
    stretched = link.stretch
    assert stretched == MAX_STRETCH
    # One success: streak too short, no decay regardless of EWMA.
    _succeed(controller, link)
    assert link.stretch == stretched
    # Feed successes until fully healed; decay must end at exactly 1.0.
    _succeed(controller, link, 32)
    assert link.stretch == 1.0
    assert link.error_ewma < delivery.DEGRADE_THRESHOLD


def test_decay_waits_for_ewma_below_threshold():
    """With a hot EWMA, even a qualifying success streak keeps the
    stretch in place (the EWMA gate of ``note_result``)."""
    _, controller, link = _health()
    _fail(controller, link, 6)
    assert link.error_ewma > 0.8
    _succeed(controller, link, 2)    # streak == 2 but ewma ~0.43 still hot
    assert link.consecutive_successes == delivery.RECOVERY_SUCCESSES
    assert link.error_ewma >= delivery.DEGRADE_THRESHOLD
    assert link.stretch == MAX_STRETCH


def test_stretch_factor_no_rng_draw_when_healthy():
    _, _, link = _health()
    rng = _CountingRng()
    assert stretch_factor(link, rng) == 1.0
    assert rng.uniform_draws == 0
    assert link.stretched_samples == 0


def test_stretch_factor_jitters_when_degraded():
    _, controller, link = _health()
    _fail(controller, link, 2)
    rng = _CountingRng()
    factor = stretch_factor(link, rng)
    assert rng.uniform_draws == 1
    assert link.stretched_samples == 1
    low = link.stretch * (1.0 - STRETCH_JITTER)
    high = link.stretch * (1.0 + STRETCH_JITTER)
    assert low <= factor <= high


def _walk_breaker(world, state):
    """Walk the service's breaker to ``state`` through its own API (its
    every move reaches the ladder through the engine's transition hook)."""
    breaker = world.engine.breaker_for("svc")
    now = world.sim.now
    if state is BreakerState.OPEN:
        for _ in range(BREAKER_FAILURE_THRESHOLD):
            breaker.record_failure(now)
    elif state is BreakerState.HALF_OPEN:
        breaker.allow(now + BREAKER_RECOVERY_TIMEOUT)
    else:
        breaker.record_success(now)
    assert breaker.state is state


def test_breaker_open_suspends_stretch():
    world, controller, link = _health()
    _fail(controller, link, 2)
    assert link.stretch > 1.0
    rng = _CountingRng()
    _walk_breaker(world, BreakerState.OPEN)
    assert stretch_factor(link, rng) == 1.0
    assert rng.uniform_draws == 0
    _walk_breaker(world, BreakerState.HALF_OPEN)
    assert stretch_factor(link, rng) == 1.0
    _walk_breaker(world, BreakerState.CLOSED)
    assert stretch_factor(link, rng) > 1.0


# -- the cadence decision under live health ---------------------------------------
# (there is no policy wrapper: IftttEngine._interval multiplies the
# applet's own draw by the service's shared stretch factor)


def _adaptive_draw(policy):
    """``(draw, controller, link)``: an adaptive engine's cadence decision
    for ``policy`` on its published service, and that service's record."""
    world, controller, link = _health()
    return (lambda rng: world.engine._interval(link, policy, rng)), controller, link


@pytest.mark.parametrize("base_factory", [
    lambda: FixedPollingPolicy(10.0),
    lambda: ProductionPollingPolicy(),
    lambda: AdaptivePollingPolicy(fast=5.0, slow=120.0),
], ids=["fixed", "production", "adaptive-poller"])
def test_wrapper_byte_equivalent_to_base_when_healthy(base_factory):
    draw, _, _ = _adaptive_draw(base_factory())
    assert sampled_interval_quartiles(draw) == sampled_interval_quartiles(
        base_factory().next_interval
    )


def test_wrapper_stretches_when_degraded_and_restores_after_heal():
    draw, controller, link = _adaptive_draw(FixedPollingPolicy(10.0))
    rng = Rng(1)
    assert draw(rng) == 10.0
    _fail(controller, link, 2)
    jitter = 10.0 * link.stretch * STRETCH_JITTER
    assert abs(draw(rng) - 10.0 * link.stretch) <= jitter
    _succeed(controller, link, 16)
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


def test_engine_without_policy_has_no_controller():
    world = build_engine_world()
    assert world.engine.delivery is None
    stats = world.engine.stats()
    assert stats["delivery_hints_deferred"] == 0
    assert stats["delivery_overload_dead_letters"] == 0


def test_stats_keys_do_not_depend_on_the_options():
    """A controller that is off reports exactly its keys, each 0, in the
    order the live controller reports them."""
    off = build_engine_world().engine.stats()
    on = build_engine_world(default_engine_config(
        delivery_policy=DeliveryPolicy(), push_policy=PushPolicy(),
        replay_policy=ReplayPolicy(),
    )).engine.stats()
    assert list(on) == list(off)
    for keys in (REPLAY_STATS_KEYS, DELIVERY_STATS_KEYS, PUSH_STATS_KEYS):
        assert {key: off[key] for key in keys} == dict.fromkeys(keys, 0)
        assert [key for key in on if key in keys] == list(keys)


def test_hint_admission_watermarks():
    world, controller = _controller_world()
    link = _link(world)
    for _ in range(HINT_LOW_WATERMARK):
        assert controller.admit_hint(link) == HINT_ALLOW
        controller.note_fast_poll_scheduled(link)
    # backlog == low watermark -> defer
    assert controller.admit_hint(link) == HINT_DEFER
    while link.hint_backlog < HINT_HIGH_WATERMARK:
        controller.note_fast_poll_scheduled(link)
    # backlog == high watermark -> shed to polling
    assert controller.admit_hint(link) == HINT_SHED
    stats = controller.stats()
    assert stats["delivery_hints_deferred"] == 1
    assert stats["delivery_hints_shed"] == 1
    # Draining the backlog re-admits.
    for _ in range(HINT_HIGH_WATERMARK):
        controller.note_fast_poll_done(link)
    assert link.hint_backlog == 0
    assert controller.admit_hint(link) == HINT_ALLOW


def test_retry_admission_watermarks_and_overload():
    world, controller = _controller_world()
    link = _link(world)
    rng = Rng(2)
    for _ in range(RETRY_LOW_WATERMARK):
        assert controller.admit_retry(link)
        controller.note_retry_enqueued(link)
    # depth >= low watermark: backoff is multiplied (deferred).
    delay = controller.stretch_retry_delay(link, 1.0, rng)
    assert delay == delivery.STRETCH_MULTIPLIER
    while link.retry_depth < RETRY_HIGH_WATERMARK:
        controller.note_retry_enqueued(link)
    # depth >= high watermark: refused -> caller dead-letters as overload.
    assert not controller.admit_retry(link)
    stats = controller.stats()
    assert stats["delivery_retries_deferred"] == 1
    assert stats["delivery_overload_dead_letters"] == 1
    controller.note_retry_dequeued(link)
    assert controller.admit_retry(link)


def test_replay_headroom_respects_retry_watermark():
    world, controller = _controller_world()
    link = _link(world)
    assert controller.replay_headroom(link) == RETRY_HIGH_WATERMARK
    controller.note_retry_enqueued(link)
    link.replay_depth += 2      # what a replay drain of two letters does
    assert controller.replay_headroom(link) == RETRY_HIGH_WATERMARK - 3
    link.replay_depth -= 1      # one of them delivered
    assert controller.replay_headroom(link) == RETRY_HIGH_WATERMARK - 2


def test_degradation_ladder_levels():
    world, controller = _controller_world(metrics=True)
    link = _link(world)
    assert link.level is None               # not tracked before its first outcome
    controller.note_result(link, ok=False, brownout=True)
    controller.note_result(link, ok=False, brownout=True)
    assert link.stretch > 1.0
    assert link.level == DEGRADATION_STRETCHED
    for _ in range(HINT_HIGH_WATERMARK):
        controller.note_fast_poll_scheduled(link)
    assert link.level == DEGRADATION_SHEDDING
    _walk_breaker(world, BreakerState.OPEN)
    assert link.level == DEGRADATION_BREAKER_OPEN
    _walk_breaker(world, BreakerState.HALF_OPEN)
    _walk_breaker(world, BreakerState.CLOSED)
    assert link.level == DEGRADATION_SHEDDING
    for _ in range(HINT_HIGH_WATERMARK):
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
    draw, controller, link = _adaptive_draw(ProductionPollingPolicy())
    for failed in outcomes:
        if failed:
            _fail(controller, link, brownout=True)
        else:
            _succeed(controller, link)
    # Heal: the service recovers and successes accumulate.
    for _ in range(64):
        if link.stretch == 1.0:
            break
        _succeed(controller, link)
    assert link.stretch == 1.0
    assert link.level == DEGRADATION_HEALTHY
    healed = sampled_interval_quartiles(draw, seed=probe_seed, samples=500)
    baseline = sampled_interval_quartiles(
        ProductionPollingPolicy().next_interval, seed=probe_seed, samples=500
    )
    assert healed == baseline
    assert len(T2A_BASELINE_QUARTILES) == 3  # the anchor the baseline encodes


# -- the admission depths are exact ------------------------------------------------


def _depth_world(batching):
    """Applets on ``svc`` (realtime hints, every hint honoured) whose
    actions go to a separate ``sink``, under adaptive delivery and replay
    (in batches, or one action per request)."""
    from repro.engine import ActionRef, TriggerRef
    from repro.net import Address, FixedLatency
    from repro.services import ActionEndpoint, PartnerService

    world = build_engine_world(
        default_engine_config(
            delivery_policy=DeliveryPolicy(), replay_policy=ReplayPolicy(batching=batching),
            realtime_allowlist=None,
        ),
        realtime_service=True, with_trace=False,
    )
    sink = world.net.add_node(PartnerService(Address("sink.cloud"), slug="sink",
                                             service_time=0.0))
    sink.add_action(ActionEndpoint(slug="record", name="Record", executor=lambda f: None))
    world.net.connect(world.engine.address, sink.address, FixedLatency(0.01))
    world.engine.publish_service(sink)

    def install():
        return world.engine.install_applet(
            user=world.user, name="ping -> sink",
            trigger=TriggerRef("svc", "ping"), action=ActionRef("sink", "record", {}),
        ).applet_id

    return world, {"svc": world.service, "sink": sink}, install


def _assert_depths_exact(engine):
    """Each admission depth equals what it stands for, recounted from the
    engine's own tables: its applets, its retry table and the
    ``(callback, context)`` of each request it waits on."""
    in_flight = [
        (callback, context) for callback, _, _, context in engine._pending.values()
    ]
    for slug in engine.published_slugs:
        link = engine.service_registration(slug)
        fast_polls = sum(
            1 for runtime in engine._applets.values()
            if runtime.link is link and runtime.fast_poll_pending
        )
        retry_timers = sum(
            1 for record, _ in engine._retry_timers.values() if record.service_slug == slug
        )
        replaying = 0
        for callback, context in in_flight:
            if callback == engine.replay._on_batch_result and context[0] is link:
                replaying += len(context[1])    # ``(link, records)``
            elif callback == engine.replay._on_single_result and context.service_slug == slug:
                replaying += 1    # one record
        assert (link.hint_backlog, link.retry_depth, link.replay_depth) == (
            fast_polls, retry_timers, replaying
        ), slug


STEPS = st.tuples(
    st.one_of(
        st.tuples(st.just("install"), st.integers(1, 12)),
        st.tuples(st.sampled_from(["uninstall", "disable", "enable"]), st.integers(0, 63)),
        st.tuples(st.just("publish"), st.integers(1, 3)),
        st.tuples(st.just("outage"), st.sampled_from(["svc", "sink"]), st.booleans()),
        st.tuples(st.just("replay")),
    ),
    # then the world runs on this long (a fast poll is pending for
    # 0.01 s, a deferred one for 5 s, a retry for 1-8 s)
    st.sampled_from([0.0, 0.005, 0.02, 1.0, 5.0, 12.0, 30.0]),
)


#: The sink's outage runs every depth up; the steps then release each.
#: They leave the sink down, its breaker open and 175 dead letters.
SINK_BREAKER_OPEN = [
    (("outage", "sink", True), 0.0),
    (("publish", 3), 0.02),         # one hint burst: allow, defer, shed
    (("uninstall", 10), 0.0),       # ... releasing a deferred fast poll
    (("disable", 12), 0.0),         # ... and another
    (("enable", 12), 0.0),
    (("publish", 2), 5.0),          # actions fail into retries, overload
    (("uninstall", 20), 0.0),       # ... releasing an applet's retries
    (("outage", "svc", False), 150.0),  # the rest run out into dead letters
]


def _drive(world, services, install, steps, check=lambda engine: None):
    """Run ``steps`` on a depth world, calling ``check`` on its engine
    before and after each step's advance."""
    engine = world.engine
    # Enough registered applets that one hint burst crosses both hint
    # watermarks (their registration polls run at t=0.5).
    installed = [install() for _ in range(HINT_HIGH_WATERMARK + 4)]
    world.sim.run_until(1.0)
    for (kind, *args), advance in steps:
        if kind == "install":
            installed += [install() for _ in range(args[0])]
        elif kind in ("uninstall", "disable", "enable") and installed:
            applet_id = installed[args[0] % len(installed)]
            if kind == "uninstall":
                engine.uninstall_applet(applet_id)
                installed.remove(applet_id)
            elif kind == "disable":
                engine.disable_applet(applet_id)
            else:
                engine.enable_applet(applet_id)
        elif kind == "publish":
            for n in range(args[0]):
                world.service.ingest_event("ping", {"n": n})
        elif kind == "outage":
            services[args[0]].set_outage(args[1])
        elif kind == "replay":
            services["sink"].set_outage(False)
            engine.replay_dead_letters()
        check(engine)
        world.sim.run_until(world.sim.now + advance)
        check(engine)


@pytest.mark.parametrize("batching", [True, False], ids=["batched", "single"])
@settings(max_examples=40, deadline=None)
@given(steps=st.lists(STEPS, max_size=20))
@example(steps=SINK_BREAKER_OPEN + [   # every depth non-zero, every release path
    (("replay",), 0.02),            # its probe closes the breaker: records in flight
    (("publish", 1), 0.02),         # ... and back
    (("install", 1), 0.02),
    (("install", 1), 0.02),
    (("install", 1), 0.02),
])
def test_admission_depths_are_exact(batching, steps):
    """After any sequence of installs, uninstalls, disables, enables,
    hint bursts, outages and heals/replays, every service's hint backlog
    equals its applets with a fast poll pending, its retry depth its
    retry timers, and its replay depth its replay records in flight —
    in batches or one by one — so the watermarks read the truth and no
    depth needs clamping."""
    _drive(*_depth_world(batching), steps, check=_assert_depths_exact)


@pytest.mark.parametrize("reopened", [False, True], ids=["window_passed", "window_running"])
def test_an_explicit_drain_probes_the_open_breaker_itself(reopened):
    """``replay_dead_letters()`` into the sink's open breaker counts the
    wait and, with no other traffic, sends one letter as the half-open
    probe as soon as the breaker lets one through: at once when its
    recovery window has passed, at the window's end when a failed action
    has just re-opened it.  The probe closes the breaker, the drain
    delivers every replayable letter, and batched and unbatched replay
    spend the same attempts on it (a drain into the open breaker is shed,
    and a batch sheds fewer records than single sends do)."""
    spent = {}
    for batching in (True, False):
        world, services, install = _depth_world(batching)
        engine = world.engine
        _drive(world, services, install,
               SINK_BREAKER_OPEN + ([(("publish", 1), 0.5)] if reopened else []))
        sink = engine.service_registration("sink")
        assert sink.breaker.state is BreakerState.OPEN
        probe_at = max(sink.breaker.probe_at(), world.sim.now)
        assert (probe_at > world.sim.now) is reopened
        deferred = engine.stats()["delivery_replay_drains_deferred"]
        services["sink"].set_outage(False)
        engine.replay_dead_letters()
        stats = engine.stats()
        assert stats["dead_letters_replayed"] == (0 if reopened else 1)
        assert stats["delivery_replay_drains_deferred"] == deferred + 1
        world.sim.run_until(world.sim.now + 60.0)  # no publication probes the sink
        assert engine.replay.first_dispatch_at == probe_at
        assert sink.breaker.state is BreakerState.CLOSED
        stats = engine.stats()
        assert stats["replay_actions_failed"] == 0
        # Only the letters of the five uninstalled applets stay sealed.
        assert len(engine.dead_letters) == 5
        assert not any(letter.applet_id in engine._applets for letter in engine.dead_letters)
        spent[batching] = (
            stats["action_retries"], stats["dead_letters_replayed"],
            sum(record.attempts for _, record in engine.replay.deliveries),
        )
        _assert_depths_exact(engine)
    assert spent[True] == spent[False]
