"""Chaos scenarios: fault plans driven against a dedicated trigger/action world.

A :class:`ChaosWorld` is the smallest topology that exercises every
resilience mechanism end to end — one engine, one trigger ("sensor")
service, one action ("sink") service, joined through a core router — so
the effects of a :class:`~repro.faults.plan.FaultPlan` can be measured
precisely:

* every injected event carries its injection time, so trigger-to-action
  latency is measured at the *delivery* point (the sink's executor), not
  just at dispatch — retries and breaker shedding are visible in T2A;
* the engine's action accounting (delivered + dead-lettered + in-retry)
  is checked against dispatches: a chaos run proves no action is
  silently lost;
* the world snapshots its metrics via
  :func:`~repro.obs.metrics.deterministic_snapshot`, so the same
  ``(scenario, seed)`` serializes byte-identically run after run
  (``make chaos-check``).

Three scenarios ship built in:

``outage``
    A 60 s full outage of the action service, landing on top of an
    event burst — actions retry, shed against the open breaker, and
    dead-letter; T2A recovers to baseline after the heal.
``partition``
    The engine↔core link partitions for 40 s and heals — polls fail
    fast as connection-refused, events buffer at the (healthy) sensor,
    and delivery catches up after the heal.
``flappy``
    The sensor flaps (down half of every 24 s) for three minutes under
    steady load — a soak proving dedup and delivery conservation
    through repeated short outages.
``brownout``
    The sensor browns out for 120 s (50% of requests rejected, +100 ms
    service time) under steady load — the partial-failure mode the
    consecutive-failure breaker never trips on.  With
    :class:`~repro.engine.delivery.DeliveryPolicy` enabled
    (``delivery=`` / ``repro chaos --adaptive``) the run measures the
    adaptive stretch: arrivals at the victim during the fault window
    (sampled exactly by a :class:`_FaultWindowWatcher`), the post-heal
    stretch factors, and the post-heal poll-interval quartiles against
    the base policy's — the ≥3× request-rate drop and the §4
    distribution restoration are both pinned by ``make degrade-check``.

:class:`ShardedChaosWorld` scales the same experiments to a
:class:`~repro.engine.sharding.ShardedEngine` fleet: several
sensor/sink pairs spread across N shards, with every scenario's fault
retargeted to exactly one "victim" pair (and, for partitions, its home
shard's uplink).  A sharded run proves *isolation* — the victim shard's
breaker opens and recovers while the other shards' T2A matches a
fault-free run — on top of the fleet-wide conservation invariant.  Each
shard is an epoch-stepped simulator cell; a hop between cells costs at
least :data:`~repro.simcore.parallel.DEFAULT_LOOKAHEAD` (50 ms).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.applet import ActionRef, TriggerRef
from repro.engine.config import EngineConfig
from repro.engine.delivery import (
    DEGRADATION_LEVEL_NAMES,
    DeliveryPolicy,
    sampled_interval_quartiles,
)
from repro.engine.engine import IftttEngine
from repro.engine.oauth import OAuthAuthority
from repro.engine.push import DELIVERY_MODES, PushPolicy
from repro.engine.poller import FixedPollingPolicy
from repro.engine.replay import ReplayController
from repro.engine.resilience import ReplayPolicy, conservation_residual
from repro.engine.sharding import (
    ShardedEngine,
    merged_fleet_snapshot,
    stable_service_hash,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    FaultPlanError,
    link_down,
    service_brownout,
    service_flap,
    service_outage,
)
from repro.iot.gateway import GatewayRouter
from repro.net.address import Address
from repro.net.latency import cloud_internal_latency
from repro.net.network import CrossShardRouter, Network
from repro.obs.metrics import (
    MetricsRegistry,
    deterministic_snapshot,
    merge_snapshots,
)
from repro.services.endpoints import ActionEndpoint, TriggerEndpoint
from repro.services.partner import PartnerService
from repro.simcore.parallel import ShardedSimulator
from repro.simcore.rng import Rng
from repro.simcore.simulator import Simulator
from repro.simcore.trace import Trace

ENGINE_HOST = "engine.ifttt.cloud"
CORE_HOST = "core.internet"
SENSOR_HOST = "sensor.cloud"
SINK_HOST = "sink.cloud"
SENSOR_SLUG = "chaos_sensor"
SINK_SLUG = "chaos_sink"
CHAOS_USER = "chaos"

#: Extra settle time after the injection horizon so in-flight retries,
#: breaker recoveries, and buffered events all conclude before the
#: world's accounting is read.
DRAIN_SECONDS = 90.0


def chaos_engine_config(poll_interval: float) -> EngineConfig:
    """The engine config every chaos world runs unless handed its own."""
    return EngineConfig(
        poll_policy=FixedPollingPolicy(poll_interval),
        initial_poll_delay=0.5,
        poll_timeout=10.0,
        action_timeout=10.0,
    )


def _world_config(
    engine_config: Optional[EngineConfig],
    poll_interval: float,
    replay: Optional[ReplayPolicy],
    delivery: Optional[DeliveryPolicy],
    delivery_mode: str,
) -> EngineConfig:
    """A chaos world's engine config: its base, the ``replay`` /
    ``delivery`` policies when given, and one of three delivery modes.

    ``poll`` leaves the config untouched (the byte-identical default).
    ``hint`` honours every service's realtime hints
    (``realtime_allowlist=None``); the world then builds its sensors
    with ``realtime=True``.  ``push`` installs a default
    :class:`~repro.engine.push.PushPolicy` (an explicitly configured one
    wins) and the world builds its sensors with ``push=True``, so the
    contract negotiates at publication.
    """
    if delivery_mode not in DELIVERY_MODES:
        raise ValueError(
            f"unknown delivery_mode {delivery_mode!r}; "
            f"expected one of {DELIVERY_MODES}"
        )
    config = engine_config or chaos_engine_config(poll_interval)
    if replay is not None:
        config = replace(config, replay_policy=replay)
    if delivery is not None:
        config = replace(config, delivery_policy=delivery)
    if delivery_mode == "hint":
        return replace(config, realtime_allowlist=None)
    if delivery_mode == "push" and config.push_policy is None:
        return replace(config, push_policy=PushPolicy())
    return config


def _cadence(start: float, stop: float, step: float) -> Tuple[float, ...]:
    times = []
    t = start
    while t < stop:
        times.append(round(t, 6))
        t += step
    return tuple(times)


@dataclass(frozen=True)
class ChaosScenario:
    """One named chaos experiment: an event schedule plus a fault plan."""

    name: str
    description: str
    event_times: Tuple[float, ...]
    plan: FaultPlan

    @property
    def horizon(self) -> float:
        """When injection and faulting are both over."""
        last_event = self.event_times[-1] if self.event_times else 0.0
        return max(last_event, self.plan.end_time)


CHAOS_SCENARIOS: Dict[str, ChaosScenario] = {
    "outage": ChaosScenario(
        name="outage",
        description="60 s action-service outage during an event burst",
        event_times=tuple(sorted(
            _cadence(10.0, 190.0, 4.0) + _cadence(70.0, 90.0, 1.0)
        )),
        plan=FaultPlan((service_outage(SINK_SLUG, at=60.0, duration=60.0),)),
    ),
    "partition": ChaosScenario(
        name="partition",
        description="engine↔core partition for 40 s, then heal",
        event_times=_cadence(10.0, 190.0, 4.0),
        plan=FaultPlan((link_down(ENGINE_HOST, CORE_HOST, at=60.0, duration=40.0),)),
    ),
    "flappy": ChaosScenario(
        name="flappy",
        description="sensor service flapping (12 s down / 12 s up) soak",
        event_times=_cadence(10.0, 280.0, 4.0),
        plan=FaultPlan((
            service_flap(SENSOR_SLUG, at=30.0, duration=180.0, period=24.0, duty=0.5),
        )),
    ),
    "brownout": ChaosScenario(
        name="brownout",
        description="sensor brownout for 120 s (50% rejects, +100 ms)",
        event_times=_cadence(10.0, 250.0, 4.0),
        plan=FaultPlan((
            service_brownout(
                SENSOR_SLUG, at=60.0, duration=120.0,
                error_rate=0.5, extra_latency=0.1,
            ),
        )),
    ),
}


def chaos_scenario(name: str, plan: Optional[FaultPlan] = None) -> ChaosScenario:
    """Look up a built-in chaos scenario, optionally swapping in ``plan``."""
    try:
        scenario = CHAOS_SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos scenario {name!r}; expected one of {sorted(CHAOS_SCENARIOS)}"
        ) from None
    if plan is None:
        return scenario
    return replace(
        scenario, description=f"{scenario.description} (custom plan)", plan=plan
    )


class _FaultWindowWatcher:
    """Exact per-service request arrivals inside each fault window.

    The adaptive-delivery acceptance criterion ("the victim's request
    rate drops ≥3× during the brownout") needs the number of requests
    that *arrived at the victim* strictly inside the fault window —
    sampled, not inferred from rates.  The watcher schedules one edge
    callback at each service fault's ``at`` and ``end`` and differences
    the node's ``requests_served`` counter between the two, so the count
    is exact regardless of poll policy, retries, or batching.  The edge
    events are themselves deterministic (fixed times, no RNG), so
    watching does not perturb the run-to-run snapshot gates.
    """

    def __init__(self, sim: Simulator, services_by_slug: Dict[str, PartnerService]) -> None:
        self.sim = sim
        self.services = services_by_slug
        #: slug -> requests that arrived inside that service's fault windows.
        self.requests: Dict[str, int] = {}
        self._window_starts: Dict[str, List[int]] = {}

    def watch(self, plan: FaultPlan) -> None:
        """Arm edge samplers for every service fault in the plan."""
        for spec in plan:
            service = self.services.get(spec.service) if spec.service else None
            if service is None:
                continue
            self.sim.schedule(
                max(0.0, spec.at - self.sim.now), self._edge, spec.service, service, True,
                label=f"chaos-window-open:{spec.service}",
            )
            self.sim.schedule(
                max(0.0, spec.end - self.sim.now), self._edge, spec.service, service, False,
                label=f"chaos-window-close:{spec.service}",
            )

    def _edge(self, slug: str, service: PartnerService, opening: bool) -> None:
        served = service.requests_served
        if opening:
            self._window_starts.setdefault(slug, []).append(served)
            return
        starts = self._window_starts.get(slug)
        if starts:
            self.requests[slug] = self.requests.get(slug, 0) + (served - starts.pop(0))


@dataclass
class ReplayReport:
    """The catch-up burst a dead-letter replay produced, measured.

    §6's fleet-load discussion warns that recovery traffic is
    *instantaneously* bursty: after a heal, every deferred delivery
    wants to go out at once.  This report quantifies that burst —
    request rate, duration, and the T2A the replayed events finally
    achieved — so batched dispatch (one request per
    :attr:`~repro.engine.resilience.ReplayPolicy.batch_limit` actions)
    can be compared against single-shot replay on the same scenario.
    """

    batching: bool
    batch_limit: int
    replayed: int
    requests_sent: int
    delivered: int
    refailed: int
    drains: int
    #: First re-dispatch and last replayed delivery (sim seconds).
    burst_start: Optional[float]
    burst_end: Optional[float]
    #: Trigger-to-action latency of each replayed delivery, measured
    #: from the action's *original* dispatch commitment.
    t2a: List[float] = field(default_factory=list)
    #: Mean engine request rate over the whole run, for the burst ratio.
    steady_requests_per_second: float = 0.0

    @property
    def duration(self) -> float:
        """Burst envelope length in seconds (0.0 if nothing replayed)."""
        if self.burst_start is None or self.burst_end is None:
            return 0.0
        return max(0.0, self.burst_end - self.burst_start)

    @property
    def requests_per_second(self) -> float:
        """Replay requests over the burst envelope."""
        if self.requests_sent == 0:
            return 0.0
        duration = self.duration
        return self.requests_sent / duration if duration > 0 else float("inf")

    @property
    def burst_ratio(self) -> float:
        """Burst request rate over the run's steady rate (§6's
        peak-to-mean burstiness, applied to recovery traffic)."""
        if self.steady_requests_per_second <= 0:
            return 0.0
        rps = self.requests_per_second
        return rps / self.steady_requests_per_second if rps != float("inf") else float("inf")

    def t2a_mean(self) -> float:
        return sum(self.t2a) / len(self.t2a) if self.t2a else 0.0

    def t2a_max(self) -> float:
        return max(self.t2a) if self.t2a else 0.0

    def summary_lines(self) -> List[str]:
        mode = (
            f"batched (limit={self.batch_limit})" if self.batching else "unbatched"
        )
        lines = [
            f"  replay [{mode}]: replayed={self.replayed} "
            f"requests={self.requests_sent} delivered={self.delivered} "
            f"refailed={self.refailed} drains={self.drains}",
        ]
        if self.replayed:
            lines.append(
                f"    burst: {self.duration:.2f}s at "
                f"{self.requests_per_second:.2f} req/s "
                f"({self.burst_ratio:.1f}x steady "
                f"{self.steady_requests_per_second:.2f} req/s)"
            )
        if self.t2a:
            lines.append(
                f"    replayed t2a: n={len(self.t2a)} "
                f"mean={self.t2a_mean():.2f}s max={self.t2a_max():.2f}s"
            )
        return lines


def _replay_report(
    controllers: List[ReplayController], ran_until: float, total_requests: int
) -> Optional[ReplayReport]:
    """Fold one or more shard-local replay controllers into one report."""
    controllers = [c for c in controllers if c is not None]
    if not controllers:
        return None
    policy = controllers[0].policy
    starts = [c.first_dispatch_at for c in controllers if c.first_dispatch_at is not None]
    ends = [c.last_delivery_at for c in controllers if c.last_delivery_at is not None]
    deliveries = sorted(
        ((at, record) for c in controllers for at, record in c.deliveries),
        key=lambda pair: pair[0],
    )
    return ReplayReport(
        batching=policy.batching,
        batch_limit=policy.batch_limit,
        replayed=sum(c.dead_letters_replayed for c in controllers),
        requests_sent=sum(c.requests_sent for c in controllers),
        delivered=sum(c.actions_delivered for c in controllers),
        refailed=sum(c.actions_failed for c in controllers),
        drains=sum(c.drains for c in controllers),
        burst_start=min(starts) if starts else None,
        burst_end=max(ends) if ends else None,
        t2a=[max(0.0, at - record.created_at) for at, record in deliveries],
        steady_requests_per_second=(
            total_requests / ran_until if ran_until > 0 else 0.0
        ),
    )


class _QuartileDrift:
    """The quartile-restoration readout both result records share."""

    @property
    def post_heal_quartile_drift(self) -> float:
        """Worst relative deviation of the post-heal quartiles from the
        base policy's (0.0 when the run measured no quartiles)."""
        post, base = self.post_heal_quartiles, self.baseline_quartiles
        if post is None or base is None:
            return 0.0
        drifts = [abs(p - b) / b for p, b in zip(post, base) if b > 0]
        return max(drifts) if drifts else 0.0


def _delivery_extras(engines: List[IftttEngine], probe: Any) -> Dict[str, Any]:
    """Post-run adaptive-delivery readout, folded across engines.

    Stretch factors and ladder levels are max-merged across engines —
    the same algebra the gauge merge applies to shard-scoped
    ``degradation_level`` families.  Overload dead letters are counted
    from the letters themselves (reason ``"overload"``) so the readout
    is exact even without a :class:`DeliveryController`.  ``probe`` is
    the victim applet's engine runtime: when its trigger service has a
    live health tracker, the post-run interval distribution — a fresh
    clone of the applet's policy times the live stretch factor, i.e.
    what the engine would draw on the poll rung — is sampled against
    the bare policy's.  The probes run on a private seeded RNG and
    touch no metrics, so they cannot perturb the already-taken snapshot.
    """
    stretch: Dict[str, float] = {}
    levels: Dict[str, int] = {}
    overload: Dict[str, int] = {}
    for engine in engines:
        for letter in engine.dead_letters:
            if letter.reason == "overload":
                overload[letter.service_slug] = overload.get(letter.service_slug, 0) + 1
        if engine.delivery is None:
            continue
        for link in engine.delivery.tracked():
            stretch[link.slug] = max(stretch.get(link.slug, 0.0), link.health.stretch)
            levels[link.slug] = max(levels.get(link.slug, 0), link.level)
    extras: Dict[str, Any] = {
        "post_heal_stretch": stretch,
        "degradation_levels": levels,
        "overload_dead_letters_by_service": overload,
        "post_heal_quartiles": None,
        "baseline_quartiles": None,
    }
    health = probe.link.health
    if health is not None:
        policy = probe.policy.clone()
        extras["post_heal_quartiles"] = sampled_interval_quartiles(
            lambda rng: policy.next_interval(rng) * health.stretch_factor(rng)
        )
        extras["baseline_quartiles"] = sampled_interval_quartiles(
            probe.policy.clone().next_interval
        )
    return extras


def _delivery_summary_lines(result: Any) -> List[str]:
    """Human-readable lines for the adaptive-delivery readout (shared by
    :class:`ChaosResult` and :class:`ShardedChaosResult`)."""
    lines: List[str] = []
    if result.fault_window_requests:
        window = " ".join(
            f"{slug}={count}"
            for slug, count in sorted(result.fault_window_requests.items())
        )
        lines.append(f"  fault-window arrivals: {window}")
    if result.post_heal_stretch:
        stretch = " ".join(
            f"{slug}={value:.2f}"
            for slug, value in sorted(result.post_heal_stretch.items())
        )
        levels = " ".join(
            f"{slug}={DEGRADATION_LEVEL_NAMES[level]}"
            for slug, level in sorted(result.degradation_levels.items())
        )
        lines.append(f"  delivery: post-heal stretch {stretch}; levels {levels}")
        if result.overload_dead_letters_by_service:
            shed = " ".join(
                f"{slug}={count}"
                for slug, count in sorted(result.overload_dead_letters_by_service.items())
            )
            lines.append(f"  delivery: overload dead letters {shed}")
        if result.post_heal_quartiles is not None and result.baseline_quartiles is not None:
            post = "/".join(f"{q:.1f}" for q in result.post_heal_quartiles)
            base = "/".join(f"{q:.1f}" for q in result.baseline_quartiles)
            lines.append(
                f"  delivery: post-heal interval quartiles {post}s "
                f"(base {base}s, drift {result.post_heal_quartile_drift:.1%})"
            )
    return lines


@dataclass
class ChaosResult(_QuartileDrift):
    """Everything a chaos run proves, in one record."""

    scenario: str
    seed: int
    ran_until: float
    events_injected: int
    events_observed: int
    actions_dispatched: int
    actions_delivered: int
    actions_dead_lettered: int
    actions_in_retry: int
    actions_in_replay: int
    t2a_by_phase: Dict[str, List[float]]
    breaker_transitions: List[Tuple[float, str, str, str]]
    faults_activated: int
    faults_deactivated: int
    engine_stats: Dict[str, int]
    snapshot: Dict[str, Any] = field(repr=False)
    replay: Optional[ReplayReport] = None
    #: slug -> requests that arrived inside that service's fault windows
    #: (sampled exactly by the :class:`_FaultWindowWatcher`).
    fault_window_requests: Dict[str, int] = field(default_factory=dict)
    #: Adaptive-delivery readout — empty without a ``delivery=`` policy.
    post_heal_stretch: Dict[str, float] = field(default_factory=dict)
    degradation_levels: Dict[str, int] = field(default_factory=dict)
    overload_dead_letters_by_service: Dict[str, int] = field(default_factory=dict)
    #: Victim-applet interval quartiles sampled post-run: its policy
    #: under the live health stretch vs. the bare policy — equal (within
    #: drift) once the stretch has decayed, i.e. §4's distribution is back.
    post_heal_quartiles: Optional[Tuple[float, float, float]] = None
    baseline_quartiles: Optional[Tuple[float, float, float]] = None

    @property
    def actions_silently_lost(self) -> int:
        """Dispatches unaccounted for — the invariant says zero."""
        return conservation_residual(self.engine_stats)

    def t2a_max(self, phase: str) -> float:
        """Worst T2A in one phase (0.0 when the phase saw no deliveries)."""
        values = self.t2a_by_phase.get(phase, [])
        return max(values) if values else 0.0

    def summary(self) -> str:
        """A human-readable multi-line report."""
        lines = [
            f"chaos scenario {self.scenario!r} (seed {self.seed}, "
            f"t={self.ran_until:g}s)",
            f"  events:  injected={self.events_injected} "
            f"observed={self.events_observed}",
            f"  actions: dispatched={self.actions_dispatched} "
            f"delivered={self.actions_delivered} "
            f"dead-lettered={self.actions_dead_lettered} "
            f"in-retry={self.actions_in_retry} "
            f"silently-lost={self.actions_silently_lost}",
            f"  faults:  activated={self.faults_activated} "
            f"deactivated={self.faults_deactivated}",
            f"  engine:  retries poll={self.engine_stats['poll_retries']} "
            f"action={self.engine_stats['action_retries']}; shed "
            f"polls={self.engine_stats['polls_shed']} "
            f"actions={self.engine_stats['actions_shed']}",
        ]
        if self.replay is not None:
            lines.extend(self.replay.summary_lines())
        lines.extend(_delivery_summary_lines(self))
        for phase in ("before", "during", "after"):
            values = self.t2a_by_phase.get(phase, [])
            if values:
                mean = sum(values) / len(values)
                lines.append(
                    f"  t2a[{phase:6s}]: n={len(values)} mean={mean:.2f}s "
                    f"max={max(values):.2f}s"
                )
        for at, service, old, new in self.breaker_transitions:
            lines.append(f"  breaker {service}: {old} -> {new} at t={at:.2f}s")
        return "\n".join(lines)


class ChaosWorld:
    """The minimal fault-injection topology (engine, sensor, sink).

    (``__test__`` opts the class out of pytest collection.)
    """

    __test__ = False

    def __init__(
        self,
        seed: int = 7,
        poll_interval: float = 5.0,
        engine_config: Optional[EngineConfig] = None,
        replay: Optional[ReplayPolicy] = None,
        delivery: Optional[DeliveryPolicy] = None,
        delivery_mode: str = "poll",
    ) -> None:
        self.seed = seed
        self.sim = Simulator()
        self.rng = Rng(seed=seed, name="chaos")
        self.trace = Trace()
        self.metrics = MetricsRegistry()
        self.sim.metrics = self.metrics
        self.network = Network(self.sim, self.rng.fork("network"), metrics=self.metrics)
        config = _world_config(engine_config, poll_interval, replay, delivery, delivery_mode)
        self.engine = self.network.add_node(IftttEngine(
            Address(ENGINE_HOST), config=config,
            rng=self.rng.fork("engine"), trace=self.trace, service_time=0.0,
        ))
        self.core = self.network.add_node(GatewayRouter(Address(CORE_HOST)))
        self.sensor = self.network.add_node(PartnerService(
            Address(SENSOR_HOST), slug=SENSOR_SLUG, trace=self.trace, service_time=0.0,
            realtime=delivery_mode == "hint", push=delivery_mode == "push",
        ))
        self.sink = self.network.add_node(PartnerService(
            Address(SINK_HOST), slug=SINK_SLUG, trace=self.trace, service_time=0.0,
        ))
        for node in (self.engine, self.sensor, self.sink):
            self.network.connect(node.address, self.core.address, cloud_internal_latency())

        #: ``(delivered_at, fields)`` per sink execution, in delivery order.
        self.delivered: List[Tuple[float, Dict[str, Any]]] = []
        self.events_injected = 0
        self.sensor.add_trigger(TriggerEndpoint(slug="tick", name="Tick"))
        self.sink.add_action(ActionEndpoint(
            slug="deliver", name="Deliver",
            executor=lambda fields: self.delivered.append((self.sim.now, dict(fields))),
        ))
        for service in (self.sensor, self.sink):
            self.engine.publish_service(service)
            authority = OAuthAuthority(service.slug)
            authority.register_user(CHAOS_USER, "pw")
            self.engine.connect_service(CHAOS_USER, service, authority, "pw")
        self.applet = self.engine.install_applet(
            user=CHAOS_USER, name="tick->deliver",
            trigger=TriggerRef(SENSOR_SLUG, "tick"),
            action=ActionRef(SINK_SLUG, "deliver",
                             {"n": "{{n}}", "injected_at": "{{injected_at}}"}),
        )
        self.injector = FaultInjector(
            self.sim, self.network,
            services=(self.sensor, self.sink),
            rng=self.rng.fork("faults"),
            metrics=self.metrics, trace=self.trace,
        )
        self.watcher = _FaultWindowWatcher(
            self.sim, {SENSOR_SLUG: self.sensor, SINK_SLUG: self.sink}
        )

    def schedule_events(self, times: Tuple[float, ...]) -> None:
        """Schedule one sensor event per entry (absolute sim seconds)."""
        for index, at in enumerate(times):
            self.sim.schedule(
                max(0.0, at - self.sim.now), self._inject, index, at,
                label=f"chaos-event#{index}",
            )

    def _inject(self, index: int, planned_at: float) -> None:
        self.events_injected += 1
        self.sensor.ingest_event("tick", {"n": index, "injected_at": planned_at})

    def run(self, scenario: ChaosScenario, drain: float = DRAIN_SECONDS) -> ChaosResult:
        """Apply the scenario's plan, drive its events, settle, account."""
        self.injector.apply(scenario.plan)
        self.watcher.watch(scenario.plan)
        self.schedule_events(scenario.event_times)
        until = scenario.horizon + drain
        self.sim.run_until(until)
        return self._result(scenario, until)

    def _result(self, scenario: ChaosScenario, until: float) -> ChaosResult:
        engine = self.engine
        t2a_by_phase: Dict[str, List[float]] = {}
        phase_of = _phase_classifier(scenario.plan)
        for delivered_at, fields in self.delivered:
            injected_at = float(fields["injected_at"])
            phase = phase_of(injected_at)
            t2a_by_phase.setdefault(phase, []).append(delivered_at - injected_at)
        stats = engine.stats()
        snapshot = deterministic_snapshot(self.metrics)
        extras = _delivery_extras([engine], engine._applets[self.applet.applet_id])
        return ChaosResult(
            scenario=scenario.name,
            seed=self.seed,
            ran_until=until,
            events_injected=self.events_injected,
            events_observed=int(self.metrics.total("engine.events_observed")),
            actions_dispatched=engine.actions_dispatched,
            actions_delivered=engine.actions_delivered,
            actions_dead_lettered=len(engine.dead_letters),
            actions_in_retry=engine.actions_in_retry,
            actions_in_replay=engine.actions_in_replay,
            t2a_by_phase=t2a_by_phase,
            breaker_transitions=engine.breaker_transitions(),
            faults_activated=self.injector.activations,
            faults_deactivated=self.injector.deactivations,
            engine_stats=stats,
            snapshot=snapshot,
            replay=_replay_report(
                [engine.replay], until,
                stats["polls_sent"] + stats["actions_dispatched"],
            ),
            fault_window_requests=dict(self.watcher.requests),
            **extras,
        )


def _phase_classifier(plan: FaultPlan) -> Callable[[float], str]:
    """Which fault phase (before / during / after) an injection time falls
    into under ``plan``.

    The plan's fault windows and ``end_time`` are read once here, not
    once per delivered action.
    """
    windows = tuple((spec.at, spec.end) for spec in plan)
    end_time = plan.end_time

    def phase_of(t: float) -> str:
        for at, end in windows:
            if at <= t < end:
                return "during"
        if windows and t >= end_time:
            return "after"
        return "before"

    return phase_of


def run_chaos_scenario(
    name: str,
    seed: int = 7,
    plan: Optional[FaultPlan] = None,
    poll_interval: float = 5.0,
    drain: float = DRAIN_SECONDS,
    replay: Optional[ReplayPolicy] = None,
    delivery: Optional[DeliveryPolicy] = None,
    delivery_mode: str = "poll",
) -> ChaosResult:
    """Run one chaos scenario end to end and return its accounting.

    ``plan`` overrides the scenario's built-in fault plan (the event
    schedule is kept), which is how ``--faults PLAN.json`` plugs in.
    ``replay`` enables dead-letter replay with the given policy (see
    ``--replay``); the result then carries a :class:`ReplayReport`.
    ``delivery`` enables health-aware adaptive delivery (see
    ``--adaptive``); the result then carries post-heal stretch, ladder
    levels, and interval-quartile measurements.  ``delivery_mode``
    selects how sensor events reach the engine — ``poll`` (default),
    ``hint`` (realtime hints, all honoured), or ``push`` (payload
    notifications under the push contract; see ``--delivery``).
    """
    scenario = chaos_scenario(name, plan)
    world = ChaosWorld(
        seed=seed, poll_interval=poll_interval, replay=replay, delivery=delivery,
        delivery_mode=delivery_mode,
    )
    return world.run(scenario, drain=drain)


# -- sharded chaos ----------------------------------------------------------------

#: Sensor/sink pairs a sharded chaos world instantiates by default.  Six
#: pairs spread (by CRC32) across all shards of every fleet size the
#: acceptance runs use, so "the other shards" is never an empty set.
SHARDED_PAIRS = 6

SHARD_HOST_PATTERN = "engine{shard}.ifttt.cloud"


def retarget_plan_for_shards(
    plan: FaultPlan, sensor_slug: str, sink_slug: str, engine_host: str
) -> FaultPlan:
    """Rewrite an unsharded fault plan against a sharded world's names.

    The built-in scenarios (and any ``--faults PLAN.json`` written for
    the single-engine world) speak the unsharded vocabulary —
    ``chaos_sensor`` / ``chaos_sink`` / ``engine.ifttt.cloud``.  A
    sharded world has ``chaos_sensor<p>`` pairs and ``engine<i>.*``
    hosts, so those references are retargeted onto the victim pair's
    sensor/sink and the victim shard's host; everything else (timing,
    rates, link endpoints like the core) passes through unchanged.
    """
    specs = []
    for spec in plan:
        changes: Dict[str, Any] = {}
        if spec.service == SENSOR_SLUG:
            changes["service"] = sensor_slug
        elif spec.service == SINK_SLUG:
            changes["service"] = sink_slug
        for attr in ("a", "b"):
            if getattr(spec, attr) == ENGINE_HOST:
                changes[attr] = engine_host
        specs.append(replace(spec, **changes) if changes else spec)
    return FaultPlan(tuple(specs))


@dataclass
class ShardedChaosResult(_QuartileDrift):
    """A fleet-wide chaos run: per-shard accounting plus fleet totals."""

    scenario: str
    seed: int
    num_shards: int
    strategy: str
    victim_shard: int
    ran_until: float
    events_injected: int
    events_observed: int
    fleet_stats: Dict[str, int]
    shard_stats: List[Dict[str, int]]
    #: shard -> fault phase -> T2A samples for deliveries it owned.
    t2a_by_shard: Dict[int, Dict[str, List[float]]]
    breaker_transitions_by_shard: Dict[int, List[Tuple[float, str, str, str]]]
    faults_activated: int
    faults_deactivated: int
    assignments: Dict[str, int]
    shard_loads: List[int]
    snapshot: Dict[str, Any] = field(repr=False)
    merged_engine_snapshot: Dict[str, Any] = field(repr=False)
    replay: Optional[ReplayReport] = None
    #: slug -> requests that arrived inside that service's fault windows
    #: (sampled exactly by the :class:`_FaultWindowWatcher`).
    fault_window_requests: Dict[str, int] = field(default_factory=dict)
    #: Adaptive-delivery readout, max-merged across shards — empty
    #: without a ``delivery=`` policy.
    post_heal_stretch: Dict[str, float] = field(default_factory=dict)
    degradation_levels: Dict[str, int] = field(default_factory=dict)
    overload_dead_letters_by_service: Dict[str, int] = field(default_factory=dict)
    #: Victim-applet interval quartiles sampled post-run: its policy
    #: under the live health stretch vs. the bare policy (victim shard).
    post_heal_quartiles: Optional[Tuple[float, float, float]] = None
    baseline_quartiles: Optional[Tuple[float, float, float]] = None
    #: Epoch-stepping readout.
    epochs: int = 0
    mailbox_messages: int = 0
    cross_shard_messages: int = 0

    @property
    def shard_silently_lost(self) -> List[int]:
        """Per-shard conservation residual — all zeros or the run failed."""
        return [conservation_residual(stats) for stats in self.shard_stats]

    @property
    def actions_silently_lost(self) -> int:
        """Fleet-wide conservation residual (sum of the per-shard ones)."""
        return sum(self.shard_silently_lost)

    def t2a_values(self, shards, phase: Optional[str] = None) -> List[float]:
        """T2A samples for a set of shards (one phase, or all phases)."""
        values: List[float] = []
        for shard in shards:
            by_phase = self.t2a_by_shard.get(shard, {})
            phases = [phase] if phase is not None else sorted(by_phase)
            for key in phases:
                values.extend(by_phase.get(key, []))
        return values

    @property
    def healthy_shards(self) -> List[int]:
        """Every shard except the victim."""
        return [s for s in range(self.num_shards) if s != self.victim_shard]

    def summary(self) -> str:
        """A human-readable multi-line fleet report."""
        stats = self.fleet_stats
        lines = [
            f"sharded chaos scenario {self.scenario!r} "
            f"(seed {self.seed}, shards={self.num_shards}, "
            f"strategy={self.strategy}, t={self.ran_until:g}s)",
            f"  victim shard: {self.victim_shard} "
            f"(loads: {self.shard_loads})",
            f"  events:  injected={self.events_injected} "
            f"observed={self.events_observed}",
            f"  actions: dispatched={stats['actions_dispatched']} "
            f"delivered={stats['actions_delivered']} "
            f"dead-lettered={stats['dead_letters']} "
            f"in-retry={stats['actions_in_retry']} "
            f"silently-lost={self.actions_silently_lost}",
            f"  faults:  activated={self.faults_activated} "
            f"deactivated={self.faults_deactivated}",
        ]
        if self.replay is not None:
            lines.extend(self.replay.summary_lines())
        lines.extend(_delivery_summary_lines(self))
        for shard in range(self.num_shards):
            tag = " (victim)" if shard == self.victim_shard else ""
            per = self.shard_stats[shard]
            t2a = self.t2a_values([shard])
            mean = sum(t2a) / len(t2a) if t2a else 0.0
            lines.append(
                f"  shard {shard}{tag}: applets={per['applets']} "
                f"delivered={per['actions_delivered']} "
                f"dead-lettered={per['dead_letters']} "
                f"shed={per['actions_shed']} "
                f"t2a mean={mean:.2f}s n={len(t2a)}"
            )
            for at, service, old, new in self.breaker_transitions_by_shard.get(shard, []):
                lines.append(
                    f"    breaker {service}: {old} -> {new} at t={at:.2f}s"
                )
        return "\n".join(lines)


class ShardedChaosWorld:
    """The chaos topology scaled out to a sharded engine fleet.

    ``pairs`` independent sensor/sink chains (``chaos_sensor<p>`` →
    ``chaos_sink<p>``) are installed through a
    :class:`~repro.engine.sharding.ShardedEngine`, landing on shards per
    the configured strategy.  Pair 0 is the designated *victim*: every
    scenario's fault plan is retargeted onto its sensor/sink — and, for
    engine-side partitions, onto its home shard's uplink — so exactly
    one shard takes the damage and the rest measure isolation.

    Every shard is a self-contained *cell*: its own
    :class:`~repro.simcore.simulator.Simulator`, :class:`Network`, core
    router, metrics registry, and fault injector.  Sensors and sinks are
    homed on the cell ``stable_service_hash(slug) % num_shards`` (a
    strategy-independent placement), so any shard whose applets trigger
    on a remote cell's sensor polls it *across* cells: that traffic goes
    through the :class:`~repro.net.network.CrossShardRouter` and the
    stepper's epoch-barriered mailboxes — realtime hints and push
    notifications cross the same way — and pays at least the stepper's
    lookahead (50 ms) per hop.  That floor is the model's cost of
    leaving a shard, not a stepping artefact.

    The stepper advances the cells one after another inside each epoch;
    cross-cell messages drain in the sorted ``(deliver_at, src, seq)``
    mailbox order, so the deterministic snapshot does not depend on the
    order the cells are stepped in.

    (``__test__`` opts the class out of pytest collection.)
    """

    __test__ = False

    def __init__(
        self,
        seed: int = 7,
        poll_interval: float = 5.0,
        num_shards: int = 4,
        shard_strategy: str = "service_hash",
        pairs: int = SHARDED_PAIRS,
        engine_config: Optional[EngineConfig] = None,
        replay: Optional[ReplayPolicy] = None,
        delivery: Optional[DeliveryPolicy] = None,
        delivery_mode: str = "poll",
        jobs: int = 1,  # frozen benchmarks/ledger/adapters.py; removed by ROADMAP 1(a)
    ) -> None:
        self.seed = seed
        self.stepper = ShardedSimulator(num_shards)
        self.rng = Rng(seed=seed, name="chaos")
        # One cell per shard: registry, network, core.  A cell has one
        # heap and one registry; nothing is shared across cells except
        # the mailboxes, so the shared Trace is omitted on purpose (none
        # of the sharded accounting reads it).
        self.registries: List[MetricsRegistry] = []
        self.networks: List[Network] = []
        for index in range(num_shards):
            registry = MetricsRegistry()
            sim = self.stepper.sims[index]
            sim.metrics = registry
            self.registries.append(registry)
            self.networks.append(
                Network(sim, self.rng.fork(f"network{index}"), metrics=registry)
            )
        self.router = CrossShardRouter(self.stepper)
        self.fleet = ShardedEngine(
            self.networks,
            config=_world_config(engine_config, poll_interval, replay, delivery, delivery_mode),
            rng=self.rng.fork("engine"),
            num_shards=num_shards,
            shard_strategy=shard_strategy,
            host_pattern=SHARD_HOST_PATTERN,
            service_time=0.0,
        )
        self.cores = []
        for index, network in enumerate(self.networks):
            core = network.add_node(GatewayRouter(Address(CORE_HOST)))
            network.connect(
                self.fleet.shards[index].address, core.address,
                cloud_internal_latency(),
            )
            # Cross-cell sends exit through the cell's core: a shard
            # partitioned from it is connection-refused on remote polls
            # too, and inbound cross-cell traffic is dropped mid-path.
            network.gateway = core.address
            self.router.attach(network, index)
            self.cores.append(core)

        #: ``(delivered_at, pair, fields)`` sink executions, in the order
        #: the cells were stepped (not time order across cells).
        self._delivered: List[Tuple[float, int, Dict[str, Any]]] = []
        self._events_injected = 0
        self.sensors: List[PartnerService] = []
        self.sinks: List[PartnerService] = []
        #: pair -> home cell, and cell -> {slug: service} for plan splits.
        self._pair_home: List[int] = []
        self._cell_services: List[Dict[str, PartnerService]] = [
            {} for _ in range(num_shards)
        ]
        for pair in range(pairs):
            # Sensor and sink are homed *independently* by their own slug
            # hashes.  Under ``service_hash`` the applet's shard equals
            # the sensor's home (polls stay cell-local — the affinity the
            # strategy exists for) while its sink usually hashes
            # elsewhere, so action dispatches genuinely cross cells; under
            # ``round_robin`` polls cross too.
            sensor_cell = stable_service_hash(f"{SENSOR_SLUG}{pair}") % num_shards
            sink_cell = stable_service_hash(f"{SINK_SLUG}{pair}") % num_shards
            self._pair_home.append(sensor_cell)
            sensor = self.networks[sensor_cell].add_node(PartnerService(
                Address(f"sensor{pair}.cloud"), slug=f"{SENSOR_SLUG}{pair}",
                service_time=0.0,
                realtime=delivery_mode == "hint", push=delivery_mode == "push",
            ))
            sensor.add_trigger(TriggerEndpoint(slug="tick", name="Tick"))
            sink = self.networks[sink_cell].add_node(PartnerService(
                Address(f"sink{pair}.cloud"), slug=f"{SINK_SLUG}{pair}",
                service_time=0.0,
            ))
            sink.add_action(ActionEndpoint(
                slug="deliver", name="Deliver",
                executor=self._sink_recorder(sink_cell, pair),
            ))
            for cell, node in ((sensor_cell, sensor), (sink_cell, sink)):
                self.networks[cell].connect(
                    node.address, self.cores[cell].address,
                    cloud_internal_latency(),
                )
            self._cell_services[sensor_cell][sensor.slug] = sensor
            self._cell_services[sink_cell][sink.slug] = sink
            self.sensors.append(sensor)
            self.sinks.append(sink)
        for service in self.sensors + self.sinks:
            self.fleet.publish_service(service)
            authority = OAuthAuthority(service.slug)
            authority.register_user(CHAOS_USER, "pw")
            self.fleet.connect_service(CHAOS_USER, service, authority, "pw")
        self.applets = [
            self.fleet.install_applet(
                user=CHAOS_USER, name=f"tick{pair}->deliver{pair}",
                trigger=TriggerRef(f"{SENSOR_SLUG}{pair}", "tick"),
                action=ActionRef(f"{SINK_SLUG}{pair}", "deliver",
                                 {"n": "{{n}}", "injected_at": "{{injected_at}}"}),
            )
            for pair in range(pairs)
        ]
        self.victim_shard = self.fleet.shard_of(self.applets[0].applet_id)
        # One injector and one fault-window watcher per cell, each armed
        # only with that cell's slice of a (retargeted) plan.
        self.injectors = [
            FaultInjector(
                self.stepper.sims[index], self.networks[index],
                services=tuple(self._cell_services[index].values()),
                rng=self.rng.fork(f"faults{index}"),
                metrics=self.registries[index],
            )
            for index in range(num_shards)
        ]
        self.watchers = [
            _FaultWindowWatcher(self.stepper.sims[index], self._cell_services[index])
            for index in range(num_shards)
        ]

    def _sink_recorder(self, cell: int, pair: int):
        sim = self.stepper.sims[cell]
        delivered = self._delivered

        def record(fields: Dict[str, Any]) -> None:
            delivered.append((sim.now, pair, dict(fields)))

        return record

    def retarget(self, plan: FaultPlan) -> FaultPlan:
        """An unsharded plan, aimed at the victim pair and shard."""
        return retarget_plan_for_shards(
            plan,
            sensor_slug=f"{SENSOR_SLUG}0",
            sink_slug=f"{SINK_SLUG}0",
            engine_host=SHARD_HOST_PATTERN.format(shard=self.victim_shard),
        )

    def _owning_cell(self, spec) -> int:
        """Which cell a fault spec belongs to (service home or link home)."""
        if spec.service:
            for cell, services in enumerate(self._cell_services):
                if spec.service in services:
                    return cell
            raise FaultPlanError(
                f"{spec.kind}: unknown service {spec.service!r} in this world"
            )
        a, b = Address(spec.a), Address(spec.b)
        for cell, network in enumerate(self.networks):
            if network.link_between(a, b) is not None:
                return cell
        raise FaultPlanError(
            f"{spec.kind}: no cell has a link between {spec.a} and {spec.b}"
        )

    def _split_plan(self, plan: FaultPlan) -> List[FaultPlan]:
        """One sub-plan per cell, in the owning cell's vocabulary."""
        per_cell: List[List[Any]] = [[] for _ in range(self.stepper.num_shards)]
        for spec in plan:
            per_cell[self._owning_cell(spec)].append(spec)
        return [FaultPlan(tuple(specs)) for specs in per_cell]

    def schedule_events(self, times: Tuple[float, ...]) -> None:
        """Schedule each event cadence entry into every pair's home cell."""
        sims = self.stepper.sims
        homes = [
            (pair, sims[cell], sims[cell].now) for pair, cell in enumerate(self._pair_home)
        ]
        for index, at in enumerate(times):
            for pair, sim, now in homes:
                delay = at - now
                sim.schedule(
                    delay if delay > 0.0 else 0.0, self._inject, pair, index, at,
                    label=f"chaos-event#{index}.{pair}",
                )

    def _inject(self, pair: int, index: int, planned_at: float) -> None:
        self._events_injected += 1
        self.sensors[pair].ingest_event("tick", {"n": index, "injected_at": planned_at})

    def run(self, scenario: ChaosScenario, drain: float = DRAIN_SECONDS) -> ShardedChaosResult:
        """Retarget the plan at the victim, drive events, settle, account."""
        plan = self.retarget(scenario.plan)
        for cell, subplan in enumerate(self._split_plan(plan)):
            if subplan.specs:
                self.injectors[cell].apply(subplan)
                self.watchers[cell].watch(subplan)
        self.schedule_events(scenario.event_times)
        until = scenario.horizon + drain
        self.stepper.run_until(until)
        return self._result(scenario, plan, until)

    def _result(
        self, scenario: ChaosScenario, plan: FaultPlan, until: float
    ) -> ShardedChaosResult:
        t2a_by_shard: Dict[int, Dict[str, List[float]]] = {}
        delivered = sorted(
            self._delivered, key=lambda record: (record[0], record[1])
        )
        phase_of = _phase_classifier(plan)
        for delivered_at, pair, fields in delivered:
            injected_at = float(fields["injected_at"])
            shard = self.fleet.shard_of(self.applets[pair].applet_id)
            phase = phase_of(injected_at)
            t2a_by_shard.setdefault(shard, {}).setdefault(phase, []).append(
                delivered_at - injected_at
            )
        transitions_by_shard: Dict[int, List[Tuple[float, str, str, str]]] = {}
        for index, shard in enumerate(self.fleet.shards):
            transitions = shard.breaker_transitions()
            if transitions:
                transitions_by_shard[index] = transitions
        events_observed = sum(
            int(self.registries[index].total(
                f"{shard.metrics_namespace}.events_observed"
            ))
            for index, shard in enumerate(self.fleet.shards)
        )
        fleet_stats = self.fleet.stats()
        # The cell registries merge commutatively (counters add, gauges
        # max), so the combined snapshot is independent of cell order.
        combined = merge_snapshots(
            *(registry.snapshot() for registry in self.registries)
        )
        snapshot = deterministic_snapshot(combined)
        merged = merged_fleet_snapshot(combined)
        victim_engine = self.fleet.shards[self.victim_shard]
        extras = _delivery_extras(
            list(self.fleet.shards),
            victim_engine._applets[self.applets[0].applet_id],
        )
        fault_window: Dict[str, int] = {}
        for watcher in self.watchers:
            fault_window.update(watcher.requests)
        return ShardedChaosResult(
            scenario=scenario.name,
            seed=self.seed,
            num_shards=self.fleet.num_shards,
            strategy=self.fleet.strategy,
            victim_shard=self.victim_shard,
            ran_until=until,
            events_injected=self._events_injected,
            events_observed=events_observed,
            fleet_stats=fleet_stats,
            shard_stats=self.fleet.shard_stats(),
            t2a_by_shard=t2a_by_shard,
            breaker_transitions_by_shard=transitions_by_shard,
            faults_activated=sum(i.activations for i in self.injectors),
            faults_deactivated=sum(i.deactivations for i in self.injectors),
            assignments=self.fleet.assignments(),
            shard_loads=self.fleet.shard_loads(),
            snapshot=snapshot,
            merged_engine_snapshot=merged,
            replay=_replay_report(
                [shard.replay for shard in self.fleet.shards], until,
                fleet_stats["polls_sent"] + fleet_stats["actions_dispatched"],
            ),
            fault_window_requests=fault_window,
            epochs=self.stepper.epochs,
            mailbox_messages=self.stepper.mailbox_messages,
            cross_shard_messages=self.router.messages_routed,
            **extras,
        )


def run_sharded_chaos_scenario(
    name: str,
    seed: int = 7,
    num_shards: int = 4,
    shard_strategy: str = "service_hash",
    plan: Optional[FaultPlan] = None,
    poll_interval: float = 5.0,
    pairs: int = SHARDED_PAIRS,
    drain: float = DRAIN_SECONDS,
    replay: Optional[ReplayPolicy] = None,
    delivery: Optional[DeliveryPolicy] = None,
    delivery_mode: str = "poll",
) -> ShardedChaosResult:
    """Run one chaos scenario against a sharded fleet.

    ``plan`` (still in the unsharded vocabulary — it is retargeted at
    the victim pair automatically) overrides the scenario's built-in
    fault plan, mirroring :func:`run_chaos_scenario`.  ``replay``
    enables shard-local dead-letter replay on every shard; the result
    then carries a fleet-folded :class:`ReplayReport`.  ``delivery``
    enables shard-local adaptive delivery on every shard (victim-shard
    health stretches; healthy shards stay at baseline).
    ``delivery_mode`` selects poll/hint/push event delivery for every
    sensor, exactly as in :func:`run_chaos_scenario`; pushes route to
    each service's last-published shard (the home shard under
    ``service_hash``).
    """
    scenario = chaos_scenario(name, plan)
    world = ShardedChaosWorld(
        seed=seed, poll_interval=poll_interval,
        num_shards=num_shards, shard_strategy=shard_strategy, pairs=pairs,
        replay=replay, delivery=delivery, delivery_mode=delivery_mode,
    )
    return world.run(scenario, drain=drain)


# Frozen benchmarks/ledger/adapters.py; removed by ROADMAP 1(a).
ParallelShardedChaosWorld = ShardedChaosWorld
