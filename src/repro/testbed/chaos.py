"""Chaos scenarios: fault plans driven against a dedicated trigger/action world.

A :class:`ChaosWorld` is the smallest topology that exercises every
resilience mechanism end to end — engines, trigger ("sensor") services
and action ("sink") services, joined through a core router per cell —
so the effects of a :class:`~repro.faults.plan.FaultPlan` can be
measured precisely:

* every injected event carries its injection time, so trigger-to-action
  latency is measured at the *delivery* point (the sink's executor), not
  just at dispatch — retries and breaker shedding are visible in T2A;
* the engines' action accounting (delivered + dead-lettered + in-retry)
  is checked against dispatches: a chaos run proves no action is
  silently lost;
* the world snapshots its metrics via
  :func:`~repro.obs.metrics.deterministic_snapshot`, so the same
  ``(scenario, seed)`` serializes byte-identically run after run
  (``make chaos-check``).

Four scenarios ship built in:

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

One world class covers every shape.  By default it is one engine, one
sensor and one sink: the *one-engine* world, under the unsuffixed names
(``chaos_sensor``, ``chaos_sink``, ``engine.ifttt.cloud``) the built-in
plans speak.  With more shards or pairs the same class scales the
experiments to a :class:`~repro.engine.sharding.ShardedEngine` fleet:
several sensor/sink pairs spread across N shards, with every scenario's
fault retargeted to exactly one "victim" pair (and, for partitions, its
home shard's uplink).  A sharded run proves *isolation* — the victim
shard's breaker opens and recovers while the other shards' T2A matches
a fault-free run — on top of the fleet-wide conservation invariant.
Every shard is an epoch-stepped simulator cell; a hop between cells
costs at least :data:`~repro.simcore.parallel.DEFAULT_LOOKAHEAD`
(50 ms).  The one-engine world is the same build with one cell and no
cross-shard router.

:func:`run_chaos_scenario` builds a world and runs it.  Every run
reports through one :class:`ChaosResult`, in the fleet's vocabulary: a
one-engine run is a fleet of one shard (shard 0, the victim) with no
shard strategy, so a reader never asks which shape ran.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.engine.applet import ActionRef, TriggerRef
from repro.engine.config import SHARD_STRATEGIES, EngineConfig
from repro.engine.delivery import (
    DEGRADATION_LEVEL_NAMES,
    DeliveryPolicy,
    sampled_interval_quartiles,
    stretch_factor,
)
from repro.engine.engine import IftttEngine
from repro.engine.oauth import OAuthAuthority
from repro.engine.push import DELIVERY_MODES, PushPolicy
from repro.engine.poller import FixedPollingPolicy
from repro.engine.replay import ReplayController
from repro.engine.resilience import REPLAY_BATCH_LIMIT, ReplayPolicy, conservation_residual
from repro.engine.sharding import ShardedEngine, stable_service_hash
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

ENGINE_HOST = "engine.ifttt.cloud"
CORE_HOST = "core.internet"
SENSOR_SLUG = "chaos_sensor"
SINK_SLUG = "chaos_sink"
CHAOS_USER = "chaos"

#: Extra settle time after the injection horizon so in-flight retries,
#: breaker recoveries, and buffered events all conclude before the
#: world's accounting is read.
DRAIN_SECONDS = 90.0


def chaos_engine_config(poll_interval: float = 5.0) -> EngineConfig:
    """The engine config every chaos world runs unless handed its own:
    the one place a chaos world's poll interval is set."""
    return EngineConfig(
        poll_policy=FixedPollingPolicy(poll_interval),
        initial_poll_delay=0.5,
        request_timeout=10.0,
    )


def _world_config(
    engine_config: Optional[EngineConfig],
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
    config = engine_config or chaos_engine_config()
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
    :data:`~repro.engine.resilience.REPLAY_BATCH_LIMIT` actions) can be
    compared against single-shot replay on the same scenario.
    """

    batching: bool
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
            f"batched (limit={REPLAY_BATCH_LIMIT})" if self.batching else "unbatched"
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


def _delivery_extras(engines: List[IftttEngine], probe: Any) -> Dict[str, Any]:
    """Post-run adaptive-delivery readout, folded across engines.

    Stretch factors and ladder levels are max-merged across engines —
    the same algebra the gauge merge applies to shard-scoped
    ``degradation_level`` families.  Overload dead letters are counted
    from the letters themselves (reason ``"overload"``) so the readout
    is exact even without a :class:`DeliveryController`.  ``probe`` is
    the victim applet's engine runtime: when its trigger service is
    tracked by a :class:`DeliveryController`, the post-run interval
    distribution — a fresh clone of the applet's policy times the live
    stretch factor, i.e. what the engine would draw on the poll rung —
    is sampled against the bare policy's.  The probes run on a private
    seeded RNG and touch no metrics, so they cannot perturb the
    already-taken snapshot.
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
            stretch[link.slug] = max(stretch.get(link.slug, 0.0), link.stretch)
            levels[link.slug] = max(levels.get(link.slug, 0), link.level)
    extras: Dict[str, Any] = {
        "post_heal_stretch": stretch,
        "degradation_levels": levels,
        "overload_dead_letters_by_service": overload,
        "post_heal_quartiles": None,
        "baseline_quartiles": None,
    }
    link = probe.link
    if link.level is not None:
        policy = probe.policy.clone()
        extras["post_heal_quartiles"] = sampled_interval_quartiles(
            lambda rng: policy.next_interval(rng) * stretch_factor(link, rng)
        )
        extras["baseline_quartiles"] = sampled_interval_quartiles(
            probe.policy.clone().next_interval
        )
    return extras


#: The fault phases, in the order a shard's T2A samples are read out.
PHASES = ("before", "during", "after")


@dataclass
class ChaosResult:
    """Everything a chaos run proves, in one record, for every world shape.

    The record speaks the fleet's vocabulary: per-shard engine counters
    and T2A samples, fleet totals, and the victim shard the plan was
    aimed at.  A one-engine run is a fleet of one shard — shard 0, its
    victim — with no shard :attr:`strategy`.
    """

    scenario: str
    seed: int
    #: The fault plan the world applied, retargeted at the victim pair
    #: (the scenario's own on the one-engine world).
    plan: FaultPlan
    num_shards: int
    #: The shard strategy; ``None`` for the one-engine world.
    strategy: Optional[str]
    victim_shard: int
    ran_until: float
    events_injected: int
    events_observed: int
    fleet_stats: Dict[str, int]
    shard_stats: List[Dict[str, int]]
    #: shard -> fault phase -> T2A samples for deliveries it owned.
    t2a_by_shard: Dict[int, Dict[str, List[float]]]
    #: shard -> its breakers' ``(at, service, old, new)`` transitions;
    #: a shard whose breakers never moved is absent.
    breaker_transitions_by_shard: Dict[int, List[Tuple[float, str, str, str]]]
    faults_activated: int
    faults_deactivated: int
    snapshot: Dict[str, Any] = field(repr=False)
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
    #: under the live health stretch vs. the bare policy — equal (within
    #: drift) once the stretch has decayed, i.e. §4's distribution is back.
    post_heal_quartiles: Optional[Tuple[float, float, float]] = None
    baseline_quartiles: Optional[Tuple[float, float, float]] = None
    #: Epoch-stepping readout.  The one-engine world's one cell runs
    #: uncoupled: one epoch per ``run_until``, and no mailbox or
    #: cross-shard traffic.
    epochs: int = 0
    mailbox_messages: int = 0
    cross_shard_messages: int = 0

    @property
    def shard_silently_lost(self) -> List[int]:
        """Per-shard conservation residual — all zeros or the run failed."""
        return [conservation_residual(stats) for stats in self.shard_stats]

    @property
    def actions_silently_lost(self) -> int:
        """Dispatches unaccounted for, fleet-wide — the invariant says zero."""
        return sum(self.shard_silently_lost)

    @property
    def shard_loads(self) -> List[int]:
        """Installed applets per shard."""
        return [stats["applets"] for stats in self.shard_stats]

    @property
    def healthy_shards(self) -> List[int]:
        """Every shard except the victim."""
        return [s for s in range(self.num_shards) if s != self.victim_shard]

    @property
    def post_heal_quartile_drift(self) -> float:
        """Worst relative deviation of the post-heal quartiles from the
        base policy's (0.0 when the run measured no quartiles)."""
        post, base = self.post_heal_quartiles, self.baseline_quartiles
        if post is None or base is None:
            return 0.0
        drifts = [abs(p - b) / b for p, b in zip(post, base) if b > 0]
        return max(drifts) if drifts else 0.0

    def t2a_values(self, shards: Iterable[int], phase: Optional[str] = None) -> List[float]:
        """T2A samples for a set of shards, shard by shard, each in
        :data:`PHASES` order (one phase, or all of them)."""
        values: List[float] = []
        for shard in shards:
            by_phase = self.t2a_by_shard.get(shard, {})
            for key in PHASES if phase is None else (phase,):
                values.extend(by_phase.get(key, ()))
        return values

    def t2a_max(self, phase: str) -> float:
        """Worst T2A in one phase, fleet-wide (0.0 when the phase saw no
        deliveries)."""
        values = self.t2a_values(range(self.num_shards), phase)
        return max(values) if values else 0.0

    def summary(self) -> str:
        """A human-readable multi-line report: the engine's retries, T2A
        per phase and breaker moves for one engine; the victim, loads
        and one line per shard for a fleet."""
        one_engine = self.strategy is None
        stats = self.fleet_stats
        if one_engine:
            lines = [
                f"chaos scenario {self.scenario!r} (seed {self.seed}, "
                f"t={self.ran_until:g}s)",
            ]
        else:
            lines = [
                f"sharded chaos scenario {self.scenario!r} "
                f"(seed {self.seed}, shards={self.num_shards}, "
                f"strategy={self.strategy}, t={self.ran_until:g}s)",
                f"  victim shard: {self.victim_shard} "
                f"(loads: {self.shard_loads})",
            ]
        lines += [
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
        if one_engine:
            lines.append(
                f"  engine:  retries poll={stats['poll_retries']} "
                f"action={stats['action_retries']}; shed "
                f"polls={stats['polls_shed']} "
                f"actions={stats['actions_shed']}"
            )
        if self.replay is not None:
            lines.extend(self.replay.summary_lines())
        lines.extend(self._delivery_lines())
        lines.extend(self._phase_lines() if one_engine else self._shard_lines())
        return "\n".join(lines)

    def _phase_lines(self) -> List[str]:
        """The one engine's T2A per fault phase and its breaker moves."""
        lines = []
        for phase in PHASES:
            values = self.t2a_values([0], phase)
            if values:
                mean = sum(values) / len(values)
                lines.append(
                    f"  t2a[{phase:6s}]: n={len(values)} mean={mean:.2f}s "
                    f"max={max(values):.2f}s"
                )
        for at, service, old, new in self.breaker_transitions_by_shard.get(0, []):
            lines.append(f"  breaker {service}: {old} -> {new} at t={at:.2f}s")
        return lines

    def _shard_lines(self) -> List[str]:
        """One line per shard, each followed by its breaker moves."""
        lines = []
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
        return lines

    def _delivery_lines(self) -> List[str]:
        """Human-readable lines for the adaptive-delivery readout."""
        lines: List[str] = []
        if self.fault_window_requests:
            window = " ".join(
                f"{slug}={count}"
                for slug, count in sorted(self.fault_window_requests.items())
            )
            lines.append(f"  fault-window arrivals: {window}")
        if self.post_heal_stretch:
            stretch = " ".join(
                f"{slug}={value:.2f}"
                for slug, value in sorted(self.post_heal_stretch.items())
            )
            levels = " ".join(
                f"{slug}={DEGRADATION_LEVEL_NAMES[level]}"
                for slug, level in sorted(self.degradation_levels.items())
            )
            lines.append(f"  delivery: post-heal stretch {stretch}; levels {levels}")
            if self.overload_dead_letters_by_service:
                shed = " ".join(
                    f"{slug}={count}"
                    for slug, count in sorted(self.overload_dead_letters_by_service.items())
                )
                lines.append(f"  delivery: overload dead letters {shed}")
            if self.post_heal_quartiles is not None and self.baseline_quartiles is not None:
                post = "/".join(f"{q:.1f}" for q in self.post_heal_quartiles)
                base = "/".join(f"{q:.1f}" for q in self.baseline_quartiles)
                lines.append(
                    f"  delivery: post-heal interval quartiles {post}s "
                    f"(base {base}s, drift {self.post_heal_quartile_drift:.1%})"
                )
        return lines


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


# -- the world -------------------------------------------------------------------

#: Sensor/sink pairs a sharded chaos world instantiates by default.  Six
#: pairs spread (by CRC32) across all shards of every fleet size the
#: acceptance runs use, so "the other shards" is never an empty set.
SHARDED_PAIRS = 6


def retarget_plan_for_shards(
    plan: FaultPlan, sensor_slug: str, sink_slug: str, engine_host: str
) -> FaultPlan:
    """Rewrite an unsharded fault plan against a sharded world's names.

    The built-in scenarios (and any ``--faults PLAN.json`` written for
    the one-engine world) speak the unsharded vocabulary —
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


class ChaosWorld:
    """The chaos topology: sensor/sink pairs driven through one engine or
    a sharded fleet.

    ``pairs`` independent sensor/sink chains (``chaos_sensor<p>`` →
    ``chaos_sink<p>``) are installed on the world's engines, landing on
    shards per the configured strategy.  Pair 0 is the designated
    *victim*: every scenario's fault plan is retargeted onto its
    sensor/sink — and, for engine-side partitions, onto its home shard's
    uplink — so exactly one shard takes the damage and the rest measure
    isolation.

    Every shard is a self-contained *cell* of one
    :class:`~repro.simcore.parallel.ShardedSimulator`: its own simulator,
    :class:`Network`, core router, metrics registry, fault injector and
    fault-window watcher.  Sensors and sinks are homed on the cell
    ``stable_service_hash(slug) % num_shards`` (a strategy-independent
    placement), so any shard whose applets trigger on a remote cell's
    sensor polls it *across* cells: that traffic goes through the
    :class:`~repro.net.network.CrossShardRouter` and the stepper's
    epoch-barriered mailboxes — realtime hints and push notifications
    cross the same way — and pays at least the stepper's lookahead
    (50 ms) per hop.  That floor is the model's cost of leaving a shard,
    not a stepping artefact.

    The stepper advances the cells one after another inside each epoch;
    cross-cell messages drain in the sorted ``(deliver_at, src, seq)``
    mailbox order, so the deterministic snapshot does not depend on the
    order the cells are stepped in.

    One shard with one pair is the *one-engine* world, the same build
    with one cell: a single :class:`IftttEngine` at
    ``engine.ifttt.cloud`` in the ``engine`` metrics namespace, no shard
    strategy, and no cross-shard router, so its cell runs uncoupled, one
    epoch per ``run_until``.  One naming rule covers both: the one-engine
    world keeps the unsuffixed names the built-in plans speak
    (``chaos_sensor``, ``sensor.cloud``), so :meth:`retarget` leaves its
    plans as they are; any other shape suffixes each name with its pair
    or cell index, and its engines are ``engine<i>.ifttt.cloud`` shards of
    a :class:`~repro.engine.sharding.ShardedEngine`.

    (``__test__`` opts the class out of pytest collection.)
    """

    __test__ = False

    def __init__(
        self,
        seed: int = 7,
        num_shards: int = 1,
        shard_strategy: str = "service_hash",
        pairs: Optional[int] = None,
        engine_config: Optional[EngineConfig] = None,
        replay: Optional[ReplayPolicy] = None,
        delivery: Optional[DeliveryPolicy] = None,
        delivery_mode: str = "poll",
        jobs: int = 1,  # frozen benchmarks/ledger/adapters.py; removed by ROADMAP 1(a)
    ) -> None:
        if shard_strategy not in SHARD_STRATEGIES:
            # Checked here: the one-engine world builds no fleet to reject it.
            raise ValueError(
                f"unknown shard strategy {shard_strategy!r}; expected one of {SHARD_STRATEGIES}"
            )
        if pairs is None:
            pairs = 1 if num_shards == 1 else SHARDED_PAIRS
        if pairs < 1:
            raise ValueError(f"pairs must be >= 1, got {pairs}")
        one_engine = num_shards == pairs == 1
        # The naming rule: the one-engine world keeps the unsuffixed names
        # the built-in plans speak; any other shape suffixes each name
        # with its pair or cell index.
        tags = [""] if one_engine else [str(index) for index in range(max(num_shards, pairs))]
        self.seed = seed
        self.stepper = ShardedSimulator(num_shards)
        self.rng = Rng(seed=seed, name="chaos")
        # One cell per shard: registry, network, core.  A cell has one
        # heap and one registry; nothing is shared across cells except
        # the mailboxes, so no Trace is kept (none of the chaos
        # accounting reads one).
        self.registries: List[MetricsRegistry] = []
        self.networks: List[Network] = []
        for index, sim in enumerate(self.stepper.sims):
            registry = MetricsRegistry()
            sim.metrics = registry
            self.registries.append(registry)
            self.networks.append(
                Network(sim, self.rng.fork(f"network{tags[index]}"), metrics=registry)
            )
        config = _world_config(engine_config, replay, delivery, delivery_mode)
        if one_engine:
            self.router: Optional[CrossShardRouter] = None
            self.strategy: Optional[str] = None
            self.fleet = self.networks[0].add_node(IftttEngine(
                Address(ENGINE_HOST), config=config,
                rng=self.rng.fork("engine"), service_time=0.0,
            ))
            self.engines: List[IftttEngine] = [self.fleet]
        else:
            self.router = CrossShardRouter(self.stepper)
            self.strategy = shard_strategy
            self.fleet = ShardedEngine(
                self.networks,
                config=config,
                rng=self.rng.fork("engine"),
                num_shards=num_shards,
                shard_strategy=shard_strategy,
                service_time=0.0,
            )
            self.engines = self.fleet.shards
        self.cores = []
        for index, network in enumerate(self.networks):
            core = network.add_node(GatewayRouter(Address(CORE_HOST)))
            network.connect(self.engines[index].address, core.address, cloud_internal_latency())
            # Cross-cell sends exit through the cell's core: a shard
            # partitioned from it is connection-refused on remote polls
            # too, and inbound cross-cell traffic is dropped mid-path.
            network.gateway = core.address
            if self.router is not None:
                self.router.attach(network, index)
            self.cores.append(core)

        #: ``(delivered_at, pair, fields)`` sink executions, in the order
        #: the cells were stepped (not time order across cells).
        self.delivered: List[Tuple[float, int, Dict[str, Any]]] = []
        self.events_injected = 0
        self.sensors: List[PartnerService] = []
        self.sinks: List[PartnerService] = []
        #: pair -> home cell, and cell -> {slug: service} for plan splits.
        self._pair_home: List[int] = []
        self._cell_services: List[Dict[str, PartnerService]] = [
            {} for _ in range(num_shards)
        ]
        for pair in range(pairs):
            tag = tags[pair]
            # Sensor and sink are homed *independently* by their own slug
            # hashes.  Under ``service_hash`` the applet's shard equals
            # the sensor's home (polls stay cell-local — the affinity the
            # strategy exists for) while its sink usually hashes
            # elsewhere, so action dispatches genuinely cross cells; under
            # ``round_robin`` polls cross too.
            sensor_cell = stable_service_hash(f"{SENSOR_SLUG}{tag}") % num_shards
            sink_cell = stable_service_hash(f"{SINK_SLUG}{tag}") % num_shards
            self._pair_home.append(sensor_cell)
            sensor = self.networks[sensor_cell].add_node(PartnerService(
                Address(f"sensor{tag}.cloud"), slug=f"{SENSOR_SLUG}{tag}",
                service_time=0.0,
                realtime=delivery_mode == "hint", push=delivery_mode == "push",
            ))
            sensor.add_trigger(TriggerEndpoint(slug="tick", name="Tick"))
            sink = self.networks[sink_cell].add_node(PartnerService(
                Address(f"sink{tag}.cloud"), slug=f"{SINK_SLUG}{tag}",
                service_time=0.0,
            ))
            sink.add_action(ActionEndpoint(
                slug="deliver", name="Deliver",
                executor=functools.partial(self._record_sink, sink_cell, pair),
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
                user=CHAOS_USER, name=f"tick{tags[pair]}->deliver{tags[pair]}",
                trigger=TriggerRef(f"{SENSOR_SLUG}{tags[pair]}", "tick"),
                action=ActionRef(f"{SINK_SLUG}{tags[pair]}", "deliver",
                                 {"n": "{{n}}", "injected_at": "{{injected_at}}"}),
            )
            for pair in range(pairs)
        ]
        #: pair -> the shard its applet landed on.
        self.applet_shards = [0] if one_engine else [
            self.fleet.shard_of(applet.applet_id) for applet in self.applets
        ]
        self.victim_shard = self.applet_shards[0]
        # One injector and one fault-window watcher per cell, each armed
        # only with that cell's slice of a (retargeted) plan.
        self.injectors = [
            FaultInjector(
                self.stepper.sims[index], self.networks[index],
                services=tuple(self._cell_services[index].values()),
                rng=self.rng.fork(f"faults{tags[index]}"),
                metrics=self.registries[index],
            )
            for index in range(num_shards)
        ]
        self.watchers = [
            _FaultWindowWatcher(self.stepper.sims[index], self._cell_services[index])
            for index in range(num_shards)
        ]

    def _record_sink(self, cell: int, pair: int, fields: Dict[str, Any]) -> None:
        """Pair ``pair``'s sink executor, on its home cell ``cell``."""
        self.delivered.append((self.stepper.sims[cell].now, pair, dict(fields)))

    def retarget(self, plan: FaultPlan) -> FaultPlan:
        """A plan in the one-engine vocabulary, aimed at the victim pair and
        shard (on the one-engine world's own names, the same plan)."""
        return retarget_plan_for_shards(
            plan,
            sensor_slug=self.sensors[0].slug,
            sink_slug=self.sinks[0].slug,
            engine_host=self.engines[self.victim_shard].address.host,
        )

    def _owning_cell(self, spec) -> int:
        """Which cell a fault spec belongs to (service home or link home).

        A spec naming a service or a link the world does not have raises
        :class:`FaultPlanError` naming what the world does have.
        """
        if spec.service:
            for cell, services in enumerate(self._cell_services):
                if spec.service in services:
                    return cell
            known = sorted(slug for services in self._cell_services for slug in services)
            raise FaultPlanError(
                f"{spec.kind}: unknown service {spec.service!r}; known: {known}"
            )
        a, b = Address(spec.a), Address(spec.b)
        for cell, network in enumerate(self.networks):
            if network.link_between(a, b) is not None:
                return cell
        hosts = sorted(node.address.host for node in self.engines + self.sensors + self.sinks)
        raise FaultPlanError(
            f"{spec.kind}: no link between {spec.a} and {spec.b}; "
            f"every link joins {CORE_HOST} to one of {hosts}"
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
        self.events_injected += 1
        self.sensors[pair].ingest_event("tick", {"n": index, "injected_at": planned_at})

    def run(self, scenario: ChaosScenario, drain: float = DRAIN_SECONDS) -> ChaosResult:
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

    def _result(self, scenario: ChaosScenario, plan: FaultPlan, until: float) -> ChaosResult:
        """The run's accounting; shard ``i`` is ``engines[i]`` recording
        into ``registries[i]``.

        Deliveries are read in time order, ties by pair; the victim
        applet is the one whose post-run poll intervals are sampled.  The
        registries merge commutatively (counters add, gauges max), so the
        snapshot does not depend on shard order; one registry merges to
        its own snapshot.
        """
        engines = self.engines
        fleet_stats = self.fleet.stats()
        phase_of = _phase_classifier(plan)
        t2a_by_shard: Dict[int, Dict[str, List[float]]] = {}
        for delivered_at, pair, fields in sorted(
            self.delivered, key=lambda record: (record[0], record[1])
        ):
            injected_at = float(fields["injected_at"])
            t2a_by_shard.setdefault(self.applet_shards[pair], {}).setdefault(
                phase_of(injected_at), []
            ).append(delivered_at - injected_at)
        fault_window: Dict[str, int] = {}
        for watcher in self.watchers:
            fault_window.update(watcher.requests)
        victim = engines[self.victim_shard]._applets[self.applets[0].applet_id]
        return ChaosResult(
            scenario=scenario.name,
            seed=self.seed,
            plan=plan,
            num_shards=len(engines),
            strategy=self.strategy,
            victim_shard=self.victim_shard,
            ran_until=until,
            events_injected=self.events_injected,
            events_observed=sum(
                int(registry.total(f"{engine.metrics_namespace}.events_observed"))
                for engine, registry in zip(engines, self.registries)
            ),
            fleet_stats=fleet_stats,
            shard_stats=[engine.stats() for engine in engines],
            t2a_by_shard=t2a_by_shard,
            breaker_transitions_by_shard={
                shard: transitions
                for shard, engine in enumerate(engines)
                if (transitions := engine.breaker_transitions())
            },
            faults_activated=sum(injector.activations for injector in self.injectors),
            faults_deactivated=sum(injector.deactivations for injector in self.injectors),
            snapshot=deterministic_snapshot(
                merge_snapshots(*(registry.snapshot() for registry in self.registries))
            ),
            replay=_replay_report(
                [engine.replay for engine in engines], until,
                fleet_stats["polls_sent"] + fleet_stats["actions_dispatched"],
            ),
            fault_window_requests=fault_window,
            epochs=self.stepper.epochs,
            mailbox_messages=self.stepper.mailbox_messages,
            cross_shard_messages=0 if self.router is None else self.router.messages_routed,
            **_delivery_extras(engines, victim),
        )


def run_chaos_scenario(
    name: str,
    seed: int = 7,
    plan: Optional[FaultPlan] = None,
    *,
    shards: int = 1,
    shard_strategy: str = "service_hash",
    pairs: Optional[int] = None,
    engine_config: Optional[EngineConfig] = None,
    drain: float = DRAIN_SECONDS,
    replay: Optional[ReplayPolicy] = None,
    delivery: Optional[DeliveryPolicy] = None,
    delivery_mode: str = "poll",
) -> ChaosResult:
    """Run one chaos scenario end to end and return its accounting.

    Builds a :class:`ChaosWorld` of ``shards`` shards and ``pairs``
    sensor/sink pairs placed by ``shard_strategy`` (``pairs=None`` means
    1 for one shard and :data:`SHARDED_PAIRS` for a fleet), then runs it.

    ``plan`` overrides the scenario's built-in fault plan (the event
    schedule is kept), which is how ``--faults PLAN.json`` plugs in; it
    speaks the one-engine vocabulary, and the world retargets it at its
    victim pair (the result's ``plan`` is the one applied).  A plan
    naming a service or link the world lacks raises
    :class:`~repro.faults.plan.FaultPlanError`.
    ``engine_config`` replaces :func:`chaos_engine_config`.  ``replay``
    enables dead-letter replay on every engine (see ``--replay``); the
    result then carries a :class:`ReplayReport`.  ``delivery`` enables
    health-aware adaptive delivery (see ``--adaptive``); the result then
    carries post-heal stretch, ladder levels, and interval-quartile
    measurements.  ``delivery_mode`` selects how sensor events reach the
    engine — ``poll`` (default), ``hint`` (realtime hints, all
    honoured), or ``push`` (payload notifications under the push
    contract; see ``--delivery``); a fleet routes pushes to each
    service's last-published shard.
    """
    scenario = chaos_scenario(name, plan)
    world = ChaosWorld(
        seed, num_shards=shards, shard_strategy=shard_strategy, pairs=pairs,
        engine_config=engine_config, replay=replay, delivery=delivery,
        delivery_mode=delivery_mode,
    )
    return world.run(scenario, drain=drain)


# Frozen benchmarks/ledger/adapters.py; removed by ROADMAP 1(a).
ParallelShardedChaosWorld = ChaosWorld
