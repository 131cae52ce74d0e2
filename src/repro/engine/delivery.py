"""Health-aware adaptive delivery: brownout backoff, admission control,
and the graceful-degradation ladder.

The paper's two headline observations collide badly in the seed engine:
§4 shows T2A is dominated by the polling interval, and §6 shows partner
outages/brownouts are the dominant failure mode — yet a poller that
keeps its §4 cadence against a browning-out service turns every failed
poll into a capped-exponential retry burst, multiplying load on the
exact service least able to take it.  The circuit breaker only blunts
*total* failure: a 50% brownout never produces the consecutive-failure
run that trips it, so the storm rages with the breaker closed.

This module closes that gap with three cooperating pieces, all owned by
one :class:`DeliveryController` per engine (per *shard* in a fleet).  The
per-service state (``health``, ladder ``level``, the admission depths)
lives on the engine's :class:`~repro.engine.engine.ServiceRegistration`
record, the ``link`` every method here takes:

:class:`ServiceHealth`
    A per-(service, engine) tracker fed by every poll/action outcome,
    observed brownout rejections (the 503 bodies
    ``service.brownout_rejections`` stamps on the wire), and breaker
    transitions.  It maintains an EWMA error rate and a multiplicative
    *stretch* factor: capped-exponential growth while the error EWMA is
    above the degrade threshold, multiplicative decay back to exactly
    ``1.0`` once the service strings together consecutive successes.

Interval stretching (in the engine's one cadence decision)
    There is no polling-policy wrapper: every applet keeps a private
    clone of the configured base policy, and
    ``IftttEngine._interval(link, policy, rng)`` multiplies its draw by
    ``link.health.stretch_factor(rng)`` — so production-lognormal,
    fixed-rate, and activity-adaptive pollers all gain brownout backoff
    without code changes.  When the service is healthy (stretch == 1.0)
    the factor is exactly 1.0 and is computed **consuming no
    randomness**, which is how the §4 interval distribution is provably
    restored post-recovery: after heal the engine draws the base
    policy's stream byte for byte.  When stretched, the base draw is
    multiplied by the jittered stretch factor.  While the breaker is
    OPEN or HALF_OPEN the factor is forced back to 1.0 so the recovery
    probe keeps the *baseline* cadence — stretching a poll that the
    breaker sheds locally anyway would only delay the half-open probe.

Admission control (on the controller)
    Watermarked ingestion bounds on the two queues that grow without
    limit under degradation:

    * the **realtime-hint queue** — each honoured hint identity is one
      outstanding fast poll; at/above the low watermark new fast polls
      are *deferred* (scheduled ``hint_defer_delay`` out instead of
      immediately), at/above the high watermark hints are *shed to
      polling* (the identity waits for its regular cadence);
    * the **action retry queue** — per-service retry depth at/above the
      low watermark defers (multiplies the backoff), at/above the high
      watermark new retries are refused and the action dead-letters
      with reason ``overload``.  Replay drains respect the same
      headroom (:meth:`DeliveryController.replay_headroom`), so a
      catch-up burst cannot overrun the queue either.

The controller exposes the **4-level degradation ladder** per service as
the ``{ns}.degradation_level`` gauge (0 healthy → 1 stretched →
2 shedding → 3 breaker-open), counts every transition in
``{ns}.degradation_transitions`` and traces it — the shard-prefix
snapshot algebra of ``docs/SHARDING.md`` folds both families fleet-wide
with no new code (counters add; the gauge's max-merge reports the worst
shard, which is the right fleet answer for a degradation level).

Determinism contract: with :attr:`EngineConfig.delivery_policy` unset
(the default) none of this code runs, no metric families appear, and no
RNG is consumed — the ``chaos-check``/``replay-check``/dispatch gates
stay byte-identical.  With adaptation on, all randomness (stretch
jitter) comes from the engine's seeded RNG, so ``make degrade-check``
pins a byte-identical snapshot for the brownout scenario too.

See ``docs/ROBUSTNESS.md`` ("Adaptive delivery & degradation ladder").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.engine.resilience import BreakerState
from repro.simcore.rng import Rng, quantiles

#: The degradation ladder, least to most degraded.
DEGRADATION_HEALTHY = 0
DEGRADATION_STRETCHED = 1
DEGRADATION_SHEDDING = 2
DEGRADATION_BREAKER_OPEN = 3

#: Gauge value -> human name (traces and reports).
DEGRADATION_LEVEL_NAMES: Tuple[str, ...] = (
    "healthy", "stretched", "shedding", "breaker_open",
)

#: ``ServiceHealth.breaker_level`` of an open breaker (the ladder's top rung).
_BREAKER_OPEN_LEVEL = BreakerState.OPEN.level

#: The paper's §4 T2A quartiles for poll-bound applets — the latency
#: distribution the baseline (unstretched) polling interval induces.
#: The post-heal acceptance check is anchored here: once stretch decays
#: to 1.0 the sampled interval distribution is byte-identical to the
#: base policy's, so the T2A it induces returns to this baseline.
T2A_BASELINE_QUARTILES: Tuple[float, float, float] = (58.0, 84.0, 122.0)

#: Wire marker a browning-out service stamps on its 503 rejections
#: (see ``PartnerService._check_outage``); the engine sniffs it to feed
#: ``ServiceHealth.brownouts_observed`` without a back-channel.
BROWNOUT_MESSAGE = "service browning out"


def response_is_brownout(response) -> bool:
    """Whether a failed HTTP response is a brownout rejection."""
    if response.status != 503:
        return False
    errors = (response.body or {}).get("errors", ())
    return any(e.get("message") == BROWNOUT_MESSAGE for e in errors)


@dataclass(frozen=True)
class DeliveryPolicy:
    """Tunables for health-aware adaptive delivery.

    Attributes
    ----------
    ewma_alpha:
        Weight of the newest poll/action outcome in the error-rate EWMA
        (failure = 1, success = 0).
    degrade_threshold:
        Error EWMA at/above which a failure multiplies the stretch
        factor (capped-exponential growth).
    recovery_successes:
        Consecutive successes required before each subsequent success
        decays the stretch factor — brief lucky streaks during a
        brownout don't un-stretch the poller.
    stretch_multiplier, max_stretch, stretch_decay, stretch_jitter:
        Stretch dynamics: grow ``×multiplier`` per qualifying failure up
        to ``max_stretch``; decay ``×decay`` per qualifying success,
        snapping to exactly 1.0; jitter the applied factor by
        ``±stretch_jitter`` (a fraction) so stretched fleets
        decorrelate instead of thundering in phase.
    hint_low_watermark, hint_high_watermark, hint_defer_delay:
        Realtime-hint admission: with ``backlog`` outstanding fast
        polls for a service, a new hint identity is admitted
        immediately below the low watermark, *deferred* by
        ``hint_defer_delay`` seconds in [low, high), and *shed to
        polling* at/above the high watermark.
    retry_low_watermark, retry_high_watermark:
        Action-retry admission: per-service retry depth in [low, high)
        multiplies the retry backoff by ``stretch_multiplier``
        (defer); at/above high a new retry is refused and the action
        dead-letters with reason ``overload``.
    replay_drain_backoff:
        Seconds a replay drain waits before re-trying when the retry
        queue has no headroom (see ``docs/ROBUSTNESS.md``).
    """

    ewma_alpha: float = 0.3
    degrade_threshold: float = 0.3
    recovery_successes: int = 2
    stretch_multiplier: float = 3.0
    max_stretch: float = 8.0
    stretch_decay: float = 0.5
    stretch_jitter: float = 0.1
    hint_low_watermark: int = 8
    hint_high_watermark: int = 32
    hint_defer_delay: float = 5.0
    retry_low_watermark: int = 16
    retry_high_watermark: int = 64
    replay_drain_backoff: float = 5.0

    def __post_init__(self) -> None:
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {self.ewma_alpha}")
        if not 0.0 < self.degrade_threshold <= 1.0:
            raise ValueError(
                f"degrade_threshold must be in (0, 1], got {self.degrade_threshold}"
            )
        if self.recovery_successes < 1:
            raise ValueError(
                f"recovery_successes must be >= 1, got {self.recovery_successes}"
            )
        if self.stretch_multiplier <= 1.0:
            raise ValueError(
                f"stretch_multiplier must be > 1, got {self.stretch_multiplier}"
            )
        if self.max_stretch < self.stretch_multiplier:
            raise ValueError(
                f"max_stretch must be >= stretch_multiplier, got {self.max_stretch}"
            )
        if not 0.0 < self.stretch_decay < 1.0:
            raise ValueError(
                f"stretch_decay must be in (0, 1), got {self.stretch_decay}"
            )
        if not 0.0 <= self.stretch_jitter < 1.0:
            raise ValueError(
                f"stretch_jitter must be in [0, 1), got {self.stretch_jitter}"
            )
        if not 0 <= self.hint_low_watermark <= self.hint_high_watermark:
            raise ValueError(
                "need 0 <= hint_low_watermark <= hint_high_watermark, got "
                f"{self.hint_low_watermark}, {self.hint_high_watermark}"
            )
        if not 0 <= self.retry_low_watermark <= self.retry_high_watermark:
            raise ValueError(
                "need 0 <= retry_low_watermark <= retry_high_watermark, got "
                f"{self.retry_low_watermark}, {self.retry_high_watermark}"
            )
        if self.hint_defer_delay < 0 or self.replay_drain_backoff < 0:
            raise ValueError("hint_defer_delay/replay_drain_backoff must be >= 0")


class ServiceHealth:
    """One service's health as one engine observes it.

    Held on the service's registration record and read by the engine's
    cadence decision for every applet of the service — health is
    per-(service, engine), not per applet, so one applet's failed poll
    slows *all* polls aimed at the degraded service.
    """

    __slots__ = (
        "policy",
        "slug",
        "error_ewma",
        "stretch",
        "breaker_level",
        "consecutive_successes",
        "successes",
        "failures",
        "brownouts_observed",
        "stretched_samples",
    )

    def __init__(self, policy: DeliveryPolicy, slug: str) -> None:
        self.policy = policy
        self.slug = slug
        self.error_ewma = 0.0
        self.stretch = 1.0
        #: Mirror of the service breaker's state level (0/1/2); fed by
        #: the engine's transition hook.
        self.breaker_level = 0
        self.consecutive_successes = 0
        self.successes = 0
        self.failures = 0
        self.brownouts_observed = 0
        self.stretched_samples = 0

    @property
    def degraded(self) -> bool:
        """Whether poll intervals for this service are being stretched."""
        return self.stretch > 1.0

    def record_success(self) -> None:
        """A poll/action against the service succeeded.

        The stretch only decays once the error EWMA itself has dropped
        back below the degrade threshold *and* the service has strung
        together ``recovery_successes`` wins — a lucky pair of 200s in
        the middle of a 50% brownout keeps the EWMA hot and therefore
        keeps the backoff in place, while a genuine heal clears both
        conditions within a few polls.
        """
        policy = self.policy
        self.successes += 1
        self.consecutive_successes += 1
        self.error_ewma *= 1.0 - policy.ewma_alpha
        if (
            self.stretch > 1.0
            and self.error_ewma < policy.degrade_threshold
            and self.consecutive_successes >= policy.recovery_successes
        ):
            decayed = self.stretch * policy.stretch_decay
            self.stretch = 1.0 if decayed <= 1.0 else decayed

    def record_failure(self, brownout: bool = False) -> None:
        """A poll/action against the service failed."""
        policy = self.policy
        self.failures += 1
        self.consecutive_successes = 0
        if brownout:
            self.brownouts_observed += 1
        self.error_ewma = policy.ewma_alpha + (1.0 - policy.ewma_alpha) * self.error_ewma
        if self.error_ewma >= policy.degrade_threshold:
            self.stretch = min(
                policy.max_stretch, self.stretch * policy.stretch_multiplier
            )

    def on_breaker_transition(self, new: BreakerState) -> None:
        """Mirror the breaker's state; OPEN/HALF_OPEN suspend stretching
        (see :meth:`stretch_factor`)."""
        self.breaker_level = new.level

    def stretch_factor(self, rng: Optional[Rng] = None) -> float:
        """The multiplier to apply to the next poll/retry delay.

        Exactly ``1.0`` — with **no RNG draw** — while healthy, so a
        healed service's interval stream is byte-identical to the base
        policy's.  Also ``1.0`` while the breaker is OPEN or HALF_OPEN:
        the breaker already sheds locally, and the baseline cadence is
        what gets the half-open probe out promptly.
        """
        if self.stretch <= 1.0 or self.breaker_level != 0:
            return 1.0
        self.stretched_samples += 1
        factor = self.stretch
        jitter = self.policy.stretch_jitter
        if rng is not None and jitter > 0.0:
            factor *= 1.0 + rng.uniform(-jitter, jitter)
        return factor if factor > 1.0 else 1.0

    def __repr__(self) -> str:
        return (
            f"<ServiceHealth {self.slug} ewma={self.error_ewma:.3f} "
            f"stretch={self.stretch:g} breaker={self.breaker_level}>"
        )


def sampled_interval_quartiles(
    draw: Callable[[Rng], float], seed: int = 1234, samples: int = 2000
) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``samples`` fresh interval draws.

    ``draw`` is any ``rng -> seconds`` callable: a policy's
    ``next_interval``, or a closure multiplying it by a live
    ``ServiceHealth.stretch_factor``.  Used by the degrade gate to prove
    post-heal restoration: sampling a healed service's stretched draw
    and its bare base policy with identically-seeded RNGs must give
    identical quartiles (no extra randomness is consumed at stretch 1.0).
    """
    rng = Rng(seed=seed, name="interval-probe")
    values = [draw(rng) for _ in range(samples)]
    q1, q2, q3 = quantiles(values, (0.25, 0.5, 0.75))
    return (q1, q2, q3)


#: Hint-admission verdicts, in increasing severity.
HINT_ALLOW = "allow"
HINT_DEFER = "defer"
HINT_SHED = "shed"


class DeliveryController:
    """Per-engine owner of service health, admission, and the ladder.

    Created by :class:`~repro.engine.engine.IftttEngine` when
    :attr:`EngineConfig.delivery_policy` is set; every shard of a
    :class:`~repro.engine.sharding.ShardedEngine` gets its own (health
    and queues are shard-local, like breakers and retry state).  Every
    method takes the service's registration record (``link``).
    """

    def __init__(self, engine, policy: DeliveryPolicy) -> None:
        self.engine = engine
        self.policy = policy
        self.hints_deferred = 0
        self.hints_shed = 0
        self.retries_deferred = 0
        self.overload_dead_letters = 0
        self.replay_drains_deferred = 0

    # -- health ---------------------------------------------------------------

    def health_for(self, link) -> ServiceHealth:
        """The (lazily created) health tracker for one service."""
        health = link.health
        if health is None:
            health = link.health = ServiceHealth(self.policy, link.slug)
            engine = self.engine
            if engine.metrics is not None:
                engine.metrics.gauge(
                    f"{engine.metrics_namespace}.degradation_level", service=link.slug
                ).set(DEGRADATION_HEALTHY)
        return health

    def tracked(self) -> list:
        """The record of every service with a health tracker (read
        ``link.health`` and the ladder ``link.level`` off it)."""
        return [
            link for link in self.engine._services.values() if link.health is not None
        ]

    def note_result(self, link, ok: bool, brownout: bool = False) -> None:
        """Feed one poll/action outcome into the service's health."""
        health = link.health
        if health is None:
            health = self.health_for(link)
        if ok:
            health.record_success()
        else:
            health.record_failure(brownout=brownout)
            if brownout:
                engine = self.engine
                if engine.metrics is not None:
                    engine.metrics.counter(
                        f"{engine.metrics_namespace}.delivery.brownouts_observed",
                        service=link.slug,
                    ).inc()
        self.refresh_level(link)

    def on_breaker_transition(self, link, new: BreakerState) -> None:
        """Mirror breaker transitions into health and the ladder."""
        self.health_for(link).on_breaker_transition(new)
        self.refresh_level(link)

    def stretch_retry_delay(self, link, delay: float, rng: Rng) -> float:
        """Stretch a retry backoff by the service's health factor.

        This is the anti-retry-storm half of adaptation: a browning-out
        service's retry bursts spread out by the same multiplier its
        regular polls do.  At/above the retry low watermark the delay is
        additionally multiplied by ``stretch_multiplier`` (defer), so a
        filling queue drains slower than it grows.
        """
        factor = self.health_for(link).stretch_factor(rng)
        if link.retry_depth >= self.policy.retry_low_watermark:
            factor *= self.policy.stretch_multiplier
            self.retries_deferred += 1
            engine = self.engine
            if engine.metrics is not None:
                engine.metrics.counter(
                    f"{engine.metrics_namespace}.delivery.retries_deferred",
                    service=link.slug,
                ).inc()
        return delay if factor == 1.0 else delay * factor

    # -- the degradation ladder ------------------------------------------------

    def refresh_level(self, link) -> None:
        """Recompute the ladder level; emit gauge/counter/trace on change.

        Every outcome and every queue move passes here, so the ladder is
        read inline, top rung first.
        """
        health = link.health
        policy = self.policy
        if health is not None and health.breaker_level == _BREAKER_OPEN_LEVEL:
            new = DEGRADATION_BREAKER_OPEN
        elif (
            link.hint_backlog >= policy.hint_high_watermark
            or link.retry_depth >= policy.retry_high_watermark
        ):
            new = DEGRADATION_SHEDDING
        elif health is not None and health.stretch > 1.0:  # ``degraded``
            new = DEGRADATION_STRETCHED
        else:
            new = DEGRADATION_HEALTHY
        old = link.level
        if new == old:
            return
        link.level = new
        slug = link.slug
        engine = self.engine
        ns = engine.metrics_namespace
        if engine.metrics is not None:
            engine.metrics.gauge(f"{ns}.degradation_level", service=slug).set(new)
            engine.metrics.counter(
                f"{ns}.degradation_transitions",
                service=slug,
                from_level=DEGRADATION_LEVEL_NAMES[old],
                to_level=DEGRADATION_LEVEL_NAMES[new],
            ).inc()
            engine.metrics.gauge(f"{ns}.delivery.stretch", service=slug).set(
                self.health_for(link).stretch
            )
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                ns,
                "engine_degradation_transition",
                service=slug,
                from_level=DEGRADATION_LEVEL_NAMES[old],
                to_level=DEGRADATION_LEVEL_NAMES[new],
            )

    # -- admission: realtime-hint queue -----------------------------------------

    def admit_hint(self, link) -> str:
        """Admission verdict for one honoured hint identity.

        Consulted *per identity* (each identity is one outstanding fast
        poll), so a single huge hint burst walks the ladder rung by
        rung: allow → defer → shed.
        """
        backlog = link.hint_backlog
        engine = self.engine
        ns = engine.metrics_namespace
        if backlog >= self.policy.hint_high_watermark:
            self.hints_shed += 1
            if engine.metrics is not None:
                engine.metrics.counter(
                    f"{ns}.delivery.hints_shed", service=link.slug
                ).inc()
            if engine.trace is not None:
                engine.trace.record(
                    engine.now, ns, "engine_hint_shed",
                    service=link.slug, backlog=backlog,
                )
            self.refresh_level(link)
            return HINT_SHED
        if backlog >= self.policy.hint_low_watermark:
            self.hints_deferred += 1
            if engine.metrics is not None:
                engine.metrics.counter(
                    f"{ns}.delivery.hints_deferred", service=link.slug
                ).inc()
            if engine.trace is not None:
                engine.trace.record(
                    engine.now, ns, "engine_hint_deferred",
                    service=link.slug, backlog=backlog,
                )
            return HINT_DEFER
        return HINT_ALLOW

    def note_fast_poll_scheduled(self, link) -> None:
        link.hint_backlog += 1
        self.refresh_level(link)

    def note_fast_poll_done(self, link) -> None:
        """A hint-induced fast poll fired (or was cancelled)."""
        if link.hint_backlog > 0:
            link.hint_backlog -= 1
        self.refresh_level(link)

    # -- admission: action retry queue ------------------------------------------

    def admit_retry(self, link) -> bool:
        """Whether a failed action may join the retry queue.

        ``False`` means the per-service depth is at/above the high
        watermark: the caller dead-letters with reason ``overload``.
        """
        if link.retry_depth < self.policy.retry_high_watermark:
            return True
        self.overload_dead_letters += 1
        engine = self.engine
        if engine.metrics is not None:
            engine.metrics.counter(
                f"{engine.metrics_namespace}.delivery.overload_dead_letters",
                service=link.slug,
            ).inc()
        self.refresh_level(link)
        return False

    def note_retry_enqueued(self, link) -> None:
        link.retry_depth += 1
        self.refresh_level(link)

    def note_retry_dequeued(self, link) -> None:
        if link.retry_depth > 0:
            link.retry_depth -= 1
        self.refresh_level(link)

    # -- admission: replay drains ------------------------------------------------

    def replay_headroom(self, link) -> int:
        """How many dead letters a replay drain may put in flight now.

        Replay records share the retry queue's high watermark: a drain
        may not push ``retry_depth + replay_depth`` past it, so catch-up
        bursts cannot overrun the queue that ordinary failures respect.
        (``link.replay_depth`` is kept by the replay controller itself.)
        """
        return max(
            0, self.policy.retry_high_watermark - link.retry_depth - link.replay_depth
        )

    def note_replay_drain_deferred(self, link) -> None:
        self.replay_drains_deferred += 1
        engine = self.engine
        ns = engine.metrics_namespace
        if engine.metrics is not None:
            engine.metrics.counter(
                f"{ns}.replay.drains_deferred", service=link.slug
            ).inc()
        if engine.trace is not None:
            engine.trace.record(
                engine.now, ns, "engine_replay_drain_deferred",
                service=link.slug, headroom=self.replay_headroom(link),
            )

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot folded into :meth:`IftttEngine.stats`."""
        return {
            "delivery_hints_deferred": self.hints_deferred,
            "delivery_hints_shed": self.hints_shed,
            "delivery_retries_deferred": self.retries_deferred,
            "delivery_overload_dead_letters": self.overload_dead_letters,
            "delivery_replay_drains_deferred": self.replay_drains_deferred,
            "delivery_intervals_stretched": sum(
                link.health.stretched_samples for link in self.tracked()
            ),
        }

    def __repr__(self) -> str:
        tracked = self.tracked()
        degraded = sorted(link.slug for link in tracked if link.health.degraded)
        return f"<DeliveryController services={len(tracked)} degraded={degraded}>"
