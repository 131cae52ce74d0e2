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

This module closes that gap with one engine-level owner, the
:class:`DeliveryController` (one per engine, per *shard* in a fleet).
It keeps no per-service state: every field it reads and writes lives on
the engine's :class:`~repro.engine.engine.ServiceRegistration` record,
the ``link`` every method here takes, beside the breaker, the push rung
and the admission depths:

Service health (``link.error_ewma``, ``link.stretch``)
    Fed by every poll/action outcome and by observed brownout
    rejections (the 503 bodies ``service.brownout_rejections`` stamps on
    the wire).  The controller keeps an EWMA error rate and a
    multiplicative *stretch* factor: capped-exponential growth while the
    error EWMA is at/above :data:`DEGRADE_THRESHOLD`, multiplicative
    decay back to exactly ``1.0`` once the service strings together
    :data:`RECOVERY_SUCCESSES` consecutive successes.

Interval stretching (in the engine's one cadence decision)
    There is no polling-policy wrapper: every applet keeps a private
    clone of the configured base policy, and
    ``IftttEngine._interval(link, policy, rng)`` multiplies its draw by
    :func:`stretch_factor` — so production-lognormal, fixed-rate, and
    activity-adaptive pollers all gain brownout backoff without code
    changes.  When the service is healthy (stretch == 1.0) the factor is
    exactly 1.0 and is computed **consuming no randomness**, which is
    how the §4 interval distribution is provably restored post-recovery:
    after heal the engine draws the base policy's stream byte for byte.
    When stretched, the base draw is multiplied by the jittered stretch
    factor.  While the breaker (``link.breaker``) is OPEN or HALF_OPEN
    the factor is forced back to 1.0 so the recovery probe keeps the
    *baseline* cadence — stretching a poll that the breaker sheds
    locally anyway would only delay the half-open probe.

Admission control
    Watermarked ingestion bounds on the two queues that grow without
    limit under degradation:

    * the **realtime-hint queue** (``link.hint_backlog``) — each
      honoured hint identity is one outstanding fast poll; at/above
      :data:`HINT_LOW_WATERMARK` new fast polls are *deferred*
      (scheduled :data:`HINT_DEFER_DELAY` out instead of immediately),
      at/above :data:`HINT_HIGH_WATERMARK` hints are *shed to polling*
      (the identity waits for its regular cadence);
    * the **action retry queue** (``link.retry_depth``) — at/above
      :data:`RETRY_LOW_WATERMARK` a retry is deferred (its backoff is
      multiplied by :data:`STRETCH_MULTIPLIER`), at/above
      :data:`RETRY_HIGH_WATERMARK` new retries are refused and the
      action dead-letters with reason ``overload``.  Replay drains
      respect the same headroom (:meth:`DeliveryController.replay_headroom`),
      so a catch-up burst cannot overrun the queue either.

The controller exposes the **4-level degradation ladder** per service
(``link.level``) as the ``{ns}.degradation_level`` gauge (0 healthy →
1 stretched → 2 shedding → 3 breaker-open), counts every transition in
``{ns}.degradation_transitions`` and traces it, through the engine's one
transition emitter (``IftttEngine._transition``, shared with the breaker
and the push rung) — the shard-prefix snapshot algebra of
``docs/SHARDING.md`` folds both families fleet-wide with no new code
(counters add; the gauge's max-merge reports the worst shard, which is
the right fleet answer for a degradation level).

The tunables are this module's constants, not settings:
:class:`DeliveryPolicy` has no fields and only switches adaptation on.

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
from typing import Callable, Dict, Tuple

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

#: What a ladder move emits through ``IftttEngine._transition``: the
#: gauge, the transitions counter, the ``from_``/``to_`` label stem, the
#: trace kind and the level names.
DEGRADATION_LADDER = (
    "degradation_level", "degradation_transitions", "level", "engine_degradation_transition",
    DEGRADATION_LEVEL_NAMES,
)

#: Weight of the newest poll/action outcome in the error-rate EWMA
#: (failure = 1, success = 0).
EWMA_ALPHA = 0.3
#: Error EWMA at/above which a failure multiplies the stretch factor.
DEGRADE_THRESHOLD = 0.3
#: Consecutive successes before each further success decays the stretch
#: — a brief lucky streak during a brownout does not un-stretch the poller.
RECOVERY_SUCCESSES = 2
#: Stretch growth per qualifying failure (also the deferred-retry
#: backoff multiplier), its cap, its decay per qualifying success
#: (snapping to exactly 1.0), and the ± fraction the applied factor is
#: jittered by, so stretched fleets decorrelate instead of thundering
#: in phase.
STRETCH_MULTIPLIER = 3.0
MAX_STRETCH = 8.0
STRETCH_DECAY = 0.5
STRETCH_JITTER = 0.1
#: Realtime-hint admission: with ``backlog`` outstanding fast polls, a
#: hint identity is admitted below the low watermark, deferred by
#: :data:`HINT_DEFER_DELAY` seconds in [low, high), shed at/above high.
HINT_LOW_WATERMARK = 8
HINT_HIGH_WATERMARK = 32
HINT_DEFER_DELAY = 5.0
#: Action-retry admission: a retry depth in [low, high) defers the
#: retry; at/above high the action dead-letters with reason ``overload``.
RETRY_LOW_WATERMARK = 16
RETRY_HIGH_WATERMARK = 64
#: Seconds a replay drain waits before re-trying when the retry queue
#: has no headroom.
REPLAY_DRAIN_BACKOFF = 5.0

#: The paper's §4 T2A quartiles for poll-bound applets — the latency
#: distribution the baseline (unstretched) polling interval induces.
#: The post-heal acceptance check is anchored here: once stretch decays
#: to 1.0 the sampled interval distribution is byte-identical to the
#: base policy's, so the T2A it induces returns to this baseline.
T2A_BASELINE_QUARTILES: Tuple[float, float, float] = (58.0, 84.0, 122.0)

#: Wire marker a browning-out service stamps on its 503 rejections
#: (see ``PartnerService._check_outage``); the engine sniffs it to count
#: ``delivery.brownouts_observed`` without a back-channel.
BROWNOUT_MESSAGE = "service browning out"


def response_is_brownout(response) -> bool:
    """Whether a failed HTTP response is a brownout rejection."""
    if response.status != 503:
        return False
    errors = (response.body or {}).get("errors", ())
    return any(e.get("message") == BROWNOUT_MESSAGE for e in errors)


@dataclass(frozen=True)
class DeliveryPolicy:
    """Switches health-aware adaptive delivery on
    (:attr:`EngineConfig.delivery_policy`).

    It has no fields: the tunables are this module's constants
    (:data:`EWMA_ALPHA` … :data:`REPLAY_DRAIN_BACKOFF`, tabled in
    ``docs/ROBUSTNESS.md``).
    """


def stretch_factor(link, rng: Rng) -> float:
    """The multiplier to apply to a service's next poll/retry delay.

    Exactly ``1.0`` — with **no RNG draw** — while healthy, so a healed
    service's interval stream is byte-identical to the base policy's.
    Also ``1.0`` while the breaker is OPEN or HALF_OPEN: the breaker
    already sheds locally, and the baseline cadence is what gets the
    half-open probe out promptly.
    """
    breaker = link.breaker
    if link.stretch <= 1.0 or (breaker is not None and breaker.state is not BreakerState.CLOSED):
        return 1.0
    link.stretched_samples += 1
    factor = link.stretch * (1.0 + rng.uniform(-STRETCH_JITTER, STRETCH_JITTER))
    return factor if factor > 1.0 else 1.0


def sampled_interval_quartiles(
    draw: Callable[[Rng], float], seed: int = 1234, samples: int = 2000
) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``samples`` fresh interval draws.

    ``draw`` is any ``rng -> seconds`` callable: a policy's
    ``next_interval``, or a closure multiplying it by a live service's
    :func:`stretch_factor`.  Used by the degrade gate to prove
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

#: The keys of :meth:`DeliveryController.stats`, in order; the engine
#: reports each as 0 when adaptive delivery is off.
DELIVERY_STATS_KEYS = (
    "delivery_hints_deferred",
    "delivery_hints_shed",
    "delivery_retries_deferred",
    "delivery_overload_dead_letters",
    "delivery_replay_drains_deferred",
    "delivery_intervals_stretched",
)


class DeliveryController:
    """Per-engine owner of service health, admission, and the ladder.

    Created by :class:`~repro.engine.engine.IftttEngine` when
    :attr:`EngineConfig.delivery_policy` is set; every shard of a
    :class:`~repro.engine.sharding.ShardedEngine` gets its own (health
    and queues are shard-local, like breakers and retry state).  It
    holds engine totals only: every method takes the service's
    registration record (``link``) and keeps the service's state there.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.hints_deferred = 0
        self.hints_shed = 0
        self.retries_deferred = 0
        self.overload_dead_letters = 0
        self.replay_drains_deferred = 0

    # -- health ---------------------------------------------------------------

    def track(self, link) -> None:
        """Start tracking a service (idempotent): its ladder level is
        born healthy and its ``degradation_level`` gauge goes live — at
        the first install or outcome, whichever comes first."""
        if link.level is None:
            link.level = DEGRADATION_HEALTHY
            self.engine._ladder_born(link, DEGRADATION_LADDER, DEGRADATION_HEALTHY)

    def tracked(self) -> list:
        """The record of every tracked service (read ``link.stretch`` and
        the ladder ``link.level`` off it)."""
        return [link for link in self.engine._services.values() if link.level is not None]

    def note_result(self, link, ok: bool, brownout: bool = False) -> None:
        """Feed one poll/action outcome into the service's health.

        The stretch only decays once the error EWMA itself has dropped
        back below the degrade threshold *and* the service has strung
        together :data:`RECOVERY_SUCCESSES` wins — a lucky pair of 200s
        in the middle of a 50% brownout keeps the EWMA hot and therefore
        keeps the backoff in place, while a genuine heal clears both
        conditions within a few polls.
        """
        if ok:
            link.consecutive_successes += 1
            link.error_ewma *= 1.0 - EWMA_ALPHA
            if (
                link.stretch > 1.0
                and link.error_ewma < DEGRADE_THRESHOLD
                and link.consecutive_successes >= RECOVERY_SUCCESSES
            ):
                decayed = link.stretch * STRETCH_DECAY
                link.stretch = 1.0 if decayed <= 1.0 else decayed
        else:
            link.consecutive_successes = 0
            link.error_ewma = EWMA_ALPHA + (1.0 - EWMA_ALPHA) * link.error_ewma
            if link.error_ewma >= DEGRADE_THRESHOLD:
                link.stretch = min(MAX_STRETCH, link.stretch * STRETCH_MULTIPLIER)
            if brownout:
                self.engine._count(link, "delivery.brownouts_observed")
        self.refresh_level(link)

    def stretch_retry_delay(self, link, delay: float, rng: Rng) -> float:
        """Stretch a retry backoff by the service's health factor.

        This is the anti-retry-storm half of adaptation: a browning-out
        service's retry bursts spread out by the same multiplier its
        regular polls do.  At/above the retry low watermark the delay is
        additionally multiplied by :data:`STRETCH_MULTIPLIER` (defer), so
        a filling queue drains slower than it grows.
        """
        factor = stretch_factor(link, rng)
        if link.retry_depth >= RETRY_LOW_WATERMARK:
            factor *= STRETCH_MULTIPLIER
            self.retries_deferred += 1
            self.engine._count(link, "delivery.retries_deferred")
        return delay if factor == 1.0 else delay * factor

    # -- the degradation ladder ------------------------------------------------

    def refresh_level(self, link) -> None:
        """Recompute the ladder level; emit the transition on change.

        Every outcome, every breaker move and every queue move passes
        here, so the ladder is read inline, top rung first.
        """
        if link.level is None:
            self.track(link)
        breaker = link.breaker
        if breaker is not None and breaker.state is BreakerState.OPEN:
            new = DEGRADATION_BREAKER_OPEN
        elif (
            link.hint_backlog >= HINT_HIGH_WATERMARK
            or link.retry_depth >= RETRY_HIGH_WATERMARK
        ):
            new = DEGRADATION_SHEDDING
        elif link.stretch > 1.0:
            new = DEGRADATION_STRETCHED
        else:
            new = DEGRADATION_HEALTHY
        old = link.level
        if new == old:
            return
        link.level = new
        engine = self.engine
        engine._transition(link, DEGRADATION_LADDER, old, new, engine.now)
        if engine.metrics is not None:
            engine.metrics.gauge(
                f"{engine.metrics_namespace}.delivery.stretch", service=link.slug
            ).set(link.stretch)

    # -- admission: realtime-hint queue -----------------------------------------

    def admit_hint(self, link) -> str:
        """Admission verdict for one honoured hint identity.

        Consulted *per identity* (each identity is one outstanding fast
        poll), so a single huge hint burst walks the ladder rung by
        rung: allow → defer → shed.
        """
        backlog = link.hint_backlog
        if backlog >= HINT_HIGH_WATERMARK:
            self.hints_shed += 1
            self._record_hint(link, "shed", backlog)
            self.refresh_level(link)
            return HINT_SHED
        if backlog >= HINT_LOW_WATERMARK:
            self.hints_deferred += 1
            self._record_hint(link, "deferred", backlog)
            return HINT_DEFER
        return HINT_ALLOW

    def _record_hint(self, link, outcome: str, backlog: int) -> None:
        """Count and trace one ``shed`` or ``deferred`` hint identity."""
        engine = self.engine
        engine._count(link, f"delivery.hints_{outcome}")
        if engine.trace is not None:
            engine.trace.record(
                engine.now, engine.metrics_namespace, f"engine_hint_{outcome}",
                service=link.slug, backlog=backlog,
            )

    def note_fast_poll_scheduled(self, link) -> None:
        link.hint_backlog += 1
        self.refresh_level(link)

    def note_fast_poll_done(self, link) -> None:
        """A hint-induced fast poll fired (or was cancelled)."""
        link.hint_backlog -= 1
        self.refresh_level(link)

    # -- admission: action retry queue ------------------------------------------

    def admit_retry(self, link) -> bool:
        """Whether a failed action may join the retry queue.

        ``False`` means the per-service depth is at/above the high
        watermark: the caller dead-letters with reason ``overload``.
        """
        if link.retry_depth < RETRY_HIGH_WATERMARK:
            return True
        self.overload_dead_letters += 1
        self.engine._count(link, "delivery.overload_dead_letters")
        self.refresh_level(link)
        return False

    def note_retry_enqueued(self, link) -> None:
        link.retry_depth += 1
        self.refresh_level(link)

    def note_retry_dequeued(self, link) -> None:
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
        return max(0, RETRY_HIGH_WATERMARK - link.retry_depth - link.replay_depth)

    def note_replay_drain_deferred(self, link) -> None:
        self.replay_drains_deferred += 1
        engine = self.engine
        engine._count(link, "replay.drains_deferred")
        if engine.trace is not None:
            engine.trace.record(
                engine.now, engine.metrics_namespace, "engine_replay_drain_deferred",
                service=link.slug, headroom=self.replay_headroom(link),
            )

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot folded into :meth:`IftttEngine.stats`."""
        return dict(zip(DELIVERY_STATS_KEYS, (
            self.hints_deferred,
            self.hints_shed,
            self.retries_deferred,
            self.overload_dead_letters,
            self.replay_drains_deferred,
            sum(link.stretched_samples for link in self.tracked()),
        )))

    def __repr__(self) -> str:
        tracked = self.tracked()
        degraded = sorted(link.slug for link in tracked if link.stretch > 1.0)
        return f"<DeliveryController services={len(tracked)} degraded={degraded}>"
