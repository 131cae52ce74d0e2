"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.engine.delivery import DeliveryPolicy
from repro.engine.poller import PollingPolicy, ProductionPollingPolicy
from repro.engine.push import PushPolicy
from repro.engine.resilience import BreakerPolicy, ReplayPolicy, RetryPolicy

#: Services whose realtime hints production IFTTT is observed to honour.
#: §4: "it is likely that IFTTT ... processes the real-time API hints for
#: some services (such as Alexa) with timing requirements ... When we use
#: our own service to host Alexa, its latency becomes large."
DEFAULT_REALTIME_ALLOWLIST: FrozenSet[str] = frozenset({"amazon_alexa", "google_assistant"})

#: Applet-to-shard assignment strategies understood by
#: :class:`~repro.engine.sharding.ShardedEngine` (see ``docs/SHARDING.md``).
SHARD_STRATEGIES: tuple = ("service_hash", "round_robin", "popularity_balanced")


@dataclass
class EngineConfig:
    """Tunable engine behaviour.

    The defaults model production IFTTT as the paper measured it; the E3
    and §6-ablation experiments override individual knobs.

    Attributes
    ----------
    poll_policy:
        Prototype polling policy; each installed applet receives its own
        :meth:`~repro.engine.poller.PollingPolicy.clone`.
    batch_limit:
        The ``limit`` sent in each poll — k in §4's batching discussion
        (50 by default).
    realtime_allowlist:
        Service slugs whose realtime hints cause an immediate poll.
        ``None`` means *honour every service's hints* (the push world §6
        advocates); an empty set ignores all hints.
    initial_poll_delay, initial_poll_jitter:
        Delay between applet installation and the registration poll, plus
        a uniform random extra of up to ``initial_poll_jitter`` seconds —
        staggering large fleets so their polling phases decorrelate.
    action_timeout, poll_timeout:
        HTTP timeouts for engine-originated requests.
    dedupe_window:
        How many recent event ids the engine remembers per trigger
        identity for deduplication.
    runtime_loop_detection:
        Attach a :class:`~repro.engine.loops.RuntimeLoopDetector` and
        disable applets that trip its rate limit (the constants of
        :mod:`repro.engine.loops`).  Default False — the paper confirms
        production IFTTT performs no loop check at all.
    retry_policy:
        Retries on/off for failed polls and action deliveries: the
        default ``RetryPolicy()`` (fieldless; the capped exponential
        schedule is the ``RETRY_*`` constants of
        :mod:`repro.engine.resilience`) retries, ``None`` disables
        retries entirely (failed polls wait for the next regular
        interval, failed actions dead-letter immediately).  Jitter is
        drawn from the engine's seeded RNG, so retry timing is
        reproducible.  Only consulted on failures — healthy runs consume
        no extra randomness and behave identically with or without it.
    breaker_policy:
        Per-service circuit breakers on/off: the default
        ``BreakerPolicy()`` (fieldless; the ``BREAKER_*`` constants of
        :mod:`repro.engine.resilience`), or ``None``.  An open breaker
        sheds polls/actions for its service, modelling the adaptive
        slow-down of polling for failing services; shed polls still
        count toward per-applet poll attempts.  See
        ``docs/ROBUSTNESS.md``.
    replay_policy:
        Dead-letter replay on/off (``None``, the default, disables
        replay: dead letters stay sealed forever — the pre-replay
        behaviour).  When set, a service's dead letters are drained back
        into pending actions on heal (breaker close) or via
        :meth:`~repro.engine.engine.IftttEngine.replay_dead_letters`,
        re-dispatched in batches of
        :data:`~repro.engine.resilience.REPLAY_BATCH_LIMIT` (or one by
        one without :attr:`~repro.engine.resilience.ReplayPolicy.batching`),
        and the conservation invariant extends to ``dispatched ==
        delivered + in_retry + dead_lettered + in_replay``.  See
        ``docs/ROBUSTNESS.md`` ("Replay & batching").
    delivery_policy:
        Health-aware adaptive delivery on/off: ``None``, the default,
        disables adaptation — the engine behaves exactly as before, no
        new metric families appear, and no extra randomness is
        consumed, so the determinism gates stay byte-identical.
        ``DeliveryPolicy()`` (fieldless; the tunables are constants of
        :mod:`repro.engine.delivery`) makes the engine build a
        :class:`~repro.engine.delivery.DeliveryController`: per-service
        EWMA health on each service's record stretches poll intervals
        and retry backoffs under brownout, watermarked admission bounds
        the realtime-hint and action-retry queues, replay drains respect
        the same headroom, and the 4-level degradation ladder is
        exported per service as the ``{ns}.degradation_level`` gauge.  See ``docs/ROBUSTNESS.md``
        ("Adaptive delivery & degradation ladder").
    push_policy:
        Push-first delivery tunables (``None``, the default, disables
        push: services keep polling/hint semantics, no push webhook
        route is registered, and behaviour is byte-identical to the
        pre-push engine).  When set, the engine builds a
        :class:`~repro.engine.push.PushController`, registers
        ``POST /ifttt/v1/webhooks/push``, and accepts the push contract
        of any service published with ``push=True``: the service then
        POSTs event payloads directly, the controller coalesces them
        into batched drains (``batch_window``/``max_batch``), and the
        watermarked backlog degrades the service push→hint→poll.
        Applets on contract services poll only at the policy's
        ``safety_net_interval``.  See ``docs/DELIVERY.md``.
    """

    poll_policy: PollingPolicy = field(default_factory=ProductionPollingPolicy)
    batch_limit: int = 50
    realtime_allowlist: Optional[FrozenSet[str]] = DEFAULT_REALTIME_ALLOWLIST
    initial_poll_delay: float = 1.0
    initial_poll_jitter: float = 0.0
    action_timeout: float = 30.0
    poll_timeout: float = 30.0
    dedupe_window: int = 2000
    runtime_loop_detection: bool = False
    retry_policy: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    breaker_policy: Optional[BreakerPolicy] = field(default_factory=BreakerPolicy)
    replay_policy: Optional[ReplayPolicy] = None
    delivery_policy: Optional[DeliveryPolicy] = None
    push_policy: Optional[PushPolicy] = None
    poll_dispatch: str = "heap"  # frozen benchmarks/ledger/adapters.py; removed by ROADMAP 1(a)

    def __post_init__(self) -> None:
        if self.batch_limit <= 0:
            raise ValueError(f"batch_limit must be positive, got {self.batch_limit}")
        if self.dedupe_window <= 0:
            raise ValueError(f"dedupe_window must be positive, got {self.dedupe_window}")
        if self.poll_dispatch != "heap":
            raise ValueError(
                f"poll_dispatch={self.poll_dispatch!r}: the per-applet-timer "
                "dispatch was removed; 'heap' is the only poll scheduler"
            )

    def honours_realtime_for(self, service_slug: str) -> bool:
        """Whether a realtime hint from this service triggers an immediate poll."""
        if self.realtime_allowlist is None:
            return True
        return service_slug in self.realtime_allowlist
