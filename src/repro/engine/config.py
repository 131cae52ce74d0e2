"""Engine configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.engine.delivery import DeliveryPolicy
from repro.engine.poller import PollingPolicy, ProductionPollingPolicy
from repro.engine.push import PushPolicy
from repro.engine.resilience import ReplayPolicy

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
    and §6-ablation experiments override individual knobs.  The protocol
    is not a knob: each poll asks for :data:`~repro.engine.engine.POLL_LIMIT`
    events (§4's k = 50), the dedupe window holds
    :data:`~repro.engine.engine.DEDUPE_WINDOW` ids per trigger identity,
    and retries and per-service circuit breakers are always on, tuned by
    the constants of :mod:`repro.engine.resilience`.  Retry jitter is
    drawn from the engine's seeded RNG only on failures, so healthy runs
    consume no extra randomness; an open breaker sheds its service's
    polls and actions, and a shed poll still counts toward its applet's
    poll attempts.  See ``docs/ROBUSTNESS.md``.

    Attributes
    ----------
    poll_policy:
        Prototype polling policy; each installed applet receives its own
        :meth:`~repro.engine.poller.PollingPolicy.clone`.
    realtime_allowlist:
        Service slugs whose realtime hints cause an immediate poll.
        ``None`` means *honour every service's hints* (the push world §6
        advocates); an empty set ignores all hints.
    initial_poll_delay, initial_poll_jitter:
        Delay between applet installation and the registration poll, plus
        a uniform random extra of up to ``initial_poll_jitter`` seconds —
        staggering large fleets so their polling phases decorrelate.
    request_timeout:
        HTTP timeout, in seconds, of every engine-originated request:
        polls, queries, actions and replay batches.
    runtime_loop_detection:
        Attach a :class:`~repro.engine.loops.RuntimeLoopDetector` and
        disable applets that trip its rate limit (the constants of
        :mod:`repro.engine.loops`).  Default False — the paper confirms
        production IFTTT performs no loop check at all.
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
        into batched drains (:data:`~repro.engine.push.PUSH_BATCH_WINDOW`,
        ``max_batch``), and the watermarked backlog degrades the service
        push→hint→poll.  Applets on contract services poll only at the
        :data:`~repro.engine.push.SAFETY_NET_INTERVAL` safety net.  See
        ``docs/DELIVERY.md``.
    """

    poll_policy: PollingPolicy = field(default_factory=ProductionPollingPolicy)
    realtime_allowlist: Optional[FrozenSet[str]] = DEFAULT_REALTIME_ALLOWLIST
    initial_poll_delay: float = 1.0
    initial_poll_jitter: float = 0.0
    request_timeout: float = 30.0
    runtime_loop_detection: bool = False
    replay_policy: Optional[ReplayPolicy] = None
    delivery_policy: Optional[DeliveryPolicy] = None
    push_policy: Optional[PushPolicy] = None
    poll_dispatch: str = "heap"  # frozen benchmarks/ledger/adapters.py; removed by ROADMAP 1(a)

    def __post_init__(self) -> None:
        # ``not x >= 0`` refuses NaN too.
        if not self.initial_poll_delay >= 0:
            raise ValueError(f"initial_poll_delay must be >= 0, got {self.initial_poll_delay}")
        if not self.initial_poll_jitter >= 0:
            raise ValueError(f"initial_poll_jitter must be >= 0, got {self.initial_poll_jitter}")
        if not self.request_timeout > 0:
            raise ValueError(f"request_timeout must be positive, got {self.request_timeout}")
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
