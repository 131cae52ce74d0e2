"""Push-first delivery: partner services notify the engine directly.

§6 ("Performance Improvements") frames the trade: polling dominates
time-to-action (T2A quartiles 58/84/122 s), but *"if all trigger
services perform push, the incurred instantaneous workload may be too
high"*.  This module builds the full-push half of that comparison as a
first-class delivery mode:

* **Opt-in contract.**  A :class:`~repro.services.partner.PartnerService`
  constructed with ``push=True`` declares the capability; the contract
  is *negotiated at publication*: an engine whose
  :attr:`~repro.engine.config.EngineConfig.push_policy` is set accepts
  it (``ServiceRegistration.push``), and the service then POSTs event
  payloads to ``/ifttt/v1/webhooks/push`` instead of mere realtime
  hints.  This generalizes the Alexa-style allowlist: hints name
  identities and still cost a fetch poll; pushes carry the buffered
  ``TriggerEvent`` records inline, so delivery skips the poll round-trip
  entirely.  The body is validated whole before anything is admitted:
  a malformed one is answered 400, naming the field, and counted in
  ``engine.push.malformed``.
* **Ingestion batching.**  Notifications land in a per-service pending
  queue and are drained by a coalescing simulator event: the first
  arrival arms one drain :data:`PUSH_BATCH_WINDOW` seconds out, later
  arrivals join it, and each drain processes up to ``max_batch`` entries —
  turning the §6 "instantaneous fleet-wide spike" into bounded batches.
* **Watermarked backpressure.**  The pending backlog degrades the
  service down a three-rung ladder — **push → hint → poll**: below
  ``low_watermark`` payloads are ingested directly; between the
  watermarks new arrivals drop their payload and become hint-style fast
  polls; at ``high_watermark`` they are shed outright and the identity
  waits for its polling cadence.  Recovery is hysteretic: a service
  re-earns the push rung only once its backlog drains below
  ``low_watermark``.
* **Uniform health tracking.**  Push slots in *behind* the existing
  resilience stack, through the same two engine helpers realtime hints
  use: an open breaker parks notifications on the service's record
  (``IftttEngine._park``, counted by
  ``realtime_hints_suppressed``/``_resumed``) and resumes them as fast
  polls on close; degraded-to-hint entries drain through
  ``IftttEngine._admit_fast_poll``, so when a
  :class:`~repro.engine.delivery.DeliveryController` is active the
  degradation ladder and ``overload`` shedding apply to push traffic
  unchanged.

The per-service ingestion state — the pending queue
(``link.push_pending``), the rung (``link.rung``) and the armed-drain
flag — lives on the engine's
:class:`~repro.engine.engine.ServiceRegistration` record; the controller
keeps engine totals only.  A rung move is emitted through the engine's
one transition emitter (``IftttEngine._transition``), shared with the
breaker and the degradation ladder.

Safety net & restoration
------------------------

Applets on a push-contract service still poll — every
:data:`SAFETY_NET_INTERVAL` seconds (a slow background sweep that
catches anything a lost notification missed; the trigger buffer is a
non-consuming ring and the engine dedupes by ``event_id``, so double
delivery is structurally impossible).  There is no polling-policy wrapper: the
engine's one cadence decision (``IftttEngine._interval``) returns that
constant with **no RNG consumption** while the service's rung is push
or hint; on the ``poll`` rung the applet's own policy draws verbatim
(times the health stretch, if adaptive delivery is on), so a
degraded-push service's interval distribution is *exactly* the base
polling distribution — the push analogue of the adaptive restoration
proof, pinned by ``tests/test_push_equivalence.py``.

Deterministic tie-break (continuous-time tie hazard)
----------------------------------------------------

Push drains are ordinary simulator events, so simultaneous push
deliveries and poll wakes at the same timestamp are ordered by the
kernel's ``(time, priority, seq)`` total order
(:class:`repro.simcore.event.Event`): whichever was *scheduled* first
fires first, and the monotone ``seq`` makes replays byte-identical.
This closes the tie hazard noted in PR 5's scheduler fine print for the
push path; ``tests/test_push_mode.py`` replays a crafted same-timestamp
schedule twice and compares snapshots bytewise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.net.http import HttpError
from repro.obs.metrics import COUNT_BUCKETS
from repro.services.buffer import TriggerEvent

#: The three delivery modes the testbeds and CLI compare
#: (``repro chaos --delivery {poll,hint,push}``).
DELIVERY_MODES = ("poll", "hint", "push")

#: Backpressure rungs, best to worst.  A service's rung decides how an
#: arriving notification is treated *and* how its applets' poll
#: intervals are drawn (see ``IftttEngine._interval``).
RUNG_PUSH = 0
RUNG_HINT = 1
RUNG_POLL = 2
PUSH_RUNG_NAMES = ("push", "hint", "poll")

#: What a rung move emits through ``IftttEngine._transition``: the
#: gauge, the transitions counter, the ``from_``/``to_`` label stem, the
#: trace kind and the rung names.
PUSH_LADDER = (
    "push.rung", "push.rung_transitions", "rung", "engine_push_rung_transition",
    PUSH_RUNG_NAMES,
)

#: Coalescing window in seconds: the first notification after an idle
#: period arms one drain event this far out; arrivals inside the window
#: join the same drain.
PUSH_BATCH_WINDOW = 0.05
#: Poll interval for applets whose service holds the push (or hint)
#: rung — a slow background sweep, not a delivery path.  A constant, so
#: it draws no RNG and push mode stays byte-deterministic.
SAFETY_NET_INTERVAL = 600.0

#: The keys of :meth:`PushController.stats`, in order; the engine
#: reports each as 0 when push is off.
PUSH_STATS_KEYS = (
    "push_notifications_received",
    "push_events_ingested",
    "push_batches_drained",
    "push_degraded_to_hint",
    "push_shed_to_poll",
    "push_notifications_parked",
)


@dataclass(frozen=True)
class PushPolicy:
    """Tunables for push-first delivery (engine-side ingestion).

    The coalescing window and the safety-net poll are the constants
    :data:`PUSH_BATCH_WINDOW` and :data:`SAFETY_NET_INTERVAL`.

    Attributes
    ----------
    max_batch:
        Entries processed per drain (the paper's ``k`` batching knob
        again — same default as the poll ``limit``).  A backlog larger
        than this re-arms the drain immediately after.
    low_watermark, high_watermark:
        Per-service pending-backlog thresholds for the push→hint→poll
        degradation ladder.  Below ``low`` payloads are ingested; in
        ``[low, high)`` new arrivals degrade to hint-style fast polls;
        at ``high`` they are shed to the polling cadence.  Recovery to
        the push rung requires the backlog to drain below ``low``.
    """

    max_batch: int = 50
    low_watermark: int = 64
    high_watermark: int = 256

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.low_watermark < 1:
            raise ValueError(
                f"low_watermark must be >= 1, got {self.low_watermark}"
            )
        if self.high_watermark <= self.low_watermark:
            raise ValueError(
                "high_watermark must exceed low_watermark, got "
                f"{self.high_watermark} <= {self.low_watermark}"
            )


def _malformed(entries: Any) -> Optional[str]:
    """The first field of a push body's ``data`` that breaks the contract
    — a list of ``{"trigger_identity": str, "events": [TriggerEvent, ...]}``
    entries — or ``None`` when the whole body is well formed."""
    if not isinstance(entries, list):
        return "data must be a list"
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            return f"data[{index}] must be an object"
        if not isinstance(entry.get("trigger_identity"), str):
            return f"data[{index}].trigger_identity must be a str"
        events = entry.get("events")
        if not isinstance(events, list) or not all(
            isinstance(event, TriggerEvent) for event in events
        ):
            return f"data[{index}].events must be a list of TriggerEvent"
    return None


class PushController:
    """Engine-side push ingestion: batching, backpressure, parking.

    Built by :class:`~repro.engine.engine.IftttEngine` when
    :attr:`~repro.engine.config.EngineConfig.push_policy` is set; owns
    the ``POST /ifttt/v1/webhooks/push`` endpoint's semantics.
    """

    def __init__(self, engine, policy: PushPolicy) -> None:
        self.engine = engine
        self.policy = policy
        self.notifications_received = 0
        self.events_ingested = 0
        self.batches_drained = 0
        self.degraded_to_hint = 0
        self.shed_to_poll = 0
        self.notifications_parked = 0

    # -- state ------------------------------------------------------------------

    def track(self, link) -> None:
        """Start tracking a contract service (idempotent): its pending
        queue is born, and its ``push.rung`` gauge goes live on the push
        rung, like the breaker-state gauge — a contract service that
        never degrades still reports it."""
        if link.push_pending is None:
            link.push_pending = deque()
            self.engine._ladder_born(link, PUSH_LADDER, RUNG_PUSH)

    # -- ingestion --------------------------------------------------------------

    def ingest(self, link, request) -> Dict[str, Any]:
        """Handle one (authenticated) push notification.

        A malformed body is rejected whole — 400 naming the first bad
        field, counted in ``engine.push.malformed{service}`` — before any
        other counter moves or any event is admitted.
        """
        engine = self.engine
        body = request.body
        entries = body.get("data") if isinstance(body, dict) else None
        problem = _malformed(entries)
        if problem is not None:
            engine._count(link, "push.malformed")
            raise HttpError(400, f"malformed push notification: {problem}")
        self.track(link)
        self.notifications_received += 1
        engine._count(link, "push.notifications")
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                engine._ns,
                "engine_push_notification",
                service=link.slug,
                identities=len(entries),
            )
        # Same fallback as realtime hints: ingesting payloads for a
        # service whose breaker is open would dispatch actions that are
        # guaranteed to be shed, so the identities are parked instead
        # (payloads dropped — the buffer is a non-consuming ring, so the
        # resume fast polls re-fetch them).
        if engine._park(
            link,
            [entry["trigger_identity"] for entry in entries],
            "engine_push_parked",
        ):
            self.notifications_parked += 1
            return {"status": "received"}
        for entry in entries:
            identity = entry["trigger_identity"]
            # Newest-first, as a poll response; enqueue in chronological order.
            for event in reversed(entry["events"]):
                self._admit(link, identity, event)
        self._arm_drain(link)
        return {"status": "received"}

    def _admit(self, link, identity: str, event: TriggerEvent) -> None:
        """Enqueue one pushed event, walking the backpressure ladder."""
        self._refresh_rung(link)
        rung = link.rung
        if rung == RUNG_POLL:
            # Shed: the identity waits for its polling cadence (which
            # the poll rung has already restored to the base policy).
            self.shed_to_poll += 1
            self.engine._count(link, "push.shed_to_poll")
            return
        if rung == RUNG_HINT:
            # Degrade: keep the identity, drop the payload — the drain
            # turns it into a hint-style fast poll.
            self.degraded_to_hint += 1
            self.engine._count(link, "push.degraded_to_hint")
            link.push_pending.append((identity, None))
            return
        link.push_pending.append((identity, event))

    def _refresh_rung(self, link) -> None:
        """Recompute the ladder rung from the backlog (with hysteresis)."""
        backlog = len(link.push_pending)
        if backlog >= self.policy.high_watermark:
            rung = RUNG_POLL
        elif backlog < self.policy.low_watermark:
            rung = RUNG_PUSH
        else:
            # Between the watermarks: degrade at least to hint, but a
            # service already shed to poll stays there until the backlog
            # drains below low — no flapping at the high watermark.
            rung = RUNG_POLL if link.rung == RUNG_POLL else RUNG_HINT
        old = link.rung
        if rung == old:
            return
        link.rung = rung
        engine = self.engine
        engine._transition(link, PUSH_LADDER, old, rung, engine.now, backlog=backlog)

    # -- the coalescing drain ---------------------------------------------------

    def _arm_drain(self, link) -> None:
        """Arm one drain event :data:`PUSH_BATCH_WINDOW` seconds out
        (idempotent while armed).

        The drain is a plain simulator event, so a drain coinciding with
        a poll wake is ordered by the kernel's ``(time, priority, seq)``
        tie-break — the documented deterministic ordering for
        simultaneous push deliveries and poll wakes.
        """
        if link.push_drain_armed or not link.push_pending:
            return
        link.push_drain_armed = True
        self.engine.sim.schedule(
            PUSH_BATCH_WINDOW,
            self._drain,
            link,
            label=f"push-drain:{link.slug}",
        )

    def _drain(self, link) -> None:
        """Process up to ``max_batch`` pending entries; re-arm if backlogged."""
        link.push_drain_armed = False
        pending = link.push_pending
        engine = self.engine
        batch = 0
        ingested = 0
        while pending and batch < self.policy.max_batch:
            identity, event = pending.popleft()
            batch += 1
            if event is None:
                # A hint-degraded entry drains as a fast poll, through
                # exactly the admission an honoured realtime hint gets.
                engine._admit_fast_poll(link, identity)
            else:
                ingested += self._deliver(identity, event)
        self.batches_drained += 1
        self.events_ingested += ingested
        metrics = engine.metrics
        if metrics is not None:
            bound = link.bound
            bound.histogram(metrics, "push.batch_size", COUNT_BUCKETS).observe(batch)
            if ingested:
                bound.counter(metrics, "push.events_ingested").inc(ingested)
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                engine._ns,
                "engine_push_drain",
                service=link.slug,
                entries=batch,
                ingested=ingested,
                backlog=len(pending),
            )
        self._refresh_rung(link)
        if pending:
            self._arm_drain(link)

    def _deliver(self, identity: str, event: TriggerEvent) -> int:
        """Run one pushed event through dedupe → queries/filter → actions.

        Exactly the poll-response processing path minus the poll: the
        event enters the applet's dedupe window (so the safety-net poll
        won't re-fire it) and flows through ``_process_event`` into the
        ordinary action dispatch, retry, and conservation accounting.
        An identity names one applet, so this delivers 0 or 1 times.
        """
        engine = self.engine
        runtime = engine._applets.get(engine._by_identity.get(identity))
        if runtime is None or not runtime.applet.enabled:
            return 0
        if not engine._new_events(runtime, (event,)):
            return 0
        runtime.policy.observe_events(1)
        engine._process_event(runtime, event)
        metrics = engine.metrics
        if metrics is not None:
            bound = engine._poll_bound
            if metrics is not bound.registry:
                engine._hot_metrics(metrics)
            bound.counter(metrics, "events_observed").inc(1)
        return 1

    # -- reporting --------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Counter snapshot merged into ``IftttEngine.stats()``."""
        return dict(zip(PUSH_STATS_KEYS, (
            self.notifications_received,
            self.events_ingested,
            self.batches_drained,
            self.degraded_to_hint,
            self.shed_to_poll,
            self.notifications_parked,
        )))
