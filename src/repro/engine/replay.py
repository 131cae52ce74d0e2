"""Dead-letter replay with batched action dispatch.

The paper's §4/§6 analysis shows partner outages surfacing as silent
latency spikes and fleet load dominated by bursty *catch-up* traffic
after recovery.  PR 2 gave the engine a dead-letter sink so no action is
silently lost; this module closes the loop: when a service **heals**
(its circuit breaker closes, or an operator triggers replay explicitly),
its dead letters are drained back into
:class:`~repro.engine.resilience.PendingAction` commitments and
re-dispatched.

Replay generates exactly the same-service catch-up burst that **batched
action dispatch** is meant to flatten, so the two ship as a pair: the
controller coalesces up to
:data:`~repro.engine.resilience.REPLAY_BATCH_LIMIT` (50, the paper's
polling ``limit`` k) same-service actions into one
:class:`~repro.services.partner.BatchActionRequest` against
``POST /ifttt/v1/actions/batch``; with
:attr:`~repro.engine.resilience.ReplayPolicy.batching` off, every action
travels alone — the baseline ``repro chaos --replay`` compares against.

Accounting extends the conservation invariant by one state::

    dispatched == delivered + in_retry + dead_lettered + in_replay

A drained letter moves ``dead_lettered -> in_replay``; a per-entry batch
success moves ``in_replay -> delivered``; a per-entry failure moves
``in_replay`` back through the ordinary retry pipeline
(``engine._note_action_failure``), ending in ``in_retry`` or a fresh
dead letter.  Nothing is ever in two states at once, so the sum is
conserved at every simulator step — per shard, and therefore fleet-wide
(see ``docs/SHARDING.md``).

Letters whose applet has been uninstalled are *not* replayed (delivering
for a removed applet is the exact bug
:meth:`~repro.engine.engine.IftttEngine.uninstall_applet` closes for the
retry queue); they stay sealed in the sink.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.engine.delivery import REPLAY_DRAIN_BACKOFF
from repro.engine.resilience import (
    REPLAY_BATCH_LIMIT, BreakerState, DeadLetter, PendingAction, ReplayPolicy,
)
from repro.net.http import HttpResponse
from repro.obs.metrics import COUNT_BUCKETS
from repro.services.partner import BATCH_ACTION_PATH, BatchActionRequest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.engine import IftttEngine, ServiceRegistration

#: The keys of :meth:`ReplayController.stats`, in order; the engine
#: reports each as 0 when replay is off.
REPLAY_STATS_KEYS = (
    "replay_drains",
    "dead_letters_replayed",
    "replay_requests_sent",
    "replay_actions_delivered",
    "replay_actions_failed",
)


class ReplayController:
    """Drains a healed service's dead letters back through delivery.

    One controller per engine (per *shard* in a fleet — replay is
    shard-local, like every other resilience mechanism).  The engine
    calls :meth:`on_service_healed` from its breaker-transition hook;
    operators call :meth:`replay_explicit`.  Both take the service's
    registration record (``link``), which carries the ``drain_scheduled``
    and ``drain_awaits_close`` flags and the ``replay_depth`` that the
    watermarks and the engine's ``actions_in_replay`` total read.
    """

    def __init__(self, engine: "IftttEngine", policy: ReplayPolicy) -> None:
        self.engine = engine
        self.policy = policy
        #: Totals, mirrored into ``{ns}.replay.*`` metrics.
        self.drains = 0
        self.dead_letters_replayed = 0
        self.requests_sent = 0
        self.actions_delivered = 0
        self.actions_failed = 0
        #: ``(delivered_at, record)`` per replayed delivery, in order —
        #: the chaos testbed reads this to measure the catch-up burst.
        self.deliveries: List[Tuple[float, PendingAction]] = []
        #: Burst envelope: first re-dispatch and last replayed delivery.
        self.first_dispatch_at: Optional[float] = None
        self.last_delivery_at: Optional[float] = None

    # -- triggers -------------------------------------------------------------

    def on_service_healed(self, link: ServiceRegistration) -> None:
        """Breaker-close hook: schedule a drain if the service has
        anything to replay.  An explicit drain that waited for the close
        runs as this one."""
        link.drain_awaits_close = False
        if self._has_letters(link):
            # Deferred by one zero-delay event so the drain never runs
            # re-entrantly inside the response callback that closed the
            # breaker.
            self._schedule_drain(link, 0.0, "replay-drain")

    def _schedule_drain(self, link: ServiceRegistration, delay: float, label: str) -> None:
        if link.drain_scheduled:
            return
        link.drain_scheduled = True
        self.engine.sim.schedule(
            delay, self._scheduled_drain, link, label=f"{label}:{link.slug}"
        )

    def _scheduled_drain(self, link: ServiceRegistration) -> None:
        link.drain_scheduled = False
        if link.drain_awaits_close:
            self._probe(link)
        else:
            self.replay_service(link)

    def _has_letters(self, link: ServiceRegistration) -> bool:
        return any(
            letter.service_slug == link.slug and self._replayable(letter)
            for letter in self.engine.dead_letters
        )

    def _replayable(self, letter: DeadLetter) -> bool:
        """Replaying for an uninstalled applet would resurrect the
        removed-applet delivery bug; such letters stay sealed."""
        return letter.applet_id in self.engine._applets

    # -- the drain ------------------------------------------------------------

    def replay_explicit(self, link: ServiceRegistration) -> None:
        """The explicit trigger: drain now into a closed breaker.

        While the service's breaker is not closed, the drain waits for
        the close (``replay.drains_deferred`` counts the wait) and probes
        the breaker itself, so it runs with no other traffic: once the
        breaker lets a half-open probe through, one letter goes out as
        that probe, and its success closes the breaker and drains the
        rest.  A drain into the open breaker would be shed instead: each
        record would burn an attempt, and a batch fewer than the same
        records sent one by one.
        """
        breaker = link.breaker
        if breaker is None or breaker.state is BreakerState.CLOSED:
            self.replay_service(link)
        elif self._has_letters(link):
            link.drain_awaits_close = True
            engine = self.engine
            if engine.delivery is not None:
                engine.delivery.note_replay_drain_deferred(link)
            else:
                engine._count(link, "replay.drains_deferred")
            self._probe(link)

    def _probe(self, link: ServiceRegistration) -> None:
        """Send one letter as the half-open probe of a drain that waits
        for the close, or wait until the open breaker would let it
        through.  A failed probe re-opens the breaker; its record's
        retries probe again, and the drain runs at the close."""
        at = link.breaker.probe_at()
        now = self.engine.now
        if at is not None and at > now:
            self._schedule_drain(link, at - now, "replay-probe")
        else:
            self.replay_service(link, limit=1)

    def replay_service(self, link: ServiceRegistration, limit: Optional[int] = None) -> None:
        """Drain one service's dead letters (at most ``limit`` of them)
        back into delivery now: what a scheduled drain, an explicit one
        into a closed breaker and a probe run."""
        engine = self.engine
        slug = link.slug
        drained: List[DeadLetter] = []
        kept: List[DeadLetter] = []
        # Delivery admission: a drain may only put as many records in
        # flight as the retry queue's high watermark leaves room for —
        # a catch-up burst respects the same ingestion bound ordinary
        # failures do.  Letters past the headroom stay sealed and a
        # re-drain is scheduled ``REPLAY_DRAIN_BACKOFF`` out.
        headroom = (
            engine.delivery.replay_headroom(link)
            if engine.delivery is not None
            else None
        )
        deferred = 0
        for letter in engine.dead_letters:
            if (
                letter.service_slug != slug
                or not self._replayable(letter)
                or len(drained) == limit
            ):
                kept.append(letter)
            elif headroom is not None and len(drained) >= headroom:
                deferred += 1
                kept.append(letter)
            else:
                drained.append(letter)
        if deferred:
            engine.delivery.note_replay_drain_deferred(link)
            self._schedule_drain(link, REPLAY_DRAIN_BACKOFF, "replay-redrain")
        if not drained:
            return
        engine.dead_letters[:] = kept
        records = [letter.to_pending() for letter in drained]
        link.replay_depth += len(records)
        self.drains += 1
        self.dead_letters_replayed += len(records)
        engine._count(link, "replay.drains")
        engine._count(link, "replay.dead_letters_replayed", len(records))
        if engine.metrics is not None:
            link.bound.gauge(engine.metrics, "replay.in_replay").set(engine.actions_in_replay)
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                engine.metrics_namespace,
                "engine_replay_drain",
                service=slug,
                letters=len(records),
                batching=self.policy.batching,
            )
        size = REPLAY_BATCH_LIMIT if self.policy.batching else 1
        for start in range(0, len(records), size):
            self._send(link, records[start:start + size])

    # -- dispatch -------------------------------------------------------------

    def _send(self, link: ServiceRegistration, records: List[PendingAction]) -> None:
        """One replay request: a batch, or one action when batching is off."""
        engine = self.engine
        shed = engine._sheds(link, engine.now)
        for record in records:
            record.attempts += 1
        if shed:
            # Breaker re-opened under the drain: each record has burnt
            # one attempt and goes back to the ordinary failure pipeline
            # (not through _refail: a shed is not a replay failure in
            # the ``replay.actions_failed`` / ``in_replay`` families).
            for record in records:
                link.replay_depth -= 1
                self.actions_failed += 1
                engine._note_action_failure(record)
            engine._count(link, "replay.actions_shed", len(records))
            return
        self.requests_sent += 1
        if self.first_dispatch_at is None:
            self.first_dispatch_at = engine.now
        if not self.policy.batching:
            engine._post_action(records[0], self._on_single_result)
            return
        batch = BatchActionRequest(entries=tuple(
            {
                "action_slug": record.action_slug,
                "actionFields": record.fields,
                "user": record.user,
            }
            for record in records
        ))
        metrics = engine.metrics
        if metrics is not None:
            bound = link.bound
            bound.counter(metrics, "replay.batches_sent").inc()
            bound.histogram(metrics, "replay.batch_size", COUNT_BUCKETS).observe(len(records))
        engine.post(
            link.address,
            BATCH_ACTION_PATH,
            body=batch.to_body(),
            headers=engine._auth_headers(link, records[0].user),
            on_response=self._on_batch_result,
            timeout=engine.config.request_timeout,
            context=(link, records),
        )

    # -- results --------------------------------------------------------------

    def _on_batch_result(self, response: HttpResponse) -> None:
        link, records = response.context
        self.engine._note_outcome(link, response.ok)
        if not response.ok:
            for record in records:
                record.last_status = response.status
                self._refail(link, record)
            return
        data = (response.body or {}).get("data", [])
        for index, record in enumerate(records):
            entry = data[index] if index < len(data) else {"status": 500}
            status = int(entry.get("status", 500))
            record.last_status = status
            if 200 <= status < 300:
                self._delivered(link, record)
            else:
                self._refail(link, record)

    def _on_single_result(self, response: HttpResponse) -> None:
        record = response.context
        link = self.engine._services[record.service_slug]
        record.last_status = response.status
        self.engine._note_outcome(link, response.ok)
        if response.ok:
            self._delivered(link, record)
        else:
            self._refail(link, record)

    def _delivered(self, link: ServiceRegistration, record: PendingAction) -> None:
        engine = self.engine
        link.replay_depth -= 1
        engine.actions_delivered += 1
        self.actions_delivered += 1
        self.last_delivery_at = engine.now
        self.deliveries.append((engine.now, record))
        metrics = engine.metrics
        if metrics is not None:
            bound = link.bound
            bound.counter(metrics, "replay.actions_delivered").inc()
            bound.counter(metrics, "actions_delivered").inc()
            # Latency of the replayed event measured from its original
            # dispatch commitment — the T2A the user finally observes.
            bound.histogram(metrics, "replay.t2a_seconds").observe(
                max(0.0, engine.now - record.created_at)
            )
            bound.gauge(metrics, "replay.in_replay").set(engine.actions_in_replay)
        if engine.trace is not None:
            engine.trace.record(
                engine.now,
                engine.metrics_namespace,
                "engine_replay_delivered",
                applet_id=record.applet_id,
                service=record.service_slug,
                event_id=record.event_id,
            )

    def _refail(self, link: ServiceRegistration, record: PendingAction) -> None:
        engine = self.engine
        link.replay_depth -= 1
        self.actions_failed += 1
        metrics = engine.metrics
        if metrics is not None:
            link.bound.counter(metrics, "replay.actions_failed").inc()
            link.bound.gauge(metrics, "replay.in_replay").set(engine.actions_in_replay)
        engine._note_action_failure(record)

    def stats(self) -> Dict[str, int]:
        """Counter snapshot folded into :meth:`IftttEngine.stats`."""
        return dict(zip(REPLAY_STATS_KEYS, (
            self.drains,
            self.dead_letters_replayed,
            self.requests_sent,
            self.actions_delivered,
            self.actions_failed,
        )))

    def __repr__(self) -> str:
        return (
            f"<ReplayController replayed={self.dead_letters_replayed} "
            f"requests={self.requests_sent} delivered={self.actions_delivered}>"
        )
