"""The centralized IFTTT engine.

Implements the online applet-execution phase exactly as §2.2 profiles it:

* the engine periodically polls the trigger service — an HTTPS POST to the
  trigger URL carrying the user's access token, the service key, and a
  random request id, with a ``limit`` (batch size k, default 50);
* the trigger service answers with buffered trigger events; the engine
  deduplicates them by ``meta.id`` and, for each new event, contacts the
  action URL;
* realtime-API hints (``POST /ifttt/v1/webhooks/service/notify``) merely
  *hint*; the engine "has full control over trigger event queries and very
  likely ignores real-time API's hints" — honoured only for an allowlist
  of services (Alexa-like), reproducing the A5-A7 vs A1-A4 latency gap.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Deque, Dict, Iterable, List, Optional, Set, Tuple

from repro.engine.applet import Applet, ActionRef, AppletState, QueryRef, TriggerRef
from repro.engine.filters import Expr, FilterEvalError, parse as parse_filter
from repro.engine.config import EngineConfig
from repro.engine.delivery import (
    DELIVERY_STATS_KEYS,
    DeliveryController,
    HINT_DEFER,
    HINT_DEFER_DELAY,
    HINT_SHED,
    response_is_brownout,
    stretch_factor,
)
from repro.engine.loops import RuntimeLoopDetector
from repro.engine.oauth import OAuthAuthority
from repro.engine.permissions import ServicePermissionModel
from repro.engine.poller import PollingPolicy
from repro.engine.push import (
    PUSH_STATS_KEYS, RUNG_POLL, RUNG_PUSH, SAFETY_NET_INTERVAL, PushController,
)
from repro.engine.replay import REPLAY_STATS_KEYS, ReplayController
from repro.engine.scheduler import HeapPollScheduler
from repro.engine.resilience import (
    BreakerState,
    CircuitBreaker,
    DeadLetter,
    PendingAction,
    backoff,
    exhausted,
)
from repro.simcore.event import Event
from repro.net.address import Address
from repro.net.http import HttpError, HttpNode, HttpRequest, HttpResponse
from repro.obs.bound import Bound
from repro.obs.metrics import COUNT_BUCKETS
from repro.services.partner import (
    ACTION_PATH,
    PUSH_NOTIFY_PATH,
    QUERY_PATH,
    REALTIME_NOTIFY_PATH,
    TRIGGER_PATH,
    PartnerService,
)
from repro.services.buffer import TriggerEvent
from repro.simcore.rng import Rng
from repro.simcore.trace import Trace

#: The ``limit`` every poll sends: k in §4's batching discussion.
POLL_LIMIT = 50
#: How many recent event ids the engine remembers per trigger identity
#: for deduplication.
DEDUPE_WINDOW = 2000
#: A dedupe window of at most this many ids is searched as a list; past
#: it, the window keeps a set of its ids beside the list.
WINDOW_LIST_MAX = 8

#: What a breaker move emits through ``IftttEngine._transition``: the
#: gauge, the transitions counter, the ``from_``/``to_`` label stem, the
#: trace kind and the state names by level.
BREAKER_LADDER = (
    "breaker_state", "breaker_transitions", "state", "engine_breaker_transition",
    tuple(state.value for state in BreakerState),   # declared in level order
)


class AppletIdRangeError(RuntimeError):
    """An engine tried to allocate an applet id outside its shard range.

    Shard id ranges are disjoint by construction
    (:data:`~repro.engine.sharding.APPLET_ID_STRIDE` or the corpus-derived
    stride); silently crossing into a neighbour's range would make
    ``ShardedEngine.engine_for()`` route lifecycle calls to the wrong
    shard, so the overflow is an error at install time.
    """


class DuplicateIdentityError(ValueError):
    """An applet's trigger identity is already held by another applet.

    An identity hashes its applet id (:meth:`TriggerRef.identity`), so
    two applets of one engine can share one only by a hash collision.
    The engine's identity index maps each identity to one applet id;
    the install is refused before the applet is indexed or scheduled.
    """


class ServiceRegistration:
    """Everything one engine knows about one published partner service.

    Every exchange in the paper's protocol is with *one* service, so the
    publication facts and all per-service state of the engine and its
    delivery/push/replay controllers live on this one record; they pass
    it around (as ``link``) instead of a slug.  The controllers keep
    engine totals only.

    Three members are born lazily because each birth is observable (its
    gauge goes live): ``breaker`` at the first guarded request, the
    degradation ``level`` (``None`` until then) at the first install or
    outcome under a delivery policy, and ``push_pending`` (``None`` until
    then) at the first contract install or notification.  The health
    fields, the rung and the admission depths are plain values, so
    reading them creates nothing.
    """

    __slots__ = (
        "slug",
        "address",
        "service_key",
        "push",
        "service",
        "breaker",
        "parked",
        "level",
        "error_ewma",
        "stretch",
        "consecutive_successes",
        "stretched_samples",
        "hint_backlog",
        "retry_depth",
        "replay_depth",
        "push_pending",
        "rung",
        "push_drain_armed",
        "drain_scheduled",
        "drain_awaits_close",
        "bound",
    )

    def __init__(
        self, service: PartnerService, service_key: str, namespace: str, push: bool = False
    ) -> None:
        self.slug = service.slug
        self.address = service.address
        self.service_key = service_key
        #: The negotiated push contract: the service declared ``push=True``
        #: *and* this engine's ``EngineConfig.push_policy`` is set.
        self.push = push
        self.service = service
        self.breaker: Optional[CircuitBreaker] = None
        #: Identities hinted/pushed while the breaker was open (ordered,
        #: each once); fast-polled when it closes.
        self.parked: Dict[str, None] = {}
        #: Adaptive delivery (``repro.engine.delivery``): the ladder level
        #: (mirrors the gauge; ``None`` until tracked), the error-rate
        #: EWMA, the poll/retry stretch factor, the success streak, and
        #: how many delays the stretch has multiplied.
        self.level: Optional[int] = None
        self.error_ewma = 0.0
        self.stretch = 1.0
        self.consecutive_successes = 0
        self.stretched_samples = 0
        #: Outstanding fast polls / parked action retries / records in
        #: replay — what the admission watermarks read.
        self.hint_backlog = 0
        self.retry_depth = 0
        self.replay_depth = 0
        #: Push ingestion (``repro.engine.push``): the FIFO of
        #: ``(identity, event_or_None)`` (``None`` until tracked; a
        #: ``None`` payload marks a hint-degraded entry that drains as a
        #: fast poll), the backpressure rung, and whether a drain is armed.
        self.push_pending: Optional[Deque[Tuple[str, Optional[TriggerEvent]]]] = None
        self.rung = RUNG_PUSH
        self.push_drain_armed = False
        self.drain_scheduled = False        # a replay drain is already queued
        self.drain_awaits_close = False     # an explicit drain waits for the breaker
        #: The ``{namespace}.*{service=slug}`` instruments the engine and
        #: its push/replay controllers record through per event.
        self.bound = Bound(namespace, service=service.slug)

    def __repr__(self) -> str:
        return f"<ServiceRegistration {self.slug!r}>"


class _AppletRuntime:
    """Engine-internal per-applet execution state.

    ``__slots__``-backed: at the 1M-applet fleet sizes the benchmarks
    drive, per-instance ``__dict__``s would cost hundreds of megabytes
    and defeat CPU caches on the poll hot path (see
    ``docs/PERFORMANCE.md``).  ``poll_gen``/``poll_scheduled`` belong to
    the poll scheduler's lazy-cancellation protocol.
    ``fast_poll_pending`` belongs to delivery admission control: it
    marks a hint-induced fast poll outstanding for this applet, so the
    per-service hint backlog stays exact under supersede/cancel.
    ``identity`` is ``applet.trigger_identity`` computed once (the
    property re-hashes on every read, and every poll presents it); it is
    the same string object the engine's identity index is keyed by.
    ``link`` is the trigger service's :class:`ServiceRegistration`; only
    stand-in harnesses that build runtimes by hand leave it ``None``.
    ``seen_order`` is the dedupe window, ``None`` until the applet's
    first event: usage is heavy-tailed (§3) and most polls come back
    empty (§4), so most of a fleet never needs one.  It is a ``list``,
    not a ``deque``: a fanned-out applet holds a few ids, and an empty
    deque alone is 760 bytes.  ``seen_ids`` is the same ids as a set,
    ``None`` until the window holds more than :data:`WINDOW_LIST_MAX`
    of them; an empty set alone is 216 bytes.
    """

    __slots__ = (
        "applet",
        "identity",
        "policy",
        "filter_expr",
        "seen_ids",
        "seen_order",
        "poll_in_flight",
        "polls",
        "last_poll_at",
        "poll_attempts",
        "poll_gen",
        "poll_scheduled",
        "fast_poll_pending",
        "link",
    )

    def __init__(
        self,
        applet: Applet,
        policy: PollingPolicy,
        filter_expr: Optional[Expr] = None,
        link: Optional[ServiceRegistration] = None,
    ) -> None:
        self.applet = applet
        self.identity = applet.trigger_identity
        self.policy = policy
        self.filter_expr = filter_expr
        self.link = link
        self.seen_ids: Optional[Set[int]] = None
        self.seen_order: Optional[List[int]] = None
        self.poll_in_flight = False
        self.polls = 0
        self.last_poll_at: Optional[float] = None
        # consecutive failed attempts in the current retry burst
        self.poll_attempts = 0
        # heap-scheduler lazy cancellation: entries carry the generation
        # they were pushed with; a bump invalidates them in place.
        self.poll_gen = 0
        self.poll_scheduled = False
        self.fast_poll_pending = False


class IftttEngine(HttpNode):
    """The trigger-action engine (a cloud HTTP node).

    Typical wiring::

        engine = IftttEngine(Address("engine.ifttt.cloud"), config, rng, trace)
        network.add_node(engine)
        key = engine.publish_service(hue_service)
        engine.connect_service("alice", hue_service, hue_authority, "password")
        applet = engine.install_applet("alice", "rain -> blue", trigger_ref, action_ref)
    """

    def __init__(
        self,
        address: Address,
        config: Optional[EngineConfig] = None,
        rng: Optional[Rng] = None,
        trace: Optional[Trace] = None,
        service_time: float = 0.01,
        metrics_namespace: str = "engine",
        applet_id_start: int = 100000,
        applet_id_limit: Optional[int] = None,
    ) -> None:
        super().__init__(address, service_time=service_time)
        self.config = config or EngineConfig()
        self.rng = rng or Rng(seed=0, name="engine")
        self.trace = trace
        # Metric names and trace entities are emitted under this
        # namespace ("engine" standalone; "engine.shard<i>" when owned
        # by a ShardedEngine, giving each shard its own metrics scope).
        self.metrics_namespace = metrics_namespace
        self._ns = metrics_namespace
        self.tokens: Dict[Tuple[str, str], str] = {}  # (user, service slug) -> token
        self.permissions = ServicePermissionModel()
        # The one slug-keyed table; all per-service state is on the record.
        self._services: Dict[str, ServiceRegistration] = {}
        self._applets: Dict[int, _AppletRuntime] = {}
        # trigger identity -> the applet id polling it (one applet each)
        self._by_identity: Dict[str, int] = {}
        # Shards carve out disjoint id ranges via applet_id_start, so a
        # fleet-wide applet id never collides across engines.
        # applet_id_limit caps how many ids this engine may allocate:
        # exceeding it would bleed into the next shard's range and make
        # ShardedEngine.engine_for() misroute lifecycle calls, so the
        # overflow fails loudly instead (AppletIdRangeError).
        self._applet_ids = itertools.count(applet_id_start)
        self._applet_id_start = applet_id_start
        self._applet_id_limit = applet_id_limit
        self._key_counter = itertools.count(1)
        self.loop_detector = RuntimeLoopDetector()
        self.realtime_hints_received = 0
        self.realtime_hints_honoured = 0
        self.polls_sent = 0
        self.actions_dispatched = 0
        self.poll_failures = 0
        self.action_failures = 0
        self.queries_sent = 0
        self.query_failures = 0
        self.filter_skips = 0
        self.filter_errors = 0
        # Resilience state: retry counters and the dead-letter sink that
        # guarantees no action is silently lost.
        self.polls_shed = 0
        self.poll_retries = 0
        self.actions_shed = 0
        self.action_retries = 0
        self.actions_delivered = 0
        self.dead_letters: List[DeadLetter] = []
        # Outstanding action-retry timers, keyed by a monotonic sequence
        # number (insertion-ordered, so cancellation on applet removal is
        # deterministic).  Without this ledger a retry scheduled for a
        # since-removed applet would still fire and deliver on its
        # behalf.  Its length is ``actions_in_retry``.
        self._retry_timers: Dict[int, Tuple[PendingAction, Event]] = {}
        self._retry_seq = itertools.count()
        # Realtime-hint fallback: hints for a service whose breaker is
        # open are parked on its record instead of scheduling fast polls
        # that are guaranteed to be shed; they resume when the half-open
        # probe succeeds and the breaker closes.
        self.realtime_hints_suppressed = 0
        self.realtime_hints_resumed = 0
        # Dead-letter replay (None unless EngineConfig.replay_policy is
        # set): in_replay is the fourth state of the conservation
        # invariant — dispatched == delivered + in_retry + dead + in_replay.
        self.replay: Optional[ReplayController] = (
            ReplayController(self, self.config.replay_policy)
            if self.config.replay_policy is not None
            else None
        )
        # Health-aware adaptive delivery (None unless
        # EngineConfig.delivery_policy is set): per-service EWMA health
        # stretches poll intervals and retry backoffs under brownout,
        # watermarked admission bounds the hint and retry queues, and
        # the degradation ladder is exported per service.  When None the
        # engine is byte-identical to the pre-delivery behaviour.
        self.delivery: Optional[DeliveryController] = (
            DeliveryController(self)
            if self.config.delivery_policy is not None
            else None
        )
        # Push-first delivery (None unless EngineConfig.push_policy is
        # set): partner services with an accepted contract POST event
        # payloads to the push webhook; the controller coalesces them
        # into batched drains and degrades push→hint→poll per service
        # under backlog pressure.  When None the webhook route isn't
        # even registered and the engine is byte-identical to the
        # pre-push behaviour.
        self.push: Optional[PushController] = (
            PushController(self, self.config.push_policy)
            if self.config.push_policy is not None
            else None
        )
        # Poll dispatch: one wake event per engine pops batches of due
        # polls.  See repro.engine.scheduler.
        self._scheduler = HeapPollScheduler(self)
        # Engine-wide per-event instruments (the per-service ones are on
        # each ServiceRegistration).  The three poll-path series keep a
        # table to themselves: see _hot_metrics.
        self._bound = Bound(metrics_namespace)
        self._poll_bound = Bound(metrics_namespace)
        self.add_route("POST", REALTIME_NOTIFY_PATH, self._handle_realtime_hint)
        if self.push is not None:
            self.add_route("POST", PUSH_NOTIFY_PATH, self._handle_push_notification)

    # -- service publication ------------------------------------------------------

    def publish_service(self, service: PartnerService) -> str:
        """Publish a partner service; issues and returns its service key.

        Mirrors the onboarding in §2.2: the service exposes its base URL
        and endpoints, and "IFTTT will generate for the service a key,
        which will be embedded in future message exchanges".
        """
        if service.slug in self._services:
            raise ValueError(f"service {service.slug!r} already published")
        # Shard engines qualify keys with their namespace so every shard
        # of a fleet issues a distinct key for the same service — keys
        # stay attributable and individually revocable.
        issuer = "" if self._ns == "engine" else f"{self._ns}-"
        key = f"key-{issuer}{service.slug}-{next(self._key_counter):04d}"
        # Contract negotiation: the service's push *capability* becomes
        # an accepted contract only when this engine runs a push policy.
        push = self.config.push_policy is not None and service.push
        self._services[service.slug] = ServiceRegistration(
            service, key, self._ns, push=push
        )
        service.published(self.address, key, push=push)
        self.permissions.register_service(service.slug, service.trigger_slugs, service.action_slugs)
        return key

    def service_registration(self, slug: str) -> ServiceRegistration:
        """The engine's record of a published service."""
        return self._services[slug]

    @property
    def published_slugs(self) -> List[str]:
        """Slugs of all published services."""
        return sorted(self._services)

    # -- user connection (OAuth2) ---------------------------------------------------

    def connect_service(
        self,
        user: str,
        service: PartnerService,
        authority: OAuthAuthority,
        password: str,
    ) -> str:
        """Run the OAuth2 flow connecting ``user`` to ``service``.

        The user authenticates at the provider's page (``authorize``), the
        engine exchanges the code for a token, caches it, and the provider
        marks it valid for API calls.  Returns the access token.
        """
        if service.slug not in self._services:
            raise KeyError(f"service {service.slug!r} is not published")
        code = authority.authorize(user, password)
        grant = authority.exchange(code)
        self.tokens[(grant.user, grant.service_slug)] = grant.access_token
        service.grant_token(grant.access_token)
        self.permissions.grant_all_scopes(user, service.slug)
        return grant.access_token

    # -- applet lifecycle --------------------------------------------------------------

    def install_applet(
        self,
        user: str,
        name: str,
        trigger: TriggerRef,
        action: ActionRef,
        author: Optional[str] = None,
        extra_actions: Tuple[ActionRef, ...] = (),
        queries: Tuple[QueryRef, ...] = (),
        filter_code: Optional[str] = None,
    ) -> Applet:
        """Install and enable an applet for a user.

        ``extra_actions``, ``queries``, and ``filter_code`` are the
        multi-action / queries / conditions features (§6 future work);
        filter code is validated (parsed) at install time, as the real
        platform validates filter code at save time.

        Raises ``KeyError`` for unpublished services and
        :class:`~repro.engine.filters.FilterSyntaxError` for invalid
        filter code.  Like production IFTTT, it never rejects an applet
        for closing a loop (§4: "no syntax check is performed").
        """
        referenced = [trigger.service_slug, action.service_slug]
        referenced += [ref.service_slug for ref in extra_actions]
        referenced += [ref.service_slug for ref in queries]
        for slug in referenced:
            if slug not in self._services:
                raise KeyError(f"service {slug!r} is not published")
        filter_expr = parse_filter(filter_code) if filter_code is not None else None
        applet_id = next(self._applet_ids)
        if (
            self._applet_id_limit is not None
            and applet_id >= self._applet_id_start + self._applet_id_limit
        ):
            raise AppletIdRangeError(
                f"engine {self.address} exhausted its applet-id range "
                f"[{self._applet_id_start}, "
                f"{self._applet_id_start + self._applet_id_limit}): installing "
                f"applet #{applet_id} would collide with the next shard's "
                "range; raise the shard stride (ShardedEngine expected_applets "
                "/ applet_id_stride) or add shards"
            )
        applet = Applet(
            applet_id=applet_id,
            name=name,
            user=user,
            trigger=trigger,
            action=action,
            author=author,
            extra_actions=tuple(extra_actions),
            queries=tuple(queries),
            filter_code=filter_code,
        )
        link = self._services[trigger.service_slug]
        # The applet polls on a private clone of the base policy; what the
        # service's shared health and push rung do to it is decided per
        # poll (_interval).
        runtime = _AppletRuntime(
            applet=applet,
            policy=self.config.poll_policy.clone(),
            filter_expr=filter_expr,
            link=link,
        )
        identity = runtime.identity
        owner = self._by_identity.get(identity)
        if owner is not None:
            raise DuplicateIdentityError(
                f"applet #{applet_id} ({name!r}) has trigger identity "
                f"{identity!r}, already held by applet #{owner} "
                f"({self._applets[owner].applet.name!r})"
            )
        # The service's ladder level and push queue are born here (if
        # not yet), the level first.
        if self.delivery is not None:
            self.delivery.track(link)
        if link.push:
            self.push.track(link)
        self._applets[applet_id] = runtime
        self._by_identity[identity] = applet_id
        first_poll = self.config.initial_poll_delay
        if self.config.initial_poll_jitter > 0:
            first_poll += self.rng.uniform(0, self.config.initial_poll_jitter)
        self._scheduler.schedule(runtime, first_poll, initial=True)
        return applet

    def applet(self, applet_id: int) -> Applet:
        """Look up an installed applet."""
        return self._applets[applet_id].applet

    @property
    def applets(self) -> List[Applet]:
        """All installed applets."""
        return [rt.applet for rt in self._applets.values()]

    def disable_applet(self, applet_id: int) -> None:
        """Stop polling for an applet (its scheduled poll is canceled)."""
        runtime = self._applets[applet_id]
        runtime.applet.state = AppletState.DISABLED
        self._scheduler.cancel(runtime)
        self._clear_fast_poll(runtime)

    def enable_applet(self, applet_id: int) -> None:
        """Re-enable a disabled applet and resume polling."""
        runtime = self._applets[applet_id]
        if runtime.applet.enabled:
            return
        runtime.applet.state = AppletState.ENABLED
        self._schedule_next_poll(runtime, self.config.initial_poll_delay)

    def uninstall_applet(self, applet_id: int) -> Applet:
        """Remove an applet entirely: cancel polling, drop runtime state.

        The trigger service keeps its identity buffer (services don't
        learn about uninstalls synchronously in the real platform); the
        engine simply stops asking.

        Outstanding action-*retry* timers are cancelled too — a retry
        firing after removal would deliver on behalf of an uninstalled
        applet.  The parked records are dead-lettered with reason
        ``applet_removed`` (not dropped), so the conservation invariant
        survives the removal.
        """
        runtime = self._applets.pop(applet_id, None)
        if runtime is None:
            raise KeyError(f"no applet {applet_id}")
        runtime.applet.state = AppletState.DISABLED
        self._scheduler.cancel(runtime)
        self._clear_fast_poll(runtime)
        for seq in [
            seq
            for seq, (record, _) in self._retry_timers.items()
            if record.applet_id == applet_id
        ]:
            record, event = self._retry_timers.pop(seq)
            event.cancel()
            if self.delivery is not None:
                self.delivery.note_retry_dequeued(self._services[record.service_slug])
            self._dead_letter(record, "applet_removed")
        del self._by_identity[runtime.identity]
        return runtime.applet

    @property
    def actions_in_retry(self) -> int:
        """Actions waiting on a retry timer (the conservation invariant's
        ``in_retry``): the length of the retry table."""
        return len(self._retry_timers)

    @property
    def actions_in_replay(self) -> int:
        """Drained dead letters not yet delivered or failed again (the
        conservation invariant's ``in_replay``): the sum of the service
        records' replay depths."""
        return sum(link.replay_depth for link in self._services.values())

    def poll_count(self, applet_id: int) -> int:
        """How many polls the engine has sent for an applet."""
        return self._applets[applet_id].polls

    def poll_dispatch_stats(self) -> Dict[str, Any]:
        """The poll scheduler's occupancy/lifecycle snapshot.

        ``heap_entries``/``live_entries``/``stale_entries`` (the
        lazy-cancellation ledger), ``compactions``, ``wakes``, and
        ``batched_polls``.  See ``docs/PERFORMANCE.md``.
        """
        return self._scheduler.stats()

    def stats(self) -> Dict[str, int]:
        """A snapshot of the engine's counters (for CLIs and dashboards)."""
        return {
            "services": len(self._services),
            "applets": len(self._applets),
            "applets_enabled": sum(1 for rt in self._applets.values() if rt.applet.enabled),
            "polls_sent": self.polls_sent,
            "poll_failures": self.poll_failures,
            "actions_dispatched": self.actions_dispatched,
            "action_failures": self.action_failures,
            "queries_sent": self.queries_sent,
            "query_failures": self.query_failures,
            "filter_skips": self.filter_skips,
            "filter_errors": self.filter_errors,
            "realtime_hints_received": self.realtime_hints_received,
            "realtime_hints_honoured": self.realtime_hints_honoured,
            "realtime_hints_suppressed": self.realtime_hints_suppressed,
            "realtime_hints_resumed": self.realtime_hints_resumed,
            "polls_shed": self.polls_shed,
            "poll_retries": self.poll_retries,
            "actions_shed": self.actions_shed,
            "action_retries": self.action_retries,
            "actions_delivered": self.actions_delivered,
            "actions_in_retry": self.actions_in_retry,
            "actions_in_replay": self.actions_in_replay,
            "dead_letters": len(self.dead_letters),
            # A controller that is off reports each of its keys as 0.
            **(
                self.replay.stats() if self.replay is not None
                else dict.fromkeys(REPLAY_STATS_KEYS, 0)
            ),
            **(
                self.delivery.stats() if self.delivery is not None
                else dict.fromkeys(DELIVERY_STATS_KEYS, 0)
            ),
            **(
                self.push.stats() if self.push is not None
                else dict.fromkeys(PUSH_STATS_KEYS, 0)
            ),
        }

    # -- resilience: per-service circuit breakers --------------------------------------

    def breaker_for(self, service_slug: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding one published service.

        Each breaker reports its transitions into the
        ``engine.breaker_transitions`` counter family and the
        ``engine.breaker_state`` gauge (closed=0, half-open=1, open=2).
        """
        return self._breaker(self._services[service_slug])

    def _breaker(self, link: ServiceRegistration) -> CircuitBreaker:
        breaker = link.breaker
        if breaker is None:
            breaker = link.breaker = CircuitBreaker(
                on_transition=partial(self._on_breaker_transition, link)
            )
            # The state gauge is live from birth, not first-transition:
            # a service whose breaker never trips still reports closed=0,
            # so dashboards (and the shard-prefix fold) see every guarded
            # service, not just the ones that have already failed.
            self._ladder_born(link, BREAKER_LADDER, BreakerState.CLOSED.level)
        return breaker

    def _sheds(self, link: ServiceRegistration, now: float) -> bool:
        """Whether the service's breaker refuses a request at ``now`` (the
        current time) — the gate before every action and replay send,
        and, written out, every poll (and, at the first one, the
        breaker's birth)."""
        return not (link.breaker or self._breaker(link)).allow(now)

    def _note_outcome(
        self,
        link: ServiceRegistration,
        ok: bool,
        response: Optional[HttpResponse] = None,
    ) -> None:
        """Feed one request outcome to the breaker, *then* to health.

        The order is observable: a closing breaker resumes parked fast
        polls and schedules the replay drain before health sees the
        success.  An outcome follows a send, so the breaker exists.
        Replay passes no ``response``: breaker only.
        """
        now = self.network.sim._now  # ``self.now``, without its frame
        if ok:
            link.breaker.record_success(now)
        else:
            link.breaker.record_failure(now)
        if response is not None and self.delivery is not None:
            self.delivery.note_result(
                link, ok, brownout=not ok and response_is_brownout(response)
            )

    def _guarded(self) -> List[ServiceRegistration]:
        """Records whose breaker has been born, in slug order."""
        return [
            link for _, link in sorted(self._services.items())
            if link.breaker is not None
        ]

    def breaker_levels(self) -> Dict[str, int]:
        """Current numeric breaker level per service (0/1/2 =
        closed/half-open/open) — the live values behind the
        ``{ns}.breaker_state`` gauge family."""
        return {link.slug: link.breaker.state.level for link in self._guarded()}

    def breaker_states(self) -> Dict[str, str]:
        """Current breaker state per service (for dashboards and tests)."""
        return {link.slug: link.breaker.state.value for link in self._guarded()}

    def breaker_transitions(self) -> List[Tuple[float, str, str, str]]:
        """Every breaker transition so far as ``(at, service, from, to)``,
        in time order (for chaos reports)."""
        return sorted(
            (at, link.slug, old.value, new.value)
            for link in self._guarded()
            for at, old, new in link.breaker.transitions
        )

    def _on_breaker_transition(
        self, link: ServiceRegistration, old: BreakerState, new: BreakerState, at: float
    ) -> None:
        self._transition(link, BREAKER_LADDER, old.level, new.level, at)
        if self.delivery is not None:
            # The degradation ladder's top rung is the breaker (and
            # OPEN/HALF_OPEN suspend stretching, read off the breaker).
            self.delivery.refresh_level(link)
        if new is BreakerState.CLOSED:
            # The service healed (half-open probe succeeded): resume any
            # parked realtime hints and, when replay is configured,
            # drain its dead letters back through delivery.
            self._resume_parked(link)
            if self.replay is not None:
                self.replay.on_service_healed(link)

    def _transition(
        self, link: ServiceRegistration, ladder: tuple, old: int, new: int, at: float,
        **detail: Any,
    ) -> None:
        """Emit one move of a service from level ``old`` to ``new`` on a
        per-service ladder — the breaker (:data:`BREAKER_LADDER`), the
        degradation ladder or the push rung: set its gauge to ``new``,
        count the move in its transitions counter (labels
        ``from_<stem>``/``to_<stem>``, the levels' names) and trace it,
        with ``detail`` as extra trace fields."""
        gauge, counter, stem, kind, names = ladder
        moved = {f"from_{stem}": names[old], f"to_{stem}": names[new]}
        slug = link.slug
        if self.metrics is not None:
            self.metrics.counter(f"{self._ns}.{counter}", service=slug, **moved).inc()
            self.metrics.gauge(f"{self._ns}.{gauge}", service=slug).set(new)
        if self.trace is not None:
            self.trace.record(at, self._ns, kind, service=slug, **moved, **detail)

    def _ladder_born(self, link: ServiceRegistration, ladder: tuple, level: int) -> None:
        """A service's ladder is born at ``level``: its gauge goes live."""
        if self.metrics is not None:
            self.metrics.gauge(f"{self._ns}.{ladder[0]}", service=link.slug).set(level)

    def _count(self, link: ServiceRegistration, name: str, amount: int = 1) -> None:
        """Count ``amount`` ``{ns}.<name>{service}`` events."""
        metrics = self.metrics
        if metrics is not None:
            link.bound.counter(metrics, name).inc(amount)

    # -- dead-letter replay -------------------------------------------------------------

    def replay_dead_letters(self, service_slug: Optional[str] = None) -> None:
        """Explicitly replay dead letters (all services, or just one).

        Requires :attr:`EngineConfig.replay_policy`; services are drained
        in first-dead-letter order so replay bursts are deterministic.  A
        service whose breaker is not closed is drained when it closes
        (``replay.drains_deferred`` counts the wait); one of its letters
        is the half-open probe that closes it.
        """
        if self.replay is None:
            raise RuntimeError(
                "dead-letter replay is disabled; set EngineConfig.replay_policy"
            )
        if service_slug is not None:
            slugs = [service_slug]
        else:
            ordered: Dict[str, None] = {}
            for letter in self.dead_letters:
                ordered.setdefault(letter.service_slug, None)
            slugs = list(ordered)
        for slug in slugs:
            self.replay.replay_explicit(self._services[slug])

    # -- the poll loop ----------------------------------------------------------------

    def _hot_metrics(self, metrics) -> None:
        """The poll path has met a new registry: its three engine-wide
        series are born *together*, empty (a polling engine reports
        ``events_observed = 0`` before any event).  Everything else is
        born by its first sample, but every snapshot so far shows these
        three this way, so it stays; ``_poll_bound`` holds nothing else,
        so its ``registry`` says whether the birth has happened."""
        bound = self._poll_bound
        bound.histogram(metrics, "poll_rtt_seconds")
        bound.histogram(metrics, "poll_batch_new", COUNT_BUCKETS)
        bound.counter(metrics, "events_observed")

    def _schedule_next_poll(self, runtime: _AppletRuntime, delay: float) -> None:
        if runtime.applet.state is not AppletState.ENABLED:  # ``enabled``, without its frame
            return
        self._scheduler.schedule(runtime, delay)

    def _interval(self, link: ServiceRegistration, policy: PollingPolicy, rng: Rng) -> float:
        """The one cadence decision: seconds until an applet's next poll.

        A push-contract service on the push or hint rung → the constant
        :data:`~repro.engine.push.SAFETY_NET_INTERVAL`, **no RNG draw**
        (pushes deliver; polling is a slow sweep).  Otherwise the
        applet's own policy draws, times the service's shared health
        stretch — exactly 1.0, again with no draw, while the service is
        healthy or its breaker is not closed — so a healed (or
        shed-to-poll) service polls on the base policy's distribution
        byte for byte.
        """
        if link.push and link.rung != RUNG_POLL:
            return SAFETY_NET_INTERVAL
        interval = policy.next_interval(rng)
        if link.stretch > 1.0:
            factor = stretch_factor(link, rng)
            if factor != 1.0:
                interval *= factor
        return interval

    def _poll(self, runtime: _AppletRuntime) -> None:
        applet = runtime.applet
        link = runtime.link
        if runtime.fast_poll_pending:
            # The hint-induced fast poll is firing (or no-oping): its
            # backlog slot frees either way.
            runtime.fast_poll_pending = False
            if self.delivery is not None:
                self.delivery.note_fast_poll_done(link)
        if applet.state is not AppletState.ENABLED or runtime.poll_in_flight:
            return
        # Every poll passes here: the clock and the registry are read
        # once each, without the ``now`` / ``metrics`` property frames,
        # and the breaker gate is ``_sheds`` without its frame.
        network = self.network
        now = network.sim._now
        metrics = self._metrics
        if metrics is None:
            metrics = network.metrics
        breaker = link.breaker
        if breaker is None:
            breaker = self._breaker(link)
        if not breaker.allow(now):
            # Open breaker: shed the poll instead of hammering a failing
            # service.  The attempt still counts toward the applet's poll
            # tally (the engine *tried*), but no request leaves the node;
            # the regular cadence resumes and allow() will half-open the
            # breaker once the recovery timeout passes.
            runtime.polls += 1
            self.polls_shed += 1
            if metrics is not None:
                link.bound.counter(metrics, "polls_shed").inc()
            if self.trace is not None:
                self.trace.record(
                    now,
                    self._ns,
                    "engine_poll_shed",
                    applet_id=applet.applet_id,
                    service=link.slug,
                )
            self._schedule_next_poll(
                runtime, self._interval(link, runtime.policy, self.rng)
            )
            return
        runtime.poll_in_flight = True
        runtime.polls += 1
        runtime.last_poll_at = now
        self.polls_sent += 1
        if metrics is not None:
            if metrics is not self._poll_bound.registry:
                self._hot_metrics(metrics)
            link.bound.counter(metrics, "polls_sent").inc()
        if self.trace is not None:
            self.trace.record(
                now,
                self._ns,
                "engine_poll_sent",
                applet_id=applet.applet_id,
                identity=runtime.identity,
                trigger=applet.trigger.trigger_slug,
            )
        self.request(
            link.address,
            "POST",
            TRIGGER_PATH + applet.trigger.trigger_slug,
            body={
                "trigger_identity": runtime.identity,
                "triggerFields": dict(applet.trigger.fields),
                "limit": POLL_LIMIT,
                "request_id": f"req-{self.rng.randint(10**8, 10**9 - 1)}",
            },
            headers=self._auth_headers(link, applet.user),
            on_response=self._on_poll_response,
            timeout=self.config.request_timeout,
            context=runtime,
        )

    def _auth_headers(self, link: ServiceRegistration, user: str) -> Dict[str, Any]:
        headers: Dict[str, Any] = {"IFTTT-Service-Key": link.service_key}
        token = self.tokens.get((user, link.slug))
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def _on_poll_response(self, response: HttpResponse) -> None:
        runtime = response.context
        runtime.poll_in_flight = False
        applet = runtime.applet
        link = runtime.link
        metrics = self._metrics  # ``self.metrics``, without its frame
        if metrics is None:
            metrics = self.network.metrics
        ok = 200 <= response.status < 300  # ``response.ok``, without its frame
        self._note_outcome(link, ok, response)
        new_events: List[TriggerEvent] = []
        if ok:
            runtime.poll_attempts = 0
            data = (response.body or {}).get("data")
            if data:  # most polls come back empty: nothing to dedupe
                # The response carries newest-first; process in chronological order.
                new_events = self._new_events(runtime, reversed(data))
        else:
            self.poll_failures += 1
            if metrics is not None:
                metrics.counter(
                    f"{self._ns}.poll_failures", status=response.status
                ).inc()
        if metrics is not None:
            bound = self._poll_bound
            if metrics is not bound.registry:
                self._hot_metrics(metrics)
            bound.histogram(metrics, "poll_rtt_seconds").observe(response.elapsed)
            bound.histogram(metrics, "poll_batch_new", COUNT_BUCKETS).observe(len(new_events))
            if new_events:
                bound.counter(metrics, "events_observed").inc(len(new_events))
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_poll_response",
                applet_id=applet.applet_id,
                status=response.status,
                returned=len((response.body or {}).get("data", [])) if ok else 0,
                new=len(new_events),
            )
        runtime.policy.observe_events(len(new_events))
        for event in new_events:
            self._process_event(runtime, event)
        if not ok:
            runtime.poll_attempts += 1
            if (
                not exhausted(runtime.poll_attempts)
                and link.breaker.state is not BreakerState.OPEN
            ):
                # Retry the failed poll on capped exponential backoff —
                # unless the breaker just opened, in which case the shed
                # path owns pacing until the service recovers.
                self.poll_retries += 1
                if metrics is not None:
                    link.bound.counter(metrics, "poll_retries").inc()
                delay = backoff(runtime.poll_attempts, self.rng)
                if link.stretch > 1.0:
                    # Stretch the retry burst by the same health factor
                    # regular polls get — this is what turns a brownout's
                    # retry storm into a back-off.
                    delay *= stretch_factor(link, self.rng)
                self._schedule_next_poll(runtime, delay)
                return
            runtime.poll_attempts = 0  # burst over; fall back to the regular cadence
        interval = self._interval(link, runtime.policy, self.rng)
        if metrics is not None:
            # §4 blames T2A on this distribution, so it is a first-class
            # histogram, bound once per service record.  ``policy`` says
            # who owns the cadence (vocabulary: docs/OBSERVABILITY.md).
            held = link.bound.held(metrics)
            try:
                histogram = held["poll_interval_seconds"]
            except KeyError:
                histogram = held["poll_interval_seconds"] = metrics.histogram(
                    f"{self._ns}.poll_interval_seconds",
                    policy=(
                        "PushDeliveryPolicy" if link.push
                        else "AdaptiveDeliveryPolicy" if self.delivery is not None
                        else type(runtime.policy).__name__
                    ),
                    service=link.slug,
                )
            histogram.observe(interval)
        self._schedule_next_poll(runtime, interval)

    def _new_events(
        self, runtime: _AppletRuntime, events: Iterable[TriggerEvent]
    ) -> List[TriggerEvent]:
        """Dedupe ``events`` (chronological) against the applet's window of
        seen ``event_id``s, remembering — and returning — the new ones.

        Called on every poll response, and most carry nothing: the window
        (a list, ~90 B holding one id) exists from the applet's first
        event, not from install, so an idle applet does not own one.  Up
        to :data:`WINDOW_LIST_MAX` ids it is searched as a list; the set
        is built when it grows past that, long before the window holds
        :data:`DEDUPE_WINDOW` ids, so only the set branch evicts (by
        shifting the list).
        """
        seen, order = runtime.seen_ids, runtime.seen_order
        fresh = []
        for event in events:
            event_id = event.event_id
            if order is None:
                order = runtime.seen_order = []
            elif event_id in (order if seen is None else seen):
                continue
            order.append(event_id)
            if seen is None:
                if len(order) > WINDOW_LIST_MAX:
                    seen = runtime.seen_ids = set(order)
            else:
                seen.add(event_id)
                while len(order) > DEDUPE_WINDOW:
                    seen.discard(order.pop(0))
            fresh.append(event)
        return fresh

    # -- event processing: queries -> condition -> actions ----------------------------------

    def _process_event(self, runtime: _AppletRuntime, event: TriggerEvent) -> None:
        """Run one trigger event through queries, the filter, and actions."""
        applet = runtime.applet
        if applet.queries:
            self._run_queries(runtime, event, list(applet.queries), {})
        else:
            self._finish_event(runtime, event, {})

    def _run_queries(
        self,
        runtime: _AppletRuntime,
        event: TriggerEvent,
        remaining: List[QueryRef],
        results: Dict[str, Any],
    ) -> None:
        if not remaining:
            self._finish_event(runtime, event, results)
            return
        query = remaining[0]
        registration = self._services[query.service_slug]
        self.queries_sent += 1
        self.post(
            registration.address,
            QUERY_PATH + query.query_slug,
            body={"queryFields": dict(query.fields), "user": runtime.applet.user},
            headers=self._auth_headers(registration, runtime.applet.user),
            on_response=self._on_query_response,
            timeout=self.config.request_timeout,
            context=(runtime, event, remaining, results),
        )

    def _on_query_response(self, response: HttpResponse) -> None:
        """Record the answer to ``remaining[0]``, then run the rest."""
        runtime, event, remaining, results = response.context
        slug = remaining[0].query_slug
        if response.ok:
            results[slug] = (response.body or {}).get("data", [])
        else:
            self.query_failures += 1
            results[slug] = []
        self._run_queries(runtime, event, remaining[1:], results)

    def _finish_event(
        self,
        runtime: _AppletRuntime,
        event: TriggerEvent,
        query_results: Dict[str, Any],
    ) -> None:
        applet = runtime.applet
        if runtime.filter_expr is not None:
            # Single-row query results flatten to the row dict so filter
            # code can say ``queries.thermostat.temperature < 25``.
            flattened = {
                slug: (rows[0] if isinstance(rows, list) and len(rows) == 1 else rows)
                for slug, rows in query_results.items()
            }
            namespace = {
                "trigger": dict(event.ingredients),
                "queries": flattened,
                "meta": {"time": self.now, "applet_id": applet.applet_id},
            }
            try:
                verdict = bool(runtime.filter_expr.evaluate(namespace))
            except FilterEvalError:
                self.filter_errors += 1
                if self.metrics is not None:
                    self.metrics.counter(f"{self._ns}.runs_failed", reason="filter_error").inc()
                if self.trace is not None:
                    self.trace.record(
                        self.now, self._ns, "engine_filter_error",
                        applet_id=applet.applet_id,
                    )
                return
            if not verdict:
                self.filter_skips += 1
                if self.metrics is not None:
                    self.metrics.counter(f"{self._ns}.runs_skipped", reason="filter").inc()
                if self.trace is not None:
                    self.trace.record(
                        self.now, self._ns, "engine_filter_skipped",
                        applet_id=applet.applet_id,
                        event_id=event.event_id,
                    )
                return
        for action in (applet.action, *applet.extra_actions):
            self._dispatch_action(runtime, action, event)

    # -- action dispatch ------------------------------------------------------------------

    def _dispatch_action(
        self, runtime: _AppletRuntime, action: ActionRef, event: TriggerEvent
    ) -> None:
        applet = runtime.applet
        registration = self._services[action.service_slug]
        fields = action.resolve_fields(event.ingredients)
        applet.executions += 1
        self.actions_dispatched += 1
        metrics = self.metrics
        if metrics is not None:
            bound = registration.bound
            bound.counter(metrics, "actions_dispatched").inc()
            # Trigger-to-action latency as the engine sees it: action
            # dispatch time minus the event's ``created_at`` (when the
            # trigger condition was met at the service) — the §4
            # headline metric, dominated by the poll wait.
            bound.histogram(metrics, "t2a_seconds").observe(
                max(0.0, self.now - event.created_at)
            )
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_action_sent",
                applet_id=applet.applet_id,
                event_id=event.event_id,
                action=action.action_slug,
                service=action.service_slug,
            )
        if self.config.runtime_loop_detection:
            if self.loop_detector.observe(applet.applet_id, self.now):
                self.disable_applet(applet.applet_id)
                if metrics is not None:
                    metrics.counter(f"{self._ns}.loops_killed").inc()
                if self.trace is not None:
                    self.trace.record(
                        self.now,
                        self._ns,
                        "engine_loop_killswitch",
                        applet_id=applet.applet_id,
                    )
                return
        record = PendingAction(
            applet_id=applet.applet_id,
            service_slug=action.service_slug,
            action_slug=action.action_slug,
            fields=fields,
            user=applet.user,
            event_id=event.event_id,
            created_at=self.now,
        )
        self._send_action(record)

    def _send_action(self, record: PendingAction) -> None:
        """One delivery attempt for a committed action.

        Every call consumes an attempt, including breaker-shed ones — so
        an action aimed at a service that never recovers drains its retry
        budget and dead-letters instead of looping forever.
        """
        record.attempts += 1
        link = self._services[record.service_slug]
        if self._sheds(link, self.now):
            self.actions_shed += 1
            self._count(link, "actions_shed")
            if self.trace is not None:
                self.trace.record(
                    self.now,
                    self._ns,
                    "engine_action_shed",
                    applet_id=record.applet_id,
                    service=record.service_slug,
                    attempt=record.attempts,
                )
            self._note_action_failure(record)
            return
        self._post_action(record, self._on_action_result)

    def _post_action(
        self, record: PendingAction, on_result: Callable[[HttpResponse], None]
    ) -> None:
        """POST one action to its service (first sends, retries and
        unbatched replay all leave through here); ``on_result`` finds
        ``record`` as the response's context."""
        link = self._services[record.service_slug]
        self.request(
            link.address,
            "POST",
            ACTION_PATH + record.action_slug,
            body={"actionFields": record.fields, "user": record.user},
            headers=self._auth_headers(link, record.user),
            on_response=on_result,
            timeout=self.config.request_timeout,
            context=record,
        )

    def _on_action_result(self, response: HttpResponse) -> None:
        record = response.context
        record.last_status = response.status
        metrics = self.metrics
        if metrics is not None:
            self._bound.histogram(metrics, "action_rtt_seconds").observe(response.elapsed)
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_action_ack",
                applet_id=record.applet_id,
                status=response.status,
                attempt=record.attempts,
            )
        ok = response.ok
        link = self._services[record.service_slug]
        self._note_outcome(link, ok, response)
        if ok:
            self.actions_delivered += 1
            if metrics is not None:
                link.bound.counter(metrics, "actions_delivered").inc()
            return
        self.action_failures += 1
        if metrics is not None:
            metrics.counter(f"{self._ns}.action_failures", status=response.status).inc()
        self._note_action_failure(record)

    def _note_action_failure(self, record: PendingAction) -> None:
        """Retry a failed delivery, or seal it into the dead-letter sink."""
        delivery = self.delivery
        link = self._services[record.service_slug]
        if not exhausted(record.attempts):
            if delivery is not None and not delivery.admit_retry(link):
                # Retry queue at its high watermark: shedding, not
                # queueing.  The action is accounted, never silent.
                self._dead_letter(record, "overload")
                return
            self.action_retries += 1
            self._count(link, "action_retries")
            delay = backoff(record.attempts, self.rng)
            if delivery is not None:
                delay = delivery.stretch_retry_delay(link, delay, self.rng)
                delivery.note_retry_enqueued(link)
            if self.trace is not None:
                self.trace.record(
                    self.now,
                    self._ns,
                    "engine_action_retry",
                    applet_id=record.applet_id,
                    service=record.service_slug,
                    attempt=record.attempts,
                    delay=round(delay, 6),
                )
            seq = next(self._retry_seq)
            event = self.sim.schedule(
                delay, self._retry_action, seq, label="action-retry"
            )
            self._retry_timers[seq] = (record, event)
            return
        self._dead_letter(record, "max_attempts_exhausted")

    def _retry_action(self, seq: int) -> None:
        record, _ = self._retry_timers.pop(seq)
        if self.delivery is not None:
            self.delivery.note_retry_dequeued(self._services[record.service_slug])
        self._send_action(record)

    def _dead_letter(self, record: PendingAction, reason: str) -> None:
        letter = DeadLetter.from_pending(record, dead_at=self.now, reason=reason)
        self.dead_letters.append(letter)
        self._count(self._services[record.service_slug], "dead_letters")
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_action_dead_letter",
                applet_id=record.applet_id,
                service=record.service_slug,
                attempts=record.attempts,
                last_status=record.last_status,
                reason=reason,
            )

    # -- realtime API -------------------------------------------------------------------------

    def _webhook_sender(self, request: HttpRequest) -> ServiceRegistration:
        """Authenticate an inbound webhook: the record of the published
        service whose issued key it presents, else 404/401 — before any
        counter moves (the ``service_slug`` header is outside input and
        must not mint metric series)."""
        headers = request.headers
        link = self._services.get(headers.get("service_slug", ""))
        if link is None:
            raise HttpError(404, "unknown service")
        if headers.get("IFTTT-Service-Key") != link.service_key:
            raise HttpError(401, "bad service key")
        return link

    def _handle_realtime_hint(self, request: HttpRequest):
        link = self._webhook_sender(request)
        self.realtime_hints_received += 1
        honoured = self.config.honours_realtime_for(link.slug)
        metrics = self.metrics
        if metrics is not None:
            held = link.bound.held(metrics)
            try:
                hints = held[honoured]  # the bool is the key: two series at most
            except KeyError:
                hints = held[honoured] = metrics.counter(
                    f"{self._ns}.realtime_hints", service=link.slug, honoured=honoured
                )
            hints.inc()
        identities = [
            entry.get("trigger_identity") for entry in (request.body or {}).get("data", [])
        ]
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_realtime_hint",
                service=link.slug,
                honoured=honoured,
                identities=len(identities),
            )
        if honoured and not self._park(link, identities, "engine_realtime_hint_suppressed"):
            self.realtime_hints_honoured += 1
            for identity in identities:
                self._admit_fast_poll(link, identity)
        return {"status": "received"}

    def _handle_push_notification(self, request: HttpRequest):
        """``POST /ifttt/v1/webhooks/push`` — push-contract ingestion.

        Registered only when :attr:`EngineConfig.push_policy` is set;
        the :class:`~repro.engine.push.PushController` owns batching and
        backpressure.
        """
        return self.push.ingest(self._webhook_sender(request), request)

    def _park(
        self, link: ServiceRegistration, identities: List[str], trace_kind: str
    ) -> bool:
        """Park hinted/pushed identities while the service's breaker is
        open; ``False`` (nothing parked) when it is not.

        A fast poll — or a pushed payload's action — against an open
        breaker is guaranteed to be shed, so the identities wait on the
        record until :meth:`_resume_parked`.  This runs on whichever
        engine *received* the webhook (the home shard, or under
        round_robin whichever shard it landed on), so the parked state
        lives with the breaker that would do the shedding.
        """
        breaker = link.breaker
        if breaker is None or breaker.state is not BreakerState.OPEN:
            return False
        self.realtime_hints_suppressed += 1
        for identity in identities:
            link.parked[identity] = None
        self._count(link, "realtime_hints_suppressed")
        if self.trace is not None:
            self.trace.record(
                self.now, self._ns, trace_kind,
                service=link.slug, identities=len(identities),
            )
        return True

    def _admit_fast_poll(self, link: ServiceRegistration, identity: str) -> None:
        """Fast-poll one hinted identity, subject to watermark admission
        (each identity is one outstanding fast poll): allow → immediate,
        defer → ``HINT_DEFER_DELAY`` out, shed → the identity waits for
        its regular polling cadence."""
        delay = 0.0
        if self.delivery is not None:
            verdict = self.delivery.admit_hint(link)
            if verdict == HINT_SHED:
                return
            if verdict == HINT_DEFER:
                delay = HINT_DEFER_DELAY
        self._fast_poll_identity(identity, delay)

    def _fast_poll_identity(self, identity: str, delay: float = 0.0) -> None:
        applet_id = self._by_identity.get(identity)
        if applet_id is None:
            return
        runtime = self._applets[applet_id]
        if not runtime.applet.enabled or runtime.poll_in_flight:
            return
        if self.delivery is not None:
            if runtime.fast_poll_pending:
                # Already has a fast poll in flight-to-fire; a second
                # hint adds nothing but backlog drift.
                return
            runtime.fast_poll_pending = True
            self.delivery.note_fast_poll_scheduled(runtime.link)
        self._schedule_next_poll(runtime, delay)

    def _clear_fast_poll(self, runtime: _AppletRuntime) -> None:
        """Release a cancelled applet's outstanding fast-poll slot."""
        if runtime.fast_poll_pending:
            runtime.fast_poll_pending = False
            if self.delivery is not None:
                self.delivery.note_fast_poll_done(runtime.link)

    def _resume_parked(self, link: ServiceRegistration) -> None:
        """Half-open probe succeeded: fire the fast polls parked while the
        service's breaker was open (each distinct identity once)."""
        parked, link.parked = link.parked, {}
        if not parked:
            return
        self.realtime_hints_resumed += 1
        self._count(link, "realtime_hints_resumed")
        if self.trace is not None:
            self.trace.record(
                self.now,
                self._ns,
                "engine_realtime_hint_resumed",
                service=link.slug,
                identities=len(parked),
            )
        for identity in parked:
            self._fast_poll_identity(identity)

    def __repr__(self) -> str:
        return f"<IftttEngine services={len(self._services)} applets={len(self._applets)}>"
