"""The generic IFTTT partner service.

Implements the service side of the IFTTT web-based protocol observed in
§2.2:

* the service exposes a base URL; each trigger or action has a unique URL
  under it (``/ifttt/v1/triggers/<slug>``, ``/ifttt/v1/actions/<slug>``);
* IFTTT issues a per-service **key** at publication, embedded in every
  message for authentication, alongside the user's OAuth2 bearer token and
  a random request id;
* polls carry a ``trigger_identity``, the ``triggerFields``, and a
  ``limit`` (50 by default); the response returns buffered trigger events;
* services supporting the **realtime API** proactively notify the engine
  when a trigger event occurs (the engine still polls to fetch it).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.net.address import Address
from repro.net.http import HttpError, HttpNode, HttpRequest
from repro.obs.bound import Bound
from repro.obs.metrics import COUNT_BUCKETS
from repro.services.buffer import TriggerBuffer, TriggerEvent
from repro.services.endpoints import ActionEndpoint, QueryEndpoint, TriggerEndpoint
from repro.simcore.trace import Trace

TRIGGER_PATH = "/ifttt/v1/triggers/"
ACTION_PATH = "/ifttt/v1/actions/"
QUERY_PATH = "/ifttt/v1/queries/"
STATUS_PATH = "/ifttt/v1/status"
REALTIME_NOTIFY_PATH = "/ifttt/v1/webhooks/service/notify"
#: Push-first delivery (opt-in per-service contract): the service POSTs
#: trigger-event *payloads* here, not mere identity hints.  The engine
#: registers the route only when ``EngineConfig.push_policy`` is set.
PUSH_NOTIFY_PATH = "/ifttt/v1/webhooks/push"
#: Batched action dispatch (dead-letter replay catch-up).  Longest-prefix
#: routing keeps it from shadowing single actions under ``ACTION_PATH``.
BATCH_ACTION_PATH = "/ifttt/v1/actions/batch"

#: The fields of every identity registered without any (most of a fleet):
#: one shared read-only mapping instead of an empty dict apiece.
_NO_FIELDS: Mapping[str, Any] = MappingProxyType({})


class _Identity(TriggerBuffer):
    """One registered trigger identity: its event ring, the trigger slug
    it was registered under and its trigger fields, in one slotted object
    (there is one per polled identity).  Built by
    :meth:`PartnerService.register_identity`, which sets the two fields
    after the ring's own ``__init__``: a first poll enters one frame."""

    __slots__ = ("trigger_slug", "fields")


@dataclass(frozen=True)
class BatchActionRequest:
    """Several same-service action executions coalesced into one request.

    The engine's replay pass uses this to flatten the post-heal catch-up
    burst: instead of one HTTP request per dead-lettered action, up to
    ``REPLAY_BATCH_LIMIT`` of them (the paper's k = 50 batching
    default) travel together.  Each entry is one would-be single-action
    body: ``{"action_slug", "actionFields", "user"}``.
    """

    entries: Tuple[Dict[str, Any], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a BatchActionRequest needs at least one entry")
        for entry in self.entries:
            if "action_slug" not in entry:
                raise ValueError(f"batch entry missing action_slug: {entry!r}")

    def __len__(self) -> int:
        return len(self.entries)

    def to_body(self) -> Dict[str, Any]:
        """The wire body (``POST /ifttt/v1/actions/batch``)."""
        return {"actions": [dict(entry) for entry in self.entries]}

    @staticmethod
    def from_body(body: Optional[Dict[str, Any]]) -> "BatchActionRequest":
        """Parse a wire body; raises ``ValueError`` when malformed."""
        entries = tuple(dict(entry) for entry in (body or {}).get("actions", []))
        return BatchActionRequest(entries=entries)


class PartnerService(HttpNode):
    """A partner service: trigger/action endpoints behind IFTTT auth.

    Parameters
    ----------
    address:
        The service server's network address (its "base URL").
    slug:
        The service's identity on the platform (e.g. ``"philips_hue"``).
    trace:
        Shared experiment trace (optional).
    realtime:
        Whether the service sends realtime hints to the engine on each
        new trigger event.
    push:
        Whether the service offers the push-first contract: when the
        publishing engine accepts it (``EngineConfig.push_policy`` set),
        each new trigger event is POSTed to the engine *with its
        payload* (``PUSH_NOTIFY_PATH``) instead of a realtime hint.
        The capability is a declaration; :attr:`push_contract` records
        the negotiated outcome.
    service_time:
        Server-side processing delay per HTTP request.
    """

    def __init__(
        self,
        address: Address,
        slug: str,
        trace: Optional[Trace] = None,
        realtime: bool = False,
        push: bool = False,
        service_time: float = 0.01,
        buffer_capacity: int = 500,
    ) -> None:
        super().__init__(address, service_time=service_time)
        self.slug = slug
        #: The ``source`` of every record this service traces: one string,
        #: not a fresh f-string per record.
        self.trace_source = f"service:{slug}"
        self.trace = trace
        self.realtime = realtime
        self.push = push
        #: Set at publication when the engine accepts the push contract.
        self.push_contract = False
        self.buffer_capacity = buffer_capacity
        self.service_key: Optional[str] = None
        #: Every engine-issued key this service accepts.  A standalone
        #: engine issues exactly one; a :class:`ShardedEngine` publishes
        #: the service on every shard, each issuing its own key, and the
        #: service must authenticate requests from any of them.
        self.service_keys: Set[str] = set()
        self.engine_address: Optional[Address] = None
        self._triggers: Dict[str, TriggerEndpoint] = {}
        self._actions: Dict[str, ActionEndpoint] = {}
        self._queries: Dict[str, QueryEndpoint] = {}
        #: trigger identity -> its buffer, trigger slug and fields
        self._identities: Dict[str, _Identity] = {}
        self._valid_tokens: Set[str] = set()
        self.polls_served = 0
        self.actions_executed = 0
        self.batch_requests_served = 0
        self.batch_actions_executed = 0
        self.events_ingested = 0
        self.realtime_hints_sent = 0
        self.push_notifications_sent = 0
        self.auth_failures = 0
        self.outage = False
        self.requests_rejected_during_outage = 0
        #: Optional :class:`~repro.faults.injector.ServiceFaultState`
        #: installed by a fault injector; ``None`` keeps the request path
        #: free of fault checks.
        self.faults = None
        self.requests_rejected_by_faults = 0
        self._bound = Bound("service", service=slug)  # per-request/-event instruments
        #: The ``since_id`` cursor of :meth:`poll_app`, advanced by its handler.
        self.app_cursor = 0
        self._app_poll: Optional[Tuple[Address, str, Dict[str, Any], float, Callable]] = None
        self.add_route("POST", TRIGGER_PATH, self._handle_trigger_poll)
        self.add_route("POST", ACTION_PATH, self._handle_action)
        self.add_route("POST", BATCH_ACTION_PATH, self._handle_batch_action)
        self.add_route("POST", QUERY_PATH, self._handle_query)
        self.add_route("GET", STATUS_PATH, self._handle_status)

    # -- endpoint declaration ----------------------------------------------------

    def add_trigger(self, endpoint: TriggerEndpoint) -> TriggerEndpoint:
        """Expose a trigger endpoint."""
        if endpoint.slug in self._triggers:
            raise ValueError(f"duplicate trigger slug {endpoint.slug!r} on {self.slug}")
        self._triggers[endpoint.slug] = endpoint
        return endpoint

    def add_action(self, endpoint: ActionEndpoint) -> ActionEndpoint:
        """Expose an action endpoint."""
        if endpoint.slug in self._actions:
            raise ValueError(f"duplicate action slug {endpoint.slug!r} on {self.slug}")
        self._actions[endpoint.slug] = endpoint
        return endpoint

    def add_query(self, endpoint: QueryEndpoint) -> QueryEndpoint:
        """Expose a query endpoint (side-effect-free read)."""
        if endpoint.slug in self._queries:
            raise ValueError(f"duplicate query slug {endpoint.slug!r} on {self.slug}")
        self._queries[endpoint.slug] = endpoint
        return endpoint

    @property
    def trigger_slugs(self) -> List[str]:
        """Slugs of all exposed triggers."""
        return sorted(self._triggers)

    @property
    def action_slugs(self) -> List[str]:
        """Slugs of all exposed actions."""
        return sorted(self._actions)

    def trigger(self, slug: str) -> TriggerEndpoint:
        """Look up a trigger endpoint."""
        return self._triggers[slug]

    def action(self, slug: str) -> ActionEndpoint:
        """Look up an action endpoint."""
        return self._actions[slug]

    # -- platform lifecycle ---------------------------------------------------------

    def published(
        self, engine_address: Address, service_key: str, push: bool = False
    ) -> None:
        """Callback from the engine when this service is published.

        Stores the engine-issued service key (used to authenticate all
        future engine requests) and the engine address (for realtime
        hints and push notifications).  Publishing on several engines
        (one per shard) accretes keys; the *last* publisher becomes the
        realtime-hint/push target, so a sharded coordinator publishes
        the trigger's home shard last.  ``push`` is the negotiated
        contract outcome: the engine passes ``True`` when its
        ``push_policy`` is set and this service declared ``push=True``.
        """
        self.engine_address = engine_address
        self.service_key = service_key
        self.service_keys.add(service_key)
        self.push_contract = push

    def grant_token(self, token: str) -> None:
        """Mark an OAuth2 access token as valid for this service."""
        self._valid_tokens.add(token)

    def register_identity(self, trigger_slug: str, identity: str, fields: Dict[str, Any]) -> None:
        """Create the event buffer for one trigger identity.

        The engine's first poll for a new applet registers the identity;
        events arriving before registration are not retroactively visible,
        matching the protocol.
        """
        if trigger_slug not in self._triggers:
            raise KeyError(f"service {self.slug} has no trigger {trigger_slug!r}")
        if identity not in self._identities:
            record = self._identities[identity] = _Identity(self.buffer_capacity)
            record.trigger_slug = trigger_slug
            record.fields = dict(fields) if fields else _NO_FIELDS

    @property
    def known_identities(self) -> List[str]:
        """All registered trigger identities."""
        return sorted(self._identities)

    def buffer_for(self, identity: str) -> TriggerBuffer:
        """The event buffer of a registered identity."""
        return self._identities[identity]

    # -- event ingestion -----------------------------------------------------------

    def ingest_event(self, trigger_slug: str, event: Dict[str, Any]) -> int:
        """Route one upstream event into matching identity buffers.

        Returns the number of identities that buffered the event.  Under
        an accepted push contract each affected identity's fresh event is
        POSTed to the engine with its payload; otherwise, when the
        service is realtime-capable, a hint naming each affected
        identity is sent (push supersedes hint — the payload is a strict
        superset of the identity list).
        """
        endpoint = self._triggers.get(trigger_slug)
        if endpoint is None:
            raise KeyError(f"service {self.slug} has no trigger {trigger_slug!r}")
        self.events_ingested += 1
        metrics = self.metrics
        if metrics is not None:
            held = self._bound.held(metrics)
            key = ("events_ingested", trigger_slug)  # one series per trigger
            try:
                ingested = held[key]
            except KeyError:
                ingested = held[key] = metrics.counter(
                    "service.events_ingested", service=self.slug, trigger=trigger_slug
                )
            ingested.inc()
        affected: List[str] = []
        pushed: List[Tuple[str, TriggerEvent]] = []
        # extracted at the first match and shared by every identity's event
        ingredients: Optional[Mapping[str, Any]] = None
        event_ids = self.sim.event_ids
        for identity, buffer in self._identities.items():
            if buffer.trigger_slug != trigger_slug:
                continue
            if not endpoint.matcher(event, buffer.fields):
                continue
            if ingredients is None:
                ingredients = MappingProxyType(dict(endpoint.ingredients(event)))
            fresh = TriggerEvent(next(event_ids), self.now, ingredients)
            buffer.append(fresh)
            affected.append(identity)
            if self.push_contract:
                pushed.append((identity, fresh))
        if self.trace is not None:
            self.trace.record(
                self.now,
                self.trace_source,
                "service_event_buffered",
                trigger=trigger_slug,
                identities=len(affected),
            )
        if pushed:
            self._send_push_notification(pushed)
        elif affected and self.realtime:
            self._send_realtime_hint(affected)
        return len(affected)

    def _send_realtime_hint(self, identities: List[str]) -> None:
        if self.engine_address is None:
            return
        self.realtime_hints_sent += 1
        self.post(
            self.engine_address,
            REALTIME_NOTIFY_PATH,
            body={"data": [{"trigger_identity": identity} for identity in identities]},
            headers={"IFTTT-Service-Key": self.service_key, "service_slug": self.slug},
        )

    def _send_push_notification(
        self, entries: List[Tuple[str, TriggerEvent]]
    ) -> None:
        """POST the fresh events (with payloads) to the contract engine.

        One notification per publication, carrying every affected
        identity's buffered event, as a poll response does (newest-first
        within each identity) — the engine ingests them through its
        dedupe, so a later safety-net poll re-returning the same events
        cannot double-deliver.
        """
        if self.engine_address is None:
            return
        self.push_notifications_sent += 1
        metrics = self.metrics
        if metrics is not None:
            self._bound.counter(metrics, "push_notifications_sent").inc()
        self.post(
            self.engine_address,
            PUSH_NOTIFY_PATH,
            body={
                "data": [
                    {"trigger_identity": identity, "events": [event]}
                    for identity, event in entries
                ]
            },
            headers={"IFTTT-Service-Key": self.service_key, "service_slug": self.slug},
        )

    # -- failure injection ---------------------------------------------------------

    def set_outage(self, active: bool) -> None:
        """Simulate a service outage: API requests return 503 while active.

        Event ingestion from devices keeps working (device clouds buffer
        independently of the IFTTT-facing API), so buffered trigger events
        are delivered by the first successful poll after recovery —
        exercising the engine's dedup and the client-visible latency spike.
        """
        self.outage = active

    def _check_outage(self):
        """Whole-request gate: hard outage first, then one brownout draw.

        Single-action/poll/query handlers carry one operation per
        request, so one draw per request *is* one draw per operation.
        The batch-action handler must not use this combined gate for its
        brownout half — see :meth:`_handle_batch_action`.
        """
        rejected = self._check_hard_outage()
        if rejected is not None:
            return rejected
        if self._brownout_rejects():
            return 503, {"errors": [{"message": "service browning out"}]}
        return None

    def _check_hard_outage(self):
        if self.outage:
            self.requests_rejected_during_outage += 1
            return 503, {"errors": [{"message": "service unavailable"}]}
        return None

    def _brownout_rejects(self) -> bool:
        """One brownout rejection draw (no RNG consumed when no brownout
        fault is active), counted in ``service.brownout_rejections``."""
        if self.faults is not None and self.faults.rejects():
            self.requests_rejected_by_faults += 1
            if self.metrics is not None:
                self.metrics.counter(
                    "service.brownout_rejections", service=self.slug
                ).inc()
            return True
        return False

    def _handle_status(self, request: HttpRequest):
        rejected = self._check_outage()
        if rejected is not None:
            return rejected
        return {"status": "ok", "service": self.slug}

    # -- protocol handlers ------------------------------------------------------------

    def _gate(self, request: HttpRequest, brownout: bool = True):
        """The preamble of every engine-facing handler: outage first
        (with one brownout draw unless ``brownout=False``), then
        authentication.  Returns the rejection response, or ``None``.

        Every poll passes here, so the healthy path is this one frame:
        the outage and brownout helpers are called only when an outage
        or a fault state is set.
        """
        if self.outage:
            return self._check_hard_outage()
        if brownout and self.faults is not None and self._brownout_rejects():
            return 503, {"errors": [{"message": "service browning out"}]}
        headers = request.headers
        if self.service_keys and headers.get("IFTTT-Service-Key") not in self.service_keys:
            self.auth_failures += 1
            return 401, {"errors": [{"message": "bad service key"}]}
        token = headers.get("Authorization", "")
        if self._valid_tokens and not (
            token.startswith("Bearer ") and token[len("Bearer "):] in self._valid_tokens
        ):
            self.auth_failures += 1
            return 401, {"errors": [{"message": "bad bearer token"}]}
        return None

    def _handle_trigger_poll(self, request: HttpRequest):
        rejected = self._gate(request)
        if rejected is not None:
            return rejected
        slug = request.path[len(TRIGGER_PATH):]
        endpoint = self._triggers.get(slug)
        if endpoint is None:
            return 404, {"errors": [{"message": f"unknown trigger {slug!r}"}]}
        body = request.body or {}
        identity = body.get("trigger_identity")
        if not identity:
            return 400, {"errors": [{"message": "missing trigger_identity"}]}
        fields = body.get("triggerFields", {})
        limit = int(body.get("limit", 50))
        buffer = self._identities.get(identity)
        if buffer is None:  # first poll for this identity registers it
            # under the endpoint's own slug, not this request's slice of
            # the path: one string per trigger, not one per identity
            self.register_identity(endpoint.slug, identity, fields)
            buffer = self._identities[identity]
        events = buffer.fetch(limit)
        self.polls_served += 1
        metrics = self._metrics  # ``self.metrics``, without its frame
        if metrics is None:
            metrics = self.network.metrics
        if metrics is not None:
            bound = self._bound
            bound.counter(metrics, "polls_served").inc()
            bound.histogram(metrics, "poll_batch_size", COUNT_BUCKETS).observe(len(events))
        if self.trace is not None:
            self.trace.record(
                self.now,
                self.trace_source,
                "service_poll_served",
                trigger=endpoint.slug,  # equal to slug, and not a fresh slice
                identity=identity,
                returned=len(events),
            )
        # the buffered records themselves: immutable, so by value without
        # a copy (docs/PROTOCOL.md, "The trigger event record")
        return {"data": events}

    def _handle_action(self, request: HttpRequest):
        rejected = self._gate(request)
        if rejected is not None:
            return rejected
        slug = request.path[len(ACTION_PATH):]
        endpoint = self._actions.get(slug)
        if endpoint is None:
            return 404, {"errors": [{"message": f"unknown action {slug!r}"}]}
        fields = (request.body or {}).get("actionFields", {})
        self.actions_executed += 1
        if self.trace is not None:
            self.trace.record(
                self.now,
                self.trace_source,
                "service_action_received",
                action=endpoint.slug,
            )
        result = endpoint.executor(fields)
        return {"data": [{"id": f"{self.slug}:{slug}:{self.actions_executed}", "result": result}]}

    def _handle_batch_action(self, request: HttpRequest):
        """Execute a :class:`BatchActionRequest`; per-entry status in order.

        Hard outage and authentication fail the whole batch (one healed
        service answers for all entries it carries); a bad entry —
        unknown slug, an executor raising :class:`HttpError`, or a
        *brownout rejection draw* — fails only itself, so one poisoned
        action cannot re-dead-letter its batchmates.

        Brownout is drawn **per entry**, not per request: a batch of 50
        replayed actions faces the same 50 independent rejection draws
        the retry path's 50 single-action requests would, so replay
        catch-up sees exactly the degraded service the rest of delivery
        does.  (Brownout ``extra_latency`` needs no special casing: the
        injector raises the node's per-request service time, which this
        endpoint already pays like any other.)
        """
        rejected = self._gate(request, brownout=False)
        if rejected is not None:
            return rejected
        try:
            batch = BatchActionRequest.from_body(request.body)
        except ValueError as exc:
            return 400, {"errors": [{"message": str(exc)}]}
        self.batch_requests_served += 1
        metrics = self.metrics
        if metrics is not None:
            bound = self._bound
            bound.counter(metrics, "batch_requests_served").inc()
            bound.histogram(metrics, "batch_action_size", COUNT_BUCKETS).observe(len(batch))
        results: List[Dict[str, Any]] = []
        for entry in batch.entries:
            slug = entry["action_slug"]
            if self._brownout_rejects():
                results.append(
                    {"status": 503,
                     "errors": [{"message": "service browning out"}]}
                )
                continue
            endpoint = self._actions.get(slug)
            if endpoint is None:
                results.append(
                    {"status": 404,
                     "errors": [{"message": f"unknown action {slug!r}"}]}
                )
                continue
            try:
                result = endpoint.executor(entry.get("actionFields", {}))
            except HttpError as exc:
                results.append(
                    {"status": exc.status, "errors": [{"message": exc.reason}]}
                )
                continue
            self.actions_executed += 1
            self.batch_actions_executed += 1
            results.append(
                {"status": 200,
                 "id": f"{self.slug}:{slug}:{self.actions_executed}",
                 "result": result}
            )
        if self.trace is not None:
            self.trace.record(
                self.now,
                self.trace_source,
                "service_batch_action_received",
                entries=len(batch),
                executed=sum(1 for r in results if r["status"] == 200),
            )
        return {"data": results}

    def _handle_query(self, request: HttpRequest):
        rejected = self._gate(request)
        if rejected is not None:
            return rejected
        slug = request.path[len(QUERY_PATH):]
        endpoint = self._queries.get(slug)
        if endpoint is None:
            return 404, {"errors": [{"message": f"unknown query {slug!r}"}]}
        fields = (request.body or {}).get("queryFields", {})
        rows = endpoint.executor(fields)
        if not isinstance(rows, list):
            rows = [rows]
        if self.trace is not None:
            self.trace.record(
                self.now,
                self.trace_source,
                "service_query_served",
                query=slug,
                rows=len(rows),
            )
        return {"data": rows}

    # -- web-app polling ----------------------------------------------------------------

    def poll_app(
        self, app: Address, path: str, query: Dict[str, Any], interval: float,
        on_response: Callable[[Any], None],
    ) -> None:
        """Poll a web app's API (§2.2's polling approach for web apps),
        now and every ``interval`` seconds; a second call is a no-op.

        Each tick GETs ``path`` on ``app`` with ``query`` plus the
        ``since_id`` cursor :attr:`app_cursor`, which ``on_response``
        advances, then schedules the next tick.
        """
        if self._app_poll is None:
            self._app_poll = (app, path, query, interval, on_response)
            self._poll_app()

    def _poll_app(self) -> None:
        app, path, query, interval, on_response = self._app_poll
        self.get(app, path, body={**query, "since_id": self.app_cursor}, on_response=on_response)
        self.sim.schedule(interval, self._poll_app)

    # -- loop-analysis support -----------------------------------------------------------

    def trigger_channels(self, slug: str, fields: Dict[str, Any]):
        """Channels read by one of this service's triggers."""
        return self._triggers[slug].reads_channels(fields)

    def action_channels(self, slug: str, fields: Dict[str, Any]):
        """Channels written by one of this service's actions."""
        return self._actions[slug].writes_channels(fields)

    def __repr__(self) -> str:
        return (
            f"<PartnerService {self.slug!r} triggers={len(self._triggers)} "
            f"actions={len(self._actions)} queries={len(self._queries)} "
            f"realtime={self.realtime}>"
        )
