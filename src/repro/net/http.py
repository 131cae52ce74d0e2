"""HTTP-like request/response layer over the message network.

IFTTT's partner-service protocol is plain HTTPS POST against well-known
URLs (``/ifttt/v1/triggers/<slug>``, ``/ifttt/v1/actions/<slug>``).  This
module models exactly that: an :class:`HttpNode` registers route handlers
and issues requests; responses are matched to requests by id, and pending
requests time out if the peer or path is unavailable.

A timeout is not an event per request.  A node keeps one FIFO of
``(deadline, request id)`` per timeout duration and **one** armed
``http-timeout`` event at the earliest deadline in flight.  A response
drops answered entries from its FIFO's front, and the last answer in
flight (a response or a 503 refusal) cancels the event, so a run still
ends at its last real event.  The event gives each due request its 599
at exactly ``sent_at + timeout``, in send order, and re-arms at the next
deadline in flight, an infinite one too; if every request it was armed
for was answered, it fires as a no-op.  At an instant shared with
another event, the due 599s fire where the armed event was scheduled
among them, not where each request was sent: an answer landing exactly
at its deadline behind a re-arm is delivered, not timed out.

A requester may hand :meth:`HttpNode.request` a ``context`` (whatever
the reply completes); the node keeps it with the pending request and
returns it on the response — the reply, the 599 timeout or the 503
refusal — as :attr:`HttpResponse.context`, so the caller keeps no table
of its own.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.net.address import Address
from repro.net.message import Message
from repro.net.node import Node
from repro.obs.bound import Bound
from repro.simcore.event import Event
from repro.simcore.simulator import SimulationError

_request_ids = itertools.count(1)

HTTP_PROTOCOL = "http"
DEFAULT_TIMEOUT = 30.0
#: How many timed-out request ids are remembered so that their responses,
#: should they straggle in later, are counted as late rather than lost.
TIMED_OUT_MEMORY = 4096
#: Bound on a node's memo of matched ``(METHOD, path)`` routes; reaching
#: it clears the memo (paths are a handful of endpoint URLs in practice).
ROUTE_MEMO_SIZE = 1024


class HttpError(RuntimeError):
    """Raised by handlers to produce a non-200 response."""

    def __init__(self, status: int, reason: str = "") -> None:
        super().__init__(f"HTTP {status}: {reason}")
        self.status = status
        self.reason = reason


# One request and one response object ride every round trip, so both are
# slotted and hand-written (``dataclass(slots=True)`` needs Python 3.10;
# setup.cfg says 3.9).


class HttpRequest:
    """An in-flight HTTP request."""

    __slots__ = ("method", "path", "body", "headers", "request_id", "src")

    def __init__(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: Optional[Dict[str, Any]] = None,
        request_id: Optional[int] = None,
        src: Optional[Address] = None,
    ) -> None:
        self.method = method
        self.path = path
        self.body = body
        self.headers = {} if headers is None else headers
        self.request_id = next(_request_ids) if request_id is None else request_id
        self.src = src

    def header(self, name: str, default: Any = None) -> Any:
        """Case-sensitive header lookup."""
        return self.headers.get(name, default)

    def __repr__(self) -> str:
        return f"<HttpRequest #{self.request_id} {self.method} {self.path}>"


class HttpResponse:
    """The response to an :class:`HttpRequest`."""

    __slots__ = ("status", "body", "headers", "request_id", "elapsed", "context")

    def __init__(
        self,
        status: int,
        body: Any = None,
        headers: Optional[Dict[str, Any]] = None,
        request_id: int = 0,
        elapsed: float = 0.0,
        context: Any = None,
    ) -> None:
        self.status = status
        self.body = body
        self.headers = {} if headers is None else headers
        self.request_id = request_id
        self.elapsed = elapsed
        #: The ``context`` the request was issued with, set on the
        #: requester's side (``None`` on the server's side).
        self.context = context

    @property
    def ok(self) -> bool:
        """True for 2xx statuses."""
        return 200 <= self.status < 300

    def __repr__(self) -> str:
        return f"<HttpResponse #{self.request_id} {self.status}>"


ResponseCallback = Callable[[HttpResponse], None]
RouteHandler = Callable[[HttpRequest], Any]


class HttpNode(Node):
    """A node that speaks the HTTP-like protocol.

    Server side: :meth:`add_route` binds ``(method, path-prefix)`` to a
    handler.  Handlers may return an :class:`HttpResponse`, a
    ``(status, body)`` tuple, or a bare body (=> 200), or raise
    :class:`HttpError`.  An optional per-node ``service_time`` adds request
    processing delay before the response is sent.

    Client side: :meth:`request` sends a request and invokes the callback
    with the response (or a synthetic 599 on timeout), which carries the
    request's ``context`` back.
    """

    def __init__(self, address: Address, service_time: float = 0.0) -> None:
        super().__init__(address)
        self.service_time = service_time
        self._routes: Dict[Tuple[str, str], RouteHandler] = {}
        # (METHOD, full path) -> handler for paths that matched a route;
        # dropped whenever the route table changes.
        self._route_memo: Dict[Tuple[str, str], RouteHandler] = {}
        # request id -> (callback, its deadline FIFO, sent at, context)
        self._pending: Dict[
            int, Tuple[ResponseCallback, Deque[Tuple[float, int]], float, Any]
        ] = {}
        # timeout duration -> (deadline, request id) in send order, so each
        # FIFO's deadlines never decrease; answered entries leave from the
        # front, or when the armed event passes them.
        self._deadlines: Dict[float, Deque[Tuple[float, int]]] = {}
        # The one armed ``http-timeout`` event while requests are in
        # flight, at or before the earliest deadline among them.
        self._timeout_event: Optional[Event] = None
        self._timed_out_ids: Set[int] = set()
        self._timed_out_order: Deque[int] = deque()
        self.requests_served = 0
        self.requests_issued = 0
        self.timeouts = 0
        self.late_responses = 0
        self.connection_refused = 0
        self._http_bound = Bound("http", node=address.host)  # per-request instruments

    # -- server side ---------------------------------------------------------

    def add_route(self, method: str, path_prefix: str, handler: RouteHandler) -> None:
        """Bind a handler to all paths starting with ``path_prefix``."""
        key = (method.upper(), path_prefix)
        if key in self._routes:
            raise ValueError(f"route {method} {path_prefix} already registered on {self.address}")
        self._routes[key] = handler
        self._route_memo.clear()

    def _dispatch(self, request: HttpRequest) -> HttpResponse:
        # A memo hit is ``_match_route`` without its frame: every request
        # after a path's first, since ``request`` upper-cases the method.
        handler = self._route_memo.get((request.method, request.path))
        if handler is None:
            handler = self._match_route(request.method, request.path)
        if handler is None:
            return HttpResponse(status=404, body={"error": "not found", "path": request.path})
        try:
            result = handler(request)
        except HttpError as exc:
            return HttpResponse(status=exc.status, body={"error": exc.reason})
        if isinstance(result, HttpResponse):
            return result
        if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], int):
            return HttpResponse(status=result[0], body=result[1])
        return HttpResponse(status=200, body=result)

    def _match_route(self, method: str, path: str) -> Optional[RouteHandler]:
        """Longest-prefix match over the route table, memoised on hits."""
        method = method.upper()
        memo = self._route_memo
        best = memo.get((method, path))
        if best is not None:
            return best
        best_len = -1
        for (m, prefix), handler in self._routes.items():
            if m == method and path.startswith(prefix) and len(prefix) > best_len:
                best = handler
                best_len = len(prefix)
        if best is not None:
            if len(memo) >= ROUTE_MEMO_SIZE:
                memo.clear()
            memo[(method, path)] = best
        return best

    # -- client side ---------------------------------------------------------

    def request(
        self,
        dst: Address,
        method: str,
        path: str,
        body: Any = None,
        on_response: Optional[ResponseCallback] = None,
        timeout: float = DEFAULT_TIMEOUT,
        headers: Optional[Dict[str, Any]] = None,
        size_bytes: int = 512,
        context: Any = None,
    ) -> HttpRequest:
        """Issue a request; the callback fires with the response or a 599,
        whose ``context`` is the ``context`` given here."""
        if on_response is not None and not timeout >= 0:  # before anything is counted
            if timeout < 0:
                raise SimulationError(f"cannot schedule into the past (delay={timeout})")
            raise ValueError(f"timeout must be a non-negative number, got {timeout}")
        # ``self.metrics`` / ``self.now`` / ``self.sim.schedule``, read
        # once each without their property frames.
        network = self.network
        if network is None:
            raise RuntimeError(f"node {self.address} is not attached to a network")
        req = HttpRequest(
            method.upper(), path, body, dict(headers) if headers else {}, src=self.address
        )
        self.requests_issued += 1
        metrics = self._metrics
        if metrics is None:
            metrics = network.metrics
        if metrics is not None:
            self._http_bound.counter(metrics, "requests_issued").inc()
        if on_response is not None:
            sim = network.sim
            sent_at = sim._now
            deadline = sent_at + timeout
            queue = self._deadlines.get(timeout)
            if queue is None:
                queue = self._deadlines[timeout] = deque()
            queue.append((deadline, req.request_id))
            armed = self._timeout_event
            if armed is None or deadline < armed.time:  # only a shorter timeout re-arms
                if armed is not None:
                    armed.cancel()
                self._timeout_event = sim.schedule_at(
                    deadline, self._on_timeout, label="http-timeout"
                )
            self._pending[req.request_id] = (on_response, queue, sent_at, context)
        self.send(dst, HTTP_PROTOCOL, {"type": "request", "request": req}, size_bytes=size_bytes)
        return req

    def get(self, dst: Address, path: str, **kwargs: Any) -> HttpRequest:
        """Shorthand for ``request(dst, "GET", path, ...)``."""
        return self.request(dst, "GET", path, **kwargs)

    def post(self, dst: Address, path: str, body: Any = None, **kwargs: Any) -> HttpRequest:
        """Shorthand for ``request(dst, "POST", path, body, ...)``."""
        return self.request(dst, "POST", path, body=body, **kwargs)

    def _on_timeout(self) -> None:
        """The armed event: answer every request due now with a 599, in
        send order, after re-arming at the next deadline still in flight."""
        sim = self.sim
        now = sim._now
        pending = self._pending
        due = []
        earliest = None  # a deadline may be infinite, so not ``inf``
        for queue in self._deadlines.values():
            while queue:
                deadline, request_id = queue[0]
                if request_id not in pending:
                    queue.popleft()
                elif deadline <= now:
                    queue.popleft()
                    due.append((request_id, pending.pop(request_id)))
                else:
                    if earliest is None or deadline < earliest:
                        earliest = deadline
                    break
        self._timeout_event = (
            None if earliest is None
            else sim.schedule_at(earliest, self._on_timeout, label="http-timeout")
        )
        due.sort()  # ids rise in send order and are unique: no entry is compared
        for request_id, (callback, _, sent_at, context) in due:
            self.timeouts += 1
            self._remember_timed_out(request_id)
            metrics = self.metrics
            if metrics is not None:
                metrics.counter("http.timeouts", node=self.address.host).inc()
            callback(HttpResponse(
                status=599, body=None, request_id=request_id, elapsed=now - sent_at,
                context=context,
            ))

    def _remember_timed_out(self, request_id: int) -> None:
        """Track a timed-out id (bounded) so late responses are countable."""
        self._timed_out_ids.add(request_id)
        self._timed_out_order.append(request_id)
        while len(self._timed_out_order) > TIMED_OUT_MEMORY:
            self._timed_out_ids.discard(self._timed_out_order.popleft())

    # -- synchronous transmit failures ---------------------------------------

    def on_transmit_failed(self, message: Message, reason: str) -> None:
        """Turn an unroutable outgoing request into an immediate 503.

        Without this, a request to an unreachable destination was
        indistinguishable from a slow peer: the caller waited out the
        full timeout.  The network reports the missing route
        synchronously, so we answer with a synthetic
        ``503 connection refused`` right away.  The callback is deferred
        by one zero-delay event so callers never observe a response
        before :meth:`request` has returned.
        """
        if message.protocol != HTTP_PROTOCOL:
            return
        payload = message.payload
        if not isinstance(payload, dict) or payload.get("type") != "request":
            return
        self.connection_refused += 1
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("net.connection_refused", node=self.address.host).inc()
        request: HttpRequest = payload["request"]
        entry = self._pending.pop(request.request_id, None)
        if entry is None:
            return  # fire-and-forget: nothing awaits an answer
        callback, _, sent_at, context = entry
        if not self._pending:
            # The last answer in flight disarms, as a response does in
            # ``on_message``; a refusal leaves its FIFO entry otherwise.
            self._timeout_event.cancel()
            self._timeout_event = None
            for fifo in self._deadlines.values():
                fifo.clear()
        response = HttpResponse(
            status=503,
            body={"error": "connection refused", "reason": reason},
            request_id=request.request_id,
            context=context,
        )
        self.sim.schedule(
            0.0, self._deliver_refusal, callback, response, sent_at, label="http-refused"
        )

    def _deliver_refusal(
        self, callback: ResponseCallback, response: HttpResponse, sent_at: float
    ) -> None:
        response.elapsed = self.now - sent_at
        callback(response)

    # -- wire handling ---------------------------------------------------------

    def on_message(self, message: Message) -> None:
        if message.protocol != HTTP_PROTOCOL:
            self.on_non_http_message(message)
            return
        payload = message.payload
        metrics = self._metrics
        if metrics is None and self.network is not None:
            metrics = self.network.metrics
        if payload["type"] == "request":
            request: HttpRequest = payload["request"]
            self.requests_served += 1
            response = self._dispatch(request)
            response.request_id = request.request_id
            if metrics is not None:
                self._http_bound.counter(metrics, "requests_served").inc()
                # ``http.responses`` carries no node label; held per node
                # under the int ``status // 100``, so the label string is
                # built once per class.
                held = self._http_bound.held(metrics)
                status_class = response.status // 100
                try:
                    responses = held[status_class]
                except KeyError:
                    responses = held[status_class] = metrics.counter(
                        "http.responses", status_class=f"{status_class}xx"
                    )
                responses.inc()
            service_time = self.service_time
            if service_time > 0:
                sim = self.sim
                sim.schedule_at(
                    sim._now + service_time, self._reply, message, response, label="http-service"
                )
            else:
                self._reply(message, response)
        elif payload["type"] == "response":
            response: HttpResponse = payload["response"]
            pending = self._pending
            entry = pending.pop(response.request_id, None)
            if entry is None:
                # Late response after the timeout already fired, or a
                # fire-and-forget request.  Late ones are counted — a
                # silent mismatch between issued timeouts and stragglers
                # hides slow-but-alive services; nothing is cancelled or
                # called back twice.
                if response.request_id in self._timed_out_ids:
                    self._timed_out_ids.discard(response.request_id)
                    self.late_responses += 1
                    if metrics is not None:
                        metrics.counter(
                            "http.late_responses", node=self.address.host
                        ).inc()
                return
            callback, queue, sent_at, context = entry
            if pending:
                while queue and queue[0][1] not in pending:
                    queue.popleft()
            else:
                # The last answer in flight disarms, so a run ends at its
                # last real event; every FIFO entry is answered now.
                self._timeout_event.cancel()
                self._timeout_event = None
                for fifo in self._deadlines.values():
                    fifo.clear()
            response.elapsed = self.network.sim._now - sent_at  # ``self.now``, one frame less
            response.context = context
            if metrics is not None:
                self._http_bound.histogram(metrics, "rtt_seconds").observe(response.elapsed)
            callback(response)
        else:
            raise ValueError(f"unknown http payload type {payload['type']!r}")

    def _reply(self, message: Message, response: HttpResponse) -> None:
        """Send ``response`` back to the sender of the request ``message``."""
        self.send(
            message.src,
            HTTP_PROTOCOL,
            {"type": "response", "response": response},
            size_bytes=max(128, message.size_bytes // 2),
        )

    def on_non_http_message(self, message: Message) -> None:
        """Hook for subclasses that also speak device protocols."""
