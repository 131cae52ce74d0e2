"""Tests for the HTTP-like request/response layer."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Address, FixedLatency, HttpError, HttpNode, HttpResponse, Network
from repro.net.http import DEFAULT_TIMEOUT, HTTP_PROTOCOL, HttpRequest
from repro.simcore import Rng, Simulator


def build_pair(service_time=0.0, latency=0.05):
    sim = Simulator()
    net = Network(sim, Rng(3))
    client = net.add_node(HttpNode(Address("client.test")))
    server = net.add_node(HttpNode(Address("server.test"), service_time=service_time))
    net.connect(client.address, server.address, FixedLatency(latency))
    return sim, client, server


class TestRouting:
    def test_basic_request_response(self):
        sim, client, server = build_pair()
        server.add_route("GET", "/hello", lambda req: {"msg": "hi"})
        got = []
        client.get(server.address, "/hello", on_response=got.append)
        sim.run()
        assert got[0].ok
        assert got[0].body == {"msg": "hi"}
        assert got[0].elapsed == pytest.approx(0.1)

    def test_unknown_path_is_404(self):
        sim, client, server = build_pair()
        got = []
        client.get(server.address, "/nope", on_response=got.append)
        sim.run()
        assert got[0].status == 404

    def test_longest_prefix_wins(self):
        sim, client, server = build_pair()
        server.add_route("POST", "/api/", lambda req: {"which": "general"})
        server.add_route("POST", "/api/special", lambda req: {"which": "special"})
        got = []
        client.post(server.address, "/api/special/thing", on_response=got.append)
        sim.run()
        assert got[0].body == {"which": "special"}

    def test_method_mismatch_is_404(self):
        sim, client, server = build_pair()
        server.add_route("POST", "/thing", lambda req: "ok")
        got = []
        client.get(server.address, "/thing", on_response=got.append)
        sim.run()
        assert got[0].status == 404

    def test_duplicate_route_rejected(self):
        sim, client, server = build_pair()
        server.add_route("GET", "/x", lambda req: 1)
        with pytest.raises(ValueError):
            server.add_route("GET", "/x", lambda req: 2)


class TestHandlerReturnShapes:
    def test_bare_body_is_200(self):
        sim, client, server = build_pair()
        server.add_route("GET", "/x", lambda req: [1, 2, 3])
        got = []
        client.get(server.address, "/x", on_response=got.append)
        sim.run()
        assert got[0].status == 200 and got[0].body == [1, 2, 3]

    def test_status_body_tuple(self):
        sim, client, server = build_pair()
        server.add_route("GET", "/x", lambda req: (418, {"teapot": True}))
        got = []
        client.get(server.address, "/x", on_response=got.append)
        sim.run()
        assert got[0].status == 418

    def test_full_response_object(self):
        sim, client, server = build_pair()
        server.add_route("GET", "/x", lambda req: HttpResponse(status=201, body="made"))
        got = []
        client.get(server.address, "/x", on_response=got.append)
        sim.run()
        assert got[0].status == 201

    def test_http_error_becomes_status(self):
        def handler(req):
            raise HttpError(401, "bad key")

        sim, client, server = build_pair()
        server.add_route("POST", "/auth", handler)
        got = []
        client.post(server.address, "/auth", on_response=got.append)
        sim.run()
        assert got[0].status == 401
        assert "bad key" in got[0].body["error"]


class TestTimeoutsAndTiming:
    def test_timeout_produces_599(self):
        # A reachable but too-slow server: the response arrives after the
        # client has given up, so the timeout must fire.
        sim, client, server = build_pair(service_time=10.0)
        server.add_route("GET", "/x", lambda req: "ok")
        got = []
        client.get(server.address, "/x", on_response=got.append, timeout=5.0)
        sim.run()
        assert got[0].status == 599
        assert client.timeouts == 1

    def test_unreachable_destination_is_immediate_503(self):
        sim = Simulator()
        net = Network(sim, Rng(3))
        client = net.add_node(HttpNode(Address("client.test")))
        server = net.add_node(HttpNode(Address("server.test")))
        # no link: the network reports the missing route synchronously,
        # so the client gets a connection-refused 503 right away instead
        # of waiting out the 5 s timeout.
        got = []
        client.get(server.address, "/x", on_response=got.append, timeout=5.0)
        sim.run()
        assert sim.now < 1.0
        assert got[0].status == 503
        assert got[0].body["error"] == "connection refused"
        assert client.connection_refused == 1
        assert client.timeouts == 0

    def test_refusal_callback_is_asynchronous(self):
        sim = Simulator()
        net = Network(sim, Rng(3))
        client = net.add_node(HttpNode(Address("client.test")))
        server = net.add_node(HttpNode(Address("server.test")))
        got = []
        req = client.get(server.address, "/x", on_response=got.append)
        # the callback is deferred by one zero-delay event — callers
        # never observe the response before request() has returned
        assert got == []
        sim.run()
        assert got[0].request_id == req.request_id

    def test_late_response_after_timeout_is_counted_not_redelivered(self):
        # Server answers at t≈10.1 but the client gave up at t=5: the
        # straggler must be counted as late, and the callback must not
        # fire a second time.
        sim, client, server = build_pair(service_time=10.0)
        server.add_route("GET", "/x", lambda req: "ok")
        got = []
        client.get(server.address, "/x", on_response=got.append, timeout=5.0)
        sim.run()
        assert len(got) == 1          # only the synthetic 599
        assert got[0].status == 599
        assert client.timeouts == 1
        assert client.late_responses == 1
        # the id was forgotten once matched; a hypothetical duplicate
        # straggler would not double-count
        assert len(client._timed_out_ids) == 0

    def test_response_cancels_timeout(self):
        sim, client, server = build_pair()
        server.add_route("GET", "/x", lambda req: "ok")
        got = []
        client.get(server.address, "/x", on_response=got.append, timeout=5.0)
        sim.run()
        assert len(got) == 1 and got[0].ok
        assert client.timeouts == 0

    def test_service_time_adds_delay(self):
        sim, client, server = build_pair(service_time=1.0, latency=0.1)
        server.add_route("GET", "/slow", lambda req: "ok")
        got = []
        client.get(server.address, "/slow", on_response=got.append)
        sim.run()
        assert got[0].elapsed == pytest.approx(1.2)

    def test_fire_and_forget_request(self):
        sim, client, server = build_pair()
        hits = []
        server.add_route("POST", "/notify", lambda req: hits.append(req.body) or "ok")
        client.post(server.address, "/notify", body={"n": 1})
        sim.run()
        assert hits == [{"n": 1}]
        assert client.timeouts == 0

    def test_context_rides_back_on_reply_timeout_and_refusal(self):
        sim, client, server = build_pair()
        net = client.network
        slow = net.add_node(HttpNode(Address("slow.test"), service_time=10.0))
        net.connect(client.address, slow.address, FixedLatency(0.05))
        unlinked = net.add_node(HttpNode(Address("unlinked.test")))
        server.add_route("GET", "/x", lambda req: "ok")
        slow.add_route("GET", "/x", lambda req: "ok")
        got = []
        client.get(server.address, "/x", on_response=got.append, context="reply")
        client.get(slow.address, "/x", on_response=got.append, timeout=5.0, context=("599",))
        record = object()
        client.get(unlinked.address, "/x", on_response=got.append, context=record)
        client.get(server.address, "/x", on_response=got.append)
        sim.run()
        assert [(r.status, r.context) for r in got] == [
            (503, record), (200, "reply"), (200, None), (599, ("599",)),
        ]
        assert client._pending == {}

    def test_counters(self):
        sim, client, server = build_pair()
        server.add_route("GET", "/x", lambda req: "ok")
        client.get(server.address, "/x")
        sim.run()
        assert client.requests_issued == 1
        assert server.requests_served == 1


class TestHeadersAndBody:
    def test_headers_reach_handler(self):
        sim, client, server = build_pair()
        seen = {}
        server.add_route("POST", "/x", lambda req: seen.update(req.headers) or "ok")
        client.post(server.address, "/x", headers={"IFTTT-Service-Key": "k1"})
        sim.run()
        assert seen["IFTTT-Service-Key"] == "k1"

    def test_header_helper_default(self):
        sim, client, server = build_pair()
        got = []
        server.add_route("GET", "/x", lambda req: {"auth": req.header("Authorization", "none")})
        client.get(server.address, "/x", on_response=got.append)
        sim.run()
        assert got[0].body == {"auth": "none"}


# -- the armed timeout against one event per request ----------------------------------


class _PerRequestTimeouts(HttpNode):
    """The client side as it was before the armed timeout, kept as the
    slow reference: one ``http-timeout`` event per request, scheduled
    when it is sent and cancelled by its answer."""

    def request(self, dst, method, path, body=None, on_response=None,
                timeout=DEFAULT_TIMEOUT, headers=None, size_bytes=512, context=None):
        req = HttpRequest(method.upper(), path, body, src=self.address)
        self.requests_issued += 1
        if on_response is not None:
            event = self.sim.schedule(timeout, self._timed_out, req.request_id,
                                      label="http-timeout")
            self._pending[req.request_id] = (on_response, event, self.now, context)
        self.send(dst, HTTP_PROTOCOL, req, size_bytes=size_bytes)
        return req

    def _timed_out(self, request_id):
        callback, _, sent_at, context = self._pending.pop(request_id)
        self.timeouts += 1
        self._remember_timed_out(request_id)
        callback(HttpResponse(599, request_id=request_id, elapsed=self.now - sent_at,
                              context=context))

    def on_transmit_failed(self, message, reason):
        request = message.payload
        self.connection_refused += 1
        callback, event, sent_at, context = self._pending.pop(request.request_id)
        event.cancel()
        response = HttpResponse(503, body={"error": "connection refused", "reason": reason},
                                request_id=request.request_id, context=context)
        self.sim.schedule(0.0, self._deliver_refusal, callback, response, sent_at,
                          label="http-refused")

    def on_message(self, message):
        response = message.payload
        entry = self._pending.pop(response.request_id, None)
        if entry is None:
            if response.request_id in self._timed_out_ids:
                self._timed_out_ids.discard(response.request_id)
                self.late_responses += 1
            return
        callback, event, sent_at, context = entry
        event.cancel()
        response.elapsed = self.now - sent_at
        response.context = context
        callback(response)


class _HoldingServer(HttpNode):
    """A server that answers a request only when the driver says so."""

    def __init__(self, address):
        super().__init__(address)
        self.held = []

    def on_message(self, message):
        self.held.append(message)

    def answer(self, pick):
        if self.held:
            message = self.held.pop(pick % len(self.held))
            self._reply(message, HttpResponse(
                200, request_id=message.payload.request_id
            ))


#: The two timeout durations the drawn requests use.
TIMEOUTS = (5.0, 30.0)


class _TimeoutWorld:
    """A client, a holding server 0.3 s away and an unlinked peer, driven
    by ops; every answer the client's callback gets is recorded as
    ``(request's issue index, status, instant)``.

    Sends, deadlines and 599s fall on a lattice of eighths of a second
    and answers 0.3 s off it, so no deadline shares an instant with an
    answer: at such a tie the armed event fires where it was armed among
    that instant's events, not where its request was sent."""

    def __init__(self, client_class):
        self.sim = Simulator()
        net = Network(self.sim, Rng(3))
        self.client = net.add_node(client_class(Address("client.test")))
        self.server = net.add_node(_HoldingServer(Address("server.test")))
        self.unlinked = net.add_node(HttpNode(Address("unlinked.test"))).address
        net.connect(self.client.address, self.server.address, FixedLatency(0.3))
        self.issued = {}
        self.seen = []

    def send(self, timeout, resend=False, dst=None):
        request = self.client.get(
            dst or self.server.address, "/x", on_response=self.on_response,
            timeout=timeout, context=resend,
        )
        self.issued[request.request_id] = len(self.issued)

    def on_response(self, response):
        self.seen.append((self.issued[response.request_id], response.status, self.sim.now))
        if response.status == 599 and response.context:
            self.send(TIMEOUTS[0])  # a 599 callback that sends a new request

    def apply(self, op):
        kind, arg, flag = op
        if kind == "send":
            self.send(TIMEOUTS[arg % 2], resend=flag)
        elif kind == "refuse":
            self.send(TIMEOUTS[arg % 2], dst=self.unlinked)
        elif kind == "answer":
            self.server.answer(arg)
        else:
            self.sim.run_until(self.sim.now + arg / 8)

    def outcome(self):
        """Everything observable once the run drains."""
        self.sim.run()
        client = self.client
        return (self.seen, self.sim.now, client.timeouts, client.late_responses,
                client.connection_refused, client._pending)


OPS = st.lists(st.tuples(
    st.sampled_from(["send", "send", "refuse", "answer", "answer", "advance", "advance"]),
    st.integers(0, 400),
    st.booleans(),
), max_size=40)


class TestArmedTimeout:
    @settings(max_examples=150, deadline=None)
    @given(ops=OPS, cut=st.integers(0, 40))
    def test_matches_one_event_per_request(self, ops, cut):
        """The same sends, answers, refusals and advances give the same
        answers at the same instants, in the same order, as one event per
        request, and the same end: ``sim.run()`` stops at the last real
        event, stragglers count as late.  A world pickled mid-flight
        runs on exactly as the run it was cut from."""
        reference = _TimeoutWorld(_PerRequestTimeouts)
        for op in ops:
            reference.apply(op)
        armed = _TimeoutWorld(HttpNode)
        for op in ops[:cut]:
            armed.apply(op)
        copy = pickle.loads(pickle.dumps(armed))
        for world in (armed, copy):
            for op in ops[cut:]:
                world.apply(op)
        expected = reference.outcome()
        assert armed.outcome() == expected
        assert copy.outcome() == expected

    def test_a_run_ends_at_its_last_answer_not_a_deadline(self):
        world = _TimeoutWorld(HttpNode)
        world.send(TIMEOUTS[1])
        world.send(TIMEOUTS[0])
        world.sim.run_until(1.0)
        world.server.answer(0)
        world.server.answer(0)
        assert world.outcome() == ([(0, 200, 1.3), (1, 200, 1.3)], 1.3, 0, 0, 0, {})
        assert world.client._timeout_event is None

    def test_one_armed_event_while_requests_are_in_flight(self):
        world = _TimeoutWorld(HttpNode)
        for _ in range(50):
            world.send(TIMEOUTS[1])
        world.send(TIMEOUTS[0])  # a shorter timeout re-arms earlier
        assert world.sim.pending == 51 + 1  # every first hop, one armed timeout
        assert world.client._timeout_event.time == TIMEOUTS[0]
        world.sim.run()
        assert [status for _, status, _ in world.seen] == [599] * 51
        assert world.seen[0] == (50, 599, TIMEOUTS[0])
        assert {instant for _, _, instant in world.seen[1:]} == {TIMEOUTS[1]}

    def test_the_last_refusal_disarms_like_the_last_response(self):
        world = _TimeoutWorld(HttpNode)
        world.send(TIMEOUTS[1])
        world.send(TIMEOUTS[0], dst=world.unlinked)  # refused, one still in flight
        assert world.client._timeout_event is not None
        world.sim.run_until(1.0)
        world.server.answer(0)
        world.sim.run_until(1.5)  # the last response in flight disarms
        assert world.client._timeout_event is None
        world.send(TIMEOUTS[0], dst=world.unlinked)  # armed, then the last refusal
        assert world.client._timeout_event is None
        assert not any(world.client._deadlines.values())
        assert world.outcome() == (
            [(1, 503, 0.0), (0, 200, 1.3), (2, 503, 1.5)], 1.5, 0, 0, 2, {}
        )

    def test_an_infinite_timeout_stays_armed_beside_a_finite_one(self):
        """A request that never times out keeps a deadline in flight after
        a shorter one's 599, and its answer is then the last one."""
        world = _TimeoutWorld(HttpNode)
        world.send(float("inf"))
        world.send(TIMEOUTS[0])
        world.sim.run_until(TIMEOUTS[0] + 1.0)
        assert world.seen == [(1, 599, TIMEOUTS[0])]
        assert world.client._timeout_event.time == float("inf")
        world.server.answer(0)
        world.sim.run_until(TIMEOUTS[0] + 2.0)
        assert world.seen[-1] == (0, 200, TIMEOUTS[0] + 1.3)
        assert world.client._timeout_event is None
        world.server.answer(0)  # the 599'd request's straggler
        assert world.outcome() == (world.seen, TIMEOUTS[0] + 2.3, 1, 1, 0, {})

    def test_an_answer_at_its_deadline_after_a_rearm_is_delivered(self):
        """The tie rule, pinned.  The node arms at the 0.4 s deadline of a
        request nobody answers; a 0.6 s request is answered 0.3 s each way,
        its reply scheduled at 0.3 for exactly 0.6.  The event re-armed at
        0.4 for 0.6 sits behind that reply, so the reply wins: a 200 and no
        599.  One event per request, scheduled at the send, fired first: a
        599 at 0.6 and a late response."""
        sim, client, server = build_pair(latency=0.3)
        server.add_route("GET", "/x", lambda request: "ok")
        silent = client.network.add_node(_HoldingServer(Address("silent.test")))
        client.network.connect(client.address, silent.address, FixedLatency(0.3))
        seen = []
        def note(response):
            seen.append((response.context, response.status, sim.now))
        client.get(silent.address, "/x", on_response=note, timeout=0.4, context="silent")
        client.get(server.address, "/x", on_response=note, timeout=0.6, context="echo")
        sim.run_until(1.0)
        assert seen == [("silent", 599, 0.4), ("echo", 200, 0.6)]
        assert (client.timeouts, client.late_responses) == (1, 0)
