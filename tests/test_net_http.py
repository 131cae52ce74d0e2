"""Tests for the HTTP-like request/response layer."""

import pytest

from repro.net import Address, FixedLatency, HttpError, HttpNode, HttpResponse, Network
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
