"""Tests for the shared WebApp activity-log machinery."""

import pytest

from repro.net import Address, FixedLatency, HttpNode, Network
from repro.simcore import Rng, Simulator
from repro.webapps.base import WebApp


@pytest.fixture
def app_world():
    sim = Simulator()
    net = Network(sim, Rng(67))
    app = net.add_node(WebApp(Address("app.cloud"), service_time=0.0))
    client = net.add_node(HttpNode(Address("client.cloud")))
    net.connect(client.address, app.address, FixedLatency(0.01))
    return sim, app, client


class TestActivityLog:
    def test_ids_monotone(self, app_world):
        _, app, _ = app_world
        first = app.log_activity("thing", n=1)
        second = app.log_activity("thing", n=2)
        assert second["id"] == first["id"] + 1
        assert len(app._activity) == 2

    def test_since_cursor(self, app_world):
        _, app, _ = app_world
        first = app.log_activity("a")
        app.log_activity("b")
        newer = app.activity_since(first["id"])
        assert [rec["activity"] for rec in newer] == ["b"]

    def test_activity_filter(self, app_world):
        _, app, _ = app_world
        app.log_activity("a")
        app.log_activity("b")
        app.log_activity("a")
        assert len(app.activity_since(0, activity="a")) == 2

    def test_limit(self, app_world):
        _, app, _ = app_world
        for i in range(10):
            app.log_activity("tick", n=i)
        assert len(app.activity_since(0, limit=4)) == 4

    def test_http_activity_endpoint(self, app_world):
        sim, app, client = app_world
        app.log_activity("x", payload=1)
        app.log_activity("y", payload=2)
        got = []
        client.get(app.address, "/api/activity", body={"since_id": 1}, on_response=got.append)
        sim.run()
        records = got[0].body["activity"]
        assert [rec["activity"] for rec in records] == ["y"]

    def test_http_activity_filter_param(self, app_world):
        sim, app, client = app_world
        app.log_activity("x")
        app.log_activity("y")
        got = []
        client.get(app.address, "/api/activity",
                   body={"since_id": 0, "activity": "x"}, on_response=got.append)
        sim.run()
        assert len(got[0].body["activity"]) == 1
