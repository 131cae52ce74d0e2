"""``repro.obs.Bound``: the instruments a per-event recording site holds.

Three contracts, each of which silently moves a snapshot if broken:

* steady state does no registry lookups — get-or-create runs once per
  *series*, never once per sample;
* a series is born by its first sample, never by binding, and recording
  always lands in the registry the recorder is attached to *now*
  (``Node.metrics`` falls back to the network's; tests and shard cells
  swap registries);
* holding an instrument records exactly what looking it up every time
  recorded — pinned differentially here, and against the parent commit
  by ``make parity-check``.
"""

import json

import pytest

from repro.engine import EngineConfig
from repro.net import Address, HttpNode, Network
from repro.net.latency import FixedLatency
from repro.obs import COUNT_BUCKETS, Bound, MetricsRegistry, deterministic_snapshot
from repro.simcore import Rng, Simulator
from repro.testbed.workload import FleetWorld


def blob(source) -> str:
    return json.dumps(deterministic_snapshot(source), sort_keys=True)


class TestBound:
    def test_nothing_is_born_by_binding(self):
        registry = MetricsRegistry()
        bound = Bound("http", node="a.cloud")
        assert len(registry) == 0 and bound.registry is None
        bound.counter(registry, "requests_issued")
        assert len(registry) == 1  # the accessor is the record site's first half

    def test_names_prefix_and_fixed_labels(self):
        registry = MetricsRegistry()
        bound = Bound("engine.shard2", service="hue")
        bound.counter(registry, "polls_sent").inc(3)
        bound.gauge(registry, "replay.in_replay").set(2)
        bound.histogram(registry, "push.batch_size", COUNT_BUCKETS).observe(4)
        bound.histogram(registry, "t2a_seconds").observe(84.0)
        assert registry.value("engine.shard2.polls_sent", service="hue") == 3
        assert registry.value("engine.shard2.replay.in_replay", service="hue") == 2.0
        sized = registry.get("engine.shard2.push.batch_size", service="hue")
        assert sized.bounds == tuple(float(b) for b in COUNT_BUCKETS)
        assert registry.get("engine.shard2.t2a_seconds", service="hue").count == 1

    def test_holds_the_registrys_own_instrument(self):
        registry = MetricsRegistry()
        bound = Bound("net")
        counter = bound.counter(registry, "messages_delivered")
        assert counter is registry.counter("net.messages_delivered")
        assert bound.counter(registry, "messages_delivered") is counter

    def test_a_different_registry_drops_everything_held(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        bound = Bound("net")
        bound.counter(first, "messages_delivered").inc()
        bound.held(first)["by-key"] = first.counter("net.by_key", key="k")
        bound.counter(second, "messages_delivered").inc(5)
        assert bound.registry is second and "by-key" not in bound.held(second)
        assert first.value("net.messages_delivered") == 1
        assert second.value("net.messages_delivered") == 5
        assert len(second) == 1  # nothing but what was recorded moved over
        # ... and back again: the old registry's instruments are re-found
        bound.counter(first, "messages_delivered").inc()
        assert first.value("net.messages_delivered") == 2

    def test_disagreeing_bounds_are_loud_at_the_second_holder(self):
        registry = MetricsRegistry()
        Bound("service", service="a").histogram(registry, "size", COUNT_BUCKETS)
        with pytest.raises(ValueError, match="service.size"):
            Bound("service", service="a").histogram(registry, "size")


def count_lookups(monkeypatch, registry_cls=MetricsRegistry):
    """Count ``MetricsRegistry._get`` — every get-or-create goes through it."""
    calls = []
    original = registry_cls._get

    def counting(self, cls, name, labels, **kwargs):
        calls.append(name)
        return original(self, cls, name, labels, **kwargs)

    monkeypatch.setattr(registry_cls, "_get", counting)
    return calls


class TestSteadyStateDoesNoLookups:
    def test_lookups_equal_series_born_then_zero(self, monkeypatch):
        world = FleetWorld(
            40, EngineConfig(initial_poll_jitter=20.0, realtime_allowlist=frozenset()),
            seed=3, shared_user=True,
        )
        calls = count_lookups(monkeypatch)
        series = len(world.metrics)
        world.run_publications(publications=2, spacing=400.0)
        born = len(world.metrics) - series
        # the warm-up polled but published nothing: the action-side
        # series are born here, by their first samples
        assert born > 0
        assert len(calls) == born, calls
        polls = world.engine.stats()["polls_sent"]
        del calls[:]
        world.run_publications(publications=2, spacing=400.0)
        assert world.engine.stats()["polls_sent"] > polls
        assert calls == []


class Echo(HttpNode):
    def __init__(self, address):
        super().__init__(address)
        self.add_route("GET", "/", lambda request: {"ok": True})


def http_pair(metrics=None):
    sim = Simulator()
    net = Network(sim, Rng(seed=1, name="swap"), metrics=metrics)
    client = net.add_node(HttpNode(Address("client.cloud")))
    server = net.add_node(Echo(Address("server.cloud")))
    net.connect(client.address, server.address, FixedLatency(0.01))
    return sim, net, client, server


class TestRegistrySwaps:
    def exchange(self, sim, client, server):
        client.get(server.address, "/", on_response=lambda response: None)
        sim.run()

    def test_network_swap_moves_every_fallback_node(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        sim, net, client, server = http_pair(first)
        self.exchange(sim, client, server)
        frozen = blob(first)
        assert first.value("http.requests_issued", node="client.cloud") == 1
        assert first.value("http.responses", status_class="2xx") == 1
        assert first.value("net.messages_delivered") == 2
        net.metrics = second  # nodes fall back to the network's registry
        sim.metrics = second
        self.exchange(sim, client, server)
        self.exchange(sim, client, server)
        assert blob(first) == frozen
        assert second.value("http.requests_issued", node="client.cloud") == 2
        assert second.value("http.requests_served", node="server.cloud") == 2
        assert second.value("http.responses", status_class="2xx") == 2
        assert second.get("http.rtt_seconds", node="client.cloud").count == 2
        assert second.value("net.messages_delivered") == 4
        assert second.get("net.delivery_seconds").count == 4
        assert second.value("sim.runs") == 2

    def test_node_level_registry_overrides_then_returns(self):
        shared, private = MetricsRegistry(), MetricsRegistry()
        sim, net, client, server = http_pair(shared)
        self.exchange(sim, client, server)
        client.metrics = private  # one node's own registry
        self.exchange(sim, client, server)
        assert private.value("http.requests_issued", node="client.cloud") == 1
        assert private.get("http.rtt_seconds", node="client.cloud").count == 1
        assert shared.value("http.requests_issued", node="client.cloud") == 1
        assert shared.value("http.requests_served", node="server.cloud") == 2
        client.metrics = None  # back to the fallback
        self.exchange(sim, client, server)
        assert shared.value("http.requests_issued", node="client.cloud") == 2
        assert private.value("http.requests_issued", node="client.cloud") == 1

    def test_engine_swap_moves_engine_wide_and_per_service_series(self):
        world = FleetWorld(
            10, EngineConfig(initial_poll_jitter=5.0, realtime_allowlist=frozenset()),
            seed=4, shared_user=True,
        )
        first, second = world.metrics, MetricsRegistry()
        world.run_publications(publications=1, spacing=400.0)
        names = ("engine.polls_sent", "engine.actions_dispatched", "engine.actions_delivered")
        before = {name: first.value(name, service="content") for name in names}
        assert before["engine.actions_delivered"] == 10
        world.engine.metrics = second
        world.run_publications(publications=1, spacing=400.0)
        # every engine series — and the engine's own HTTP client side —
        # moved; the network and the content service stayed where they were
        for name in names:
            assert second.value(name, service="content") > 0, name
            assert first.value(name, service="content") == before[name], name
        assert second.value("engine.actions_delivered", service="content") == 10
        assert second.get("engine.t2a_seconds", service="content").count == 10
        assert second.get("engine.action_rtt_seconds").count == 10
        assert second.get("engine.poll_rtt_seconds").count > 0
        assert second.value("engine.events_observed") == 10
        assert second.value("http.requests_issued", node="engine.ifttt.cloud") > 0
        assert second.get("service.polls_served", service="content") is None
        assert first.value("service.polls_served", service="content") > 0


# -- held == looked up every time -------------------------------------------------


@pytest.fixture
def unbound(monkeypatch):
    """Make every ``Bound`` forget: each use is a plain
    ``registry.counter(name, **labels)`` get-or-create, as every
    per-event site was written before instruments were held."""

    def lookup(kind):
        def accessor(self, registry, name, bounds=None):
            kwargs = {} if bounds is None else {"bounds": bounds}
            return getattr(registry, kind)(
                f"{self.prefix}.{name}", **kwargs, **self.labels
            )
        return accessor

    for kind in ("counter", "gauge", "histogram"):
        monkeypatch.setattr(Bound, kind, lookup(kind))
    monkeypatch.setattr(Bound, "held", lambda self, registry: {})


def observed_fleet() -> str:
    world = FleetWorld(
        60, EngineConfig(initial_poll_jitter=30.0, realtime_allowlist=frozenset()),
        seed=9, shared_user=True,
    )
    world.run_publications(publications=2, spacing=300.0)
    return blob(world.metrics)


class TestHeldEqualsLookedUp:
    def test_observed_fleet_run(self, request):
        held = observed_fleet()
        calls = count_lookups(request.getfixturevalue("monkeypatch"))
        request.getfixturevalue("unbound")
        assert observed_fleet() == held
        assert len(calls) > 1000  # the reference really did look up per sample

    def test_sharded_outage_run(self, sharded_outage_result, unbound):
        from repro.testbed.chaos import run_chaos_scenario

        looked_up = run_chaos_scenario("outage", seed=7, shards=4)
        assert blob(looked_up.snapshot) == blob(sharded_outage_result.snapshot)
