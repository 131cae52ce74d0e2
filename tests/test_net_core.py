"""Tests for addresses, messages, latency models, links, and routing."""

import pytest

from repro.net import (
    Address,
    FixedLatency,
    Link,
    LognormalLatency,
    Message,
    Network,
    Node,
    RoutingError,
    lan_latency,
    wan_latency,
)
from repro.simcore import Rng, Simulator


class TestAddress:

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Address("")

    def test_hashable_and_equal(self):
        assert Address("a.home") == Address("a.home")
        assert len({Address("a.home"), Address("a.home")}) == 1


class TestMessage:
    def test_unique_ids(self):
        a = Message(Address("a"), Address("b"), "http", {})
        b = Message(Address("a"), Address("b"), "http", {})
        assert a.msg_id != b.msg_id

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Message(Address("a"), Address("b"), "http", {}, size_bytes=-1)


class TestLatencyModels:
    def test_fixed(self, rng):
        assert FixedLatency(0.5).sample(rng) == 0.5

    def test_fixed_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-1.0)

    def test_lognormal_floor_and_per_byte(self, rng):
        model = LognormalLatency(median=0.01, sigma=0.0, per_byte=0.001, floor=0.02)
        assert model.sample(rng, size_bytes=10) == pytest.approx(0.02 + 0.01)

    def test_lognormal_rejects_bad_args(self):
        with pytest.raises(ValueError):
            LognormalLatency(median=0.0)
        with pytest.raises(ValueError):
            LognormalLatency(median=1.0, sigma=-1)

    def test_presets_positive(self, rng):
        for model in (lan_latency(), wan_latency()):
            sample = model.sample(rng)
            assert sample > 0

    def test_lan_faster_than_wan_typically(self, rng):
        lan = sum(lan_latency().sample(rng) for _ in range(200))
        wan = sum(wan_latency().sample(rng) for _ in range(200))
        assert lan < wan


class TestLink:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Link(Address("a"), Address("a"), FixedLatency(0.1))

    def test_other_endpoint(self):
        link = Link(Address("a"), Address("b"), FixedLatency(0.1))
        assert link.other(Address("a")) == Address("b")
        with pytest.raises(ValueError):
            link.other(Address("c"))

    def test_stats_accumulate(self, rng):
        link = Link(Address("a"), Address("b"), FixedLatency(0.1))
        link.sample_delay(rng, 100)
        link.sample_delay(rng, 50)
        assert link.messages_forwarded == 2
        assert link.bytes_forwarded == 150


class _Recorder(Node):
    def __init__(self, address):
        super().__init__(address)
        self.got = []

    def on_message(self, message):
        self.got.append((self.now, message.payload))


def build_chain(n=3, latency=0.1):
    """a0 - a1 - ... chained topology of recorder nodes."""
    sim = Simulator()
    net = Network(sim, Rng(5))
    nodes = [net.add_node(_Recorder(Address(f"n{i}.test"))) for i in range(n)]
    for left, right in zip(nodes, nodes[1:]):
        net.connect(left.address, right.address, FixedLatency(latency))
    return sim, net, nodes


class TestNetwork:
    def test_duplicate_address_rejected(self):
        sim, net, nodes = build_chain(2)
        with pytest.raises(ValueError):
            net.add_node(_Recorder(nodes[0].address))

    def test_duplicate_link_rejected(self):
        sim, net, nodes = build_chain(2)
        with pytest.raises(ValueError):
            net.connect(nodes[0].address, nodes[1].address, FixedLatency(0.1))

    def test_link_to_unknown_node_rejected(self):
        sim, net, nodes = build_chain(2)
        with pytest.raises(KeyError):
            net.connect(nodes[0].address, Address("ghost.test"), FixedLatency(0.1))

    def test_delivery_over_single_hop(self):
        sim, net, nodes = build_chain(2, latency=0.25)
        nodes[0].send(nodes[1].address, "test", {"x": 1})
        sim.run()
        assert nodes[1].got == [(0.25, {"x": 1})]

    def test_multi_hop_delay_sums(self):
        sim, net, nodes = build_chain(4, latency=0.1)
        nodes[0].send(nodes[3].address, "test", "payload")
        sim.run()
        assert nodes[3].got[0][0] == pytest.approx(0.3)

    def test_route_is_min_hop(self):
        sim, net, nodes = build_chain(4)
        # add a shortcut 0 <-> 3
        net.connect(nodes[0].address, nodes[3].address, FixedLatency(0.1))
        assert len(net.route(nodes[0].address, nodes[3].address)) == 1

    def test_route_to_self_is_empty(self):
        sim, net, nodes = build_chain(2)
        assert net.route(nodes[0].address, nodes[0].address) == []

    def test_unreachable_raises_routing_error(self):
        sim = Simulator()
        net = Network(sim, Rng(5))
        a = net.add_node(_Recorder(Address("a.test")))
        b = net.add_node(_Recorder(Address("b.test")))
        with pytest.raises(RoutingError):
            net.route(a.address, b.address)

    def test_send_to_unreachable_counts_drop(self):
        sim = Simulator()
        net = Network(sim, Rng(5))
        a = net.add_node(_Recorder(Address("a.test")))
        net.add_node(_Recorder(Address("b.test")))
        a.send(Address("b.test"), "test", {})
        sim.run()
        assert net.messages_dropped == 1

    def test_send_to_unregistered_raises(self):
        sim, net, nodes = build_chain(2)
        with pytest.raises(KeyError):
            nodes[0].send(Address("ghost.test"), "test", {})

    def test_link_down_reroutes_or_drops(self):
        sim, net, nodes = build_chain(3)
        net.set_link_state(nodes[0].address, nodes[1].address, up=False)
        nodes[0].send(nodes[2].address, "test", {})
        sim.run()
        assert net.messages_dropped == 1
        net.set_link_state(nodes[0].address, nodes[1].address, up=True)
        nodes[0].send(nodes[2].address, "test", {})
        sim.run()
        assert len(nodes[2].got) == 1

    def test_node_counters(self):
        sim, net, nodes = build_chain(2)
        nodes[0].send(nodes[1].address, "test", {})
        sim.run()
        assert nodes[0].messages_sent == 1
        assert nodes[1].messages_received == 1

    def test_detached_node_cannot_send(self):
        node = _Recorder(Address("loner.test"))
        with pytest.raises(RuntimeError):
            node.send(Address("x.test"), "test", {})
