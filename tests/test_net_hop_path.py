"""The message hop against its slow, obvious definition.

``LognormalLatency.sample`` draws inline and ``Network.transmit`` samples
its cached route in one loop; both must equal, with ``==``, what the
slow path gives — ``Rng.lognormal_median``, and an uncached BFS route
walked through ``Link.sample_delay``, written out here — and leave every
RNG stream and link counter exactly where that path leaves it.  The constructors
that feed a hop refuse parameters that would corrupt simulated time.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    Address,
    FixedLatency,
    HttpNode,
    LognormalLatency,
    Message,
    Network,
    Node,
    RoutingError,
    cloud_internal_latency,
    lan_latency,
    wan_latency,
)
from repro.net.latency import LatencyModel
from repro.simcore import Rng, Simulator
from repro.simcore.simulator import SimulationError

NAN = float("nan")
INF = float("inf")


# -- the oracles -------------------------------------------------------------------


def oracle_sample(model: LognormalLatency, rng: Rng, size_bytes: int) -> float:
    """``LognormalLatency.sample`` as its docstring defines it."""
    base = rng.lognormal_median(model.median, model.sigma) if model.sigma else model.median
    return max(model.floor, base) + model.per_byte * size_bytes


def oracle_route(network: Network, src: Address, dst: Address) -> list:
    """``Network.route`` recomputed from scratch on every call: BFS over
    the links that are up, neighbours in connect order, no cache."""
    adjacency = {}
    for link in network._links.values():
        adjacency.setdefault(link.a.host, []).append(link)
        adjacency.setdefault(link.b.host, []).append(link)
    parents = {src.host: None}
    frontier = deque([src.host])
    while frontier:
        here = frontier.popleft()
        if here == dst.host:
            break
        for link in adjacency.get(here, ()):
            there = link.b.host if link.a.host == here else link.a.host
            if link.up and there not in parents:
                parents[there] = (here, link)
                frontier.append(there)
    if dst.host not in parents:
        raise RoutingError(f"no path from {src} to {dst}")
    path, cursor = [], dst.host
    while cursor != src.host:
        cursor, link = parents[cursor]
        path.append(link)
    return path[::-1]


def oracle_delay(network: Network, src: Address, dst: Address, size_bytes: int) -> float:
    """One message's end-to-end delay: the route, link by link, through
    the public ``Link.sample_delay``."""
    total = 0
    for link in oracle_route(network, src, dst):
        total += link.sample_delay(network.rng, size_bytes)
    return total


# -- LognormalLatency.sample == the lognormal_median path ----------------------------


STOCK = [lan_latency(), wan_latency(), cloud_internal_latency()]


@pytest.mark.parametrize("model", STOCK, ids=["lan", "wan", "cloud"])
def test_stock_models_sample_exactly_the_slow_path(model):
    fast, slow = Rng(7, "a"), Rng(7, "a")
    sizes = [0, 64, 512, 4096] * 250
    assert [model.sample(fast, size) for size in sizes] == [
        oracle_sample(model, slow, size) for size in sizes
    ]
    assert fast._random.getstate() == slow._random.getstate()


def test_the_draw_loop_retries_and_stays_identical():
    """Kinderman–Monahan rejects about a quarter of its uniform pairs: a
    run of draws that consumed more than two ``random()`` calls each
    retried, and still matches the slow path value for value."""
    model = wan_latency()
    fast, slow = Rng(11), Rng(11)
    draws = 200
    assert [model.sample(fast) for _ in range(draws)] == [
        oracle_sample(model, slow, 0) for _ in range(draws)
    ]
    state = fast._random.getstate()
    assert state == slow._random.getstate()
    two_per_draw = random.Random(11)
    for _ in range(2 * draws):
        two_per_draw.random()
    assert state != two_per_draw.getstate()  # the loop did retry


@settings(max_examples=80, deadline=None)
@given(
    median=st.floats(min_value=1e-6, max_value=100.0),
    sigma=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
    floor=st.floats(min_value=0.0, max_value=1.0),
    per_byte=st.floats(min_value=0.0, max_value=1e-3),
    sizes=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=20),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_any_lognormal_samples_exactly_the_slow_path(median, sigma, floor, per_byte, sizes, seed):
    model = LognormalLatency(median, sigma=sigma, per_byte=per_byte, floor=floor)
    fast, slow = Rng(seed), Rng(seed)
    assert [model.sample(fast, size) for size in sizes] == [
        oracle_sample(model, slow, size) for size in sizes
    ]
    assert fast._random.getstate() == slow._random.getstate()


# -- Network.transmit == route + Link.sample_delay ------------------------------------


class _Recorder(Node):
    def __init__(self, address):
        super().__init__(address)
        self.arrivals = []
        self.refused = []

    def on_message(self, message):
        self.arrivals.append((message.payload, self.now))

    def on_transmit_failed(self, message, reason):
        self.refused.append(message.payload)


def _build(n_nodes, edges, models, seed):
    sim = Simulator()
    network = Network(sim, Rng(seed, "net"))
    nodes = [network.add_node(_Recorder(Address(f"n{i}.test"))) for i in range(n_nodes)]
    for (a, b), model in zip(edges, models):
        if a != b and network.link_between(nodes[a].address, nodes[b].address) is None:
            network.connect(nodes[a].address, nodes[b].address, model)
    return sim, network, nodes


latency_models = st.one_of(
    st.sampled_from(STOCK),
    st.builds(FixedLatency, st.floats(min_value=0.0, max_value=0.5)),
    st.builds(
        LognormalLatency,
        st.floats(min_value=1e-4, max_value=0.5),
        sigma=st.floats(min_value=0.0, max_value=1.5),
        per_byte=st.floats(min_value=0.0, max_value=1e-5),
        floor=st.floats(min_value=0.0, max_value=0.01),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(min_value=2, max_value=7),
    edges=st.lists(
        st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
        min_size=1, max_size=14,
    ),
    models=st.lists(latency_models, min_size=14, max_size=14),
    sends=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=6),
            st.integers(min_value=0, max_value=8192),
        ),
        min_size=1, max_size=30,
    ),
    flap_at=st.integers(min_value=1, max_value=30),
    flap_hop=st.integers(min_value=0, max_value=13),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_transmit_equals_the_route_walk(n_nodes, edges, models, sends, flap_at, flap_hop, seed):
    """Same delivery instants, same refusals, same link counters and the
    same RNG state as the slow path — with a link of the first message's
    (by then cached) route going down for a resend of that message and
    back up for a second resend, so the host-keyed route cache must be
    dropped both times — and every message addressed with fresh
    ``Address`` instances equal to, but not the same object as, the
    registered ones."""
    edges = [(a % n_nodes, b % n_nodes) for a, b in edges]
    sim, fast_net, fast_nodes = _build(n_nodes, edges, models, seed)
    _, slow_net, _ = _build(n_nodes, edges, models, seed)
    sends = [(src % n_nodes, dst % n_nodes, size) for src, dst, size in sends]
    flap_at = min(flap_at, len(sends))
    sends[flap_at:flap_at] = [sends[0], sends[0]]
    try:
        first_route = oracle_route(
            slow_net, Address(f"n{sends[0][0]}.test"), Address(f"n{sends[0][1]}.test")
        )
    except RoutingError:
        first_route = []
    flapped = first_route[flap_hop % len(first_route)] if first_route else None

    expected_arrivals = {i: [] for i in range(n_nodes)}
    expected_refused = {i: [] for i in range(n_nodes)}
    for index, (src, dst, size) in enumerate(sends):
        at = 1.0 + index
        flap = flapped is not None and index == flap_at
        if flap:  # down just before the first resend, back up just after it
            a, b = Address(flapped.a.host), Address(flapped.b.host)
            sim.schedule_at(at - 0.5, fast_net.set_link_state, a, b, False)
            sim.schedule_at(at + 0.5, fast_net.set_link_state, a, b, True)
            slow_net.set_link_state(flapped.a, flapped.b, False)
        sim.schedule_at(
            at,
            lambda s=fast_nodes[src], d=dst, n=size, i=index: s.send(
                Address(f"n{d}.test"), "test", i, size_bytes=n
            ),
        )
        try:
            delay = oracle_delay(
                slow_net, Address(f"n{src}.test"), Address(f"n{dst}.test"), size
            )
        except RoutingError:
            expected_refused[src].append(index)
        else:
            expected_arrivals[dst].append((index, at + delay))
        if flap:
            slow_net.set_link_state(flapped.a, flapped.b, True)
    sim.run()

    for i in range(n_nodes):
        assert fast_nodes[i].refused == expected_refused[i]
        assert sorted(fast_nodes[i].arrivals) == expected_arrivals[i]
        assert fast_nodes[i].messages_received == len(expected_arrivals[i])
    assert [(link.messages_forwarded, link.bytes_forwarded) for link in fast_net._links.values()] == [
        (link.messages_forwarded, link.bytes_forwarded) for link in slow_net._links.values()
    ]
    assert fast_net.rng._random.getstate() == slow_net.rng._random.getstate()
    assert fast_net.messages_delivered == sum(len(v) for v in expected_arrivals.values())


@settings(max_examples=40, deadline=None)
@given(
    models=st.lists(latency_models, min_size=3, max_size=3),
    size=st.integers(min_value=0, max_value=8192),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_path_delay_equals_the_route_walk(models, size, seed):
    _, fast_net, nodes = _build(4, [(0, 1), (1, 2), (2, 3)], models, seed)
    _, slow_net, _ = _build(4, [(0, 1), (1, 2), (2, 3)], models, seed)
    message = Message(Address("n0.test"), Address("n3.test"), "test", None, size)
    assert fast_net.path_delay(message) == oracle_delay(
        slow_net, Address("n0.test"), Address("n3.test"), size
    )
    assert fast_net.rng._random.getstate() == slow_net.rng._random.getstate()
    fast_net.set_link_state(nodes[1].address, nodes[2].address, False)
    with pytest.raises(RoutingError):
        fast_net.path_delay(message)


def test_equal_but_distinct_addresses_share_nodes_and_routes():
    sim = Simulator()
    network = Network(sim, Rng(3))
    a = network.add_node(_Recorder(Address("a.test")))
    network.add_node(_Recorder(Address("b.test")))
    network.connect(Address("a.test"), Address("b.test"), FixedLatency(0.5))
    assert network.has_node(Address("b.test"))
    assert network.node(Address("a.test")) is a
    assert network.route(Address("a.test"), Address("b.test")) is network.route(
        Address("a.test"), Address("b.test")
    )
    with pytest.raises(ValueError):
        network.add_node(_Recorder(Address("a.test")))
    with pytest.raises(KeyError):
        network.node(Address("c.test"))


# -- errors the fused hop keeps ------------------------------------------------------


class _Backwards(LatencyModel):
    def sample(self, rng, size_bytes=0):
        return -0.5


def test_a_negative_hop_delay_still_raises_simulation_error():
    sim = Simulator()
    network = Network(sim, Rng(1))
    a = network.add_node(Node(Address("a.test")))
    network.add_node(Node(Address("b.test")))
    network.connect(a.address, Address("b.test"), _Backwards())
    with pytest.raises(SimulationError):
        a.send(Address("b.test"), "test", None)


def test_a_negative_request_timeout_still_raises_simulation_error():
    sim = Simulator()
    network = Network(sim, Rng(1))
    client = network.add_node(HttpNode(Address("client.test")))
    network.add_node(HttpNode(Address("server.test")))
    network.connect(client.address, Address("server.test"), FixedLatency(0.1))
    with pytest.raises(SimulationError):
        client.request(Address("server.test"), "GET", "/", on_response=print, timeout=-1.0)


def test_an_unattached_node_has_no_clock_simulator_or_requests():
    node = HttpNode(Address("loose.test"))
    for read in (lambda: node.now, lambda: node.sim):
        with pytest.raises(RuntimeError, match="not attached"):
            read()
    assert node.metrics is None
    with pytest.raises(RuntimeError, match="not attached"):
        node.request(Address("x.test"), "GET", "/", on_response=print)


# -- constructors that would corrupt time ---------------------------------------------


@pytest.mark.parametrize("build, field", [
    (lambda: LognormalLatency(median=NAN), "median"),
    (lambda: LognormalLatency(median=INF), "median"),
    (lambda: LognormalLatency(median=0.0), "median"),
    (lambda: LognormalLatency(median=-1.0), "median"),
    (lambda: LognormalLatency(0.01, sigma=NAN), "sigma"),
    (lambda: LognormalLatency(0.01, sigma=INF), "sigma"),
    (lambda: LognormalLatency(0.01, sigma=-0.1), "sigma"),
    (lambda: LognormalLatency(0.01, per_byte=-1), "per_byte"),
    (lambda: LognormalLatency(0.01, per_byte=NAN), "per_byte"),
    (lambda: LognormalLatency(0.01, per_byte=INF), "per_byte"),
    (lambda: LognormalLatency(0.01, floor=NAN), "floor"),
    (lambda: LognormalLatency(0.01, floor=INF), "floor"),
    (lambda: LognormalLatency(0.01, floor=-0.001), "floor"),
    (lambda: FixedLatency(NAN), "delay"),
    (lambda: FixedLatency(INF), "delay"),
    (lambda: FixedLatency(-1.0), "delay"),
])
def test_latency_models_refuse_time_corrupting_parameters(build, field):
    with pytest.raises(ValueError, match=field):
        build()


@pytest.mark.parametrize("size", [NAN, True, False, 1.5, 2.0, "512", None, -1])
def test_messages_refuse_a_size_that_is_not_a_non_negative_int(size):
    with pytest.raises(ValueError, match="size_bytes"):
        Message(Address("a"), Address("b"), "http", {}, size_bytes=size)


# -- Rng.randint == random.randint ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    low=st.integers(min_value=-(2**70), max_value=2**70),
    width=st.integers(min_value=1, max_value=2**70),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_randint_is_the_stdlib_draw(low, width, seed):
    ours, stdlib = Rng(seed), random.Random(seed)
    high = low + width - 1
    assert [ours.randint(low, high) for _ in range(5)] == [
        stdlib.randint(low, high) for _ in range(5)
    ]
    assert ours._random.getstate() == stdlib.getstate()


def test_randint_keeps_the_stdlib_errors():
    with pytest.raises(ValueError):
        Rng(1).randint(5, 4)
    with pytest.raises(TypeError):
        Rng(1).randint(0, "9")
    assert Rng(1).randint(True, 3) == random.Random(1).randint(True, 3)

