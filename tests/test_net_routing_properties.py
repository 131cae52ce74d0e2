"""Property-based routing tests, cross-checked against networkx."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Address, FixedLatency, Network, Node, RoutingError
from repro.simcore import Rng, Simulator


def build_random_network(n_nodes, edges):
    """A Network plus the equivalent networkx graph."""
    sim = Simulator()
    net = Network(sim, Rng(1))
    nodes = [net.add_node(Node(Address(f"n{i}.test"))) for i in range(n_nodes)]
    graph = nx.Graph()
    graph.add_nodes_from(range(n_nodes))
    for a, b in edges:
        if a != b and net.link_between(nodes[a].address, nodes[b].address) is None:
            net.connect(nodes[a].address, nodes[b].address, FixedLatency(0.01))
            graph.add_edge(a, b)
    return net, nodes, graph


edge_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
    min_size=0, max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(edges=edge_lists,
       src=st.integers(min_value=0, max_value=9),
       dst=st.integers(min_value=0, max_value=9))
def test_route_length_matches_networkx_shortest_path(edges, src, dst):
    net, nodes, graph = build_random_network(10, edges)
    try:
        expected = nx.shortest_path_length(graph, src, dst)
        path = net.route(nodes[src].address, nodes[dst].address)
        assert len(path) == expected
    except nx.NetworkXNoPath:
        with pytest.raises(RoutingError):
            net.route(nodes[src].address, nodes[dst].address)


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists,
       src=st.integers(min_value=0, max_value=9),
       dst=st.integers(min_value=0, max_value=9))
def test_route_is_a_valid_contiguous_path(edges, src, dst):
    net, nodes, graph = build_random_network(10, edges)
    if not nx.has_path(graph, src, dst):
        return
    path = net.route(nodes[src].address, nodes[dst].address)
    cursor = nodes[src].address
    for link in path:
        cursor = link.other(cursor)  # raises if the link doesn't touch cursor
    assert cursor == nodes[dst].address


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists, src=st.integers(min_value=0, max_value=9),
       dst=st.integers(min_value=0, max_value=9))
def test_route_symmetric_length(edges, src, dst):
    net, nodes, graph = build_random_network(10, edges)
    if not nx.has_path(graph, src, dst):
        return
    forward = net.route(nodes[src].address, nodes[dst].address)
    backward = net.route(nodes[dst].address, nodes[src].address)
    assert len(forward) == len(backward)


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists)
def test_route_cache_consistent_after_link_flap(edges):
    """Taking a link down and up again restores the original route length."""
    net, nodes, graph = build_random_network(10, edges)
    if not nx.has_path(graph, 0, 9):
        return
    before = len(net.route(nodes[0].address, nodes[9].address))
    links = list(net._links.values())
    if not links:
        return
    target = links[0]
    net.set_link_state(target.a, target.b, up=False)
    try:
        net.route(nodes[0].address, nodes[9].address)
    except RoutingError:
        pass
    net.set_link_state(target.a, target.b, up=True)
    after = len(net.route(nodes[0].address, nodes[9].address))
    assert after == before
