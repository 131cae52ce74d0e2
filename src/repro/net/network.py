"""The network: node registry, link topology, hop-by-hop routing."""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.net.address import Address
from repro.net.link import Link
from repro.net.latency import LatencyModel, cloud_internal_latency
from repro.net.message import Message
from repro.net.node import Node
from repro.obs.bound import Bound
from repro.simcore.rng import Rng
from repro.simcore.simulator import SimulationError, Simulator


class RoutingError(RuntimeError):
    """No usable path exists between two addresses."""


class Network:
    """A set of nodes joined by links, with shortest-hop routing.

    Each transmitted message is routed along the (cached) minimum-hop path
    between source and destination; every link on the path contributes an
    independently sampled delay, and delivery is scheduled at the sum.
    Links may be taken down (``link.up = False``) to model failures, which
    invalidates the route cache.
    """

    def __init__(
        self, sim: Simulator, rng: Optional[Rng] = None, metrics=None
    ) -> None:
        self.sim = sim
        self.rng = rng or Rng(seed=0, name="network")
        #: Optional :class:`~repro.obs.metrics.MetricsRegistry` shared by
        #: the whole topology; attached nodes reach it via
        #: ``Node.metrics`` so one registry observes every vantage point.
        self.metrics = metrics
        #: Optional :class:`~repro.faults.injector.NetworkFaultState`
        #: installed by a :class:`~repro.faults.injector.FaultInjector`.
        #: ``None`` (the default) keeps transmission on the exact
        #: fault-free fast path.
        self.faults = None
        #: Optional :class:`CrossShardRouter` for sharded worlds whose
        #: shards run on separate simulators: messages addressed outside
        #: this network are handed to it instead of raising.  ``None``
        #: (the default) keeps single-world routing untouched.
        self.router = None
        #: The address cross-shard traffic exits through (the shard's
        #: core/uplink) when a router is attached.  Reachability to the
        #: gateway gates cross-shard sends, so an engine partitioned from
        #: its core cannot reach remote shards either.
        self.gateway: Optional[Address] = None
        # Nodes and cached routes are keyed by ``Address.host``: every
        # message looks both up, and a ``str`` hashes in C from its
        # cached hash where the dataclass ``__hash__`` is two calls.
        self._nodes: Dict[str, Node] = {}
        self._links: Dict[FrozenSet[Address], Link] = {}
        self._adjacency: Dict[Address, List[Link]] = {}
        self._route_cache: Dict[Tuple[str, str], List[Link]] = {}
        self.messages_delivered = 0
        self.messages_dropped = 0
        self._bound = Bound("net")  # the per-message instruments

    # -- topology ----------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register a node; its address must be unique."""
        if node.address.host in self._nodes:
            raise ValueError(f"duplicate node address {node.address}")
        self._nodes[node.address.host] = node
        self._adjacency.setdefault(node.address, [])
        node.attach(self)
        return node

    def node(self, address: Address) -> Node:
        """Look up a node by address."""
        try:
            return self._nodes[address.host]
        except KeyError:
            raise KeyError(f"no node at address {address}") from None

    def has_node(self, address: Address) -> bool:
        """Whether an address is registered."""
        return address.host in self._nodes

    @property
    def nodes(self) -> List[Node]:
        """All registered nodes."""
        return list(self._nodes.values())

    def connect(self, a: Address, b: Address, latency: LatencyModel) -> Link:
        """Create a bidirectional link between two registered nodes."""
        for end in (a, b):
            if end.host not in self._nodes:
                raise KeyError(f"cannot link unregistered address {end}")
        key = frozenset((a, b))
        if key in self._links:
            raise ValueError(f"link {a}<->{b} already exists")
        link = Link(a, b, latency)
        self._links[key] = link
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._route_cache.clear()
        return link

    def link_between(self, a: Address, b: Address) -> Optional[Link]:
        """The direct link between two addresses, if any."""
        return self._links.get(frozenset((a, b)))

    @property
    def links(self) -> List[Link]:
        """All links in the topology."""
        return list(self._links.values())

    def set_link_state(self, a: Address, b: Address, up: bool) -> None:
        """Bring a link up or down; routes are recomputed lazily."""
        link = self.link_between(a, b)
        if link is None:
            raise KeyError(f"no link between {a} and {b}")
        link.up = up
        self._route_cache.clear()

    # -- routing and transmission -------------------------------------------

    def route(self, src: Address, dst: Address) -> List[Link]:
        """Minimum-hop path from ``src`` to ``dst`` over up links (BFS)."""
        key = (src.host, dst.host)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        if src == dst:
            self._route_cache[key] = []
            return []
        parents: Dict[Address, tuple] = {src: (None, None)}
        frontier = deque([src])
        while frontier:
            here = frontier.popleft()
            if here == dst:
                break
            for link in self._adjacency.get(here, ()):
                if not link.up:
                    continue
                neighbor = link.other(here)
                if neighbor not in parents:
                    parents[neighbor] = (here, link)
                    frontier.append(neighbor)
        if dst not in parents:
            raise RoutingError(f"no path from {src} to {dst}")
        path: List[Link] = []
        cursor = dst
        while cursor != src:
            parent, link = parents[cursor]
            path.append(link)
            cursor = parent
        path.reverse()
        self._route_cache[key] = path
        return path

    def path_delay(self, message: Message) -> float:
        """Sample the end-to-end delay for a message along its route.

        Fault-free; raises :class:`RoutingError` when no path exists.
        """
        return self._sample_path(self.route(message.src, message.dst), message, None)

    def _sample_path(self, path: List[Link], message: Message, faults) -> Optional[float]:
        """The route-sampling loop: each link on ``path`` counts the
        message and adds one delay drawn from its latency model (what
        :meth:`Link.sample_delay` does, without its frame).

        With ``faults`` each hop is fault-adjusted, and ``None`` means the
        message was lost in flight (already counted as dropped).
        """
        rng = self.rng
        size_bytes = message.size_bytes
        total = 0  # int, as ``sum`` starts: an empty route costs exactly ``0``
        for link in path:
            link.messages_forwarded += 1
            link.bytes_forwarded += size_bytes
            delay = link.latency.sample(rng, size_bytes)
            if faults is not None:
                delay, dropped = faults.adjust(link, delay)
                if dropped:
                    self._drop(lost=True)
                    return None
            total += delay
        return total

    def transmit(self, message: Message) -> None:
        """Route and schedule delivery of a message.

        Messages to unreachable destinations are counted as dropped and
        the sender is told synchronously via
        :meth:`~repro.net.node.Node.on_transmit_failed` — the network
        *knows* there is no path, so callers get an immediate
        connection-refused instead of waiting out an HTTP timeout.
        In-flight loss injected by an active fault plan keeps classic
        timeout semantics: the message silently vanishes mid-path.
        """
        src = message.src
        dst = message.dst
        if dst.host not in self._nodes:
            if self.router is not None:
                self.router.transmit(self, message)
                return
            raise KeyError(f"message to unregistered address {dst}")
        path = self._route_cache.get((src.host, dst.host))
        if path is None:
            try:
                path = self.route(src, dst)
            except RoutingError:
                self._refuse(message)
                return
        delay = self._sample_path(path, message, self.faults)
        if delay is None:
            return
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        metrics = self.metrics
        if metrics is not None:
            self._bound.histogram(metrics, "delivery_seconds").observe(delay)
        sim = self.sim
        sim.schedule_at(sim._now + delay, self._deliver, message, label="deliver")

    def _drop(self, lost: bool = False) -> None:
        """Count one dropped message (``lost``: in flight, by a fault)."""
        self.messages_dropped += 1
        if self.metrics is not None:
            self.metrics.counter("net.messages_dropped").inc()
            if lost:
                self.metrics.counter("net.messages_lost").inc()

    def _refuse(self, message: Message) -> None:
        """No route: drop, and tell the sender synchronously."""
        self._drop()
        sender = self._nodes.get(message.src.host)
        if sender is not None:
            sender.on_transmit_failed(message, "no route")

    def _leg_delay(
        self, message: Message, src: Address, dst: Address, refuse: bool = True
    ) -> Optional[float]:
        """Sampled, fault-adjusted delay of one ``src`` → ``dst`` leg.

        ``None`` means the message is gone and already accounted for: no
        route (the sender is refused synchronously, or — ``refuse=False``,
        for legs whose sender sits in another shard — the message is just
        dropped), or lost in flight on a faulted link.
        """
        path = self._route_cache.get((src.host, dst.host))
        if path is None:
            try:
                path = self.route(src, dst)
            except RoutingError:
                if refuse:
                    self._refuse(message)
                else:
                    self._drop()
                return None
        return self._sample_path(path, message, self.faults)

    def _ingress(self, message: Message) -> None:
        """Final intra-shard leg of a cross-shard delivery (gateway → dst).

        Runs on *this* network's simulator at the message's cross-shard
        arrival time, so the gateway→destination route is evaluated
        against the destination shard's live fault state: a destination
        partitioned from its own gateway loses inbound cross-shard
        traffic mid-path (the remote sender discovers it via timeout,
        exactly like in-flight loss — there is no synchronous
        connection-refused across shards).
        """
        gateway = self.gateway
        if gateway is None or message.dst.host == gateway.host:
            self._deliver(message)
            return
        delay = self._leg_delay(message, gateway, message.dst, refuse=False)
        if delay is None:
            return
        if delay > 0.0:
            sim = self.sim
            sim.schedule_at(sim._now + delay, self._deliver, message, label="deliver")
        else:
            self._deliver(message)

    def _deliver(self, message: Message) -> None:
        self.messages_delivered += 1
        metrics = self.metrics
        if metrics is not None:
            self._bound.counter(metrics, "messages_delivered").inc()
        node = self._nodes[message.dst.host]
        node.messages_received += 1
        node.on_message(message)

    def __repr__(self) -> str:
        return f"<Network nodes={len(self._nodes)} links={len(self._links)}>"


class CrossShardRouter:
    """Mailbox routing between shard-local networks on separate simulators.

    In an epoch-stepped sharded world
    (:class:`~repro.simcore.parallel.ShardedSimulator`) every shard owns
    a private :class:`Network`; a message addressed to a node in another
    shard cannot be scheduled into that shard's heap directly — one
    cell, one heap, one registry; nothing is shared across cells except
    the mailboxes.  Instead the source network hands the message here
    and it crosses through the stepper's per-shard mailbox, drained at
    the next epoch barrier:

    * the **source side** is charged the real topology cost: the sampled
      per-link delay from the sender to the shard's :attr:`Network.gateway`
      (so a shard partitioned from its core is connection-refused on
      cross-shard sends too, exactly like local ones) plus one sampled
      cross-shard hop;
    * the cross-shard hop is **floored at the stepper's lookahead**,
      which is the conservative guarantee that makes the epoch width
      safe: a message sent at ``s ≥ t`` in epoch ``[t, t+L)`` always
      delivers at ``s + hop ≥ t + L``, i.e. at or after the barrier;
    * every delay is sampled from the *source* shard's network RNG, so
      the draw order per shard — and therefore the whole fleet — is
      deterministic regardless of the order cells are stepped in.

    Delivery lands in the destination network's :meth:`Network._ingress`
    path on the destination shard's simulator, in mailbox-drain order:
    the final gateway→destination leg is sampled and fault-adjusted
    *there*, against the destination's live topology, so a destination
    partitioned from its own gateway loses inbound cross-shard traffic
    too.
    """

    def __init__(self, stepper, latency: Optional[LatencyModel] = None) -> None:
        self.stepper = stepper
        #: One-way cross-shard hop model; the sampled value is floored at
        #: ``stepper.lookahead`` (see class docstring).
        self.latency = latency if latency is not None else cloud_internal_latency()
        self._networks: List[Network] = []
        self._shard_of: Dict[Network, int] = {}  # by identity
        self._homes: Dict[str, tuple] = {}  # dst host -> (shard, network)
        self.messages_routed = 0

    def attach(self, network: Network, shard: int) -> Network:
        """Register one shard's network and install the transmit hook."""
        network.router = self
        self._networks.append(network)
        self._shard_of[network] = shard
        self._homes.clear()  # nodes may be added after earlier attaches
        self.stepper.mark_coupled()
        return network

    def _locate(self, dst: Address) -> tuple:
        """Find, and remember in ``_homes``, the shard ``dst`` lives in."""
        matches = [
            (self._shard_of[network], network)
            for network in self._networks
            if network.has_node(dst)
        ]
        if not matches:
            raise KeyError(f"message to unregistered address {dst}")
        if len(matches) > 1:
            raise ValueError(
                f"address {dst} registered in {len(matches)} shards; "
                "cross-shard destinations must be unique"
            )
        home = self._homes[dst.host] = matches[0]
        return home

    def transmit(self, src_net: Network, message: Message) -> None:
        """Route one message from ``src_net`` into its destination shard.

        The sender → gateway leg mirrors :meth:`Network.transmit` hop for
        hop: no route is a synchronous connection-refused, an active
        fault plan may inflate per-hop delay or lose the message.
        """
        src = message.src
        home = self._homes.get(message.dst.host)
        if home is None:
            home = self._locate(message.dst)
        dst_shard, dst_net = home
        gateway = src_net.gateway
        # An ``Address`` is its ``host``: comparing the strings is the
        # dataclass ``__eq__`` without its frame.
        if gateway is None or src.host == gateway.host:
            delay = 0.0
        else:
            delay = src_net._leg_delay(message, src, gateway)
            if delay is None:
                return
        hop = self.latency.sample(src_net.rng, message.size_bytes)
        stepper = self.stepper
        lookahead = stepper.lookahead
        delay += lookahead if lookahead > hop else hop  # max(), without its call
        metrics = src_net.metrics
        if metrics is not None:
            src_net._bound.histogram(metrics, "delivery_seconds").observe(delay)
        self.messages_routed += 1
        stepper.post(
            dst_shard,
            src_net.sim._now + delay,
            dst_net._ingress,
            message,
            src=self._shard_of[src_net],
        )
