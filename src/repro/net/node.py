"""Base class for network-attached entities."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.net.address import Address
from repro.net.message import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class Node:
    """Anything attached to the simulated network.

    Subclasses (devices, hubs, proxies, services, the engine) override
    :meth:`on_message`.  Nodes gain a back-reference to the network when
    attached, through which they send and schedule.
    """

    def __init__(self, address: Address) -> None:
        self.address = address
        self.network: Optional["Network"] = None
        self.messages_received = 0
        self.messages_sent = 0
        self._metrics = None

    @property
    def metrics(self):
        """The node's metrics registry, if any.

        Falls back to the attached network's shared registry, so a node
        is observable the moment its topology is (without threading a
        registry through every constructor).
        """
        if self._metrics is not None:
            return self._metrics
        if self.network is not None:
            return self.network.metrics
        return None

    @metrics.setter
    def metrics(self, registry) -> None:
        self._metrics = registry

    @property
    def sim(self):
        """The simulator of the attached network."""
        if self.network is None:
            raise RuntimeError(f"node {self.address} is not attached to a network")
        return self.network.sim

    @property
    def now(self) -> float:
        """Current simulation time.

        One frame: read on every request and response, so it goes to the
        simulator's clock directly rather than through :attr:`sim`.
        """
        network = self.network
        if network is None:
            raise RuntimeError(f"node {self.address} is not attached to a network")
        return network.sim._now

    def attach(self, network: "Network") -> None:
        """Called by :meth:`Network.add_node`; may be overridden for setup."""
        self.network = network

    def send(self, dst: Address, protocol: str, payload, size_bytes: int = 512, **headers) -> Message:
        """Construct and transmit a message to ``dst``."""
        if self.network is None:
            raise RuntimeError(f"node {self.address} is not attached to a network")
        # ``**headers`` is already a fresh dict owned by this call.
        message = Message(self.address, dst, protocol, payload, size_bytes, headers=headers)
        self.messages_sent += 1
        self.network.transmit(message)
        return message

    def on_message(self, message: Message) -> None:
        """Handle an arriving message (the network counts it in
        ``messages_received`` first).  Default: ignore."""

    def on_transmit_failed(self, message: Message, reason: str) -> None:
        """Synchronous notification that a sent message could not be routed.

        The network calls this when it knows *immediately* that a message
        has no path (the moral equivalent of a TCP connection refused /
        ICMP unreachable), as opposed to in-flight loss, which the sender
        only discovers via its own timeout.  Default: ignore.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.address.host}>"
