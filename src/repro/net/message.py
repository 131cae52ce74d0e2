"""Messages carried by the simulated network."""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.net.address import Address

_message_ids = itertools.count(1)


class Message:
    """A unit of data in flight between two nodes.

    Attributes
    ----------
    src, dst:
        Endpoint addresses.
    protocol:
        Wire protocol tag, e.g. ``"http"``, ``"upnp"``, ``"hue-rest"``,
        ``"proxy-custom"`` — the testbed distinguishes the protocols each
        hop speaks (§2.1).
    payload:
        Arbitrary structured body.
    size_bytes:
        Nominal size, used by links with serialization cost.
    msg_id:
        Unique id assigned at construction; ties request/response pairs
        and trace records together.
    headers:
        Out-of-band key/values; the message keeps the dict it is given.
    """

    # Two of these are built per HTTP round trip: slotted and hand-written
    # (``dataclass(slots=True)`` needs Python 3.10; setup.cfg says 3.9).
    __slots__ = ("src", "dst", "protocol", "payload", "size_bytes", "msg_id", "headers")

    def __init__(
        self,
        src: Address,
        dst: Address,
        protocol: str,
        payload: Any,
        size_bytes: int = 512,
        msg_id: Optional[int] = None,
        headers: Optional[Dict[str, Any]] = None,
    ) -> None:
        if type(size_bytes) is not int or size_bytes < 0:  # also refuses bool and NaN
            raise ValueError(f"size_bytes must be a non-negative int, got {size_bytes!r}")
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.payload = payload
        self.size_bytes = size_bytes
        self.msg_id = next(_message_ids) if msg_id is None else msg_id
        self.headers = {} if headers is None else headers

    def __repr__(self) -> str:
        return (
            f"<Message #{self.msg_id} {self.protocol} "
            f"{self.src.host}->{self.dst.host}>"
        )
