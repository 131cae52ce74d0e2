"""Network addresses."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Address:
    """A hostname-like node identity, e.g. ``Address("hue-hub.home")``.

    By convention the part after the last dot names the network zone
    (``home`` for LAN devices, ``cloud`` for internet-hosted entities).
    The zone is advisory — actual reachability is defined by the link
    topology.
    """

    host: str

    def __post_init__(self) -> None:
        if not self.host:
            raise ValueError("address host must be non-empty")

    def __str__(self) -> str:
        return self.host
