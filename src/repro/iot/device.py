"""Base class for physical devices."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.address import Address
from repro.net.node import Node
from repro.simcore.trace import Trace


class DeviceError(RuntimeError):
    """Invalid device operation (unknown command, bad state value, ...)."""


class Device(Node):
    """A stateful physical device attached to the home network.

    Devices hold a key/value ``state`` dict.  Every state change appends to
    the device's local event log, is stamped into the shared trace (when
    one is wired), and is pushed to registered subscribers — the device's
    hub, the local proxy, or a cloud service, depending on the device.

    Subclasses define ``KIND`` and the state keys they support, and expose
    verb-shaped helpers (``turn_on()``, ``set_color()``, ...) so examples
    and the test controller read naturally.
    """

    KIND = "device"
    EVENT_PROTOCOL = "device-event"

    def __init__(
        self,
        address: Address,
        device_id: str,
        trace: Optional[Trace] = None,
        initial_state: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(address)
        self.device_id = device_id
        self.trace = trace
        self.state: Dict[str, Any] = dict(initial_state or {})
        self.subscribers: List[Address] = []
        self.event_log: List[Tuple[float, str, Dict[str, Any]]] = []
        self.actuations = 0

    def subscribe(self, subscriber: Address) -> None:
        """Register an address to receive this device's event pushes."""
        if subscriber not in self.subscribers:
            self.subscribers.append(subscriber)

    def set_state(self, key: str, value: Any, cause: str = "local") -> bool:
        """Set one state key; returns True if the value actually changed.

        Unchanged writes are suppressed (no event) — real devices debounce
        idempotent commands, and the infinite-loop experiments depend on
        distinguishing actuations from state changes, so actuations are
        counted separately by the command paths.
        """
        old = self.state.get(key)
        if old == value:
            return False
        self.state[key] = value
        self.emit_event("state_changed", key=key, value=value, previous=old, cause=cause)
        return True

    def get_state(self, key: str, default: Any = None) -> Any:
        """Read one state key."""
        return self.state.get(key, default)

    def emit_event(self, event: str, **data: Any) -> None:
        """Log an event and push it to all subscribers."""
        now = self.now if self.network is not None else 0.0
        self.event_log.append((now, event, data))
        if self.trace is not None:
            self.trace.record(now, self.device_id, f"device_{event}", **data)
        if self.network is None:
            return
        payload = {
            "device_id": self.device_id,
            "kind": self.KIND,
            "event": event,
            "data": dict(data),
            "state": dict(self.state),
            "time": now,
        }
        for subscriber in self.subscribers:
            self.send(subscriber, self.EVENT_PROTOCOL, payload, size_bytes=256)

    def events(self, event: Optional[str] = None) -> List[Tuple[float, str, Dict[str, Any]]]:
        """The device's event log, optionally filtered by event name."""
        if event is None:
            return list(self.event_log)
        return [entry for entry in self.event_log if entry[1] == event]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.device_id!r} state={self.state}>"
