"""Samsung SmartThings hub + generic attached devices.

SmartThings is the paper's example of a *smart-home hub / integration
solution* (Table 1, category 2): one hub multiplexing many heterogeneous
devices (locks, motion sensors, outlets, ...).  We model the attached
devices generically — a :class:`GenericDevice` with a declared kind and a
small capability set — because the measurement only needs their
trigger/action surface, not per-vendor behaviour.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.iot.device import Device, DeviceError
from repro.net.address import Address
from repro.net.http import HttpNode, HttpRequest
from repro.net.message import Message
from repro.simcore.trace import Trace

ZWAVE = "zwave"

#: Capability name -> (state key, allowed values or type)
CAPABILITIES: Dict[str, Any] = {
    "switch": ("on", bool),
    "lock": ("locked", bool),
    "motion": ("motion", bool),
    "contact": ("open", bool),
    "presence": ("present", bool),
    "temperature": ("temperature", float),
}


class GenericDevice(Device):
    """A SmartThings-attached device with one declared capability."""

    EVENT_PROTOCOL = ZWAVE

    def __init__(
        self,
        address: Address,
        device_id: str,
        capability: str,
        trace: Optional[Trace] = None,
    ) -> None:
        if capability not in CAPABILITIES:
            raise DeviceError(f"unknown capability {capability!r}")
        self.capability = capability
        state_key, _ = CAPABILITIES[capability]
        initial: Dict[str, Any] = {state_key: 0.0 if capability == "temperature" else False}
        super().__init__(address, device_id, trace=trace, initial_state=initial)
        self.KIND = f"st_{capability}"

    @property
    def state_key(self) -> str:
        """The single state key this capability controls."""
        return CAPABILITIES[self.capability][0]

    def actuate(self, value: Any, cause: str = "remote") -> None:
        """Set the capability's state (e.g. lock/unlock, on/off)."""
        _, expected = CAPABILITIES[self.capability]
        if expected is bool and not isinstance(value, bool):
            raise DeviceError(f"{self.capability} expects a bool, got {value!r}")
        if expected is float:
            value = float(value)
        self.actuations += 1
        self.set_state(self.state_key, value, cause=cause)

    def on_message(self, message: Message) -> None:
        if message.protocol == ZWAVE and message.payload.get("type") == "command":
            self.actuate(message.payload["value"], cause="hub")


class SmartThingsHub(HttpNode):
    """The SmartThings hub: LAN REST API over Z-Wave-ish device links.

    Routes
    ------
    ``POST /api/devices/<id>/command`` — actuate a device.
    ``GET /api/devices`` — state mirror of every paired device.
    ``POST /api/subscribe`` — register an event-push callback; events are
    delivered as ``POST <callback>/events/smartthings``.
    """

    def __init__(self, address: Address, trace: Optional[Trace] = None, service_time: float = 0.004) -> None:
        super().__init__(address, service_time=service_time)
        self.trace = trace
        self._devices: Dict[str, Address] = {}
        self._state_mirror: Dict[str, Dict[str, Any]] = {}
        self._subscribers: Dict[str, Address] = {}
        self.add_route("POST", "/api/devices/", self._handle_command)
        self.add_route("GET", "/api/devices", self._handle_list)
        self.add_route("POST", "/api/subscribe", self._handle_subscribe)

    def pair_device(self, device: GenericDevice) -> None:
        """Pair a device with the hub."""
        self._devices[device.device_id] = device.address
        self._state_mirror[device.device_id] = dict(device.state)
        device.subscribe(self.address)

    def command_device(self, device_id: str, value: Any) -> None:
        """Send an actuation command over the device link."""
        if device_id not in self._devices:
            raise DeviceError(f"unknown device {device_id!r}")
        self.send(self._devices[device_id], ZWAVE, {"type": "command", "value": value}, size_bytes=48)

    def _handle_command(self, request: HttpRequest):
        parts = request.path.strip("/").split("/")
        if len(parts) != 4 or parts[3] != "command":
            return 400, {"error": "expected /api/devices/<id>/command"}
        device_id = parts[2]
        if device_id not in self._devices:
            return 404, {"error": f"unknown device {device_id}"}
        self.command_device(device_id, request.body["value"])
        return {"accepted": device_id}

    def _handle_list(self, request: HttpRequest):
        return {"devices": {did: dict(state) for did, state in self._state_mirror.items()}}

    def _handle_subscribe(self, request: HttpRequest):
        callback = request.body["callback"]
        self._subscribers[callback] = Address(callback)
        return {"subscribed": callback}

    def on_non_http_message(self, message: Message) -> None:
        if message.protocol != ZWAVE:
            return
        payload = message.payload
        device_id = payload.get("device_id")
        if device_id not in self._devices:
            return
        self._state_mirror[device_id] = dict(payload.get("state", {}))
        if self.trace is not None:
            self.trace.record(self.now, "st_hub", "hub_event", device_id=device_id, event=payload.get("event"))
        for callback in self._subscribers.values():
            self.post(callback, "/events/smartthings", body=dict(payload), size_bytes=256)
