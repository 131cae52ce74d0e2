"""Philips Hue: lamp + hub.

The lamp speaks a Zigbee-like link protocol to its hub; the hub exposes
the Hue RESTful Web API on the home LAN (``PUT /api/<user>/lights/<id>/state``)
and pushes state-change events to registered subscribers (the local proxy,
or the official Hue cloud service over the WAN), matching the two
communication paths described in §2.1.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.iot.device import Device, DeviceError
from repro.net.address import Address
from repro.net.http import HttpNode, HttpRequest
from repro.net.message import Message
from repro.simcore.trace import Trace

ZIGBEE = "zigbee"

VALID_COLORS = (
    "white", "red", "green", "blue", "yellow", "purple", "orange", "pink",
)


class HueLamp(Device):
    """A color-capable smart bulb.

    State keys: ``on`` (bool), ``color`` (str), ``brightness`` (0-254),
    ``effect`` (``"none"``/``"blink"``/``"colorloop"``).
    """

    KIND = "hue_lamp"
    EVENT_PROTOCOL = ZIGBEE

    def __init__(self, address: Address, device_id: str, trace: Optional[Trace] = None) -> None:
        super().__init__(
            address,
            device_id,
            trace=trace,
            initial_state={"on": False, "color": "white", "brightness": 254, "effect": "none"},
        )

    def apply_command(self, command: Dict[str, Any], cause: str = "remote") -> Dict[str, Any]:
        """Apply a Hue state command; returns the changed keys."""
        changed: Dict[str, Any] = {}
        self.actuations += 1
        for key, value in command.items():
            if key == "on":
                if not isinstance(value, bool):
                    raise DeviceError(f"'on' must be a bool, got {value!r}")
            elif key == "color":
                if value not in VALID_COLORS:
                    raise DeviceError(f"unsupported color {value!r}")
            elif key == "brightness":
                if not isinstance(value, int) or not 0 <= value <= 254:
                    raise DeviceError(f"brightness must be an int in [0, 254], got {value!r}")
            elif key == "effect":
                if value not in ("none", "blink", "colorloop"):
                    raise DeviceError(f"unsupported effect {value!r}")
            else:
                raise DeviceError(f"unknown hue state key {key!r}")
            if self.set_state(key, value, cause=cause):
                changed[key] = value
        return changed

    def on_message(self, message: Message) -> None:
        if message.protocol == ZIGBEE and message.payload.get("type") == "command":
            self.apply_command(message.payload["command"], cause="hub")


class HueHub(HttpNode):
    """The Hue bridge: LAN REST API in front of Zigbee lamps.

    Routes
    ------
    ``PUT /api/lights/<lamp_id>/state``
        Apply a state command to one lamp.
    ``GET /api/lights``
        Mirror of all known lamp states.
    ``POST /api/subscribe``
        Register a callback address for push notifications; the hub POSTs
        each lamp event to ``<callback>/events/hue``.
    """

    def __init__(self, address: Address, trace: Optional[Trace] = None, service_time: float = 0.003) -> None:
        super().__init__(address, service_time=service_time)
        self.trace = trace
        self._lamps: Dict[str, Address] = {}
        self._state_mirror: Dict[str, Dict[str, Any]] = {}
        self._subscribers: Dict[str, Address] = {}
        self.add_route("PUT", "/api/lights/", self._handle_light_command)
        self.add_route("GET", "/api/lights", self._handle_list_lights)
        self.add_route("POST", "/api/subscribe", self._handle_subscribe)

    def pair_lamp(self, lamp: HueLamp) -> None:
        """Associate a lamp with this hub (the Hue pairing step)."""
        self._lamps[lamp.device_id] = lamp.address
        self._state_mirror[lamp.device_id] = dict(lamp.state)
        lamp.subscribe(self.address)

    def command_lamp(self, lamp_id: str, command: Dict[str, Any]) -> None:
        """Send a Zigbee command to a paired lamp."""
        if lamp_id not in self._lamps:
            raise DeviceError(f"unknown lamp {lamp_id!r}")
        self.send(self._lamps[lamp_id], ZIGBEE, {"type": "command", "command": dict(command)}, size_bytes=64)

    # -- REST handlers -------------------------------------------------------

    def _handle_light_command(self, request: HttpRequest):
        parts = request.path.strip("/").split("/")
        # /api/lights/<lamp_id>/state
        if len(parts) != 4 or parts[3] != "state":
            return 400, {"error": "expected /api/lights/<id>/state"}
        lamp_id = parts[2]
        if lamp_id not in self._lamps:
            return 404, {"error": f"unknown lamp {lamp_id}"}
        self.command_lamp(lamp_id, request.body or {})
        return {"success": dict(request.body or {})}

    def _handle_list_lights(self, request: HttpRequest):
        return {"lights": {lid: dict(state) for lid, state in self._state_mirror.items()}}

    def _handle_subscribe(self, request: HttpRequest):
        callback = request.body["callback"]
        self._subscribers[callback] = Address(callback)
        return {"subscribed": callback}

    # -- event fan-out --------------------------------------------------------

    def on_non_http_message(self, message: Message) -> None:
        if message.protocol != ZIGBEE:
            return
        payload = message.payload
        lamp_id = payload.get("device_id")
        if lamp_id not in self._lamps:
            return
        self._state_mirror[lamp_id] = dict(payload.get("state", {}))
        if self.trace is not None:
            self.trace.record(self.now, "hue_hub", "hub_event", lamp_id=lamp_id, event=payload.get("event"))
        for callback in self._subscribers.values():
            self.post(callback, "/events/hue", body=dict(payload), size_bytes=256)
