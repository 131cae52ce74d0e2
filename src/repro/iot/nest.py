"""Nest thermostat.

Nest devices report directly to their own cloud (no local hub API), which
is why Table 3 lists Nest Thermostat both as a top trigger service
(temperature/away events) and a top action service (set temperature).  The
device keeps a WAN session to its cloud address and accepts set-points
pushed back down.
"""

from __future__ import annotations

from typing import Optional

from repro.iot.device import Device, DeviceError
from repro.net.address import Address
from repro.net.message import Message
from repro.simcore.trace import Trace

NEST_PROTOCOL = "nest-transport"


class NestThermostat(Device):
    """A learning thermostat with ambient and target temperature state."""

    KIND = "nest_thermostat"
    EVENT_PROTOCOL = NEST_PROTOCOL

    MIN_TARGET_C = 9.0
    MAX_TARGET_C = 32.0

    def __init__(
        self,
        address: Address,
        device_id: str,
        cloud: Optional[Address] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        super().__init__(
            address,
            device_id,
            trace=trace,
            initial_state={"ambient_c": 21.0, "target_c": 21.0, "mode": "heat", "home": True},
        )
        if cloud is not None:
            self.subscribe(cloud)

    def set_target(self, target_c: float, cause: str = "remote") -> None:
        """Set the target temperature (clamped to the hardware range)."""
        if not self.MIN_TARGET_C <= target_c <= self.MAX_TARGET_C:
            raise DeviceError(
                f"target {target_c} outside [{self.MIN_TARGET_C}, {self.MAX_TARGET_C}]"
            )
        self.actuations += 1
        self.set_state("target_c", float(target_c), cause=cause)

    def sense_ambient(self, ambient_c: float) -> None:
        """The on-board sensor observes a new ambient temperature."""
        self.set_state("ambient_c", float(ambient_c), cause="sensor")

    def on_message(self, message: Message) -> None:
        if message.protocol != NEST_PROTOCOL:
            return
        payload = message.payload
        if payload.get("type") == "set_target":
            self.set_target(float(payload["target_c"]), cause="cloud")
