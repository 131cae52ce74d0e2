"""Distributed (local) applet execution — §6's proposal, implemented.

*"Many applets can be executed fully locally by using users' smartphones
or tablets as a local IFTTT engine.  In this way, the scalability of the
system can be dramatically improved."*  The paper leaves the design open;
we implement one concrete answer:

* :class:`LocalEngine` — an engine running on a device inside the home
  LAN.  It subscribes to device hubs directly (the same push interfaces
  the local proxy uses) and executes matching applets immediately, with
  no WAN round trip and no polling.
* :class:`HybridScheduler` — decides per applet whether it can run
  locally (both its trigger source and action target are local-capable)
  or must go to the cloud engine, and handles fail-over when the local
  engine goes down.

§6's ablation (``tests/test_paper_fidelity.py``) compares T2A latency
and WAN message volume between cloud-only and hybrid placement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.engine.applet import Applet
from repro.net.address import Address
from repro.net.http import HttpNode, HttpRequest
from repro.net.message import Message
from repro.simcore.trace import Trace

from repro.iot.wemo import UPNP

#: Given a raw device event, return the trigger's ingredients if it fires,
#: else None.
TriggerMatcher = Callable[[Dict[str, Any]], Optional[Dict[str, Any]]]
#: Execute the action with resolved fields.
ActionExecutor = Callable[[Dict[str, Any]], None]


@dataclass
class _LocalBinding:
    """A locally-executable applet with its device-level bindings."""

    applet: Applet
    matcher: TriggerMatcher
    executor: ActionExecutor


class LocalEngine(HttpNode):
    """An IFTTT-protocol-free executor on the home LAN.

    Device hubs push events to it exactly as they push to the local
    proxy; matching applets execute immediately via native device calls.
    T2A latency becomes a couple of LAN hops (~tens of milliseconds)
    instead of a polling residual (~minutes).
    """

    def __init__(self, address: Address, trace: Optional[Trace] = None, service_time: float = 0.002) -> None:
        super().__init__(address, service_time=service_time)
        self.trace = trace
        self._bindings: List[_LocalBinding] = []
        self._hue_hub: Optional[Address] = None
        self.executions = 0
        self.online = True
        self.add_route("POST", "/events/hue", self._handle_event)
        self.add_route("POST", "/events/smartthings", self._handle_event)

    # -- device bridging (same interfaces the proxy uses) ----------------------

    def bridge_hue_hub(self, hub: Address) -> None:
        """Subscribe to a Hue hub's push events and remember it for actions."""
        self._hue_hub = hub
        self.post(hub, "/api/subscribe", body={"callback": self.address.host})

    def bridge_wemo(self, switch: Address) -> None:
        """UPnP-subscribe to a WeMo switch."""
        self.send(switch, UPNP, {"type": "subscribe", "callback": self.address.host}, size_bytes=64)

    def hue_command(
        self, lamp_id: str, command: Optional[Dict[str, Any]] = None
    ) -> Callable[[Dict[str, Any]], None]:
        """An :data:`ActionExecutor` that PUTs lamp state to the bridged hub.

        ``command`` is the Hue state to apply (default: turn on); resolved
        action fields named after Hue state keys (``color``, ``effect``,
        ``brightness``) override it, letting templated fields through.
        """
        base = dict(command or {"on": True})

        def execute(fields: Dict[str, Any]) -> None:
            if self._hue_hub is None:
                raise RuntimeError("no hue hub bridged to the local engine")
            merged = dict(base)
            for key in ("on", "color", "effect", "brightness"):
                if key in fields:
                    merged[key] = fields[key]
            self.request(self._hue_hub, "PUT", f"/api/lights/{lamp_id}/state", body=merged)

        return execute

    # -- applet installation -----------------------------------------------------

    def install_local_applet(
        self, applet: Applet, matcher: TriggerMatcher, executor: ActionExecutor
    ) -> None:
        """Bind an applet to local trigger matching and action execution."""
        self._bindings.append(_LocalBinding(applet=applet, matcher=matcher, executor=executor))

    @property
    def local_applets(self) -> List[Applet]:
        """Applets installed on this local engine."""
        return [binding.applet for binding in self._bindings]

    # -- event handling -------------------------------------------------------------

    def _handle_event(self, request: HttpRequest):
        self._process_event(dict(request.body or {}))
        return {"ok": True}

    def on_non_http_message(self, message: Message) -> None:
        if message.protocol == UPNP and message.payload.get("event"):
            self._process_event(dict(message.payload))

    def _process_event(self, event: Dict[str, Any]) -> None:
        if not self.online:
            return
        for binding in self._bindings:
            if not binding.applet.enabled:
                continue
            ingredients = binding.matcher(event)
            if ingredients is None:
                continue
            fields = binding.applet.action.resolve_fields(ingredients)
            binding.applet.executions += 1
            self.executions += 1
            if self.trace is not None:
                self.trace.record(
                    self.now,
                    "local_engine",
                    "local_action_executed",
                    applet_id=binding.applet.applet_id,
                )
            binding.executor(fields)


class HybridScheduler:
    """Chooses cloud vs local placement per applet (§6's hybrid scheme).

    Parameters
    ----------
    local_capable:
        The set of ``(service_slug, endpoint_slug)`` pairs that have a
        local binding available (i.e. the device lives in this home and
        the local engine can observe/drive it).
    """

    CLOUD = "cloud"
    LOCAL = "local"

    def __init__(self, local_capable: Set[Tuple[str, str]]) -> None:
        self.local_capable = set(local_capable)
        self.local_engine_online = True

    def placement(self, applet: Applet) -> str:
        """``"local"`` iff both endpoints are local-capable and the engine is up."""
        if not self.local_engine_online:
            return self.CLOUD
        trigger_ok = (applet.trigger.service_slug, applet.trigger.trigger_slug) in self.local_capable
        action_ok = (applet.action.service_slug, applet.action.action_slug) in self.local_capable
        return self.LOCAL if trigger_ok and action_ok else self.CLOUD

    def plan(self, applets: List[Applet]) -> Dict[int, str]:
        """Placement decision for every applet."""
        return {applet.applet_id: self.placement(applet) for applet in applets}

    def local_fraction(self, applets: List[Applet]) -> float:
        """Fraction of applets eligible for local execution."""
        if not applets:
            return 0.0
        plan = self.plan(applets)
        return sum(1 for where in plan.values() if where == self.LOCAL) / len(applets)

    def mark_local_engine_down(self) -> None:
        """Fail-over: route everything to the cloud until recovery."""
        self.local_engine_online = False

    def mark_local_engine_up(self) -> None:
        """Local engine recovered; local placement is allowed again."""
        self.local_engine_online = True
