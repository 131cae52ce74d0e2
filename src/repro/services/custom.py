""""Our Service" (Figure 1, ❺) — the paper's self-implemented partner service.

The authors obtained a service-provider testing account and published
their own service so they could observe engine↔service interactions from
the provider side.  It reaches home IoT devices through the local proxy
(the *push* approach: the proxy forwards device events as they happen and
relays action commands) and web apps by *polling* their APIs — matching
§2.2 exactly.

For the substitution experiments, one :class:`CustomService` can host the
triggers and actions of every device the testbed owns: E1 swaps it in as
the trigger service, E2 as both trigger and action service, and the
"host Alexa ourselves" experiment registers it as an Alexa-cloud consumer
(without the official service's realtime privilege at the engine, so its
hints are ignored — reproducing the observation that Alexa-via-our-service
becomes slow).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, Optional

from repro.net.address import Address
from repro.net.http import HttpRequest
from repro.services.endpoints import (
    ActionEndpoint,
    TriggerEndpoint,
    field_channel,
    project,
    static_channels,
    when,
)
from repro.services.official import (
    add_row,
    has_attachments,
    on_mailbox,
    send_email,
    upload_file,
    with_attachments,
)
from repro.services.partner import PartnerService
from repro.simcore.trace import Trace


class CustomService(PartnerService):
    """The testbed's own partner service.

    Parameters
    ----------
    address:
        The service server's address (a lab machine in the paper).
    proxy:
        The home local proxy used to reach LAN devices.
    slug:
        Platform identity; defaults to ``our_service``.
    realtime:
        Whether to send realtime hints (the service *can*; whether the
        engine honours them is the engine's allowlist decision).
    """

    def __init__(
        self,
        address: Address,
        proxy: Optional[Address] = None,
        slug: str = "our_service",
        realtime: bool = False,
        trace: Optional[Trace] = None,
    ) -> None:
        super().__init__(address, slug=slug, trace=trace, realtime=realtime, service_time=0.005)
        self.proxy = proxy
        self.add_route("POST", "/proxy/event", self._handle_proxy_event)
        self.add_route("POST", "/events/alexa", self._handle_alexa_intent)
        self._declare_iot_endpoints()

    # -- endpoint declarations -------------------------------------------------------

    def _declare_iot_endpoints(self) -> None:
        wemo, hue = field_channel("wemo", "device_id"), field_channel("hue", "lamp_id")
        for slug, name, kind, on, ingredients, channel in (
            ("wemo_activated", "WeMo switch turned on (via proxy)", "wemo_switch", True,
             project("device_id"), wemo),
            ("wemo_deactivated", "WeMo switch turned off (via proxy)", "wemo_switch", False,
             project("device_id"), wemo),
            ("hue_light_on", "Hue light turned on (via proxy)", "hue_lamp", True,
             project(lamp_id="device_id"), hue),
        ):
            self.add_trigger(TriggerEndpoint(slug, name, when(kind=kind, on=on), ingredients, channel))
        for slug, name, executor, channel in (
            ("turn_on_hue", "Turn on Hue light (via proxy)", partial(self._proxy_hue, on=True), hue),
            ("turn_off_hue", "Turn off Hue light (via proxy)", partial(self._proxy_hue, on=False),
             hue),
            ("blink_hue", "Blink Hue light (via proxy)", partial(self._proxy_hue, effect="blink"),
             hue),
            ("activate_wemo", "Turn WeMo switch on (via proxy)",
             partial(self._proxy_wemo, on=True), wemo),
        ):
            self.add_action(ActionEndpoint(slug, name, executor, channel))
        # Alexa triggers (used when this service "hosts" Alexa, §4).
        self.add_trigger(TriggerEndpoint(
            "alexa_phrase", "Alexa phrase said (hosted)",
            when(intent="say_phrase", narrow_by="phrase"), project("phrase"),
            static_channels(("alexa", "voice")),
        ))
        self.add_trigger(TriggerEndpoint(
            "alexa_song_played", "Alexa song played (hosted)", when(intent="song_played"),
            project("song"), static_channels(("alexa", "music")),
        ))

    # -- web-app wiring ------------------------------------------------------------------

    def connect_gmail(self, gmail: Address, user_email: str, poll_interval: float = 10.0) -> None:
        """Wire Gmail: declares mail trigger/action endpoints and a poll loop."""
        inbox = static_channels(("gmail_inbox", "me"))
        self.add_trigger(TriggerEndpoint(
            "gmail_new_email", "Any new email (our service)",
            ingredients=project("subject", "from"), reads_channels=inbox,
        ))
        self.add_trigger(TriggerEndpoint(
            "gmail_new_attachment", "New email with attachment (our service)", has_attachments,
            partial(with_attachments, project("subject")), inbox,
        ))
        self.add_action(ActionEndpoint(
            "send_email", "Send an email (our service)",
            partial(send_email, self, gmail, user_email, user_email or "our-service"), inbox,
        ))
        self.poll_app(gmail, "/api/messages", {"user": user_email}, poll_interval,
                      partial(on_mailbox, self, "gmail_new_email", "gmail_new_attachment"))

    def connect_sheets(self, sheets: Address) -> None:
        """Wire Google Sheets: declares the add-row action."""
        self.add_action(ActionEndpoint(
            "add_row", "Add row to spreadsheet (our service)", partial(add_row, self, sheets),
            field_channel("sheets", "sheet"),
        ))

    def connect_drive(self, drive: Address) -> None:
        """Wire Google Drive: declares the upload-file action."""
        self.add_action(ActionEndpoint(
            "upload_file", "Upload file (our service)",
            partial(upload_file, self, drive, "/our-service"), field_channel("drive", "user"),
        ))

    def host_alexa(self, alexa_cloud: Address) -> None:
        """Register as an Alexa-cloud intent consumer (the hosted-Alexa test)."""
        self.post(alexa_cloud, "/v1/consumers", body={"callback": self.address.host})

    # -- upstream event handling --------------------------------------------------------------

    def _handle_proxy_event(self, request: HttpRequest):
        body = request.body or {}
        event = {
            "kind": body.get("kind", ""),
            "device_id": body.get("device_id", ""),
            "on": body.get("state", {}).get("on"),
        }
        if self.trace is not None:
            self.trace.record(
                self.now,
                self.trace_source,
                "service_proxy_event",
                device_id=event["device_id"],
                device_kind=event["kind"],
            )
        for slug in ("wemo_activated", "wemo_deactivated", "hue_light_on"):
            self.ingest_event(slug, event)
        return {"confirmed": True}

    def _handle_alexa_intent(self, request: HttpRequest):
        intent = request.body or {}
        for slug in ("alexa_phrase", "alexa_song_played"):
            self.ingest_event(slug, intent)
        return {"ok": True}

    # -- action executors -----------------------------------------------------------------------

    def _require_proxy(self) -> Address:
        if self.proxy is None:
            raise RuntimeError(f"service {self.slug} has no local proxy configured")
        return self.proxy

    def _proxy_hue(self, fields: Dict[str, Any], **command: Any) -> Dict[str, Any]:
        lamp_id = fields.get("lamp_id", "")
        if "color" in fields:
            command["color"] = fields["color"]
        self.post(
            self._require_proxy(),
            "/proxy/command",
            body={"target": "hue", "lamp_id": lamp_id, "command": command},
        )
        return {"lamp_id": lamp_id}

    def _proxy_wemo(self, fields: Dict[str, Any], on: bool) -> Dict[str, Any]:
        device_id = fields.get("device_id", "")
        self.post(
            self._require_proxy(),
            "/proxy/command",
            body={"target": "wemo", "device_id": device_id, "on": on},
        )
        return {"device_id": device_id, "on": on}
