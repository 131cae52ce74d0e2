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

from typing import Any, Dict, Optional

from repro.net.address import Address
from repro.net.http import HttpRequest
from repro.services.endpoints import (
    ActionEndpoint,
    TriggerEndpoint,
    field_channel,
    static_channels,
)
from repro.services.partner import PartnerService
from repro.simcore.process import Process, Timeout
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
        self._gmail: Optional[Address] = None
        self._gmail_user: Optional[str] = None
        self._sheets: Optional[Address] = None
        self._drive: Optional[Address] = None
        self._last_msg_id = 0
        self._poll_processes: Dict[str, Process] = {}
        self.add_route("POST", "/proxy/event", self._handle_proxy_event)
        self.add_route("POST", "/events/alexa", self._handle_alexa_intent)
        self._declare_iot_endpoints()

    # -- endpoint declarations -------------------------------------------------------

    def _declare_iot_endpoints(self) -> None:
        self.add_trigger(
            TriggerEndpoint(
                slug="wemo_activated",
                name="WeMo switch turned on (via proxy)",
                matcher=lambda event, fields: event.get("kind") == "wemo_switch"
                and event.get("on") is True,
                ingredients=lambda event: {"device_id": event.get("device_id", "")},
                reads_channels=field_channel("wemo", "device_id"),
            )
        )
        self.add_trigger(
            TriggerEndpoint(
                slug="wemo_deactivated",
                name="WeMo switch turned off (via proxy)",
                matcher=lambda event, fields: event.get("kind") == "wemo_switch"
                and event.get("on") is False,
                ingredients=lambda event: {"device_id": event.get("device_id", "")},
                reads_channels=field_channel("wemo", "device_id"),
            )
        )
        self.add_trigger(
            TriggerEndpoint(
                slug="hue_light_on",
                name="Hue light turned on (via proxy)",
                matcher=lambda event, fields: event.get("kind") == "hue_lamp"
                and event.get("on") is True,
                ingredients=lambda event: {"lamp_id": event.get("device_id", "")},
                reads_channels=field_channel("hue", "lamp_id"),
            )
        )
        self.add_action(
            ActionEndpoint(
                slug="turn_on_hue",
                name="Turn on Hue light (via proxy)",
                executor=lambda fields: self._proxy_hue(fields, {"on": True}),
                writes_channels=field_channel("hue", "lamp_id"),
            )
        )
        self.add_action(
            ActionEndpoint(
                slug="turn_off_hue",
                name="Turn off Hue light (via proxy)",
                executor=lambda fields: self._proxy_hue(fields, {"on": False}),
                writes_channels=field_channel("hue", "lamp_id"),
            )
        )
        self.add_action(
            ActionEndpoint(
                slug="blink_hue",
                name="Blink Hue light (via proxy)",
                executor=lambda fields: self._proxy_hue(fields, {"effect": "blink"}),
                writes_channels=field_channel("hue", "lamp_id"),
            )
        )
        self.add_action(
            ActionEndpoint(
                slug="activate_wemo",
                name="Turn WeMo switch on (via proxy)",
                executor=lambda fields: self._proxy_wemo(fields, True),
                writes_channels=field_channel("wemo", "device_id"),
            )
        )
        # Alexa triggers (used when this service "hosts" Alexa, §4).
        self.add_trigger(
            TriggerEndpoint(
                slug="alexa_phrase",
                name="Alexa phrase said (hosted)",
                matcher=lambda event, fields: event.get("intent") == "say_phrase"
                and (not fields.get("phrase") or fields["phrase"] == event.get("phrase")),
                ingredients=lambda event: {"phrase": event.get("phrase", "")},
                reads_channels=static_channels(("alexa", "voice")),
            )
        )
        self.add_trigger(
            TriggerEndpoint(
                slug="alexa_song_played",
                name="Alexa song played (hosted)",
                matcher=lambda event, fields: event.get("intent") == "song_played",
                ingredients=lambda event: {"song": event.get("song", "")},
                reads_channels=static_channels(("alexa", "music")),
            )
        )

    # -- web-app wiring ------------------------------------------------------------------

    def connect_gmail(self, gmail: Address, user_email: str, poll_interval: float = 10.0) -> None:
        """Wire Gmail: declares mail trigger/action endpoints and a poll loop."""
        self._gmail = gmail
        self._gmail_user = user_email
        self.add_trigger(
            TriggerEndpoint(
                slug="gmail_new_email",
                name="Any new email (our service)",
                ingredients=lambda event: {
                    "subject": event.get("subject", ""),
                    "from": event.get("from", ""),
                },
                reads_channels=static_channels(("gmail_inbox", "me")),
            )
        )
        self.add_trigger(
            TriggerEndpoint(
                slug="gmail_new_attachment",
                name="New email with attachment (our service)",
                matcher=lambda event, fields: bool(event.get("attachments")),
                ingredients=lambda event: {
                    "subject": event.get("subject", ""),
                    "attachments": list(event.get("attachments", [])),
                    "attachment": (event.get("attachments") or [""])[0],
                },
                reads_channels=static_channels(("gmail_inbox", "me")),
            )
        )
        self.add_action(
            ActionEndpoint(
                slug="send_email",
                name="Send an email (our service)",
                executor=self._send_email,
                writes_channels=static_channels(("gmail_inbox", "me")),
            )
        )

        def loop():
            while True:
                self.get(
                    gmail,
                    "/api/messages",
                    body={"user": user_email, "since_id": self._last_msg_id},
                    on_response=self._on_mailbox,
                )
                yield Timeout(poll_interval)

        self._poll_processes["gmail"] = Process(self.sim, loop(), name=f"{self.slug}.mailpoll")

    def connect_sheets(self, sheets: Address) -> None:
        """Wire Google Sheets: declares the add-row action."""
        self._sheets = sheets
        self.add_action(
            ActionEndpoint(
                slug="add_row",
                name="Add row to spreadsheet (our service)",
                executor=self._add_row,
                writes_channels=field_channel("sheets", "sheet"),
            )
        )

    def connect_drive(self, drive: Address) -> None:
        """Wire Google Drive: declares the upload-file action."""
        self._drive = drive
        self.add_action(
            ActionEndpoint(
                slug="upload_file",
                name="Upload file (our service)",
                executor=self._upload_file,
                writes_channels=field_channel("drive", "user"),
            )
        )

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

    def _on_mailbox(self, response) -> None:
        if not response.ok:
            return
        for message in (response.body or {}).get("messages", []):
            self._last_msg_id = max(self._last_msg_id, message["msg_id"])
            self.ingest_event("gmail_new_email", message)
            if message.get("attachments"):
                self.ingest_event("gmail_new_attachment", message)

    # -- action executors -----------------------------------------------------------------------

    def _require_proxy(self) -> Address:
        if self.proxy is None:
            raise RuntimeError(f"service {self.slug} has no local proxy configured")
        return self.proxy

    def _proxy_hue(self, fields: Dict[str, Any], command: Dict[str, Any]) -> Dict[str, Any]:
        lamp_id = fields.get("lamp_id", "")
        merged = dict(command)
        if "color" in fields:
            merged["color"] = fields["color"]
        self.post(
            self._require_proxy(),
            "/proxy/command",
            body={"target": "hue", "lamp_id": lamp_id, "command": merged},
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

    def _send_email(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        if self._gmail is None:
            raise RuntimeError("gmail is not connected to this service")
        self.post(
            self._gmail,
            "/api/send",
            body={
                "to": fields.get("to", self._gmail_user),
                "from": self._gmail_user or "our-service",
                "subject": fields.get("subject", ""),
                "body": fields.get("body", ""),
            },
        )
        return {"to": fields.get("to", self._gmail_user)}

    def _add_row(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        if self._sheets is None:
            raise RuntimeError("sheets is not connected to this service")
        sheet = fields.get("sheet", "default")
        cells = fields.get("cells")
        if not isinstance(cells, list):
            cells = [fields.get("row", "")]
        self.post(self._sheets, f"/api/sheets/{sheet}/rows", body={"cells": cells})
        return {"sheet": sheet}

    def _upload_file(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        if self._drive is None:
            raise RuntimeError("drive is not connected to this service")
        self.post(
            self._drive,
            "/api/upload",
            body={
                "user": fields.get("user", "me"),
                "name": fields.get("name", "attachment"),
                "folder": fields.get("folder", "/our-service"),
            },
        )
        return {"name": fields.get("name", "attachment")}
