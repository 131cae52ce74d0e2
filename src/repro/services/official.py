"""Official vendor partner services (Figure 1, ❻).

Each official service is wired the way the vendor's production cloud
reaches its devices or data:

* **Philips Hue** talks directly to the home Hue hub (the paper notes the
  official service uses a proprietary hub protocol; we use the hub's
  subscription + REST interface over the WAN path Lamp-Hub-Gateway-Cloud).
* **WeMo** subscribes to the switch over its UPnP eventing.
* **Alexa** consumes parsed intents pushed by the Alexa cloud, and is
  realtime-capable: it hints the engine on every new trigger event (which
  the engine honours for Alexa — the cause of A5-A7's low latency).
* **Gmail / Sheets / Drive / Weather** poll or call their web apps'
  APIs directly — §2.2's "polling approach for web apps".
* **Nest** and **SmartThings** receive device/hub push over their own
  transports.

Endpoints are declared with :mod:`repro.services.endpoints`'
vocabulary (``when``, ``project``, the channel functions); the few
shapes one endpoint uses are the named functions below.  Each web app
has one client here — the mailbox cursor handler, send-email, add-row,
upload — shared with :mod:`repro.services.custom`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional

from repro.iot.nest import NEST_PROTOCOL
from repro.iot.wemo import UPNP
from repro.net.address import Address
from repro.net.http import HttpRequest
from repro.net.message import Message
from repro.services.endpoints import (
    ActionEndpoint,
    IngredientExtractor,
    QueryEndpoint,
    TriggerEndpoint,
    field_channel,
    project,
    static_channels,
    when,
)
from repro.services.partner import PartnerService
from repro.simcore.trace import Trace

# -- shapes a single endpoint uses ---------------------------------------------------------


def has_attachments(event: Dict[str, Any], fields: Dict[str, Any]) -> bool:
    """Gmail's new-attachment matcher."""
    return bool(event.get("attachments"))


def with_attachments(base: IngredientExtractor, event: Dict[str, Any]) -> Dict[str, Any]:
    """``base``'s ingredients, then the attachment list and the first attachment."""
    ingredients = base(event)
    ingredients["attachments"] = list(event.get("attachments", []))
    ingredients["attachment"] = (event.get("attachments") or [""])[0]
    return ingredients


def rises_above(event: Dict[str, Any], fields: Dict[str, Any]) -> bool:
    """Nest: the ambient reading is above the identity's ``threshold_c``."""
    return event.get("key") == "ambient_c" and float(event.get("value", 0.0)) > float(
        fields.get("threshold_c", 1e9)
    )


def drops_below(event: Dict[str, Any], fields: Dict[str, Any]) -> bool:
    """Nest: the ambient reading is below the identity's ``threshold_c``."""
    return event.get("key") == "ambient_c" and float(event.get("value", 1e9)) < float(
        fields.get("threshold_c", -1e9)
    )


def temperature(event: Dict[str, Any]) -> Dict[str, Any]:
    """Nest's ingredients: the reading, ``None`` when absent."""
    return {"temperature_c": event.get("value")}


def device_state(event: Dict[str, Any]) -> Dict[str, Any]:
    """SmartThings' ingredients: the value is ``None`` when absent."""
    return {
        "device_id": event.get("device_id", ""),
        "key": event.get("key", ""),
        "value": event.get("value"),
    }


def new_row(event: Dict[str, Any]) -> Dict[str, Any]:
    """Sheets' new-row ingredients: the row number defaults to ``0``."""
    return {"sheet": event.get("sheet", ""), "row": event.get("row", 0)}


def row_count(counts: Dict[str, int], fields: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Sheets' row-count query, answered from the mirrored activity stream.

    The service tracks row counts from the ``row_added`` activity it
    already polls, so the engine sees a single round trip.
    """
    sheet = str(fields.get("sheet", "default"))
    return [{"sheet": sheet, "rows": counts.get(sheet, 0)}]


def current_conditions(
    conditions: Dict[str, str], location: str, fields: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Weather's current-conditions query, from the last polled change."""
    location = str(fields.get("location", location))
    return [{"location": location, "condition": conditions.get(location, "unknown")}]


# -- one client per web app (official services and Our Service) --------------------------


def on_mailbox(
    service: PartnerService, new_email: str, new_attachment: str, response
) -> None:
    """Gmail: advance the mailbox cursor and ingest each message as
    ``new_email``, and as ``new_attachment`` when it carries one."""
    if not response.ok:
        return
    for message in (response.body or {}).get("messages", []):
        service.app_cursor = max(service.app_cursor, message["msg_id"])
        service.ingest_event(new_email, message)
        if message.get("attachments"):
            service.ingest_event(new_attachment, message)


def send_email(
    service: PartnerService, gmail: Address, user: str, sender: str, fields: Dict[str, Any]
) -> Dict[str, Any]:
    """Gmail: send a message, to ``user`` unless the fields say otherwise."""
    service.post(
        gmail,
        "/api/send",
        body={
            "to": fields.get("to", user),
            "from": sender,
            "subject": fields.get("subject", ""),
            "body": fields.get("body", ""),
        },
    )
    return {"to": fields.get("to", user)}


def add_row(service: PartnerService, sheets: Address, fields: Dict[str, Any]) -> Dict[str, Any]:
    """Sheets: append ``cells`` (or the one ``row`` value) to a sheet."""
    sheet = fields.get("sheet", "default")
    cells = fields.get("cells")
    if not isinstance(cells, list):
        cells = [fields.get("row", "")]
    service.post(sheets, f"/api/sheets/{sheet}/rows", body={"cells": cells})
    return {"sheet": sheet}


def upload_file(
    service: PartnerService, drive: Address, folder: str, fields: Dict[str, Any]
) -> Dict[str, Any]:
    """Drive: upload a file, into ``folder`` unless the fields say otherwise."""
    service.post(
        drive,
        "/api/upload",
        body={
            "user": fields.get("user", "me"),
            "name": fields.get("name", "attachment"),
            "folder": fields.get("folder", folder),
        },
    )
    return {"name": fields.get("name", "attachment")}


class OfficialHueService(PartnerService):
    """Philips Hue: lighting actions (Table 3's top action service)."""

    def __init__(self, address: Address, hub: Address, trace: Optional[Trace] = None) -> None:
        super().__init__(address, slug="philips_hue", trace=trace, service_time=0.02)
        self.hub = hub
        lamp = field_channel("hue", "lamp_id")
        for slug, name, on in (("light_turned_on", "Light turned on", True),
                               ("light_turned_off", "Light turned off", False)):
            self.add_trigger(TriggerEndpoint(
                slug, name, when(on=on, narrow_by="lamp_id"), project("lamp_id"), lamp
            ))
        for slug, name, executor in (
            ("turn_on_lights", "Turn on lights", partial(self._command, on=True)),
            ("turn_off_lights", "Turn off lights", partial(self._command, on=False)),
            ("change_color", "Change color", self._change_color),
            ("blink_lights", "Blink lights", partial(self._command, effect="blink")),
            ("turn_on_color_loop", "Turn on color loop",
             partial(self._command, on=True, effect="colorloop")),
        ):
            self.add_action(ActionEndpoint(slug, name, executor, lamp))
        self.add_route("POST", "/events/hue", self._handle_hub_event)

    def connect(self) -> None:
        """Subscribe to the home hub's event push (call once nodes are wired)."""
        self.post(self.hub, "/api/subscribe", body={"callback": self.address.host})

    def _command(self, fields: Dict[str, Any], **command: Any) -> Dict[str, Any]:
        lamp_id = fields.get("lamp_id", "")
        if not lamp_id:
            raise ValueError("hue action requires a lamp_id field")
        self.request(self.hub, "PUT", f"/api/lights/{lamp_id}/state", body=command)
        return {"lamp_id": lamp_id, "command": command}

    def _change_color(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        return self._command(fields, on=True, color=fields.get("color", "white"))

    def _handle_hub_event(self, request: HttpRequest):
        body = request.body or {}
        state = body.get("state", {})
        event = {"lamp_id": body.get("device_id", ""), "on": state.get("on")}
        for slug in ("light_turned_on", "light_turned_off"):
            self.ingest_event(slug, event)
        return {"ok": True}


class OfficialWemoService(PartnerService):
    """Belkin WeMo: switch trigger/action over UPnP eventing."""

    def __init__(self, address: Address, trace: Optional[Trace] = None) -> None:
        super().__init__(address, slug="wemo", trace=trace, service_time=0.02)
        self._switches: Dict[str, Address] = {}
        switch = field_channel("wemo", "device_id")
        for slug, name, on in (("switch_activated", "Switch turned on", True),
                               ("switch_deactivated", "Switch turned off", False)):
            self.add_trigger(TriggerEndpoint(
                slug, name, when(on=on, narrow_by="device_id"), project("device_id"), switch
            ))
        for slug, name, on in (("activate_switch", "Turn switch on", True),
                               ("deactivate_switch", "Turn switch off", False)):
            self.add_action(ActionEndpoint(slug, name, partial(self._set_switch, on=on), switch))

    def connect_switch(self, device_id: str, switch: Address) -> None:
        """UPnP-subscribe to one switch."""
        self._switches[device_id] = switch
        self.send(switch, UPNP, {"type": "subscribe", "callback": self.address.host}, size_bytes=64)

    def _set_switch(self, fields: Dict[str, Any], on: bool) -> Dict[str, Any]:
        device_id = fields.get("device_id", "")
        switch = self._switches.get(device_id)
        if switch is None:
            raise ValueError(f"wemo switch {device_id!r} is not connected")
        self.send(switch, UPNP, {"type": "set_binary_state", "on": on}, size_bytes=64)
        return {"device_id": device_id, "on": on}

    def on_non_http_message(self, message: Message) -> None:
        if message.protocol != UPNP or not message.payload.get("event"):
            return
        payload = message.payload
        event = {
            "device_id": payload.get("device_id", ""),
            "on": payload.get("state", {}).get("on"),
        }
        for slug in ("switch_activated", "switch_deactivated"):
            self.ingest_event(slug, event)


class OfficialAlexaService(PartnerService):
    """Amazon Alexa: the top IoT trigger service (Table 3), realtime-capable."""

    def __init__(self, address: Address, alexa_cloud: Address, trace: Optional[Trace] = None) -> None:
        super().__init__(address, slug="amazon_alexa", trace=trace, realtime=True, service_time=0.02)
        self.alexa_cloud = alexa_cloud
        for slug, name, narrow_by, ingredients, channel in (
            ("say_phrase", "Say a specific phrase", "phrase", ("phrase",), "voice"),
            ("todo_item_added", "Item added to your to-do list", None, ("item",), "todo"),
            ("shopping_item_added", "Item added to your shopping list", None, ("item",),
             "shopping"),
            ("shopping_list_asked", "Ask what's on your shopping list", None, (), "shopping"),
            ("song_played", "New song played", None, ("song",), "music"),
        ):
            self.add_trigger(TriggerEndpoint(
                slug, name, when(intent=slug, narrow_by=narrow_by), project(*ingredients),
                static_channels(("alexa", channel)),
            ))
        self.add_route("POST", "/events/alexa", self._handle_intent)

    def connect(self) -> None:
        """Register with the Alexa cloud as an intent consumer."""
        self.post(self.alexa_cloud, "/v1/consumers", body={"callback": self.address.host})

    def _handle_intent(self, request: HttpRequest):
        intent = request.body or {}
        for slug in self.trigger_slugs:
            self.ingest_event(slug, intent)
        return {"ok": True}


class OfficialGmailService(PartnerService):
    """Gmail: new-email/new-attachment triggers (polled) + send-email action."""

    def __init__(
        self,
        address: Address,
        gmail: Address,
        user_email: str,
        poll_interval: float = 10.0,
        trace: Optional[Trace] = None,
    ) -> None:
        super().__init__(address, slug="gmail", trace=trace, service_time=0.02)
        self.gmail = gmail
        self.user_email = user_email
        self.poll_interval = poll_interval
        inbox = static_channels(("gmail_inbox", "me"))
        self.add_trigger(TriggerEndpoint(
            "new_email", "Any new email in inbox",
            ingredients=project("subject", "from", "body"), reads_channels=inbox,
        ))
        self.add_trigger(TriggerEndpoint(
            "new_attachment", "New email with attachment", has_attachments,
            partial(with_attachments, project("subject", "from")), inbox,
        ))
        self.add_action(ActionEndpoint(
            "send_email", "Send an email",
            partial(send_email, self, gmail, user_email, user_email), inbox,
        ))

    def start_polling(self) -> None:
        """Start the mailbox poll loop (§2.2's app polling); idempotent."""
        self.poll_app(self.gmail, "/api/messages", {"user": self.user_email},
                      self.poll_interval, partial(on_mailbox, self, "new_email", "new_attachment"))


class OfficialSheetsService(PartnerService):
    """Google Sheets: add-row action + new-row trigger."""

    def __init__(
        self,
        address: Address,
        sheets: Address,
        poll_interval: float = 15.0,
        trace: Optional[Trace] = None,
    ) -> None:
        super().__init__(address, slug="google_sheets", trace=trace, service_time=0.02)
        self.sheets = sheets
        self.poll_interval = poll_interval
        self._row_counts: Dict[str, int] = {}
        sheet = field_channel("sheets", "sheet")
        self.add_trigger(TriggerEndpoint(
            "new_row", "New row added to spreadsheet", when(narrow_by="sheet"), new_row, sheet
        ))
        self.add_action(ActionEndpoint(
            "add_row", "Add row to spreadsheet", partial(add_row, self, sheets), sheet
        ))
        self.add_query(QueryEndpoint(
            "row_count", "Number of rows in spreadsheet", partial(row_count, self._row_counts),
            sheet,
        ))

    def start_polling(self) -> None:
        """Start the spreadsheet-activity poll loop; idempotent.  The sheets
        app's activity log is global: one cursor covers every sheet."""
        self.poll_app(self.sheets, "/api/activity", {}, self.poll_interval, self._on_activity)

    def _on_activity(self, response) -> None:
        if not response.ok:
            return
        for record in (response.body or {}).get("activity", []):
            self.app_cursor = max(self.app_cursor, record["id"])
            if record.get("activity") == "row_added":
                sheet = str(record.get("sheet", "default"))
                self._row_counts[sheet] = max(
                    self._row_counts.get(sheet, 0), int(record.get("row", 0))
                )
                self.ingest_event("new_row", record)


class OfficialDriveService(PartnerService):
    """Google Drive: upload-file action (applet A4's sink)."""

    def __init__(self, address: Address, drive: Address, trace: Optional[Trace] = None) -> None:
        super().__init__(address, slug="google_drive", trace=trace, service_time=0.02)
        self.drive = drive
        self.add_action(ActionEndpoint(
            "upload_file", "Upload file from URL", partial(upload_file, self, drive, "/ifttt"),
            field_channel("drive", "user"),
        ))


class OfficialNestService(PartnerService):
    """Nest Thermostat: temperature triggers + set-temperature action."""

    def __init__(self, address: Address, trace: Optional[Trace] = None) -> None:
        super().__init__(address, slug="nest_thermostat", trace=trace, service_time=0.02)
        self._thermostats: Dict[str, Address] = {}
        nest = field_channel("nest", "device_id")
        self.add_trigger(TriggerEndpoint(
            "temperature_rises_above", "Temperature rises above", rises_above, temperature, nest
        ))
        self.add_trigger(TriggerEndpoint(
            "temperature_drops_below", "Temperature drops below", drops_below, temperature, nest
        ))
        self.add_action(ActionEndpoint(
            "set_temperature", "Set temperature", self._set_temperature, nest
        ))

    def connect_thermostat(self, device_id: str, thermostat: Address) -> None:
        """Track one thermostat's cloud session (the device pushes to us)."""
        self._thermostats[device_id] = thermostat

    def _set_temperature(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        device_id = fields.get("device_id", "")
        thermostat = self._thermostats.get(device_id)
        if thermostat is None:
            raise ValueError(f"nest thermostat {device_id!r} is not connected")
        self.send(
            thermostat,
            NEST_PROTOCOL,
            {"type": "set_target", "target_c": float(fields.get("target_c", 21.0))},
            size_bytes=64,
        )
        return {"device_id": device_id, "target_c": fields.get("target_c")}

    def on_non_http_message(self, message: Message) -> None:
        if message.protocol != NEST_PROTOCOL or not message.payload.get("event"):
            return
        payload = message.payload
        data = payload.get("data", {})
        event = {
            "device_id": payload.get("device_id", ""),
            "key": data.get("key"),
            "value": data.get("value"),
        }
        for slug in ("temperature_rises_above", "temperature_drops_below"):
            self.ingest_event(slug, event)


class OfficialSmartThingsService(PartnerService):
    """SmartThings: generic hub device triggers and control actions."""

    def __init__(self, address: Address, hub: Address, trace: Optional[Trace] = None) -> None:
        super().__init__(address, slug="smartthings", trace=trace, service_time=0.02)
        self.hub = hub
        device = field_channel("smartthings", "device_id")
        self.add_trigger(TriggerEndpoint(
            "device_state_changed", "Any device state changed", when(narrow_by="device_id"),
            device_state, device,
        ))
        self.add_action(ActionEndpoint("control_device", "Control a device", self._control, device))
        self.add_route("POST", "/events/smartthings", self._handle_hub_event)

    def connect(self) -> None:
        """Subscribe to the hub's event push."""
        self.post(self.hub, "/api/subscribe", body={"callback": self.address.host})

    def _control(self, fields: Dict[str, Any]) -> Dict[str, Any]:
        device_id = fields.get("device_id", "")
        self.post(self.hub, f"/api/devices/{device_id}/command", body={"value": fields.get("value")})
        return {"device_id": device_id}

    def _handle_hub_event(self, request: HttpRequest):
        body = request.body or {}
        data = body.get("data", {})
        event = {
            "device_id": body.get("device_id", ""),
            "key": data.get("key", ""),
            "value": data.get("value"),
        }
        self.ingest_event("device_state_changed", event)
        return {"ok": True}


class OfficialWeatherService(PartnerService):
    """Weather: condition-change triggers, polled from the weather app."""

    def __init__(
        self,
        address: Address,
        weather: Address,
        location: str = "home",
        poll_interval: float = 60.0,
        trace: Optional[Trace] = None,
    ) -> None:
        super().__init__(address, slug="weather", trace=trace, service_time=0.02)
        self.weather = weather
        self.location = location
        self.poll_interval = poll_interval
        self._last_condition: Dict[str, str] = {}
        conditions = static_channels(("weather", "conditions"))
        self.add_trigger(TriggerEndpoint(
            "rain_starts", "It starts raining", when(condition="rain"), project("location"),
            conditions,
        ))
        self.add_trigger(TriggerEndpoint(
            "condition_changes", "Current condition changes",
            ingredients=project("location", "condition"), reads_channels=conditions,
        ))
        self.add_query(QueryEndpoint(
            "current_conditions", "Current weather conditions",
            partial(current_conditions, self._last_condition, location), conditions,
        ))

    def start_polling(self) -> None:
        """Start the weather-change poll loop; idempotent."""
        self.poll_app(self.weather, "/api/changes", {"location": self.location},
                      self.poll_interval, self._on_changes)

    def _on_changes(self, response) -> None:
        if not response.ok:
            return
        for record in (response.body or {}).get("changes", []):
            self.app_cursor = max(self.app_cursor, record["id"])
            self._last_condition[str(record.get("location", ""))] = str(
                record.get("condition", "unknown")
            )
            for slug in ("rain_starts", "condition_changes"):
                self.ingest_event(slug, record)
