"""IFTTT partner-service framework (Figure 1, ❺ and ❻).

A *partner service* abstracts a device vendor's or web app's
functionality behind IFTTT's uniform HTTP interface: trigger endpoints
(``POST /ifttt/v1/triggers/<slug>``) the engine polls, and action
endpoints (``POST /ifttt/v1/actions/<slug>``) the engine invokes.  This
package provides the generic framework — endpoint declarations, per-
trigger-identity event buffering, authentication, realtime hints — plus
concrete services:

* :mod:`repro.services.official` — the official vendor services (Hue,
  WeMo, Alexa, SmartThings, Nest, Gmail, Drive, Sheets, Weather), wired
  the way each vendor's cloud actually reaches its devices.
* :mod:`repro.services.custom` — "Our Service" ❺: the paper's
  self-implemented partner service that reaches home IoT devices through
  the local proxy (push) and web apps by polling, used for experiments
  E1/E2/E3.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "buffer": ("TriggerEvent", "TriggerBuffer"),
    "endpoints": ("TriggerEndpoint", "ActionEndpoint", "QueryEndpoint", "Channel"),
    "partner": ("BatchActionRequest", "PartnerService"),
    "custom": ("CustomService",),
    "official": (
        "OfficialHueService", "OfficialWemoService", "OfficialAlexaService", "OfficialGmailService",
        "OfficialSheetsService", "OfficialDriveService", "OfficialNestService",
        "OfficialSmartThingsService", "OfficialWeatherService",
    ),
})
