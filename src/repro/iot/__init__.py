"""Smart-home device models (Figure 1 of the paper, items ❶-❹).

The paper's testbed used four off-the-shelf devices — Philips Hue lights,
a WeMo light switch, an Amazon Echo Dot, and a Samsung SmartThings hub —
plus a home gateway router and a custom local proxy bridging LAN-only
devices to the authors' partner-service server.  This package models each
of them as network nodes speaking the corresponding protocol shape:

* Hue lamp ↔ Hue hub over a Zigbee-like link; the hub exposes the Hue
  RESTful Web API on the LAN (:mod:`repro.iot.hue`).
* WeMo switch controlled over UPnP-style subscribe/notify
  (:mod:`repro.iot.wemo`).
* Echo Dot streaming voice to the Alexa cloud (:mod:`repro.iot.alexa`).
* SmartThings hub multiplexing generic Z-Wave-ish devices
  (:mod:`repro.iot.smartthings`).
* Nest thermostat reporting directly to its cloud (:mod:`repro.iot.nest`).
* The local proxy (❸) and gateway router (❹) of the testbed
  (:mod:`repro.iot.proxy`, :mod:`repro.iot.gateway`).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "device": ("Device", "DeviceError"),
    "hue": ("HueLamp", "HueHub"),
    "wemo": ("WemoSwitch",),
    "alexa": ("EchoDevice", "AlexaCloud"),
    "smartthings": ("SmartThingsHub", "GenericDevice"),
    "nest": ("NestThermostat",),
    "proxy": ("LocalProxy",),
    "gateway": ("GatewayRouter",),
    "registry": ("DeviceType", "DEVICE_CATALOG"),
})
