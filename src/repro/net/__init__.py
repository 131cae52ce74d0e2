"""Simulated network substrate.

Models the communication paths of the paper's testbed (Figure 1): home-LAN
links between IoT devices, their hubs, and the local proxy; WAN paths
between the home gateway, partner-service servers, web applications, and
the IFTTT engine.  Messages are routed hop-by-hop over links whose
per-hop delay comes from calibrated latency models, and an HTTP-like
request/response layer on top carries the IFTTT partner-service protocol.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "address": ("Address",),
    "message": ("Message",),
    "latency": (
        "LatencyModel", "FixedLatency", "LognormalLatency", "lan_latency",
        "wan_latency", "cloud_internal_latency",
    ),
    "link": ("Link",),
    "node": ("Node",),
    "network": ("Network", "RoutingError"),
    "http": ("HttpRequest", "HttpResponse", "HttpNode", "HttpError"),
})
