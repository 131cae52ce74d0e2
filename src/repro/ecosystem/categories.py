"""The 14 service categories of Table 1, with their published marginals.

The percentages below are transcribed from Table 1 of the paper: the
share of services in each category, and the category's share of trigger
and action add count (the total add count of applets whose trigger /
action belongs to a service of the category).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Category:
    """One Table 1 service category."""

    index: int
    name: str
    short: str
    pct_services: float
    trigger_ac_pct: float
    action_ac_pct: float
    iot: bool
    example_keywords: Tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.index}. {self.name}"


CATEGORIES: List[Category] = [
    Category(1, "Smarthome devices", "smarthome", 37.7, 6.4, 7.9, True,
             ("light", "camera", "thermostat", "lock", "switch", "plug", "doorbell", "garage")),
    Category(2, "Smarthome hub / integration solution", "hub", 9.3, 0.8, 1.0, True,
             ("hub", "smartthings", "home control", "integration", "bridge")),
    Category(3, "Wearables", "wearables", 2.7, 1.6, 1.0, True,
             ("watch", "band", "tracker", "fitness", "wearable", "sleep")),
    Category(4, "Connected cars", "cars", 2.0, 0.5, 0.1, True,
             ("car", "vehicle", "drive", "auto", "garage door opener")),
    Category(5, "Smartphones", "smartphone", 3.7, 11.0, 13.8, False,
             ("phone", "android", "ios", "battery", "nfc", "wallpaper", "ringtone")),
    Category(6, "Cloud storage", "storage", 2.5, 0.6, 13.6, False,
             ("drive", "dropbox", "storage", "file", "backup")),
    Category(7, "Online service and content providers", "online", 8.8, 20.0, 1.9, False,
             ("weather", "news", "video", "stock", "sports", "deals", "space")),
    Category(8, "RSS feeds, online recommendation", "rss", 2.2, 9.8, 0.1, False,
             ("rss", "feed", "recommendation", "digest")),
    Category(9, "Personal data & schedule manager", "personal", 10.3, 11.2, 27.4, False,
             ("note", "reminder", "todo", "calendar", "task", "list", "journal")),
    Category(10, "Social networking, blogging, photo/video sharing", "social", 5.6, 17.7, 17.3, False,
             ("social", "photo", "blog", "share", "post", "tweet", "video sharing")),
    Category(11, "SMS, instant messaging, team collaboration, VoIP", "messaging", 4.7, 0.8, 3.1, False,
             ("sms", "message", "chat", "voip", "call", "team")),
    Category(12, "Time and location", "timeloc", 1.2, 14.1, 0.0, False,
             ("time", "date", "location", "geofence", "sunrise")),
    Category(13, "Email", "email", 1.0, 4.4, 12.8, False,
             ("email", "mail", "inbox")),
    Category(14, "Other", "other", 8.3, 1.3, 0.2, False,
             ("misc", "tool", "utility")),
]


def iot_categories() -> List[Category]:
    """Categories 1-4: the IoT-related half of the ecosystem."""
    return [cat for cat in CATEGORIES if cat.iot]


def iot_service_share() -> float:
    """Published share of services that are IoT-related (51.7%)."""
    return sum(cat.pct_services for cat in iot_categories())


def trigger_addcount_weights() -> List[float]:
    """Per-category trigger add-count weights."""
    return [cat.trigger_ac_pct for cat in CATEGORIES]


def action_addcount_weights() -> List[float]:
    """Per-category action add-count weights."""
    return [cat.action_ac_pct for cat in CATEGORIES]
