"""Anchor services: the real top-of-market services of Table 3.

The generator seeds the corpus with the services the paper names — the
top IoT trigger/action services (Alexa, Philips Hue, Fitbit, Nest,
Google Assistant, UP by Jawbone, Nest Protect, Automatic, LIFX, Harmony
Hub, WeMo Smart Plug, Android smartwatch) plus the signature triggers and
actions Table 3 lists — and steers popular applets onto them, so the §3
top-k analysis reproduces the table.

``trigger_weight`` / ``action_weight`` encode Table 3's add counts in
units of 0.1M (e.g. Alexa's 1.2M trigger adds → 12); they control how
often each anchor is chosen as the trigger/action service within its
category.  The asymmetry matters: Philips Hue is the top *action*
service but barely appears as a trigger, and vice versa for Alexa.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class AnchorService:
    """One real service with its Table 3 signature endpoints."""

    name: str
    category_index: int
    triggers: Tuple[str, ...] = ()
    actions: Tuple[str, ...] = ()
    trigger_weight: float = 0.0
    action_weight: float = 0.0


ANCHOR_SERVICES: List[AnchorService] = [
    AnchorService(
        "Amazon Alexa", 1,
        triggers=(
            "Say a phrase",
            "Item added to todo list",
            "Ask what's on shopping list",
            "Item added to shopping list",
            "New song played",
        ),
        trigger_weight=12.0,
    ),
    AnchorService(
        "Philips Hue", 1,
        triggers=("Light turned on",),
        actions=("Turn on lights", "Change color", "Blink lights", "Turn on color loop"),
        trigger_weight=0.2, action_weight=12.0,
    ),
    AnchorService(
        "Fitbit", 3,
        triggers=("Daily activity summary", "New sleep logged", "Goal achieved"),
        trigger_weight=2.0, action_weight=0.2,
    ),
    AnchorService(
        "Nest Thermostat", 1,
        triggers=("Temperature rises above", "Temperature drops below"),
        actions=("Set temperature",),
        trigger_weight=1.0, action_weight=2.0,
    ),
    AnchorService(
        "Google Assistant", 1,
        triggers=("Say a phrase", "Say a phrase with a text ingredient"),
        trigger_weight=1.0,
    ),
    AnchorService(
        "UP by Jawbone", 3,
        triggers=("New sleep logged", "New workout logged"),
        actions=("Log a mood", "Set a reminder"),
        trigger_weight=1.0, action_weight=0.9,
    ),
    AnchorService(
        "Nest Protect", 1,
        triggers=("Smoke alarm emergency", "Carbon monoxide warning"),
        trigger_weight=0.7,
    ),
    AnchorService(
        "Automatic", 4,
        triggers=("Ignition turned on", "Low fuel"),
        trigger_weight=0.6,
    ),
    AnchorService(
        "LIFX", 1,
        actions=("Turn lights on", "Breathe lights", "Turn lights off"),
        trigger_weight=0.1, action_weight=2.0,
    ),
    AnchorService(
        "Harmony Hub", 2,
        actions=("Start activity", "End activity"),
        trigger_weight=0.1, action_weight=2.0,
    ),
    AnchorService(
        "WeMo Smart Plug", 1,
        triggers=("Switch turned on",),
        actions=("Turn on", "Turn off"),
        trigger_weight=0.4, action_weight=1.0,
    ),
    AnchorService(
        "Android Smartwatch", 3,
        actions=("Send a notification",),
        trigger_weight=0.1, action_weight=1.0,
    ),
    # Non-IoT anchors give the non-IoT categories recognizable leaders.
    AnchorService(
        "Weather Underground", 7,
        triggers=("It starts raining", "Sunrise", "Tomorrow's forecast"),
        trigger_weight=3.0,
    ),
    AnchorService(
        "Gmail", 13,
        triggers=("Any new email", "New attachment"),
        actions=("Send an email",),
        trigger_weight=3.0, action_weight=3.0,
    ),
    AnchorService(
        "Google Drive", 6,
        actions=("Upload file from URL", "Append to document"),
        trigger_weight=0.2, action_weight=3.0,
    ),
    AnchorService(
        "Google Sheets", 9,
        triggers=("New row added",),
        actions=("Add row to spreadsheet",),
        trigger_weight=1.0, action_weight=4.0,
    ),
    AnchorService(
        "Facebook", 10,
        triggers=("New status by you", "You are tagged in a photo"),
        actions=("Create a status", "Upload a photo"),
        trigger_weight=4.0, action_weight=3.0,
    ),
    AnchorService(
        "Twitter", 10,
        triggers=("New tweet by you", "New follower"),
        actions=("Post a tweet",),
        trigger_weight=4.0, action_weight=3.0,
    ),
    AnchorService("Instagram", 10, triggers=("Any new photo by you",), trigger_weight=3.0),
    AnchorService("NYTimes", 7, triggers=("New article in section",), trigger_weight=1.0),
    AnchorService(
        "YouTube", 7,
        triggers=("New liked video", "New video by channel"),
        trigger_weight=1.5,
    ),
    AnchorService(
        "Samsung SmartThings", 2,
        triggers=("Any device event",),
        actions=("Control a device",),
        trigger_weight=1.0, action_weight=1.0,
    ),
    AnchorService("Egg Minder", 1, triggers=("Eggs running low",), trigger_weight=0.05),
    AnchorService("NASA", 7, triggers=("New picture of the day",), trigger_weight=1.0),
]
