"""Catalog of consumer-IoT device types.

§1 of the paper observes "more than 20 types of smart home devices such as
light, security camera, thermostat, A/C, washing machine, sprinkler,
doorbell, garage door, lock, refrigerator, and even smart egg tray".  This
catalog enumerates those types with their ecosystem category, so that both
the SmartThings generic-device layer and the ecosystem generator draw from
one authoritative list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class DeviceType:
    """One consumer-IoT device type.

    Attributes
    ----------
    slug:
        Stable identifier, e.g. ``"light"``.
    label:
        Human-readable name.
    category:
        Ecosystem service category index (Table 1 numbering): 1 for
        specific smart-home devices, 2 for hubs, 3 for wearables, 4 for
        connected cars.
    typical_triggers, typical_actions:
        Representative trigger/action verbs the type exposes — §3.2 notes
        most IoT interfaces are simple, so these lists are short.
    """

    slug: str
    label: str
    category: int
    typical_triggers: Tuple[str, ...]
    typical_actions: Tuple[str, ...]


DEVICE_CATALOG: List[DeviceType] = [
    DeviceType("light", "Smart light", 1, ("turned_on", "turned_off"), ("turn_on", "turn_off", "change_color", "blink")),
    DeviceType("camera", "Security camera", 1, ("motion_detected", "person_detected"), ("start_recording", "stop_recording")),
    DeviceType("thermostat", "Thermostat", 1, ("temperature_rises", "temperature_drops", "set_to_away"), ("set_temperature",)),
    DeviceType("ac", "Air conditioner", 1, ("turned_on",), ("turn_on", "turn_off", "set_mode")),
    DeviceType("washer", "Washing machine", 1, ("cycle_finished",), ("start_cycle",)),
    DeviceType("sprinkler", "Sprinkler", 1, ("watering_started",), ("start_watering", "stop_watering")),
    DeviceType("doorbell", "Smart doorbell", 1, ("rang", "motion_detected"), ()),
    DeviceType("garage_door", "Garage door", 1, ("opened", "closed"), ("open", "close")),
    DeviceType("lock", "Smart lock", 1, ("locked", "unlocked"), ("lock", "unlock")),
    DeviceType("fridge", "Refrigerator", 1, ("door_left_open",), ("set_temperature",)),
    DeviceType("egg_tray", "Smart egg tray", 1, ("eggs_running_low",), ()),
    DeviceType("smart_plug", "Smart plug", 1, ("turned_on", "turned_off"), ("turn_on", "turn_off")),
    DeviceType("switch", "Smart switch", 1, ("activated", "deactivated"), ("activate", "deactivate")),
    DeviceType("speaker", "Smart speaker", 1, ("phrase_said", "item_added_to_list", "song_played"), ()),
    DeviceType("smoke_alarm", "Smoke/CO alarm", 1, ("smoke_detected", "co_detected", "battery_low"), ()),
    DeviceType("vacuum", "Robot vacuum", 1, ("cleaning_finished",), ("start_cleaning", "dock")),
    DeviceType("blinds", "Smart blinds", 1, ("opened", "closed"), ("open", "close", "set_position")),
    DeviceType("air_purifier", "Air purifier", 1, ("air_quality_poor",), ("turn_on", "set_speed")),
    DeviceType("scale", "Smart scale", 1, ("new_measurement",), ()),
    DeviceType("pet_feeder", "Pet feeder", 1, ("feeding_done", "hopper_low"), ("dispense",)),
    DeviceType("weather_station", "Home weather station", 1, ("rain_started", "wind_high"), ()),
    DeviceType("hub", "Smart home hub", 2, ("any_device_event",), ("run_scene", "control_device")),
    DeviceType("remote_hub", "Universal remote hub", 2, ("activity_started",), ("start_activity", "stop_activity")),
    DeviceType("smartwatch", "Smartwatch", 3, ("goal_reached", "workout_logged"), ("send_notification",)),
    DeviceType("fitness_band", "Fitness band", 3, ("daily_summary", "sleep_logged", "goal_reached"), ()),
    DeviceType("car", "Connected car", 4, ("ignition_on", "low_fuel", "arrived_home"), ("precondition_cabin",)),
]
