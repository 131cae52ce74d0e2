"""The seven test applets of Table 4.

Each :class:`AppletSpec` bundles everything the controller needs to run
one of the paper's controlled experiments: the trigger/action endpoint
references per service variant (official services, or the E1/E2
substitutions with "Our Service"), a physical activation routine, a
pre-run reset routine, and an observer that detects the executed action
in the shared trace.

===  =================================================  ==================
Key  Applet (verbatim from Table 4)                      Flow
===  =================================================  ==================
A1   If my Wemo switch is activated, add line to         IoT -> WebApp
     spreadsheet.
A2   Turn on my Hue light from the Wemo light switch.    IoT -> IoT
A3   When any new email arrives in gmail, blink the      WebApp -> IoT
     Hue light.
A4   Automatically save new gmail attachments to         WebApp -> WebApp
     google drive.
A5   Use Alexa's voice control to turn off the Hue       Alexa -> IoT
     light.
A6   Use Alexa's voice control to activate the Wemo      Alexa -> IoT
     switch.
A7   Keep a google spreadsheet of songs you listen to    Alexa -> WebApp
     on Alexa.
===  =================================================  ==================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, TYPE_CHECKING

from repro.engine.applet import ActionRef, TriggerRef

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.testbed.testbed import Testbed

#: Variant names for :meth:`AppletSpec.refs`.
OFFICIAL = "official"
E1 = "e1"  # custom trigger service, official action service
E2 = "e2"  # custom trigger and action services
HOSTED_ALEXA = "hosted_alexa"  # Alexa events consumed by Our Service

Activate = Callable[["Testbed"], None]
Reset = Callable[["Testbed"], None]
Observe = Callable[["Testbed", float], Optional[float]]


@dataclass
class AppletSpec:
    """One Table 4 applet, fully experiment-ready."""

    key: str
    name: str
    flow: str
    group: str
    variants: Dict[str, "tuple[TriggerRef, ActionRef]"]
    activate: Activate
    reset: Reset
    observe: Observe

    def refs(self, variant: str = OFFICIAL) -> "tuple[TriggerRef, ActionRef]":
        """The (trigger, action) references for a service variant."""
        try:
            return self.variants[variant]
        except KeyError:
            raise KeyError(f"applet {self.key} has no {variant!r} variant") from None


# -- observers ---------------------------------------------------------------------------


def _observe_lamp_state(value: bool) -> Observe:
    def observe(testbed: "Testbed", since: float) -> Optional[float]:
        for rec in testbed.trace.query(kind="device_state_changed", source="lamp1", since=since):
            if rec.get("key") == "on" and rec.get("value") is value:
                return rec.time
        return None

    return observe


def _observe_lamp_effect(effect: str) -> Observe:
    def observe(testbed: "Testbed", since: float) -> Optional[float]:
        for rec in testbed.trace.query(kind="device_state_changed", source="lamp1", since=since):
            if rec.get("key") == "effect" and rec.get("value") == effect:
                return rec.time
        return None

    return observe


def _observe_wemo_on(testbed: "Testbed", since: float) -> Optional[float]:
    for rec in testbed.trace.query(kind="device_state_changed", source="wemo1", since=since):
        if rec.get("key") == "on" and rec.get("value") is True and rec.get("cause") != "physical":
            return rec.time
    return None


def _observe_sheet_row(sheet: str) -> Observe:
    def observe(testbed: "Testbed", since: float) -> Optional[float]:
        records = testbed.trace.query(kind="app_row_added", since=since, sheet=sheet)
        return records[0].time if records else None

    return observe


def _observe_drive_upload(testbed: "Testbed", since: float) -> Optional[float]:
    records = testbed.trace.query(kind="app_file_uploaded", since=since)
    return records[0].time if records else None


# -- activation / reset routines ----------------------------------------------------------


def _press_wemo_on(testbed: "Testbed") -> None:
    if testbed.wemo.get_state("on"):
        raise RuntimeError("wemo must be reset off before activation")
    testbed.wemo.press()


def _reset_wemo_off(testbed: "Testbed") -> None:
    if testbed.wemo.get_state("on"):
        testbed.wemo.set_binary_state(False, cause="reset")


def _reset_lamp_off(testbed: "Testbed") -> None:
    testbed.hue_lamp.apply_command({"on": False, "effect": "none"}, cause="reset")


def _reset_lamp_on(testbed: "Testbed") -> None:
    testbed.hue_lamp.apply_command({"on": True, "effect": "none"}, cause="reset")


_email_counter = [0]


def _deliver_email(testbed: "Testbed", attachments: "tuple[str, ...]" = ()) -> None:
    from repro.testbed.testbed import TEST_EMAIL

    _email_counter[0] += 1
    testbed.gmail.deliver_email(
        to=TEST_EMAIL,
        sender="experimenter@lab",
        subject=f"test message {_email_counter[0]}",
        body="controlled experiment",
        attachments=attachments,
    )


def _noop(testbed: "Testbed") -> None:
    return None


# -- the suite -------------------------------------------------------------------------------


def _build_suite() -> Dict[str, AppletSpec]:
    lamp = {"lamp_id": "lamp1"}
    switch = {"device_id": "wemo1"}
    suite: Dict[str, AppletSpec] = {}

    suite["A1"] = AppletSpec(
        key="A1",
        name="If my Wemo switch is activated, add line to spreadsheet.",
        flow="IoT -> WebApp",
        group="A1-A4",
        variants={
            OFFICIAL: (
                TriggerRef("wemo", "switch_activated", dict(switch)),
                ActionRef("google_sheets", "add_row", {"sheet": "wemo_log", "row": "switch {{device_id}} activated"}),
            ),
            E1: (
                TriggerRef("our_service", "wemo_activated", dict(switch)),
                ActionRef("google_sheets", "add_row", {"sheet": "wemo_log", "row": "switch {{device_id}} activated"}),
            ),
            E2: (
                TriggerRef("our_service", "wemo_activated", dict(switch)),
                ActionRef("our_service", "add_row", {"sheet": "wemo_log", "row": "switch {{device_id}} activated"}),
            ),
        },
        activate=_press_wemo_on,
        reset=_reset_wemo_off,
        observe=_observe_sheet_row("wemo_log"),
    )

    suite["A2"] = AppletSpec(
        key="A2",
        name="Turn on my Hue light from the Wemo light switch.",
        flow="IoT -> IoT",
        group="A1-A4",
        variants={
            OFFICIAL: (
                TriggerRef("wemo", "switch_activated", dict(switch)),
                ActionRef("philips_hue", "turn_on_lights", dict(lamp)),
            ),
            E1: (
                TriggerRef("our_service", "wemo_activated", dict(switch)),
                ActionRef("philips_hue", "turn_on_lights", dict(lamp)),
            ),
            E2: (
                TriggerRef("our_service", "wemo_activated", dict(switch)),
                ActionRef("our_service", "turn_on_hue", dict(lamp)),
            ),
        },
        activate=_press_wemo_on,
        reset=lambda tb: (_reset_wemo_off(tb), _reset_lamp_off(tb)),
        observe=_observe_lamp_state(True),
    )

    suite["A3"] = AppletSpec(
        key="A3",
        name="When any new email arrives in gmail, blink the Hue light.",
        flow="WebApp -> IoT",
        group="A1-A4",
        variants={
            OFFICIAL: (
                TriggerRef("gmail", "new_email"),
                ActionRef("philips_hue", "blink_lights", dict(lamp)),
            ),
            E1: (
                TriggerRef("our_service", "gmail_new_email"),
                ActionRef("philips_hue", "blink_lights", dict(lamp)),
            ),
            E2: (
                TriggerRef("our_service", "gmail_new_email"),
                ActionRef("our_service", "blink_hue", dict(lamp)),
            ),
        },
        activate=lambda tb: _deliver_email(tb),
        reset=_reset_lamp_off,
        observe=_observe_lamp_effect("blink"),
    )

    suite["A4"] = AppletSpec(
        key="A4",
        name="Automatically save new gmail attachments to google drive.",
        flow="WebApp -> WebApp",
        group="A1-A4",
        variants={
            OFFICIAL: (
                TriggerRef("gmail", "new_attachment"),
                ActionRef("google_drive", "upload_file", {"user": "me", "name": "{{attachment}}"}),
            ),
            E1: (
                TriggerRef("our_service", "gmail_new_attachment"),
                ActionRef("google_drive", "upload_file", {"user": "me", "name": "{{attachment}}"}),
            ),
            E2: (
                TriggerRef("our_service", "gmail_new_attachment"),
                ActionRef("our_service", "upload_file", {"user": "me", "name": "{{attachment}}"}),
            ),
        },
        activate=lambda tb: _deliver_email(tb, attachments=("report.pdf",)),
        reset=_noop,
        observe=_observe_drive_upload,
    )

    suite["A5"] = AppletSpec(
        key="A5",
        name="Use Alexa's voice control to turn off the Hue light.",
        flow="Alexa -> IoT",
        group="A5-A7",
        variants={
            OFFICIAL: (
                TriggerRef("amazon_alexa", "say_phrase", {"phrase": "light off"}),
                ActionRef("philips_hue", "turn_off_lights", dict(lamp)),
            ),
            HOSTED_ALEXA: (
                TriggerRef("our_service", "alexa_phrase", {"phrase": "light off"}),
                ActionRef("philips_hue", "turn_off_lights", dict(lamp)),
            ),
        },
        activate=lambda tb: tb.echo.hear("Alexa, trigger light off"),
        reset=_reset_lamp_on,
        observe=_observe_lamp_state(False),
    )

    suite["A6"] = AppletSpec(
        key="A6",
        name="Use Alexa's voice control to actviate the Wemo switch.",
        flow="Alexa -> IoT",
        group="A5-A7",
        variants={
            OFFICIAL: (
                TriggerRef("amazon_alexa", "say_phrase", {"phrase": "switch on"}),
                ActionRef("wemo", "activate_switch", dict(switch)),
            ),
            HOSTED_ALEXA: (
                TriggerRef("our_service", "alexa_phrase", {"phrase": "switch on"}),
                ActionRef("wemo", "activate_switch", dict(switch)),
            ),
        },
        activate=lambda tb: tb.echo.hear("Alexa, trigger switch on"),
        reset=_reset_wemo_off,
        observe=_observe_wemo_on,
    )

    suite["A7"] = AppletSpec(
        key="A7",
        name="Keep a google spreadsheet of songs you listen to on Alexa.",
        flow="Alexa -> WebApp",
        group="A5-A7",
        variants={
            OFFICIAL: (
                TriggerRef("amazon_alexa", "song_played"),
                ActionRef("google_sheets", "add_row", {"sheet": "songs", "row": "{{song}}"}),
            ),
            HOSTED_ALEXA: (
                TriggerRef("our_service", "alexa_song_played"),
                ActionRef("google_sheets", "add_row", {"sheet": "songs", "row": "{{song}}"}),
            ),
        },
        activate=lambda tb: tb.echo.hear("Alexa, play experiment song"),
        reset=_noop,
        observe=_observe_sheet_row("songs"),
    )
    return suite


APPLET_SUITE: Dict[str, AppletSpec] = _build_suite()


def applet_spec(key: str) -> AppletSpec:
    """Look up one of A1-A7."""
    try:
        return APPLET_SUITE[key]
    except KeyError:
        raise KeyError(f"unknown applet key {key!r}; expected A1..A7") from None


def variant_error(key: str, variant: str) -> Optional[str]:
    """Why applet ``key`` cannot run under service ``variant``, or ``None``."""
    variants = APPLET_SUITE[key].variants
    if variant in variants:
        return None
    return f"applet {key} has no {variant!r} variant; valid variants are {sorted(variants)}"
