"""Amazon Echo Dot + the Alexa cloud.

The Echo is a thin microphone: it streams each utterance to the Alexa
cloud over the WAN, where intents are parsed (say-a-phrase, to-do list,
shopping list, music playback — the top Alexa triggers in Table 3).  The
Alexa cloud pushes parsed intent events to registered consumers, which is
how the official Alexa partner service receives trigger events promptly —
the basis for the realtime behaviour of applets A5-A7 (§4).

The paper's test controller activated Alexa by playing pre-recorded voice
commands; :meth:`EchoDevice.hear` models exactly that.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.iot.device import Device
from repro.net.address import Address
from repro.net.http import HttpNode, HttpRequest
from repro.simcore.trace import Trace


class EchoDevice(Device):
    """An Echo Dot smart speaker on the home LAN."""

    KIND = "amazon_echo"

    def __init__(
        self,
        address: Address,
        device_id: str,
        cloud: Address,
        trace: Optional[Trace] = None,
    ) -> None:
        super().__init__(address, device_id, trace=trace, initial_state={"listening": True})
        self.cloud = cloud
        self.utterances: List[Tuple[float, str]] = []

    def hear(self, utterance: str) -> None:
        """A voice command reaches the microphone; stream it to the cloud."""
        self.utterances.append((self.now, utterance))
        if self.trace is not None:
            self.trace.record(self.now, self.device_id, "voice_command", utterance=utterance)
        self.send(
            self.cloud,
            "http",
            HttpRequest(
                method="POST",
                path="/v1/voice",
                body={"device_id": self.device_id, "utterance": utterance},
                src=self.address,
            ),
            size_bytes=4096,  # voice audio is much larger than control traffic
        )


class AlexaCloud(HttpNode):
    """Amazon's voice service: parses utterances into intent events.

    Consumers (e.g. the official Alexa IFTTT partner service) register a
    callback address via ``POST /v1/consumers`` and then receive each
    parsed intent as ``POST <callback>/events/alexa``.
    """

    def __init__(self, address: Address, trace: Optional[Trace] = None, service_time: float = 0.05) -> None:
        super().__init__(address, service_time=service_time)
        self.trace = trace
        self._consumers: List[Address] = []
        self.intent_log: List[Dict[str, Any]] = []
        self.todo_list: List[str] = []
        self.shopping_list: List[str] = []
        self.add_route("POST", "/v1/voice", self._handle_voice)
        self.add_route("POST", "/v1/consumers", self._handle_register)

    def _handle_register(self, request: HttpRequest):
        callback = Address(request.body["callback"])
        if callback not in self._consumers:
            self._consumers.append(callback)
        return {"registered": callback.host}

    def _handle_voice(self, request: HttpRequest):
        utterance = request.body["utterance"]
        intent = self.parse_utterance(utterance)
        intent["device_id"] = request.body.get("device_id")
        intent["time"] = self.now
        self.intent_log.append(intent)
        if self.trace is not None:
            detail = {k: v for k, v in intent.items() if k != "time"}
            self.trace.record(self.now, "alexa_cloud", "intent", **detail)
        self._apply_intent(intent)
        for consumer in self._consumers:
            self.post(consumer, "/events/alexa", body=dict(intent), size_bytes=256)
        return {"intent": intent["intent"]}

    def parse_utterance(self, utterance: str) -> Dict[str, Any]:
        """A small grammar covering the paper's Alexa trigger vocabulary."""
        text = utterance.strip().lower().rstrip(".")
        if text.startswith("alexa, "):
            text = text[len("alexa, "):]
        if text.startswith("trigger "):
            return {"intent": "say_phrase", "phrase": text[len("trigger "):]}
        if text.startswith("add ") and text.endswith(" to my to-do list"):
            item = text[len("add "):-len(" to my to-do list")]
            return {"intent": "todo_item_added", "item": item}
        if text.startswith("add ") and text.endswith(" to my shopping list"):
            item = text[len("add "):-len(" to my shopping list")]
            return {"intent": "shopping_item_added", "item": item}
        if text in ("what's on my shopping list", "whats on my shopping list"):
            return {"intent": "shopping_list_asked"}
        if text.startswith("play "):
            return {"intent": "song_played", "song": text[len("play "):]}
        return {"intent": "unrecognized", "utterance": utterance}

    def _apply_intent(self, intent: Dict[str, Any]) -> None:
        if intent["intent"] == "todo_item_added":
            self.todo_list.append(intent["item"])
        elif intent["intent"] == "shopping_item_added":
            self.shopping_list.append(intent["item"])
