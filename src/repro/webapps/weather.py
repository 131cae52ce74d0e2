"""Weather service model.

IFTTT's canonical example applet — "turn your hue lights blue whenever it
starts to rain" (§2) — needs a weather provider on the trigger side.  The
service holds current conditions per location and logs condition changes
as activity, which a partner service polls.  For long-running
experiments, :class:`~repro.testbed.scenario_gen.DailyScenario`'s
weather driver walks the conditions at random.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.net.address import Address
from repro.net.http import HttpRequest
from repro.simcore.trace import Trace
from repro.webapps.base import WebApp

CONDITIONS = ("clear", "cloudy", "rain", "snow", "wind")


class WeatherService(WebApp):
    """Per-location current conditions with change history.

    Routes
    ------
    ``GET /api/current`` — body ``{location}``.
    ``GET /api/changes`` — body ``{location, since_id}``.
    """

    APP_NAME = "weather"

    def __init__(self, address: Address, trace: Optional[Trace] = None, service_time: float = 0.02) -> None:
        super().__init__(address, trace=trace, service_time=service_time)
        self._conditions: Dict[str, str] = {}
        self.add_route("GET", "/api/current", self._handle_current)
        self.add_route("GET", "/api/changes", self._handle_changes)

    def set_conditions(self, location: str, condition: str) -> bool:
        """Update a location's conditions; returns True if they changed."""
        if condition not in CONDITIONS:
            raise ValueError(f"unknown condition {condition!r}; expected one of {CONDITIONS}")
        if self._conditions.get(location) == condition:
            return False
        previous = self._conditions.get(location)
        self._conditions[location] = condition
        self.log_activity("conditions_changed", location=location, condition=condition, previous=previous)
        return True

    def current(self, location: str) -> Optional[str]:
        """The current condition for a location (None if never set)."""
        return self._conditions.get(location)

    def _handle_current(self, request: HttpRequest):
        location = (request.body or {}).get("location")
        if not location:
            return 400, {"error": "missing field 'location'"}
        return {"location": location, "condition": self._conditions.get(location)}

    def _handle_changes(self, request: HttpRequest):
        body = request.body or {}
        location = body.get("location")
        if not location:
            return 400, {"error": "missing field 'location'"}
        changes = [
            rec
            for rec in self.activity_since(int(body.get("since_id", 0)), activity="conditions_changed")
            if rec.get("location") == location
        ]
        return {"changes": changes}
