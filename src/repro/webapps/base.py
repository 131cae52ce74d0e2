"""Common web-application machinery."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.net.address import Address
from repro.net.http import HttpNode
from repro.simcore.trace import Trace


class WebApp(HttpNode):
    """Base class for cloud web applications.

    Provides a per-app activity log (an append-only list of structured
    activity records with monotonically increasing ids) that the cursored
    listing endpoints and the partner services' poll loops consume.
    """

    APP_NAME = "webapp"

    def __init__(self, address: Address, trace: Optional[Trace] = None, service_time: float = 0.02) -> None:
        super().__init__(address, service_time=service_time)
        self.trace = trace
        self._activity: List[Dict[str, Any]] = []
        self._next_activity_id = 1
        self.add_route("GET", "/api/activity", self._handle_activity)

    def _handle_activity(self, request) -> Dict[str, Any]:
        body = request.body or {}
        return {
            "activity": self.activity_since(
                int(body.get("since_id", 0)),
                activity=body.get("activity"),
                limit=int(body.get("limit", 100)),
            )
        }

    def log_activity(self, activity: str, **data: Any) -> Dict[str, Any]:
        """Append one activity record; returns it (with id and time)."""
        record = {
            "id": self._next_activity_id,
            "activity": activity,
            "time": self.now if self.network is not None else 0.0,
            **data,
        }
        self._next_activity_id += 1
        self._activity.append(record)
        if self.trace is not None:
            self.trace.record(record["time"], self.APP_NAME, f"app_{activity}", **data)
        return record

    def activity_since(self, since_id: int, activity: Optional[str] = None, limit: int = 100) -> List[Dict[str, Any]]:
        """Activity records with id > ``since_id``, oldest first."""
        matches = [
            rec
            for rec in self._activity
            if rec["id"] > since_id and (activity is None or rec["activity"] == activity)
        ]
        return matches[:limit]
