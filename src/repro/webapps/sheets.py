"""Google Sheets model — including the notification feature.

Sheets appear on the action side of applets A1 ("add line to spreadsheet")
and A7 ("keep a spreadsheet of songs").  Crucially for §4's *implicit
infinite loop*: real Sheets can be configured to email the owner when a
spreadsheet is modified.  Combined with the applet "add a row when an
email is received", that notification closes a feedback loop that IFTTT
cannot see by analyzing applets offline.  :meth:`enable_notifications`
reproduces that feature, emailing through a :class:`~repro.webapps.gmail.Gmail`
node on every row append.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.net.address import Address
from repro.net.http import HttpRequest
from repro.simcore.trace import Trace
from repro.webapps.base import WebApp


class GoogleSheets(WebApp):
    """Named spreadsheets of appended rows.

    Routes
    ------
    ``POST /api/sheets/<name>/rows`` — append a row (list of cells).
    ``GET /api/sheets/<name>/rows`` — body ``{since_row}``; rows after a cursor.
    """

    APP_NAME = "sheets"

    def __init__(self, address: Address, trace: Optional[Trace] = None, service_time: float = 0.03) -> None:
        super().__init__(address, trace=trace, service_time=service_time)
        self._sheets: Dict[str, List[Tuple[float, List[Any]]]] = {}
        #: sheet name -> (gmail address, owner email) for notify-on-edit
        self._notifications: Dict[str, Tuple[Address, str]] = {}
        self.add_route("POST", "/api/sheets/", self._handle_append)
        self.add_route("GET", "/api/sheets/", self._handle_rows)

    def create_sheet(self, name: str) -> None:
        """Create an empty spreadsheet (appending also auto-creates)."""
        self._sheets.setdefault(name, [])

    def append_row(self, name: str, cells: List[Any]) -> int:
        """Append a row; returns the new row index (1-based)."""
        rows = self._sheets.setdefault(name, [])
        rows.append((self.now if self.network is not None else 0.0, list(cells)))
        row_index = len(rows)
        self.log_activity("row_added", sheet=name, row=row_index, cells=list(cells))
        self._maybe_notify(name, row_index)
        return row_index

    def rows(self, name: str, since_row: int = 0) -> List[List[Any]]:
        """Cell lists of rows after ``since_row`` (1-based cursor)."""
        return [cells for _, cells in self._sheets.get(name, [])[since_row:]]

    def row_count(self, name: str) -> int:
        """Number of rows in a sheet (0 for unknown sheets)."""
        return len(self._sheets.get(name, ()))

    # -- the notification feature ------------------------------------------------

    def enable_notifications(self, name: str, gmail: Address, owner_email: str) -> None:
        """Email ``owner_email`` (via the Gmail node) whenever ``name`` changes.

        This is the user-side setting that, together with an
        email-to-spreadsheet applet, forms the paper's implicit infinite
        loop — the notification path is invisible to the IFTTT engine.
        """
        self.create_sheet(name)
        self._notifications[name] = (gmail, owner_email)

    def _maybe_notify(self, name: str, row_index: int) -> None:
        subscription = self._notifications.get(name)
        if subscription is None or self.network is None:
            return
        gmail, owner_email = subscription
        self.post(
            gmail,
            "/api/send",
            body={
                "to": owner_email,
                "from": "notifications@sheets",
                "subject": f"Spreadsheet {name} was modified",
                "body": f"Row {row_index} was added.",
            },
        )

    # -- HTTP handlers -------------------------------------------------------------

    def _sheet_from_path(self, path: str) -> Optional[str]:
        # /api/sheets/<name>/rows
        parts = path.strip("/").split("/")
        if len(parts) == 4 and parts[3] == "rows":
            return parts[2]
        return None

    def _handle_append(self, request: HttpRequest):
        name = self._sheet_from_path(request.path)
        if name is None:
            return 400, {"error": "expected /api/sheets/<name>/rows"}
        cells = (request.body or {}).get("cells")
        if not isinstance(cells, list):
            return 400, {"error": "body must contain a 'cells' list"}
        row = self.append_row(name, cells)
        return {"row": row}

    def _handle_rows(self, request: HttpRequest):
        name = self._sheet_from_path(request.path)
        if name is None:
            return 400, {"error": "expected /api/sheets/<name>/rows"}
        since_row = int((request.body or {}).get("since_row", 0))
        return {"rows": self.rows(name, since_row=since_row), "total": self.row_count(name)}
