"""Gmail model.

Supports the testbed's trigger side (*any new email arrives* — applet A3;
*new attachment* — A4) and action side (*send an email*).  Per-user
inboxes live inside one Gmail node; mail addressed to another simulated
user of the same node is delivered locally, which is how the Sheets
notification feature closes the implicit infinite loop of §4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.address import Address
from repro.net.http import HttpRequest
from repro.simcore.trace import Trace
from repro.webapps.base import WebApp


@dataclass
class Email:
    """One delivered message."""

    msg_id: int
    to: str
    sender: str
    subject: str
    body: str
    attachments: Tuple[str, ...] = ()
    received_at: float = 0.0

    def has_attachments(self) -> bool:
        """Whether any attachment is present (the A4 trigger condition)."""
        return bool(self.attachments)


class Gmail(WebApp):
    """An email provider with per-user inboxes.

    Routes
    ------
    ``POST /api/send``
        Action endpoint: ``{to, from, subject, body, attachments?}``.
    ``GET /api/messages``
        Poll endpoint: body ``{user, since_id, with_attachments?}`` —
        returns messages with ``msg_id > since_id``, oldest first.
    """

    APP_NAME = "gmail"

    def __init__(self, address: Address, trace: Optional[Trace] = None, service_time: float = 0.03) -> None:
        super().__init__(address, trace=trace, service_time=service_time)
        self._inboxes: Dict[str, List[Email]] = {}
        self._next_msg_id = 1
        self.add_route("POST", "/api/send", self._handle_send)
        self.add_route("GET", "/api/messages", self._handle_messages)

    def create_account(self, user: str) -> None:
        """Provision an inbox; delivering to an unknown user also creates one."""
        self._inboxes.setdefault(user, [])

    def deliver_email(
        self,
        to: str,
        sender: str,
        subject: str,
        body: str = "",
        attachments: Tuple[str, ...] = (),
    ) -> Email:
        """Deliver a message into ``to``'s inbox (external or local mail)."""
        email = Email(
            msg_id=self._next_msg_id,
            to=to,
            sender=sender,
            subject=subject,
            body=body,
            attachments=tuple(attachments),
            received_at=self.now if self.network is not None else 0.0,
        )
        self._next_msg_id += 1
        self._inboxes.setdefault(to, []).append(email)
        self.log_activity(
            "email_received",
            to=to,
            sender=sender,
            subject=subject,
            msg_id=email.msg_id,
            attachments=list(attachments),
        )
        return email

    def inbox(self, user: str) -> List[Email]:
        """All messages in a user's inbox, oldest first."""
        return list(self._inboxes.get(user, []))

    def messages_since(
        self, user: str, since_id: int, with_attachments: bool = False, limit: int = 100
    ) -> List[Email]:
        """Messages newer than ``since_id``; optionally only with attachments."""
        out = [
            email
            for email in self._inboxes.get(user, [])
            if email.msg_id > since_id and (not with_attachments or email.has_attachments())
        ]
        return out[:limit]

    def _handle_send(self, request: HttpRequest):
        body = request.body or {}
        for required in ("to", "from", "subject"):
            if required not in body:
                return 400, {"error": f"missing field {required!r}"}
        email = self.deliver_email(
            to=body["to"],
            sender=body["from"],
            subject=body["subject"],
            body=body.get("body", ""),
            attachments=tuple(body.get("attachments", ())),
        )
        return {"sent": email.msg_id}

    def _handle_messages(self, request: HttpRequest):
        body = request.body or {}
        user = body.get("user")
        if not user:
            return 400, {"error": "missing field 'user'"}
        messages = self.messages_since(
            user,
            since_id=int(body.get("since_id", 0)),
            with_attachments=bool(body.get("with_attachments", False)),
            limit=int(body.get("limit", 100)),
        )
        return {
            "messages": [
                {
                    "msg_id": m.msg_id,
                    "to": m.to,
                    "from": m.sender,
                    "subject": m.subject,
                    "body": m.body,
                    "attachments": list(m.attachments),
                    "received_at": m.received_at,
                }
                for m in messages
            ]
        }
