"""Applets: "if A then B".

An applet couples one trigger (from some service) with one action (from a
usually different service), each parameterized by *fields* (§2).  Action
fields may reference trigger ingredients with ``{{name}}`` templating —
how "add a row with the song title" carries the title from the Alexa
trigger into the Sheets action.
"""

from __future__ import annotations

import enum
import hashlib
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

_TEMPLATE_RE = re.compile(r"\{\{\s*([A-Za-z0-9_]+)\s*\}\}")


@dataclass(frozen=True)
class TriggerRef:
    """A reference to one trigger of one service, with its field values."""

    service_slug: str
    trigger_slug: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def identity(self, applet_id: int, user: str) -> str:
        """The trigger identity: a stable hash of (applet, user, trigger).

        Real IFTTT derives trigger identities the same way — an opaque
        stable token the service uses to key its event buffer.
        """
        blob = f"{applet_id}|{user}|{self.service_slug}|{self.trigger_slug}|{sorted(self.fields.items())}"
        return hashlib.sha1(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class ActionRef:
    """A reference to one action of one service, with its field values."""

    service_slug: str
    action_slug: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def resolve_fields(self, ingredients: Mapping[str, Any]) -> Dict[str, Any]:
        """Substitute ``{{ingredient}}`` templates using trigger ingredients.

        Non-string fields pass through unchanged; unknown ingredient names
        render as an empty string (IFTTT renders missing ingredients
        blank rather than failing the action).
        """
        resolved: Dict[str, Any] = {}
        for key, value in self.fields.items():
            if isinstance(value, str):
                resolved[key] = _TEMPLATE_RE.sub(
                    lambda match: str(ingredients.get(match.group(1), "")), value
                )
            else:
                resolved[key] = value
        return resolved


@dataclass(frozen=True)
class QueryRef:
    """A reference to one query of one service, with its field values.

    Queries run while the applet executes; their rows are exposed to the
    filter condition under ``queries.<query_slug>`` (§6's "queries"
    future-work feature).
    """

    service_slug: str
    query_slug: str
    fields: Dict[str, Any] = field(default_factory=dict)


class AppletState(enum.Enum):
    """Lifecycle state of an installed applet."""

    ENABLED = "enabled"
    DISABLED = "disabled"


class Applet:
    """One installed trigger-action rule.

    Attributes
    ----------
    applet_id:
        Engine-assigned id (the paper crawled applets by enumerating
        six-digit ids; the ecosystem generator mirrors that id space).
    name:
        Human-readable applet title.
    user:
        Installing user (each install of a shared applet is a distinct
        engine-side applet instance).
    trigger, action:
        The endpoint references.
    author:
        Publishing user or service, for the §3 user-contribution analysis.
    extra_actions:
        Extra actions beyond ``action`` — modern IFTTT's multi-action
        applets ("if A then B and C" as one rule, cf. §4's concurrency
        workaround of installing two applets).
    queries:
        Queries executed per trigger event; results feed the filter.
    filter_code:
        Optional condition (see :mod:`repro.engine.filters`); the action
        only runs when it evaluates truthy over
        ``{"trigger": ingredients, "queries": {...}, "meta": {...}}``.
    """

    # One per installed applet: slotted and hand-written, as ``Message``
    # is (``dataclass(slots=True)`` needs Python 3.10; setup.cfg says
    # 3.9).  ``__slots__`` is the field order ``__init__`` and ``==`` use.
    __slots__ = (
        "applet_id",
        "name",
        "user",
        "trigger",
        "action",
        "author",
        "state",
        "executions",
        "extra_actions",
        "queries",
        "filter_code",
    )

    def __init__(
        self,
        applet_id: int,
        name: str,
        user: str,
        trigger: TriggerRef,
        action: ActionRef,
        author: Optional[str] = None,
        state: AppletState = AppletState.ENABLED,
        executions: int = 0,
        extra_actions: Tuple[ActionRef, ...] = (),
        queries: Tuple[QueryRef, ...] = (),
        filter_code: Optional[str] = None,
    ) -> None:
        self.applet_id = applet_id
        self.name = name
        self.user = user
        self.trigger = trigger
        self.action = action
        self.author = author
        self.state = state
        self.executions = executions
        self.extra_actions = extra_actions
        self.queries = queries
        self.filter_code = filter_code

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self.__slots__
        return tuple(getattr(self, name) for name in fields) == tuple(
            getattr(other, name) for name in fields
        )

    __hash__ = None  # mutable and compared by value

    @property
    def enabled(self) -> bool:
        """Whether the engine should be polling this applet's trigger."""
        return self.state is AppletState.ENABLED

    @property
    def trigger_identity(self) -> str:
        """The trigger identity the engine presents to the trigger service."""
        return self.trigger.identity(self.applet_id, self.user)

    def describe(self) -> str:
        """One-line summary, e.g. ``wemo.activated -> sheets.add_row``."""
        return (
            f"{self.trigger.service_slug}.{self.trigger.trigger_slug}"
            f" -> {self.action.service_slug}.{self.action.action_slug}"
        )

    def __repr__(self) -> str:
        return f"<Applet #{self.applet_id} {self.describe()} [{self.state.value}]>"
