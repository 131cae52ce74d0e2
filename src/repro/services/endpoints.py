"""Trigger and action endpoint declarations.

An endpoint couples a protocol slug (the path component under
``/ifttt/v1/triggers/`` or ``/ifttt/v1/actions/``) with the service-side
behaviour: for triggers, how raw upstream events map onto trigger
identities (field matching) and ingredients; for actions, the executor
that drives the device or web app.

Endpoints also declare the *channels* they read and write — an abstract
resource key like ``("sheets", "songs")`` or ``("hue", "lamp1")``.
Channels are invisible to the real IFTTT engine (which is precisely why
it cannot detect loops, §4); our static loop analyzer
(:mod:`repro.engine.loops`) uses them to reproduce the explicit- and
implicit-loop findings and to ablate the paper's §6 recommendation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

#: An abstract resource affected by an action or observed by a trigger.
Channel = Tuple[str, str]

Matcher = Callable[[Dict[str, Any], Dict[str, Any]], bool]
IngredientExtractor = Callable[[Dict[str, Any]], Dict[str, Any]]
Executor = Callable[[Dict[str, Any]], Any]
ChannelFn = Callable[[Dict[str, Any]], FrozenSet[Channel]]


def match_all(event: Dict[str, Any], fields: Dict[str, Any]) -> bool:
    """Default matcher: every upstream event matches every identity."""
    return True


def _no_channels(fields: Dict[str, Any]) -> FrozenSet[Channel]:
    return frozenset()


def _identity_ingredients(event: Dict[str, Any]) -> Dict[str, Any]:
    return dict(event)


def _no_op_executor(fields: Dict[str, Any]) -> None:
    return None


def _empty_rows(fields: Dict[str, Any]) -> List[Dict[str, Any]]:
    return []


@dataclass
class TriggerEndpoint:
    """A trigger exposed by a partner service.

    Attributes
    ----------
    slug:
        Path component (``/ifttt/v1/triggers/<slug>``).
    name:
        Human-readable trigger name (as shown on ifttt.com).
    matcher:
        Predicate deciding whether an upstream event belongs to a trigger
        identity, given the identity's trigger fields.
    ingredients:
        Maps the raw upstream event to the ingredient dict embedded in the
        trigger event.
    reads_channels:
        Channels whose mutation can fire this trigger, as a function of
        the trigger fields (for loop analysis).
    """

    slug: str
    name: str
    matcher: Matcher = match_all
    ingredients: IngredientExtractor = _identity_ingredients
    reads_channels: ChannelFn = _no_channels

    def __post_init__(self) -> None:
        if not self.slug or "/" in self.slug:
            raise ValueError(f"invalid trigger slug {self.slug!r}")


@dataclass
class ActionEndpoint:
    """An action exposed by a partner service.

    Attributes
    ----------
    slug, name:
        As for :class:`TriggerEndpoint`.
    executor:
        Called with the resolved action fields; drives the device/web app.
        Its return value becomes the action response body.
    writes_channels:
        Channels this action mutates, as a function of the action fields.
    """

    slug: str
    name: str
    executor: Executor = _no_op_executor
    writes_channels: ChannelFn = _no_channels

    def __post_init__(self) -> None:
        if not self.slug or "/" in self.slug:
            raise ValueError(f"invalid action slug {self.slug!r}")


@dataclass
class QueryEndpoint:
    """A query exposed by a partner service (the §6 "queries" feature).

    Queries are side-effect-free reads the engine performs while
    executing an applet, to feed its filter condition — e.g. "how many
    rows does the spreadsheet have", "is anyone home".  The executor
    returns a list of row dicts.
    """

    slug: str
    name: str
    executor: Callable[[Dict[str, Any]], Any] = _empty_rows
    reads_channels: ChannelFn = _no_channels

    def __post_init__(self) -> None:
        if not self.slug or "/" in self.slug:
            raise ValueError(f"invalid query slug {self.slug!r}")


# -- the declaration vocabulary ---------------------------------------------------
#
# Frozen dataclasses with ``__call__``: a declared endpoint pickles and
# compares by value, and holds no reference to its service.


@dataclass(frozen=True)
class _When:
    constants: Tuple[Tuple[str, Any], ...]
    narrow_by: Optional[str]

    def __call__(self, event: Dict[str, Any], fields: Dict[str, Any]) -> bool:
        for key, value in self.constants:
            if value is True or value is False:
                if event.get(key) is not value:  # by identity: on=1 is not on=True
                    return False
            elif event.get(key) != value:
                return False
        narrow = self.narrow_by
        return narrow is None or not fields.get(narrow) or fields[narrow] == event.get(narrow)


def when(*, narrow_by: Optional[str] = None, **constants: Any) -> Matcher:
    """Matcher: each event field in ``constants`` equals its value (a
    ``True``/``False`` constant by identity), and, when the identity sets
    a non-empty ``narrow_by`` trigger field, the event's field equals it.

    ``when(on=True, narrow_by="lamp_id")`` fires an identity with fields
    ``{"lamp_id": "lamp1"}`` on lamp1 turning on, one with no ``lamp_id``
    on any lamp turning on.
    """
    return _When(tuple(constants.items()), narrow_by)


@dataclass(frozen=True)
class _Project:
    sources: Tuple[Tuple[str, str], ...]

    def __call__(self, event: Dict[str, Any]) -> Dict[str, Any]:
        return {name: event.get(source, "") for name, source in self.sources}


def project(*names: str, **renames: str) -> IngredientExtractor:
    """Ingredients: each of ``names`` copied from the event, each
    ``name=source`` renamed from it, ``""`` when the event lacks it."""
    return _Project(tuple((name, name) for name in names) + tuple(renames.items()))


@dataclass(frozen=True)
class _Static:
    channels: FrozenSet[Channel]

    def __call__(self, fields: Dict[str, Any]) -> FrozenSet[Channel]:
        return self.channels


def static_channels(*channels: Channel) -> ChannelFn:
    """Channel function ignoring fields: always the given channels."""
    return _Static(frozenset(channels))


@dataclass(frozen=True)
class _FieldChannel:
    kind: str
    field_name: str
    default: str

    def __call__(self, fields: Dict[str, Any]) -> FrozenSet[Channel]:
        return frozenset({(self.kind, str(fields.get(self.field_name, self.default)))})


def field_channel(kind: str, field_name: str, default: str = "*") -> ChannelFn:
    """Channel function keyed by one field value.

    ``field_channel("sheets", "sheet")`` maps fields ``{"sheet": "songs"}``
    to the channel ``("sheets", "songs")``.
    """
    return _FieldChannel(kind, field_name, default)
