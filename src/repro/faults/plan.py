"""Declarative fault plans.

A :class:`FaultPlan` is a replayable schedule of faults: *what* breaks,
*when*, and *for how long*.  Plans are plain data — they can be built in
code, serialized to JSON (``python -m repro chaos --faults PLAN.json``),
and round-tripped losslessly — and they carry no randomness of their
own: all stochastic behaviour (loss sampling, brownout error draws) is
deferred to the :class:`~repro.faults.injector.FaultInjector`'s seeded
RNG, so the same seed + the same plan reproduce the same trace.

Fault kinds
-----------

``service_outage``
    The partner service answers every API request with 503 for the
    window (``PartnerService.set_outage``).  Event ingestion keeps
    working — device clouds buffer independently.
``service_brownout``
    Degraded, not down: each request is rejected with 503 with
    probability ``error_rate``, and ``extra_latency`` seconds are added
    to the service's processing time for the window.
``service_flap``
    The service toggles between outage and health: down for
    ``duty * period`` seconds out of every ``period``, for the window.
``link_down``
    A hard partition of one link (``Network.set_link_state``); routing
    recomputes, and senders with no remaining path get an immediate
    synthetic 503 (connection refused).
``link_loss``
    Each message crossing the link is dropped independently with
    probability ``loss`` for the window (lossy, not partitioned — the
    caller sees timeouts, not refusals).
``link_latency``
    Each message crossing the link has its sampled delay multiplied by
    ``multiplier`` and increased by ``extra`` seconds for the window.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

SERVICE_OUTAGE = "service_outage"
SERVICE_BROWNOUT = "service_brownout"
SERVICE_FLAP = "service_flap"
LINK_DOWN = "link_down"
LINK_LOSS = "link_loss"
LINK_LATENCY = "link_latency"

SERVICE_KINDS = frozenset({SERVICE_OUTAGE, SERVICE_BROWNOUT, SERVICE_FLAP})
LINK_KINDS = frozenset({LINK_DOWN, LINK_LOSS, LINK_LATENCY})
ALL_KINDS = SERVICE_KINDS | LINK_KINDS

#: The parameters each kind reads besides ``kind``, ``at`` and
#: ``duration``; every other field must keep its neutral default.
KIND_PARAMETERS = {
    SERVICE_OUTAGE: ("service",),
    SERVICE_BROWNOUT: ("service", "error_rate", "extra_latency"),
    SERVICE_FLAP: ("service", "period", "duty"),
    LINK_DOWN: ("a", "b"),
    LINK_LOSS: ("a", "b", "loss"),
    LINK_LATENCY: ("a", "b", "multiplier", "extra"),
}
_NUMBER_FIELDS = (
    "at", "duration", "error_rate", "extra_latency", "loss", "multiplier", "extra",
    "period", "duty",
)


class FaultPlanError(ValueError):
    """Raised for malformed fault specs or plans."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at`` and ``duration`` are simulation seconds; service faults name a
    published service ``slug``; link faults name the two endpoint hosts
    ``a`` and ``b``.  Unused parameters keep their neutral defaults, so
    :func:`asdict` round-trips cleanly.
    """

    kind: str
    at: float
    duration: float
    service: Optional[str] = None
    a: Optional[str] = None
    b: Optional[str] = None
    error_rate: float = 0.0
    extra_latency: float = 0.0
    loss: float = 0.0
    multiplier: float = 1.0
    extra: float = 0.0
    period: float = 20.0
    duty: float = 0.5

    @property
    def end(self) -> float:
        """When the fault deactivates."""
        return self.at + self.duration

    def validate(self) -> "FaultSpec":
        """Check internal consistency; returns self for chaining."""
        if not isinstance(self.kind, str) or self.kind not in ALL_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; expected one of {sorted(ALL_KINDS)}"
            )
        for name in _NUMBER_FIELDS:
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise FaultPlanError(
                    f"{self.kind}: {name!r} must be a finite number, got {value!r}"
                )
        for name in ("service", "a", "b"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise FaultPlanError(f"{self.kind}: {name!r} must be a string, got {value!r}")
        unread = sorted(set(self.to_dict()) - {"kind", "at", "duration",
                                               *KIND_PARAMETERS[self.kind]})
        if unread:
            raise FaultPlanError(
                f"{self.kind} does not read {unread}; it takes "
                f"{list(KIND_PARAMETERS[self.kind])}"
            )
        if self.at < 0 or self.duration <= 0:
            raise FaultPlanError(
                f"{self.kind}: need at >= 0 and duration > 0, got at={self.at} "
                f"duration={self.duration}"
            )
        if self.kind in SERVICE_KINDS and not self.service:
            raise FaultPlanError(f"{self.kind}: missing 'service' slug")
        if self.kind in LINK_KINDS and not (self.a and self.b):
            raise FaultPlanError(f"{self.kind}: missing link endpoints 'a' and 'b'")
        if self.kind == SERVICE_BROWNOUT:
            if not 0.0 <= self.error_rate <= 1.0:
                raise FaultPlanError(
                    f"brownout error_rate must be in [0, 1], got {self.error_rate}"
                )
            if self.extra_latency < 0:
                raise FaultPlanError(
                    f"brownout extra_latency must be non-negative, got {self.extra_latency}"
                )
        if self.kind == SERVICE_FLAP:
            if self.period <= 0 or not 0.0 < self.duty < 1.0:
                raise FaultPlanError(
                    f"flap needs period > 0 and duty in (0, 1), got "
                    f"period={self.period} duty={self.duty}"
                )
        if self.kind == LINK_LOSS and not 0.0 < self.loss <= 1.0:
            raise FaultPlanError(f"link loss must be in (0, 1], got {self.loss}")
        if self.kind == LINK_LATENCY:
            if self.multiplier < 1.0 or self.extra < 0:
                raise FaultPlanError(
                    f"link latency needs multiplier >= 1 and extra >= 0, got "
                    f"multiplier={self.multiplier} extra={self.extra}"
                )
        return self

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able dict (drops neutral-valued optional fields)."""
        defaults = FaultSpec(kind=self.kind, at=0.0, duration=1.0)
        out: Dict[str, Any] = {"kind": self.kind, "at": self.at, "duration": self.duration}
        for key, value in asdict(self).items():
            if key in out:
                continue
            if value != getattr(defaults, key):
                out[key] = value
        return out

    @staticmethod
    def from_dict(data: Dict[str, Any]) -> "FaultSpec":
        """Parse one fault spec from a dict; raises :class:`FaultPlanError`."""
        if not isinstance(data, dict):
            raise FaultPlanError(f"fault spec must be an object, got {type(data).__name__}")
        known = {f for f in FaultSpec.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise FaultPlanError(f"unknown fault spec fields {sorted(unknown)}")
        for required in ("kind", "at", "duration"):
            if required not in data:
                raise FaultPlanError(f"fault spec missing {required!r}: {data}")
        return FaultSpec(**data).validate()


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, validated collection of :class:`FaultSpec` entries."""

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            spec.validate()

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    @property
    def end_time(self) -> float:
        """When the last fault deactivates (0.0 for an empty plan)."""
        return max((spec.end for spec in self.specs), default=0.0)

    def services(self) -> List[str]:
        """Slugs of all services the plan touches."""
        return sorted({spec.service for spec in self.specs if spec.service})

    # -- serialization -------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to the ``--faults`` JSON shape."""
        return json.dumps(
            {"faults": [spec.to_dict() for spec in self.specs]},
            indent=indent,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        """Parse a plan from JSON (an object with a ``faults`` list)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"invalid fault plan JSON: {exc}") from None
        if isinstance(data, list):  # bare list of specs is accepted too
            entries = data
        elif isinstance(data, dict) and isinstance(data.get("faults"), list):
            unknown = sorted(set(data) - {"faults"})
            if unknown:
                raise FaultPlanError(f"unknown fault plan keys {unknown}; expected only 'faults'")
            entries = data["faults"]
        else:
            raise FaultPlanError(
                "fault plan must be a JSON object with a 'faults' list "
                "(or a bare list of fault specs)"
            )
        return FaultPlan(tuple(FaultSpec.from_dict(entry) for entry in entries))

    @staticmethod
    def from_file(path: str) -> "FaultPlan":
        """Load a plan from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return FaultPlan.from_json(handle.read())

    def __repr__(self) -> str:
        return f"<FaultPlan {len(self.specs)} faults, ends t={self.end_time:g}s>"


# -- convenience builders ----------------------------------------------------


def service_outage(service: str, at: float, duration: float) -> FaultSpec:
    """A full outage of one service."""
    return FaultSpec(kind=SERVICE_OUTAGE, at=at, duration=duration, service=service).validate()


def service_brownout(
    service: str, at: float, duration: float, error_rate: float = 0.3, extra_latency: float = 0.0
) -> FaultSpec:
    """A degraded service: elevated error rate and latency."""
    return FaultSpec(
        kind=SERVICE_BROWNOUT, at=at, duration=duration, service=service,
        error_rate=error_rate, extra_latency=extra_latency,
    ).validate()


def service_flap(
    service: str, at: float, duration: float, period: float = 20.0, duty: float = 0.5
) -> FaultSpec:
    """A flappy service: down ``duty`` of every ``period`` seconds."""
    return FaultSpec(
        kind=SERVICE_FLAP, at=at, duration=duration, service=service,
        period=period, duty=duty,
    ).validate()


def link_down(a: str, b: str, at: float, duration: float) -> FaultSpec:
    """A hard partition of the a<->b link."""
    return FaultSpec(kind=LINK_DOWN, at=at, duration=duration, a=a, b=b).validate()


def link_loss(a: str, b: str, at: float, duration: float, loss: float = 0.1) -> FaultSpec:
    """Probabilistic message loss on the a<->b link."""
    return FaultSpec(kind=LINK_LOSS, at=at, duration=duration, a=a, b=b, loss=loss).validate()


def link_latency(
    a: str, b: str, at: float, duration: float, multiplier: float = 1.0, extra: float = 0.0
) -> FaultSpec:
    """A latency spike on the a<->b link."""
    return FaultSpec(
        kind=LINK_LATENCY, at=at, duration=duration, a=a, b=b,
        multiplier=multiplier, extra=extra,
    ).validate()
