"""Bound instruments: what a per-event recording site holds.  (Imports
nothing, so the simulator kernel can hold one.)"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence


class Bound:
    """The instruments one recorder holds, each resolved on first use.

    A recorder — a node, a network, a partner service, a per-service
    engine record, a simulator — names its instruments
    ``<prefix>.<name>`` under fixed ``labels`` and records through
    whatever registry it is attached to *now*::

        self._bound = Bound("http", node=address.host)
        ...
        metrics = self.metrics
        if metrics is not None:
            self._bound.counter(metrics, "requests_issued").inc()

    The first use under a registry is the registry's get-or-create and
    the instrument is kept; every later use is one dict hit.  Nothing is
    created before it is recorded to — a series is born by its first
    sample, never by binding — and a *different* registry
    (``Node.metrics`` falls back to the network's, tests swap registries
    mid-run, every shard cell has its own) drops everything held, so
    recording always lands in the registry passed in.  Sites call the
    instrument's own ``inc`` / ``observe`` / ``set``: no recording
    shortcut lives here, so recording time stays where profilers and
    the benchmark ledger look for it.
    """

    __slots__ = ("prefix", "labels", "registry", "_held")

    def __init__(self, prefix: str, **labels: Any) -> None:
        self.prefix = prefix
        self.labels = labels
        self.registry = None
        self._held: Dict[Any, Any] = {}

    def held(self, registry) -> Dict[Any, Any]:
        """The table of instruments held for ``registry`` — for sites
        whose labels vary per record (a status class, a trigger slug):
        they keep instruments here under a key of their own (anything
        but the bare names the accessors below use) and do the registry
        call themselves on a miss."""
        if registry is not self.registry:
            self.registry = registry
            self._held = {}
        return self._held

    def _bind(self, kind: str, registry, name: str, **kwargs: Any):
        instrument = self.held(registry)[name] = getattr(registry, kind)(
            f"{self.prefix}.{name}", **kwargs, **self.labels
        )
        return instrument

    def counter(self, registry, name: str):
        """``registry``'s counter ``<prefix>.<name>{labels}``."""
        if registry is self.registry:
            try:
                return self._held[name]
            except KeyError:
                pass
        return self._bind("counter", registry, name)

    def gauge(self, registry, name: str):
        """``registry``'s gauge ``<prefix>.<name>{labels}``."""
        if registry is self.registry:
            try:
                return self._held[name]
            except KeyError:
                pass
        return self._bind("gauge", registry, name)

    def histogram(self, registry, name: str, bounds: Optional[Sequence[float]] = None):
        """``registry``'s histogram ``<prefix>.<name>{labels}``
        (``bounds=None``: the registry's default buckets)."""
        if registry is self.registry:
            try:
                return self._held[name]
            except KeyError:
                pass
        kwargs = {} if bounds is None else {"bounds": bounds}
        return self._bind("histogram", registry, name, **kwargs)

    def __repr__(self) -> str:
        return f"<Bound {self.prefix!r} {self.labels} held={len(self._held)}>"
