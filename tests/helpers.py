"""Shared world-building helpers for the engine-facing test suites.

``test_engine_core``, ``test_faults_resilience``, ``test_sharding``, and
friends all need the same miniature universe — a simulator, a network,
one engine, one partner service with a ``ping`` trigger and a recording
``record`` action, and a connected user — differing only in seeds,
engine config, and how deliveries are recorded.  This module holds the
one canonical builder so the suites can't drift apart; each suite keeps
a thin wrapper pinning its historical seeds (timing- and jitter-exact
assertions depend on them).
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.engine import (
    ActionRef,
    Applet,
    EngineConfig,
    FixedPollingPolicy,
    IftttEngine,
    TriggerRef,
)
from repro.engine.oauth import OAuthAuthority
from repro.net import Address, FixedLatency, Network
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator, Trace

DEFAULT_USER = "alice"
DEFAULT_SLUG = "svc"


@dataclass
class EngineWorld:
    """Everything :func:`build_engine_world` wires together."""

    sim: Simulator
    net: Network
    engine: IftttEngine
    service: PartnerService
    #: Sink-side delivery log: ``dict(fields)`` per execution, or
    #: ``(sim.now, dict(fields))`` tuples when built with
    #: ``record_times=True``.
    executed: List[Any]
    trace: Optional[Trace]
    authority: OAuthAuthority
    user: str = DEFAULT_USER


def default_engine_config(**overrides) -> EngineConfig:
    """The suites' canonical fast-poll config (10 s fixed, quick start)."""
    settings: Dict[str, Any] = dict(
        poll_policy=FixedPollingPolicy(10.0), initial_poll_delay=0.5
    )
    settings.update(overrides)
    return EngineConfig(**settings)


def build_engine_world(
    config: Optional[EngineConfig] = None,
    *,
    net_seed: int = 55,
    engine_seed: int = 7,
    with_trace: bool = True,
    realtime_service: bool = False,
    record_times: bool = False,
    link_latency: float = 0.01,
    user: str = DEFAULT_USER,
    slug: str = DEFAULT_SLUG,
) -> EngineWorld:
    """One engine + one service (``ping`` trigger, recording ``record``
    action), published and user-connected, ready for applet installs.

    Seeds are explicit because several suites assert exact retry/poll
    counts whose timing depends on them — wrappers pass their historical
    values rather than relying on the defaults.
    """
    sim = Simulator()
    net = Network(sim, Rng(net_seed))
    trace = Trace() if with_trace else None
    engine = net.add_node(IftttEngine(
        Address("engine.cloud"),
        config=config or default_engine_config(),
        rng=Rng(engine_seed), trace=trace, service_time=0.0,
    ))
    service = net.add_node(PartnerService(
        Address(f"{slug}.cloud"), slug=slug, trace=trace,
        realtime=realtime_service, service_time=0.0,
    ))
    net.connect(engine.address, service.address, FixedLatency(link_latency))
    executed: List[Any] = []
    if record_times:
        recorder = lambda fields: executed.append((sim.now, dict(fields)))  # noqa: E731
    else:
        recorder = lambda fields: executed.append(dict(fields))  # noqa: E731
    service.add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
    service.add_action(ActionEndpoint(slug="record", name="Record", executor=recorder))
    engine.publish_service(service)
    authority = OAuthAuthority(slug)
    authority.register_user(user, "pw")
    engine.connect_service(user, service, authority, "pw")
    return EngineWorld(
        sim=sim, net=net, engine=engine, service=service,
        executed=executed, trace=trace, authority=authority, user=user,
    )


def install_ping_applet(
    engine,
    fields: Optional[Dict[str, str]] = None,
    *,
    user: str = DEFAULT_USER,
    slug: str = DEFAULT_SLUG,
    name: str = "ping -> record",
) -> Applet:
    """Install the canonical ``ping -> record`` applet.

    Works against a plain :class:`IftttEngine` and a
    :class:`~repro.engine.sharding.ShardedEngine` alike (both expose
    ``install_applet``).
    """
    return engine.install_applet(
        user=user,
        name=name,
        trigger=TriggerRef(slug, "ping"),
        action=ActionRef(slug, "record", fields or {"note": "{{n}}"}),
    )


def live_scan(sim: Simulator) -> int:
    """Live events by O(n) heap scan — the truth ``Simulator.pending``'s
    O(1) counter must track (entries are ``(time, priority, seq, event)``)."""
    return sum(1 for *_key, event in sim._heap if not event.canceled)
