"""Bridge the §3 corpus into the §4 engine: run realistic applet mixes.

The ecosystem corpus describes *what exists*; the engine executes *what
is installed*.  This module materializes corpus services as live
:class:`~repro.services.partner.PartnerService` nodes (generic endpoints
with recording executors) and installs popularity-weighted samples of
corpus applets onto an engine — so load studies run against the actual
ecosystem mix instead of hand-picked applets.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Set

from repro.ecosystem.corpus import AppletRecord, Corpus, ServiceRecord
from repro.engine.applet import ActionRef, Applet, TriggerRef
from repro.engine.config import EngineConfig
from repro.engine.engine import IftttEngine
from repro.engine.oauth import OAuthAuthority
from repro.net.address import Address
from repro.net.latency import cloud_internal_latency
from repro.net.network import Network
from repro.services.endpoints import ActionEndpoint, TriggerEndpoint
from repro.services.partner import PartnerService
from repro.simcore.rng import Rng
from repro.simcore.simulator import Simulator
from repro.simcore.trace import Trace


def _record_action(executed: List[str], slug: str, fields: Dict[str, Any]) -> None:
    executed.append(slug)


def materialize_service(record: ServiceRecord, trace: Optional[Trace] = None) -> PartnerService:
    """Build a live partner service from a corpus service record.

    Triggers match every ingested event (field semantics are unknown for
    generated endpoints); actions record their invocations on the
    returned service's ``executed_actions`` list.
    """
    service = PartnerService(
        Address(f"{record.slug}.cloud"), slug=record.slug, trace=trace, service_time=0.0
    )
    service.executed_actions: List[str] = []
    for trigger in record.triggers:
        service.add_trigger(TriggerEndpoint(slug=trigger.slug.split(".", 1)[-1], name=trigger.name))
    for action in record.actions:
        slug = action.slug.split(".", 1)[-1]
        service.add_action(ActionEndpoint(
            slug=slug, name=action.name,
            executor=partial(_record_action, service.executed_actions, slug),
        ))
    return service


@dataclass
class CorpusWorld:
    """An engine running a sampled slice of the corpus."""

    sim: Simulator
    network: Network
    engine: IftttEngine
    services: Dict[str, PartnerService]
    applets: List[Applet]
    corpus_applets: List[AppletRecord]

    def fire_trigger(self, applet_index: int, **event) -> None:
        """Inject one upstream event for the sampled applet's trigger."""
        record = self.corpus_applets[applet_index]
        service = self.services[record.trigger_service_slug]
        service.ingest_event(record.trigger_slug.split(".", 1)[-1], dict(event))

    def run_for(self, seconds: float) -> None:
        """Advance simulated time."""
        self.sim.run_until(self.sim.now + seconds)


def build_corpus_world(
    corpus: Corpus,
    n_applets: int = 100,
    engine_config: Optional[EngineConfig] = None,
    seed: int = 17,
    trace: Optional[Trace] = None,
) -> CorpusWorld:
    """Sample ``n_applets`` (popularity-weighted) and wire a live world.

    Only the services those applets touch are materialized; each sampled
    applet installs for its own synthetic user.
    """
    rng = Rng(seed=seed, name="corpus-world")
    sim = Simulator()
    network = Network(sim, rng.fork("net"))
    trace = trace if trace is not None else Trace()
    engine = network.add_node(IftttEngine(
        Address("engine.ifttt.cloud"),
        config=engine_config or EngineConfig(initial_poll_jitter=120.0),
        rng=rng.fork("engine"),
        trace=trace,
        service_time=0.0,
    ))

    applets = corpus.applets_at()
    weights = list(itertools.accumulate(a.add_count for a in applets))
    total = weights[-1]
    sampled: List[AppletRecord] = []
    seen: Set[int] = set()
    while len(sampled) < min(n_applets, len(applets)):
        record = applets[bisect.bisect_right(weights, rng.random() * total)]
        if record.applet_id not in seen:  # distinct corpus applets
            seen.add(record.applet_id)
            sampled.append(record)

    services: Dict[str, PartnerService] = {}
    authorities: Dict[str, OAuthAuthority] = {}
    for record in sampled:
        for slug in (record.trigger_service_slug, record.action_service_slug):
            if slug in services:
                continue
            service = materialize_service(corpus.service(slug), trace=trace)
            network.add_node(service)
            network.connect(engine.address, service.address, cloud_internal_latency())
            engine.publish_service(service)
            services[slug] = service
            authorities[slug] = OAuthAuthority(slug)

    installed: List[Applet] = []
    for index, record in enumerate(sampled):
        user = f"user{index:05d}"
        for slug in {record.trigger_service_slug, record.action_service_slug}:
            authorities[slug].register_user(user, "pw")
            engine.connect_service(user, services[slug], authorities[slug], "pw")
        installed.append(engine.install_applet(
            user=user,
            name=record.name,
            trigger=TriggerRef(
                record.trigger_service_slug, record.trigger_slug.split(".", 1)[-1]
            ),
            action=ActionRef(
                record.action_service_slug, record.action_slug.split(".", 1)[-1]
            ),
            author=record.author,
        ))
    return CorpusWorld(
        sim=sim, network=network, engine=engine, services=services,
        applets=installed, corpus_applets=sampled,
    )
