"""Fleet-scale workloads for engine scalability experiments.

§6 ("Performance Improvements") argues why IFTTT may resist full push:
*"if all trigger services perform push, the incurred instantaneous
workload may be too high: IoT workload is known to be highly bursty; for
IFTTT it is likely also the case (consider popular applets such as
'update wallpaper with new NASA photo')"*.

This module builds that scenario: one popular trigger (a content
publication) shared by a whole fleet of installed applets.  Under
polling, the engine's requests spread over each applet's independent
polling schedule; under push, every publication makes the engine poll
every affected identity at once — an instantaneous request spike at both
the engine and the trigger service.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.engine.applet import ActionRef, TriggerRef
from repro.engine.config import EngineConfig
from repro.engine.engine import IftttEngine
from repro.engine.push import DELIVERY_MODES, PushPolicy
from repro.engine.oauth import OAuthAuthority
from repro.engine.sharding import ShardedEngine, merged_fleet_snapshot
from repro.net.address import Address
from repro.net.latency import cloud_internal_latency
from repro.net.network import Network
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.services.endpoints import ActionEndpoint, TriggerEndpoint, project
from repro.services.partner import PartnerService
from repro.simcore.parallel import ShardedSimulator
from repro.simcore.rng import Rng
from repro.simcore.simulator import Simulator, collector_paused
from repro.simcore.trace import Trace


@dataclass
class FleetResult:
    """Outcome of one fleet experiment."""

    n_applets: int
    publications: int
    actions_executed: int
    latencies: List[float]
    poll_times: List[float]
    #: Registry snapshot taken at the end of the run (see repro.obs).
    metrics_snapshot: Optional[Dict] = None
    #: Total engine-originated poll requests over the whole run — the
    #: steady-state request-load figure the three-way delivery-mode
    #: comparison reads (available even when tracing is off).
    polls_sent: int = 0

    def peak_polls_per_second(self, window: float = 1.0) -> int:
        """Maximum engine polls in any ``window``-second interval."""
        if not self.poll_times:
            return 0
        ordered = sorted(self.poll_times)
        peak = 0
        start = 0
        for end, t in enumerate(ordered):
            while ordered[start] < t - window:
                start += 1
            peak = max(peak, end - start + 1)
        return peak

    def mean_polls_per_second(self) -> float:
        """Average engine poll rate over the experiment."""
        if len(self.poll_times) < 2:
            return 0.0
        span = max(self.poll_times) - min(self.poll_times)
        return len(self.poll_times) / span if span > 0 else float("inf")

    def burstiness(self) -> float:
        """Peak-to-mean poll rate ratio — §6's instantaneous-workload concern."""
        mean = self.mean_polls_per_second()
        return self.peak_polls_per_second() / mean if mean > 0 else 0.0

    def median_latency(self) -> float:
        """Median publication-to-action latency."""
        ordered = sorted(self.latencies)
        return ordered[len(ordered) // 2] if ordered else float("nan")


class FleetWorld:
    """A content service with one popular trigger and a large applet fleet.

    Every installed applet subscribes to the same logical trigger
    ("new photo published"); a publication event fans out to all
    identities — the NASA-wallpaper shape.
    """

    def __init__(
        self,
        n_applets: int,
        engine_config: Optional[EngineConfig] = None,
        realtime: bool = False,
        push: bool = False,
        seed: int = 5,
        with_trace: bool = True,
        with_metrics: bool = True,
        shared_user: bool = False,
        warmup: bool = True,
    ) -> None:
        """Build the fleet.

        The last four flags are for fleets built to be measured — the
        benchmark ledger's fleet workloads (``benchmarks/ledger/``) and
        ``benchmarks/bench_fleet_scale.py``, which runs this workload at
        up to a million applets: ``with_trace=False`` /
        ``with_metrics=False`` drop the observability layers entirely (at
        1M applets an unbounded trace alone is gigabytes),
        ``shared_user=True`` installs every applet under one user so
        setup skips a million OAuth handshakes, and ``warmup=False``
        leaves the initial polls in the heap so the timed window includes
        them.  Defaults preserve the original behaviour exactly.

        ``push=True`` publishes the content service under the push
        contract (see :mod:`repro.engine.push`): a default
        :class:`~repro.engine.push.PushPolicy` is installed on the
        engine config if the caller didn't set one, and every
        publication then POSTs its event payloads directly to the
        engine instead of waiting for polls.
        """
        self.n_applets = n_applets
        self.sim = Simulator()
        self.rng = Rng(seed=seed, name="fleet")
        self.trace = Trace() if with_trace else None
        self.metrics = MetricsRegistry() if with_metrics else None
        self.sim.metrics = self.metrics
        self.network = Network(self.sim, self.rng.fork("net"), metrics=self.metrics)
        config = engine_config or EngineConfig()
        if push and config.push_policy is None:
            config = replace(config, push_policy=PushPolicy())
        self.engine = self.network.add_node(IftttEngine(
            Address("engine.ifttt.cloud"),
            config=config,
            rng=self.rng.fork("engine"),
            trace=self.trace,
            service_time=0.0,
        ))
        self.content = self.network.add_node(PartnerService(
            Address("content.cloud"), slug="content", trace=self.trace,
            realtime=realtime, push=push, service_time=0.0,
        ))
        self.actions_executed = 0
        self.action_times: List[float] = []
        self.content.add_trigger(TriggerEndpoint(
            slug="new_photo",
            name="New photo published",
            ingredients=project("photo"),
        ))
        self.content.add_action(ActionEndpoint(
            slug="set_wallpaper",
            name="Update wallpaper",
            executor=self._record_action,
        ))
        self.network.connect(self.engine.address, self.content.address, cloud_internal_latency())
        self.engine.publish_service(self.content)
        authority = OAuthAuthority("content")
        if shared_user:
            authority.register_user("fleet-user", "pw")
            self.engine.connect_service("fleet-user", self.content, authority, "pw")
        trigger = TriggerRef("content", "new_photo")
        action = ActionRef("content", "set_wallpaper", {"photo": "{{photo}}"})
        with collector_paused():  # everything installed stays: nothing to collect
            for index in range(n_applets):
                if shared_user:
                    user = "fleet-user"
                else:
                    user = f"user{index:05d}"
                    authority.register_user(user, "pw")
                    self.engine.connect_service(user, self.content, authority, "pw")
                self.engine.install_applet(
                    user=user,
                    name=f"wallpaper applet #{index}",
                    trigger=trigger,
                    action=action,
                )
        if warmup:
            # let registration polls drain before measurement starts
            horizon = (
                self.engine.config.initial_poll_delay
                + self.engine.config.initial_poll_jitter
                + 5.0
            )
            self.sim.run_until(horizon)

    def _record_action(self, fields: Dict) -> None:
        self.actions_executed += 1
        self.action_times.append(self.sim.now)

    def publish(self, photo: str) -> None:
        """One content publication: the event reaches every identity."""
        self.content.ingest_event("new_photo", {"photo": photo})

    def run_publications(self, publications: int = 5, spacing: float = 900.0) -> FleetResult:
        """Publish ``publications`` times and collect fleet statistics.

        Poll statistics cover only the publication window, excluding the
        fleet's registration warm-up.
        """
        measure_start = self.sim.now
        latencies: List[float] = []
        for index in range(publications):
            published_at = self.sim.now
            before = self.actions_executed
            self.publish(f"photo-{index}")
            self.sim.run_until(self.sim.now + spacing)
            latencies.extend(
                t - published_at for t in self.action_times[before:]
            )
        return FleetResult(
            n_applets=self.n_applets,
            publications=publications,
            actions_executed=self.actions_executed,
            latencies=latencies,
            poll_times=(
                [t for t in self.trace.times("engine_poll_sent") if t >= measure_start]
                if self.trace is not None
                else []
            ),
            metrics_snapshot=(
                self.metrics.snapshot() if self.metrics is not None else None
            ),
            polls_sent=self.engine.stats()["polls_sent"],
        )


@dataclass
class ShardedFleetResult:
    """Outcome of one epoch-stepped sharded fleet experiment."""

    n_applets: int
    num_shards: int
    publications: int
    actions_executed: int
    polls_sent: int
    #: Barrier count and cross-shard mailbox traffic from the stepper.
    epochs: int
    mailbox_messages: int
    events_fired: int
    #: ``merged_fleet_snapshot`` over the per-shard registries (None when
    #: the world was built with ``with_metrics=False``).
    metrics_snapshot: Optional[Dict] = None


class ShardedFleetWorld:
    """The NASA-wallpaper fleet partitioned across N epoch-stepped shards.

    Where :class:`FleetWorld` runs one engine on one simulator, this
    world splits the applets over N shard engines and gives each its own
    :class:`~repro.simcore.simulator.Simulator`, :class:`Network`,
    metrics registry, and content-service *replica*, stepped together by
    a :class:`~repro.simcore.parallel.ShardedSimulator`.  Publications
    are fleet-level events: they enter through the stepper's controller
    mailbox, one ingest per replica, at an epoch barrier.

    Shard engines poll only their own shard's replica (each shard
    publishes its local replica under the shared ``content`` slug), so
    the world is uncoupled: no cross-shard traffic, one epoch per
    ``run_until``.
    """

    def __init__(
        self,
        n_applets: int,
        num_shards: int = 4,
        jobs: int = 1,  # frozen benchmarks/ledger/adapters.py; removed by ROADMAP 1(a)
        engine_config: Optional[EngineConfig] = None,
        seed: int = 5,
        with_metrics: bool = True,
        shard_strategy: str = "round_robin",
        warmup: bool = True,
    ) -> None:
        self.n_applets = n_applets
        self.num_shards = num_shards
        self.stepper = ShardedSimulator(num_shards)
        self.rng = Rng(seed=seed, name="fleet")
        # One world per shard: registry, network, content replica.  A
        # cell has one heap and one registry; nothing is shared across
        # cells except the stepper's mailboxes.
        self.registries: List[Optional[MetricsRegistry]] = []
        self.networks: List[Network] = []
        for index in range(num_shards):
            registry = MetricsRegistry() if with_metrics else None
            sim = self.stepper.sims[index]
            sim.metrics = registry
            self.registries.append(registry)
            self.networks.append(
                Network(sim, self.rng.fork(f"net{index}"), metrics=registry)
            )
        self.fleet = ShardedEngine(
            self.networks,
            config=engine_config or EngineConfig(),
            rng=self.rng.fork("engine"),
            num_shards=num_shards,
            shard_strategy=shard_strategy,
            service_time=0.0,
            expected_applets=n_applets,
        )
        #: Fleet-wide executed-action count, whichever replica ran it.
        self.actions_executed = 0
        self.contents: List[PartnerService] = []
        for index in range(num_shards):
            replica = self.networks[index].add_node(PartnerService(
                Address(f"content{index}.cloud"), slug="content",
                service_time=0.0,
            ))
            replica.add_trigger(TriggerEndpoint(
                slug="new_photo",
                name="New photo published",
                ingredients=project("photo"),
            ))
            replica.add_action(ActionEndpoint(
                slug="set_wallpaper",
                name="Update wallpaper",
                executor=self._record_action,
            ))
            shard = self.fleet.shards[index]
            self.networks[index].connect(
                shard.address, replica.address, cloud_internal_latency()
            )
            # Publish the *local* replica on the shard engine directly:
            # the fleet-level publish_service expects one service node
            # reachable from every shard, which a split-simulator world
            # deliberately doesn't have.
            shard.publish_service(replica)
            self.contents.append(replica)
        authority = OAuthAuthority("content")
        authority.register_user("fleet-user", "pw")
        for index, shard in enumerate(self.fleet.shards):
            shard.connect_service(
                "fleet-user", self.contents[index], authority, "pw"
            )
        trigger = TriggerRef("content", "new_photo")
        action = ActionRef("content", "set_wallpaper", {"photo": "{{photo}}"})
        with collector_paused():
            for index in range(n_applets):
                self.fleet.install_applet(
                    user="fleet-user",
                    name=f"wallpaper applet #{index}",
                    trigger=trigger,
                    action=action,
                )
        if warmup:
            # Let registration polls drain so the first publication isn't
            # swallowed as pre-baseline history (mirrors FleetWorld;
            # benchmarks pass warmup=False to time the initial burst).
            config = self.fleet.config
            self.stepper.run_until(
                config.initial_poll_delay + config.initial_poll_jitter + 5.0
            )

    def _record_action(self, fields: Dict) -> None:
        self.actions_executed += 1

    def publish(self, photo: str) -> None:
        """One fleet-level publication: every replica ingests the event.

        Routed through the stepper's controller mailbox so it lands in
        each shard's heap in deterministic order at the next barrier.
        """
        now = self.stepper.now
        for index, replica in enumerate(self.contents):
            self.stepper.post(
                index, now, replica.ingest_event, "new_photo", {"photo": photo}
            )

    def run_until(self, time: float) -> int:
        """Advance the whole fleet to ``time`` through epoch barriers."""
        return self.stepper.run_until(time)

    def run_publications(
        self, publications: int = 5, spacing: float = 900.0
    ) -> ShardedFleetResult:
        """Publish ``publications`` times and collect fleet statistics."""
        for index in range(publications):
            self.publish(f"photo-{index}")
            self.stepper.run_until(self.stepper.now + spacing)
        return self.result(publications=publications)

    def merged_snapshot(self) -> Optional[Dict]:
        """Fleet-wide ``engine.*`` totals folded from every shard registry.

        Commutative (counters add, gauges max), so the result does not
        depend on the order shards are listed or stepped in.
        """
        if any(registry is None for registry in self.registries):
            return None
        combined = merge_snapshots(
            *(registry.snapshot() for registry in self.registries)
        )
        return merged_fleet_snapshot(combined)

    def result(self, publications: int = 0) -> ShardedFleetResult:
        return ShardedFleetResult(
            n_applets=self.n_applets,
            num_shards=self.num_shards,
            publications=publications,
            actions_executed=self.actions_executed,
            polls_sent=self.fleet.stats()["polls_sent"],
            epochs=self.stepper.epochs,
            mailbox_messages=self.stepper.mailbox_messages,
            events_fired=self.stepper.fired_count,
            metrics_snapshot=self.merged_snapshot(),
        )

    def shutdown(self) -> None:
        """Frozen ``benchmarks/ledger/adapters.py``; removed by ROADMAP 1(a)."""


def run_fleet_experiment(
    n_applets: int = 200,
    publications: int = 5,
    seed: int = 5,
    delivery_mode: str = "poll",
) -> FleetResult:
    """Run the NASA-wallpaper fleet under polling, hints, or push.

    ``delivery_mode`` is ``"poll"`` (hints ignored), ``"hint"`` (the
    content service is realtime-capable *and* the engine honours every
    payload-less hint — the full-push world §6 contemplates), or
    ``"push"`` (the payload-carrying push contract of
    :mod:`repro.engine.push` — events arrive without any
    engine-originated request).
    """
    if delivery_mode not in DELIVERY_MODES:
        raise ValueError(
            f"unknown delivery_mode {delivery_mode!r}; expected one of {DELIVERY_MODES}"
        )
    # The push watermarks are per-service provisioning knobs: one
    # NASA-photo publication fans out to n_applets identities *in a
    # single notification*, so a fleet-sized burst is the expected
    # steady state, not overload.  Provision the backlog watermarks (and
    # the drain batch) to the fleet so the ladder only degrades on
    # genuinely sustained backlog.
    push_policy = None
    if delivery_mode == "push":
        push_policy = PushPolicy(
            max_batch=200,
            low_watermark=max(64, n_applets),
            high_watermark=max(256, 4 * n_applets),
        )
    config = EngineConfig(
        realtime_allowlist=None if delivery_mode == "hint" else frozenset(),
        initial_poll_jitter=300.0,
        push_policy=push_policy,
    )
    world = FleetWorld(
        n_applets, engine_config=config,
        realtime=delivery_mode == "hint", push=delivery_mode == "push", seed=seed,
    )
    return world.run_publications(publications=publications)
