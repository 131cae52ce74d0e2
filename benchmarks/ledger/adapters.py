"""The ledger's only contact with ``repro``.

Every import from the package under test lives here: the five world
builders, the ``stats()`` / ``poll_dispatch_stats()`` / ``conservation()``
readers, the helpers the probes assemble their rungs from, and the
traced pass's entry-point table.  When the world/delivery collapse lands
the follow-up benchmark change re-points this one file; README.md lists
the public names touched.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from typing import Any, Dict, List, Tuple

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC = os.path.join(REPO_ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.engine.config import EngineConfig  # noqa: E402
from repro.engine.delivery import DeliveryPolicy  # noqa: E402
from repro.engine.engine import IftttEngine  # noqa: E402
from repro.engine.poller import FixedPollingPolicy  # noqa: E402
from repro.engine.push import PushPolicy  # noqa: E402
from repro.engine.resilience import ReplayPolicy  # noqa: E402
from repro.engine.scheduler import HeapPollScheduler  # noqa: E402
from repro.engine.sharding import ShardedEngine  # noqa: E402
from repro.faults.injector import FaultInjector, NetworkFaultState, ServiceFaultState  # noqa: E402
from repro.faults.plan import (  # noqa: E402
    FaultPlan, service_brownout, service_flap, service_outage,
)
from repro.net.address import Address  # noqa: E402
from repro.net.http import HttpNode  # noqa: E402
from repro.net.latency import cloud_internal_latency  # noqa: E402
from repro.net.network import CrossShardRouter, Network  # noqa: E402
from repro.net.node import Node  # noqa: E402
from repro.obs.metrics import (  # noqa: E402
    Counter, Gauge, Histogram, MetricsRegistry, ScopedRegistry, deterministic_snapshot,
)
from repro.services.endpoints import TriggerEndpoint  # noqa: E402
from repro.services.partner import TRIGGER_PATH, PartnerService  # noqa: E402
from repro.simcore.event import Event  # noqa: E402
from repro.simcore.parallel import ShardedSimulator  # noqa: E402
from repro.simcore.rng import Rng, quantiles  # noqa: E402
from repro.simcore.simulator import Simulator  # noqa: E402
from repro.simcore.trace import Trace  # noqa: E402
from repro.testbed.chaos import ChaosScenario, ParallelShardedChaosWorld  # noqa: E402
from repro.testbed.workload import FleetWorld, ShardedFleetWorld  # noqa: E402

import spec  # noqa: E402
from tracer import EntryPoint  # noqa: E402

__all__ = [
    "ENTRY_POINTS", "WORKLOADS", "quantiles", "sim_fingerprint",
    # what probes.py assembles its rungs from
    "PROBE_WINDOW", "TRIGGER_PATH", "Address", "HeapPollScheduler", "HttpNode",
    "Network", "Node", "PartnerService", "Rng", "Simulator", "TriggerEndpoint",
    "cloud_internal_latency", "probe_fleet",
]

SHARDS = 4
#: Stepping threads for ``fleet_sharded``: ``nproc`` here, never more.
SHARDED_JOBS = 2


# -- traced pass: each layer's public entry points -------------------------------

def _points(owner: type, layer: str, *attrs: str, kind: str = "call") -> List[EntryPoint]:
    return [EntryPoint(owner, attr, layer, kind) for attr in attrs]


#: ``Event.fire`` classifies every simulator event by the module owning
#: its callback; the ``route``/``request`` kinds do the same for handlers
#: and response callbacks passing through them (see tracer.py).  Thin
#: delegators (``Simulator.schedule``, ``Node.deliver``, ``HttpNode.post``)
#: are left to the span of what they delegate to; RNG draws, latency
#: models and trigger buffers are called too often and do too little to
#: carry a span of their own, so their time stays with the calling layer.
ENTRY_POINTS: Tuple[EntryPoint, ...] = tuple(
    _points(Simulator, "simcore", "schedule_at", "run_until", "run")
    + _points(Event, "simcore", "fire", kind="fire")
    + _points(ShardedSimulator, "simcore.parallel", "run_until", "run", kind="fork")
    + _points(ShardedSimulator, "simcore.parallel", "post", "broadcast", "shutdown")
    + _points(Trace, "simcore.trace", "record", "times", "query")
    + _points(Network, "net.network", "transmit", "add_node", "connect")
    + _points(CrossShardRouter, "net.network", "transmit", "attach")
    + _points(Node, "net.network", "send")
    + _points(HttpNode, "net.http", "request", kind="request")
    + _points(HttpNode, "net.http", "add_route", kind="route")
    + _points(HttpNode, "net.http", "on_message", "on_transmit_failed")
    + _points(
        PartnerService, "services",
        "ingest_event", "add_trigger", "add_action", "published", "grant_token",
        "set_outage",
    )
    + _points(
        IftttEngine, "engine",
        "install_applet", "publish_service", "connect_service", "stats",
        "poll_dispatch_stats", "replay_dead_letters",
    )
    + _points(
        ShardedEngine, "engine",
        "install_applet", "publish_service", "connect_service", "stats",
        "shard_stats", "conservation",
    )
    + _points(HeapPollScheduler, "engine.scheduler", "schedule", kind="backref")
    + _points(HeapPollScheduler, "engine.scheduler", "cancel", "stats")
    + _points(Counter, "obs", "inc")
    + _points(Gauge, "obs", "set", "add")
    + _points(Histogram, "obs", "observe")
    + _points(
        MetricsRegistry, "obs",
        "counter", "gauge", "histogram", "scoped", "snapshot", "total",
    )
    + _points(ScopedRegistry, "obs", "counter", "gauge", "histogram")
    + _points(FaultInjector, "faults", "apply", "register_service")
    + _points(NetworkFaultState, "faults", "adjust")
    + _points(ServiceFaultState, "faults", "rejects")
    + _points(FleetWorld, "testbed", "run_publications", "publish")
    + _points(
        ShardedFleetWorld, "testbed",
        "run_until", "publish", "result", "merged_snapshot", "shutdown",
    )
    + _points(
        ParallelShardedChaosWorld, "testbed", "run", "schedule_events", "retarget",
    )
)


# -- the five workloads ----------------------------------------------------------

def _fleet_config(**overrides: Any) -> EngineConfig:
    """The 100K row of ``BENCH_fleet_scale.json``, so the trajectory continues."""
    return EngineConfig(initial_poll_jitter=120.0, poll_dispatch="heap", **overrides)


def _residual(stats: Dict[str, int]) -> int:
    """dispatched - delivered - in_retry - dead - in_replay; must be 0."""
    return (
        stats["actions_dispatched"] - stats["actions_delivered"]
        - stats["actions_in_retry"] - stats["dead_letters"]
        - stats["actions_in_replay"]
    )


def _sum_scheduler_stats(engines: List[IftttEngine]) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for engine in engines:
        for key, value in engine.poll_dispatch_stats().items():
            if key != "mode":
                totals[key] = totals.get(key, 0) + value
    return totals


def _timed_snapshot(registries: List[MetricsRegistry]) -> Tuple[int, float]:
    """(series held, ms one ``snapshot()`` of each takes)."""
    started = time.perf_counter()
    for registry in registries:
        registry.snapshot()
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return sum(len(registry) for registry in registries), elapsed_ms


class Workload:
    """build -> progress -> run (timed) -> progress -> readout."""

    name = ""

    def __init__(self, seed: int, size: int) -> None:
        self.seed = seed
        self.size = size

    def build(self) -> None:
        raise NotImplementedError

    def progress(self) -> Tuple[int, Dict[str, int]]:
        """(simulator events fired, engine ``stats()``) so far."""
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def readout(self) -> Dict[str, Any]:
        """What the finished world exposes beyond ``progress()``."""
        raise NotImplementedError


class FleetPoll(Workload):
    name = "fleet_poll"
    observed = False
    push = False
    warmup = False

    def config(self) -> EngineConfig:
        return _fleet_config()

    def build(self) -> None:
        self.result = None
        self.world = FleetWorld(
            self.size, self.config(), push=self.push, seed=self.seed,
            with_trace=self.observed, with_metrics=self.observed,
            shared_user=True, warmup=self.warmup,
        )

    def progress(self) -> Tuple[int, Dict[str, int]]:
        return self.world.sim.fired_count, self.world.engine.stats()

    def run(self) -> None:
        self.world.sim.run_until(spec.FLEET_HORIZON)

    def readout(self) -> Dict[str, Any]:
        world = self.world
        registries = [world.metrics] if world.metrics is not None else []
        series, snapshot_ms = _timed_snapshot(registries)
        return {
            "t2a": list(self.result.latencies) if self.result is not None else [],
            "actions_executed": world.actions_executed,
            "shard_residuals": [_residual(world.engine.stats())],
            "scheduler": _sum_scheduler_stats([world.engine]),
            "obs_series": series,
            "obs_snapshot_ms": snapshot_ms,
            "snapshot": [deterministic_snapshot(registry) for registry in registries] or None,
            "trace_records": len(world.trace) if world.trace is not None else 0,
        }


class FanoutObserved(FleetPoll):
    name = "fanout_observed"
    observed = True
    warmup = True

    def config(self) -> EngineConfig:
        return _fleet_config(realtime_allowlist=frozenset())

    def run(self) -> None:
        self.result = self.world.run_publications(
            publications=spec.PUBLICATIONS, spacing=spec.PUBLICATION_SPACING
        )


class FanoutPush(FanoutObserved):
    name = "fanout_push"
    observed = False
    push = True

    def config(self) -> EngineConfig:
        # Watermarks provisioned to the fleet as run_fleet_experiment does:
        # one publication is a fleet-sized burst by design, not overload.
        return EngineConfig(
            realtime_allowlist=frozenset(),
            initial_poll_jitter=120.0,
            push_policy=PushPolicy(
                max_batch=200, low_watermark=self.size, high_watermark=4 * self.size
            ),
        )


class FleetSharded(Workload):
    name = "fleet_sharded"

    def build(self) -> None:
        self.world = ShardedFleetWorld(
            self.size, num_shards=SHARDS, jobs=SHARDED_JOBS,
            engine_config=_fleet_config(), seed=self.seed,
            with_metrics=False, warmup=False,
        )

    def progress(self) -> Tuple[int, Dict[str, int]]:
        return self.world.stepper.fired_count, self.world.fleet.stats()

    def run(self) -> None:
        self.world.run_until(spec.FLEET_HORIZON)
        self.world.shutdown()

    def readout(self) -> Dict[str, Any]:
        world = self.world
        return {
            "t2a": [],
            "actions_executed": world.actions_executed,
            "shard_residuals": world.fleet.conservation()["shard_lost"],
            "scheduler": _sum_scheduler_stats(world.fleet.shards),
            "epochs": world.stepper.epochs,
            "mailbox_messages": world.stepper.mailbox_messages,
        }


def storm_plan(pairs: int) -> FaultPlan:
    """Outage / brownout / flap / healthy, by pair index modulo 4."""
    specs = []
    for pair in range(pairs):
        kind = pair % 4
        if kind == 0:
            specs.append(service_outage(f"chaos_sink{pair}", at=60.0, duration=60.0))
        elif kind == 1:
            specs.append(service_brownout(
                f"chaos_sensor{pair}", at=60.0, duration=120.0,
                error_rate=0.5, extra_latency=0.1,
            ))
        elif kind == 2:
            specs.append(service_flap(
                f"chaos_sensor{pair}", at=30.0, duration=180.0, period=24.0, duty=0.5,
            ))
    return FaultPlan(tuple(specs))


class ChaosStorm(Workload):
    name = "chaos_storm"

    def build(self) -> None:
        self.result = None
        # jobs=1: stepped serially so barrier cost is not buried in GIL noise.
        self.world = ParallelShardedChaosWorld(
            self.seed, num_shards=SHARDS, pairs=self.size, jobs=1,
            replay=ReplayPolicy(), delivery=DeliveryPolicy(), delivery_mode="hint",
        )
        self.scenario = ChaosScenario(
            "storm",
            "per-pair outage/brownout/flap storm under hint delivery",
            tuple(float(t) for t in range(10, 250)),
            storm_plan(self.size),
        )

    def progress(self) -> Tuple[int, Dict[str, int]]:
        return self.world.stepper.fired_count, self.world.fleet.stats()

    def run(self) -> None:
        self.result = self.world.run(self.scenario)

    def readout(self) -> Dict[str, Any]:
        world, result = self.world, self.result
        series, snapshot_ms = _timed_snapshot(world.registries)
        return {
            "t2a": result.t2a_values(range(SHARDS)),
            "actions_executed": result.fleet_stats["actions_delivered"],
            "shard_residuals": result.shard_silently_lost,
            "silently_lost": result.actions_silently_lost,
            "scheduler": _sum_scheduler_stats(world.fleet.shards),
            "epochs": result.epochs,
            "mailbox_messages": result.mailbox_messages,
            "cross_shard_messages": result.cross_shard_messages,
            "obs_series": series,
            "obs_snapshot_ms": snapshot_ms,
            "snapshot": result.snapshot,
            "faults_planned": len(self.scenario.plan),
            "faults_activated": result.faults_activated,
            "faults_deactivated": result.faults_deactivated,
        }


WORKLOADS = {
    cls.name: cls
    for cls in (FleetPoll, FanoutObserved, FanoutPush, FleetSharded, ChaosStorm)
}


def sim_fingerprint(events: int, stats: Dict[str, int], readout: Dict[str, Any]) -> str:
    """sha256 over everything simulated: printed for cross-commit
    comparison, never compared against a committed golden."""
    blob = json.dumps(
        {
            "events_fired": events,
            "stats": stats,
            "t2a": sorted(readout["t2a"]),
            "snapshot": readout.get("snapshot"),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


# -- what the layer-ladder probes are assembled from ------------------------------

#: Simulated seconds over which a probe's round trips start.
PROBE_WINDOW = 100.0


def probe_fleet(size: int, seed: int, with_metrics: bool, with_trace: bool) -> FleetWorld:
    """Top probe rung: a real engine whose ``size`` applets each poll once
    inside ``PROBE_WINDOW`` (fixed interval far beyond it)."""
    config = EngineConfig(
        realtime_allowlist=frozenset(),
        poll_policy=FixedPollingPolicy(10 * PROBE_WINDOW),
        initial_poll_delay=1.0,
        initial_poll_jitter=PROBE_WINDOW - 1.0,
    )
    return FleetWorld(
        size, config, seed=seed, with_trace=with_trace, with_metrics=with_metrics,
        shared_user=True, warmup=False,
    )
