"""Drive both delivery ladders and the circuit breaker through every rung.

    PYTHONPATH=src python tests/ladder_walk.py      # writes snapshot.jsonl here

One engine with adaptive delivery, push, replay and breakers on, built
through public API only (``EngineConfig``, ``DeliveryPolicy()``,
``PushPolicy``, ``PartnerService``, a fault plan), and three services:

* ``sensor`` sends realtime hints for 40 applets, so one publication
  walks hint admission allow → defer → shed and the sensor's
  degradation ladder to ``shedding``; a brownout stretches it and an
  outage opens its breaker (``breaker_open``);
* ``pusher`` holds the push contract under watermarks 2 / 4, so one
  publication for 8 applets walks its rung push → hint → poll, and the
  drain brings it back to push;
* ``sink`` takes every action; its outage fills the retry queue past
  both retry watermarks (deferred retries, ``overload`` dead letters)
  and, on heal, the replay drain finds less headroom than letters
  (``replay.drains_deferred``).

Prints the engine's counters, every transition and admission decision
the trace recorded and the count of each trace kind, and writes the
wall-clock-free metrics snapshot.  Exits 1, naming what is missing, if
a rung or counter was not reached.  ``tools/parity.py``
pins the output as the ``ladders`` row (``make degrade-check``).
"""

import sys

from repro.engine import ActionRef, EngineConfig, FixedPollingPolicy, IftttEngine, TriggerRef
from repro.engine.delivery import DeliveryPolicy
from repro.engine.oauth import OAuthAuthority
from repro.engine.push import PushPolicy
from repro.engine.resilience import ReplayPolicy
from repro.faults import FaultInjector, FaultPlan, service_brownout, service_outage
from repro.net import Address, FixedLatency, Network
from repro.obs.metrics import MetricsRegistry, deterministic_snapshot, snapshot_to_json_lines
from repro.services import ActionEndpoint, PartnerService, TriggerEndpoint
from repro.simcore import Rng, Simulator, Trace

SENSOR_APPLETS = 40
PUSHER_APPLETS = 8
#: Publications per service: (service, at).
PUBLICATIONS = (
    ("sensor", 20.0), ("pusher", 25.0),
    ("sensor", 45.0), ("sensor", 50.0), ("sensor", 55.0),
    ("sensor", 200.0), ("pusher", 205.0),
    ("sensor", 330.0), ("sensor", 420.0), ("sensor", 520.0),
)
PLAN = FaultPlan((
    service_outage("sink", at=40.0, duration=150.0),
    service_brownout("sensor", at=260.0, duration=100.0, error_rate=0.5),
    service_outage("sensor", at=400.0, duration=60.0),
))
END = 900.0
TRANSITIONS = (
    "engine_breaker_transition",
    "engine_degradation_transition",
    "engine_push_rung_transition",
)
#: Printed record by record, beside the transitions: what the ladders
#: decide per hint, per replay drain and per push notification.
ADMISSIONS = (
    "engine_hint_deferred",
    "engine_hint_shed",
    "engine_replay_drain_deferred",
    "engine_push_notification",
    "engine_push_drain",
)


def build():
    sim = Simulator()
    metrics = MetricsRegistry()
    network = Network(sim, Rng(seed=7, name="network"), metrics=metrics)
    trace = Trace()
    engine = network.add_node(IftttEngine(
        Address("engine.cloud"),
        config=EngineConfig(
            poll_policy=FixedPollingPolicy(10.0),
            initial_poll_delay=0.5,
            realtime_allowlist=None,
            replay_policy=ReplayPolicy(),
            delivery_policy=DeliveryPolicy(),
            push_policy=PushPolicy(low_watermark=2, high_watermark=4),
        ),
        rng=Rng(seed=7, name="engine"), trace=trace, service_time=0.0,
    ))
    services = {
        "sensor": PartnerService(Address("sensor.cloud"), slug="sensor", realtime=True,
                                 service_time=0.0),
        "pusher": PartnerService(Address("pusher.cloud"), slug="pusher", push=True,
                                 service_time=0.0),
        "sink": PartnerService(Address("sink.cloud"), slug="sink", service_time=0.0),
    }
    services["sensor"].add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
    services["pusher"].add_trigger(TriggerEndpoint(slug="ping", name="Ping"))
    services["sink"].add_action(ActionEndpoint(
        slug="record", name="Record", executor=lambda fields: None
    ))
    for slug, service in services.items():
        network.add_node(service)
        network.connect(engine.address, service.address, FixedLatency(0.01))
        engine.publish_service(service)
        authority = OAuthAuthority(slug)
        authority.register_user("alice", "pw")
        engine.connect_service("alice", service, authority, "pw")
    for slug, count in (("sensor", SENSOR_APPLETS), ("pusher", PUSHER_APPLETS)):
        for index in range(count):
            engine.install_applet(
                user="alice", name=f"{slug} {index} -> sink",
                trigger=TriggerRef(slug, "ping"),
                action=ActionRef("sink", "record", {"n": "{{n}}"}),
            )
    FaultInjector(
        sim, network, services=services.values(), rng=Rng(seed=7, name="faults")
    ).apply(PLAN)
    for number, (slug, at) in enumerate(PUBLICATIONS):
        sim.schedule(at, services[slug].ingest_event, "ping", {"n": number})
    return sim, engine, metrics, trace


def missing(stats, trace):
    """What the run should have reached and did not."""
    reached = {
        (record.kind, record.get("service"),
         record.get("to_level") or record.get("to_rung") or record.get("to_state"))
        for kind in TRANSITIONS for record in trace.query(kind=kind)
    }
    wanted = [
        ("engine_degradation_transition", "sensor", "stretched"),
        ("engine_degradation_transition", "sensor", "shedding"),
        ("engine_degradation_transition", "sensor", "breaker_open"),
        ("engine_degradation_transition", "sensor", "healthy"),
        ("engine_degradation_transition", "sink", "breaker_open"),
        ("engine_breaker_transition", "sink", "closed"),
        ("engine_push_rung_transition", "pusher", "hint"),
        ("engine_push_rung_transition", "pusher", "poll"),
        ("engine_push_rung_transition", "pusher", "push"),
    ]
    gaps = [" ".join(want) for want in wanted if want not in reached]
    gaps += [
        key for key in (
            "delivery_hints_deferred", "delivery_hints_shed", "delivery_retries_deferred",
            "delivery_overload_dead_letters", "delivery_replay_drains_deferred",
            "delivery_intervals_stretched", "push_degraded_to_hint", "push_shed_to_poll",
        )
        if not stats[key]
    ]
    return gaps


def main() -> int:
    sim, engine, metrics, trace = build()
    sim.run_until(END)
    stats = engine.stats()
    for key in sorted(stats):
        print(f"{key}={stats[key]}")
    for record in trace.query():
        if record.kind in TRANSITIONS or record.kind in ADMISSIONS:
            fields = " ".join(f"{key}={value}" for key, value in record.detail.items())
            print(f"{record.time:.6f} {record.kind} {fields}")
    for kind, count in sorted(trace.kinds().items()):
        print(f"trace {kind}={count}")
    with open("snapshot.jsonl", "w", encoding="utf-8") as handle:
        handle.write(snapshot_to_json_lines(deterministic_snapshot(metrics)) + "\n")
    gaps = missing(stats, trace)
    if gaps:
        print("LADDERS NOT WALKED: " + ", ".join(gaps))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
