"""Layer-ladder probes: the profiler-free cross-check on the traced pass.

The same round trips at the same pre-filled heap depth, adding one layer
per rung through public APIs only: a bare ``Simulator``; + ``Network`` /
``Node.send``; + ``HttpNode.post`` / route; + the ``PartnerService``
trigger-poll route; + a real ``IftttEngine`` fleet; then that top rung
again with the metrics registry on, and with ``Trace`` on.  The
difference between two rungs is what the added layer costs per round
trip, with no instrumentation in the way.  A last probe drives
``HeapPollScheduler`` alone with a one-line poll body.

Runs in one child process (``run.py --probes``), every rung
``PROBE_REPEATS`` times on a fresh world; reports median and IQR.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List

from adapters import (
    PROBE_WINDOW, TRIGGER_PATH, Address, HeapPollScheduler, HttpNode, Network, Node,
    PartnerService, Rng, Simulator, TriggerEndpoint, cloud_internal_latency,
    probe_fleet, quantiles,
)

#: At scale 1: 50,000 round trips over a heap pre-filled 100,000 deep.
NOMINAL_TRIPS = 50_000
NOMINAL_DEPTH = 100_000
PROBE_REPEATS = 5
#: Polls each stand-in applet makes in the scheduler probe.
RESCHEDULES = 5
_FAR_FUTURE = 1e9


def _noop() -> None:
    return None


def _prefill(sim: Simulator, depth: int) -> None:
    """Far-future events nobody fires: the heap depth a fleet would have."""
    for _ in range(depth):
        sim.schedule(_FAR_FUTURE, _noop)


def _timed_run(sim: Simulator) -> float:
    started = time.perf_counter()
    sim.run_until(PROBE_WINDOW + 10.0)
    return time.perf_counter() - started


def _starts(seed: int, trips: int) -> List[float]:
    rng = Rng(seed=seed, name="probe")
    return [rng.uniform(0.0, PROBE_WINDOW) for _ in range(trips)]


def simcore_rung(seed: int, trips: int, depth: int) -> float:
    """Two chained events per trip (request leg, response leg); us per event."""
    sim = Simulator()
    _prefill(sim, depth)

    def request_leg() -> None:
        sim.schedule(0.02, _noop)

    for start in _starts(seed, trips):
        sim.schedule(start, request_leg)
    return _timed_run(sim) * 1e6 / (2 * trips)


class _Echo(Node):
    def on_message(self, message) -> None:
        self.send(message.src, "probe", message.payload)


def _two_nodes(seed: int, depth: int, a: Node, b: Node) -> Simulator:
    sim = Simulator()
    network = Network(sim, Rng(seed=seed, name="probe-net"))
    network.add_node(a)
    network.add_node(b)
    network.connect(a.address, b.address, cloud_internal_latency())
    _prefill(sim, depth)
    return sim


def net_rung(seed: int, trips: int, depth: int) -> float:
    """A message there and an echo back per trip; us per message."""
    caller, echo = Node(Address("caller.probe")), _Echo(Address("echo.probe"))
    sim = _two_nodes(seed, depth, caller, echo)
    for start in _starts(seed, trips):
        sim.schedule(start, caller.send, echo.address, "probe", {"n": 1})
    return _timed_run(sim) * 1e6 / (2 * trips)


def _http_rung(seed: int, trips: int, depth: int, server: HttpNode, path: str,
               body: Callable[[int], Dict[str, Any]]) -> float:
    client = HttpNode(Address("client.probe"))
    sim = _two_nodes(seed, depth, client, server)
    answered = []

    def send(index: int) -> None:
        client.post(server.address, path, body=body(index), on_response=answered.append)

    for index, start in enumerate(_starts(seed, trips)):
        sim.schedule(start, send, index)
    elapsed = _timed_run(sim)
    if len(answered) != trips or not all(response.ok for response in answered):
        raise RuntimeError(f"{path}: {len(answered)}/{trips} round trips answered ok")
    return elapsed * 1e6 / trips


def http_rung(seed: int, trips: int, depth: int) -> float:
    """POST to a one-line route handler; us per round trip."""
    server = HttpNode(Address("server.probe"))
    server.add_route("POST", "/probe", lambda request: {"ok": True})
    return _http_rung(seed, trips, depth, server, "/probe", lambda index: {"n": index})


def services_rung(seed: int, trips: int, depth: int) -> float:
    """The trigger-poll route of a ``PartnerService``, one identity per trip."""
    server = PartnerService(Address("sensor.probe"), slug="probe", service_time=0.0)
    server.add_trigger(TriggerEndpoint(slug="tick", name="Tick"))
    return _http_rung(
        seed, trips, depth, server, TRIGGER_PATH + "tick",
        lambda index: {"trigger_identity": f"id{index}", "triggerFields": {}, "limit": 50},
    )


def engine_rung(seed: int, trips: int, depth: int, with_metrics: bool = False,
                with_trace: bool = False) -> float:
    """A real engine, one applet per trip, each polling once; us per poll cycle."""
    world = probe_fleet(trips, seed, with_metrics, with_trace)
    _prefill(world.sim, depth)
    elapsed = _timed_run(world.sim)
    polls = world.engine.stats()["polls_sent"]
    if polls != trips:
        raise RuntimeError(f"engine rung sent {polls} polls for {trips} applets")
    return elapsed * 1e6 / polls


class _Applet:
    """What ``HeapPollScheduler`` needs of a runtime: its two poll fields."""

    __slots__ = ("poll_gen", "poll_scheduled")

    def __init__(self) -> None:
        self.poll_gen = 0
        self.poll_scheduled = False


class _SchedulerHost:
    """Stand-in engine: the real scheduler, a one-line poll body."""

    def __init__(self) -> None:
        self.sim = Simulator()
        self.scheduler = HeapPollScheduler(self)
        self.polls = 0

    def _poll(self, applet: _Applet) -> None:  # the callback the scheduler makes
        self.polls += 1
        self.scheduler.schedule(applet, PROBE_WINDOW / RESCHEDULES)


def scheduler_rung(seed: int, trips: int, depth: int) -> float:
    """``trips`` stand-in applets rescheduled on a fixed interval; us per poll."""
    host = _SchedulerHost()
    _prefill(host.sim, depth)
    for start in _starts(seed, trips):
        host.scheduler.schedule(_Applet(), start / RESCHEDULES, initial=True)
    return _timed_run(host.sim) * 1e6 / host.polls


def run_probes(seed: int, scale: float) -> Dict[str, Dict[str, Any]]:
    trips = max(1, round(NOMINAL_TRIPS * scale))
    depth = max(1, round(NOMINAL_DEPTH * scale))

    def repeat(rung: Callable[..., float], **flags: bool) -> List[float]:
        return [rung(seed, trips, depth, **flags) for _ in range(PROBE_REPEATS)]

    def cell(values: List[float]) -> Dict[str, Any]:
        low, median, high = quantiles(values, [0.25, 0.5, 0.75])
        return {"median": median, "iqr": high - low, "n": len(values), "unit": "us"}

    lean = repeat(engine_rung)
    observed = repeat(engine_rung, with_metrics=True)
    recorded = repeat(engine_rung, with_trace=True)
    lean_median = cell(lean)["median"]
    return {
        "probe.simcore.us_per_event": cell(repeat(simcore_rung)),
        "probe.net.us_per_message": cell(repeat(net_rung)),
        "probe.http.us_per_roundtrip": cell(repeat(http_rung)),
        "probe.services.us_per_poll": cell(repeat(services_rung)),
        "probe.engine.us_per_poll_cycle": cell(lean),
        "probe.obs.us_per_poll_cycle_delta": cell([v - lean_median for v in observed]),
        "probe.trace.us_per_poll_cycle_delta": cell([v - lean_median for v in recorded]),
        "probe.scheduler.us_per_reschedule": cell(repeat(scheduler_rung)),
    }
