"""The measurement testbed (Figure 1) and the §4 experiment harness.

:class:`~repro.testbed.testbed.Testbed` assembles the full topology —
home LAN (Hue lamp+hub, WeMo switch, Echo Dot, SmartThings hub, Nest,
local proxy, gateway router), the cloud side (Alexa cloud, Gmail, Drive,
Sheets, Weather, every official partner service, "Our Service", and the
IFTTT engine) — on one simulator with one shared trace.

:class:`~repro.testbed.controller.TestController` (Figure 1, ❾)
automates experiments: it activates triggers (flipping the WeMo, playing
voice commands to the Echo, delivering emails), records trigger time TT,
observes action time TA, and computes trigger-to-action (T2A) latency.

The experiment modules reproduce each §4 measurement:

* :mod:`repro.testbed.t2a` — Figure 4 (A1-A7 on official services).
* :mod:`repro.testbed.scenarios` — Figure 5 + Table 5 (E1/E2/E3).
* :mod:`repro.testbed.sequential` — Figure 6 (clustered batched actions).
* :mod:`repro.testbed.concurrent` — Figure 7 (same-trigger divergence).
* :mod:`repro.testbed.loops` — the explicit/implicit infinite loops.
* :mod:`repro.testbed.chaos` — fault-plan chaos scenarios (outage,
  partition, flappy soak, brownout) proving the engine's resilience
  guarantees, on one engine or a sharded fleet: one entry point
  (``run_chaos_scenario``), one result (``ChaosResult``).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(globals(), {
    "testbed": ("Testbed", "TestbedConfig"),
    "applets": ("AppletSpec", "APPLET_SUITE", "applet_spec"),
    "controller": ("TestController", "T2AMeasurement"),
    "scenarios": ("Scenario", "build_scenario", "run_scenario_t2a"),
    "chaos": (
        "CHAOS_SCENARIOS", "ChaosResult", "ChaosScenario", "ChaosWorld", "chaos_scenario",
        "run_chaos_scenario",
    ),
    "t2a": ("run_official_t2a", "T2AResults"),
    "sequential": ("run_sequential_experiment", "SequentialResult", "find_clusters"),
    "concurrent": ("run_concurrent_experiment", "ConcurrentResult"),
    "loops": (
        "run_explicit_loop_experiment", "run_implicit_loop_experiment", "LoopExperimentResult",
    ),
    "timeline": ("capture_timeline", "TimelineEntry"),
    "workload": ("FleetWorld", "FleetResult", "run_fleet_experiment"),
    "decomposition": ("StageBreakdown", "run_decomposition", "mean_shares"),
    "scenario_gen": ("DailyScenario", "ScenarioStats", "diurnal_rate"),
    "corpus_bridge": ("CorpusWorld", "build_corpus_world", "materialize_service"),
})
