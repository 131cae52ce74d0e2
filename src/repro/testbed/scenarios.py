"""The E1/E2/E3 substitution experiments (§4, Figure 5).

To localize the latency bottleneck the paper progressively replaces
entities with the authors' own implementations:

* **E1** — replace the official *trigger* service with Our Service ❺
  (device events now arrive via the local proxy push path).
* **E2** — replace both trigger and action services with Our Service.
* **E3** — additionally replace the IFTTT engine with an implementation
  that follows the same protocol but polls every second.

Finding: E1 ≈ E2 ≫ E3, so "the performance bottleneck is the IFTTT
engine itself".

Beyond the paper's happy-path scenarios, the chaos scenarios of
:mod:`repro.testbed.chaos` drive the same machinery under fault plans:
outage-during-burst, partition-heal, a flappy-service soak and a
brownout.  One world class,
:class:`~repro.testbed.chaos.ChaosWorld`, runs them on one engine (its
one-cell shape) or on a sharded fleet, built and run by one entry point
(:func:`~repro.testbed.chaos.run_chaos_scenario`) into one result
(:class:`~repro.testbed.chaos.ChaosResult`).
``python -m repro chaos --scenario outage``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dataclass_replace
from typing import List, Tuple

from repro.engine.config import EngineConfig
from repro.engine.poller import FixedPollingPolicy
from repro.testbed.applets import E1 as VARIANT_E1
from repro.testbed.applets import E2 as VARIANT_E2
from repro.testbed.applets import OFFICIAL
from repro.testbed.controller import TestController
from repro.testbed.testbed import Testbed, TestbedConfig


@dataclass(frozen=True)
class Scenario:
    """One experiment scenario: a service variant + an engine config."""

    name: str
    applet_variant: str
    fast_engine: bool
    description: str


SCENARIOS = {
    "official": Scenario(
        name="official",
        applet_variant=OFFICIAL,
        fast_engine=False,
        description="Official partner services, production engine (Figure 4 baseline)",
    ),
    "E1": Scenario(
        name="E1",
        applet_variant=VARIANT_E1,
        fast_engine=False,
        description="Our Service as trigger service, production engine",
    ),
    "E2": Scenario(
        name="E2",
        applet_variant=VARIANT_E2,
        fast_engine=False,
        description="Our Service as trigger and action service, production engine",
    ),
    "E3": Scenario(
        name="E3",
        applet_variant=VARIANT_E2,
        fast_engine=True,
        description="Our Service both sides, our engine polling every 1 s",
    ),
}


def scenario(name: str) -> Scenario:
    """Look up a scenario by name ("official", "E1", "E2", "E3")."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; expected one of {sorted(SCENARIOS)}") from None


def build_scenario(
    name: str, seed: int = 7, timeout: float = 1800.0
) -> Tuple[Testbed, TestController, Scenario]:
    """Build a testbed + controller configured for one scenario."""
    chosen = scenario(name)
    engine_config = EngineConfig()
    if chosen.fast_engine:
        engine_config = dataclass_replace(engine_config, poll_policy=FixedPollingPolicy(1.0))
    testbed = Testbed(TestbedConfig(seed=seed, engine_config=engine_config)).build()
    controller = TestController(testbed, timeout=timeout)
    return testbed, controller, chosen


def run_scenario_t2a(
    name: str, applet_key: str = "A2", runs: int = 20, seed: int = 7, spacing: float = 120.0
) -> List[float]:
    """Measure T2A latencies for one applet under one scenario.

    The paper's Figure 5 uses applet A2 with 20 runs per scenario.
    """
    _, controller, chosen = build_scenario(name, seed=seed)
    return controller.measure_t2a(
        applet_key, runs=runs, variant=chosen.applet_variant, spacing=spacing
    )
