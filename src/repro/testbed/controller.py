"""The test controller (Figure 1, ❾).

"The Test Controller automates the controlled experiments" (§2.1) and
"serves two roles.  First, it automates the experiments by activating the
trigger ... The second role is to measure the T2A latency by recording
TT and TA." (§4)

The controller drives the testbed's devices directly (it is physically in
the lab/home: it flips the WeMo, plays recorded voice commands at the
Echo, injects emails) and reads the shared trace to observe actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.engine.applet import Applet
from repro.testbed.applets import AppletSpec, OFFICIAL, applet_spec
from repro.testbed.testbed import TEST_USER, Testbed


@dataclass
class T2AMeasurement:
    """One trigger-to-action measurement."""

    applet_key: str
    run: int
    trigger_time: float
    action_time: Optional[float]

    @property
    def completed(self) -> bool:
        """Whether the action was observed before the experiment timeout."""
        return self.action_time is not None

    @property
    def latency(self) -> Optional[float]:
        """T2A latency in seconds (None if the action never executed)."""
        if self.action_time is None:
            return None
        return self.action_time - self.trigger_time


class TestController:
    """Automates activation, observation, and T2A measurement."""

    __test__ = False  # not a pytest class, despite the name

    def __init__(self, testbed: Testbed, timeout: float = 1800.0) -> None:
        self.testbed = testbed
        self.timeout = timeout
        self.measurements: List[T2AMeasurement] = []

    # -- applet installation ----------------------------------------------------------

    def install(self, key: str, variant: str = OFFICIAL, user: str = TEST_USER) -> Applet:
        """Install one of the Table 4 applets on the engine."""
        spec = applet_spec(key)
        trigger, action = spec.refs(variant)
        return self.testbed.engine.install_applet(
            user=user, name=spec.name, trigger=trigger, action=action, author=user
        )

    # -- single-run measurement ----------------------------------------------------------

    def run_once(self, spec: AppletSpec, run: int = 0, settle: float = 30.0) -> T2AMeasurement:
        """Reset, activate, and wait for the action (or timeout).

        ``settle`` seconds are simulated after the reset so reset-induced
        device events drain before TT is stamped.
        """
        testbed = self.testbed
        spec.reset(testbed)
        testbed.run_for(settle)
        trigger_time = testbed.sim.now
        spec.activate(testbed)
        action_time = self._wait_for_action(spec, trigger_time)
        measurement = T2AMeasurement(
            applet_key=spec.key, run=run, trigger_time=trigger_time, action_time=action_time
        )
        self.measurements.append(measurement)
        return measurement

    def _wait_for_action(self, spec: AppletSpec, since: float, step: float = 0.5) -> Optional[float]:
        testbed = self.testbed
        deadline = since + self.timeout
        while testbed.sim.now < deadline:
            observed = spec.observe(testbed, since)
            if observed is not None:
                return observed
            testbed.run_for(step)
        return spec.observe(testbed, since)

    # -- repeated measurement ---------------------------------------------------------------

    def measure_t2a(
        self,
        key: str,
        runs: int = 50,
        variant: str = OFFICIAL,
        spacing: float = 120.0,
        install: bool = True,
    ) -> List[float]:
        """Measure T2A latency across ``runs`` activations of one applet.

        Activations are spread out in simulated time (the paper ran each
        applet 50 times at different times over three days) with a
        randomized inter-run gap around ``spacing`` so that trigger times
        are uncorrelated with poll phases.  Returns completed latencies.
        """
        testbed = self.testbed
        spec = applet_spec(key)
        if install:
            self.install(key, variant=variant)
        latencies: List[float] = []
        for run in range(runs):
            measurement = self.run_once(spec, run=run)
            if measurement.latency is not None:
                latencies.append(measurement.latency)
            gap = testbed.rng.uniform(0.2 * spacing, 1.8 * spacing)
            testbed.run_for(gap)
        return latencies
